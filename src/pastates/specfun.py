"""Special-function kernel.

Self-contained double-precision evaluation of everything the state
constructors and completeness checks need: log-scale factorials, Legendre
functions of both kinds (argument >= 1), Gauss and generalized hypergeometric
series, Laguerre polynomials, Kummer's U at second parameter 1, and the
hyperbolic functions of higher order.

All functions are pure and deterministic and return values only.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

__all__ = [
    "log_factorial",
    "double_factorial",
    "log_double_factorial",
    "legendre_p",
    "legendre_p_deriv",
    "legendre_q",
    "gauss_2f1",
    "generalized_pfq",
    "laguerre",
    "kummer_u_int",
    "hyperbolic_order",
]

# Series stop: |term| below this fraction of the partial sum, three times in
# a row (a single small term can be a sign-alternation zero).
_TERM_EPS = 1e-17
_SMALL_RUN = 3
_EPS = 2.220446049250313e-16
_EULER_GAMMA = 0.57721566490153286


def log_factorial(n: int) -> float:
    """ln(n!) for n >= 0."""
    if n < 0:
        raise ValueError("log_factorial requires n >= 0")
    return math.lgamma(n + 1)


def double_factorial(n: int) -> int:
    """n!! as an exact integer; (-1)!! = 0!! = 1 by convention."""
    if n < -1:
        raise ValueError("double_factorial requires n >= -1")
    out = 1
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def log_double_factorial(n: int) -> float:
    """ln(n!!) without forming the product.

    Uses (2k)!! = 2^k k! and (2k-1)!! = (2k)! / (2^k k!).
    """
    if n < -1:
        raise ValueError("log_double_factorial requires n >= -1")
    if n <= 0:
        return 0.0
    if n % 2 == 0:
        k = n // 2
        return k * math.log(2.0) + log_factorial(k)
    k = (n + 1) // 2
    return log_factorial(2 * k) - k * math.log(2.0) - log_factorial(k)


def legendre_p(n: int, x):
    """Legendre polynomial P_n(x) by the three-term recurrence.

    Accuracy is stated for real x >= 1 (the recurrence is stable there);
    complex x is accepted because the recurrence is polynomial.
    """
    if n < 0:
        raise ValueError("legendre_p requires n >= 0")
    if n == 0:
        return 1.0 if not isinstance(x, complex) else 1.0 + 0.0j
    p_prev = 1.0
    p = x
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p


def legendre_p_deriv(order: int, degree: int, x):
    """order-th derivative of P_degree at x (order >= 0).

    Differentiates the three-term recurrence order times and runs the
    resulting table; polynomial arithmetic, so complex x is fine.
    """
    if order < 0:
        raise ValueError("legendre_p_deriv requires order >= 0")
    if order > degree:
        return 0.0
    if order == 0:
        return legendre_p(degree, x)
    # d[j] = j-th derivative of P_k at x, updated in k
    zero = 0.0 if not isinstance(x, complex) else 0.0 + 0.0j
    d_prev = [1.0] + [zero] * order          # P_0
    d = [x, 1.0] + [zero] * (order - 1)      # P_1
    if degree == 1:
        return d[order]
    for k in range(1, degree):
        d_next = [zero] * (order + 1)
        for j in range(order + 1):
            lower = d[j - 1] if j >= 1 else zero
            d_next[j] = ((2 * k + 1) * (x * d[j] + j * lower) - k * d_prev[j]) / (k + 1)
        d_prev, d = d, d_next
    return d[order]


def legendre_q(n: int, x: float, x_minus_1: float | None = None) -> float:
    """Legendre function of the second kind Q_n(x) for x > 1.

    Q_0 = (1/2) ln((x+1)/(x-1)) is evaluated as (1/2) log1p(2/(x-1)), which
    keeps its digits at both ends.  Near x = 1 (precisely, while
    2 n acosh(x) <= 11) Q_n is P_n(x) Q_0 minus the finite Legendre sum.
    That form cancels like exp(2 n acosh x), so for larger arguments
    Miller's backward recurrence takes over, run in ratio form:
    r_k = Q_k / Q_(k-1) = k / ((2k+1) x - (k+1) r_(k+1)) from r = 0 above
    the buffer that kills the admixed P component, so nothing overflows,
    and Q_n = Q_0 r_1 ... r_n.  ``x_minus_1`` lets the caller supply x - 1
    in exact form when x is close to 1, where forming the difference would
    lose digits.
    """
    if n < 0:
        raise ValueError("legendre_q requires n >= 0")
    xm1 = (x - 1.0) if x_minus_1 is None else x_minus_1
    if xm1 <= 0.0:
        raise ValueError("legendre_q requires x > 1")
    q0 = 0.5 * math.log1p(2.0 / xm1)
    if n == 0:
        return q0
    theta = math.log1p(xm1 + math.sqrt(xm1 * (x + 1.0)))  # acosh(x), stable
    if 2.0 * n * theta <= 11.0:
        q = legendre_p(n, x) * q0
        for k in range((n - 1) // 2 + 1):
            q -= (2 * n - 4 * k - 1) / ((n - k) * (2 * k + 1)) * legendre_p(n - 2 * k - 1, x)
        return q
    r = 0.0
    q = q0
    for k in range(n + int(21.0 / theta) + 10, 0, -1):
        r = k / ((2 * k + 1) * x - (k + 1) * r)
        if k <= n:
            q *= r
    return q


def _nonpositive_int(v: float) -> bool:
    return v <= 0 and float(v).is_integer()


def gauss_2f1(a: float, b: float, c: float, z: complex) -> complex:
    """Gauss hypergeometric series 2F1(a, b; c; z), |z| <= 0.95.

    Terminates exactly when a or b is a nonpositive integer; otherwise a
    straight power series with the three-small-terms stopping rule.
    """
    z = complex(z)
    if abs(z) > 0.95:
        raise ValueError("gauss_2f1: |z| > 0.95 is outside the series domain")
    terminates_at = None
    if _nonpositive_int(a):
        terminates_at = int(-a)
    if _nonpositive_int(b):
        tb = int(-b)
        terminates_at = tb if terminates_at is None else min(terminates_at, tb)
    if _nonpositive_int(c) and (terminates_at is None or terminates_at > int(-c)):
        raise ValueError("gauss_2f1: c is a nonpositive integer (pole)")
    term = 1.0 + 0.0j
    total = term
    small = 0
    k = 0
    max_terms = 2000
    while k < max_terms:
        if terminates_at is not None and k >= terminates_at:
            return total
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
        if abs(term) < _TERM_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                return total
        else:
            small = 0
    raise ValueError("gauss_2f1: series did not converge within 2000 terms")


def generalized_pfq(a_list: Sequence[float], b_list: Sequence[float], z: float) -> float:
    """Generalized hypergeometric pFq(a; b; z) by direct summation.

    Compensated (Kahan) summation; the term is updated recursively.  Lower
    parameters must not be nonpositive integers.  A partial sum beyond the
    float range raises ``OverflowError``.
    """
    for bv in b_list:
        if _nonpositive_int(bv):
            raise ValueError("generalized_pfq: nonpositive-integer lower parameter")
    if len(a_list) > len(b_list) + 1:
        raise ValueError("generalized_pfq: p > q + 1 series diverges")
    terminating = any(_nonpositive_int(av) for av in a_list)
    if len(a_list) == len(b_list) + 1 and abs(z) > 1.0 and not terminating:
        raise ValueError(f"generalized_pfq: p = q + 1 series diverges at |z| > 1, got z={z}")
    term = 1.0
    total = 1.0
    comp = 0.0
    small = 0
    k = 0
    max_terms = 10000
    while k < max_terms:
        num = 1.0
        for av in a_list:
            num *= av + k
        if num == 0.0:
            return total   # terminating case
        den = k + 1.0
        for bv in b_list:
            den *= bv + k
        term = term * num / den * z
        # Kahan update
        yv = term - comp
        t = total + yv
        if not math.isfinite(t):
            raise OverflowError(f"generalized_pfq: partial sum overflows at z={z}")
        comp = (t - total) - yv
        total = t
        k += 1
        if abs(term) < _TERM_EPS * max(abs(total), 1e-300):
            small += 1
            if small >= _SMALL_RUN:
                return total
        else:
            small = 0
    raise ValueError("generalized_pfq: series did not converge within 10000 terms")


def laguerre(m: int, x):
    """Laguerre polynomial L_m(x) by the three-term recurrence.

    Complex x is accepted (the circle-state norms need L_m at rotated
    arguments); the recurrence is identical.
    """
    if m < 0:
        raise ValueError("laguerre requires m >= 0")
    if m == 0:
        return 1.0 if not isinstance(x, complex) else 1.0 + 0.0j
    l_prev = 1.0
    l = 1.0 - x
    for k in range(1, m):
        l, l_prev = ((2 * k + 1 - x) * l - k * l_prev) / (k + 1), l
    return l


def _exp1_series(x: float) -> float:
    """E1(x) = -gamma - ln x - sum_{k>=1} (-x)^k / (k k!), for 0 < x <= 0.5.

    The sum stops on its own terms against ``mass``, the sum of the
    magnitudes of the summands, which bounds the rounding error of the
    cancelling sum.
    """
    log_x = math.log(x)
    total = 0.0
    mass = _EULER_GAMMA + abs(log_x)
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= -x / k
        total += term / k
        mass += abs(term) / k
        if abs(term) < _TERM_EPS * mass:
            return -_EULER_GAMMA - log_x - total


def _kummer_u_forward(m: int, x: float) -> float:
    """U(m,1,x) by forward recurrence from U(0) = 1, U(1) = e^x E1(x).

    U is the minimal solution, so errors grow along a dominant solution;
    the caller keeps m x small enough that the growth stays harmless.
    """
    u_prev, u = 1.0, math.exp(x) * _exp1_series(x)
    for a in range(1, m):
        c = 2 * a - 1 + x
        a2 = a * a
        u_prev, u = u, (c * u - u_prev) / a2
    return u


def _kummer_u_miller(m: int, x: float) -> float:
    """U(m,1,x) by Miller's backward recurrence, normalized by U(0) = 1.

    Run in ratio form, r_a = U(a)/U(a-1) = 1 / (2a-1+x - a^2 r_(a+1)) from
    r_(n+1) = 0, so nothing overflows, and U(m) = r_1 ... r_m.  Setting
    r_(n+1) to 0 perturbs r_a by a relative amount that shrinks by the
    factor a^2 r_a r_(a+1) per step down; that product, carried to a = m,
    is the truncation estimate.  The start n comes from the asymptotic
    ratio exp(-4 sqrt(a x)) of the minimal to a dominant solution and is
    raised until the estimate is below half the machine epsilon.
    """
    n = int((math.sqrt(m) + 9.0 / math.sqrt(x)) ** 2) + 2
    while True:
        r_next = 0.0
        trunc = 1.0
        for a in range(n, m - 1, -1):
            r = 1.0 / (2 * a - 1 + x - a * a * r_next)
            trunc *= a * a * r * (r_next or r)
            r_next = r
        u = r_next
        for a in range(m - 1, 0, -1):
            r_next = 1.0 / (2 * a - 1 + x - a * a * r_next)
            u *= r_next
        if trunc <= 0.5 * _EPS:
            return u
        n += n // 2 + 4


def kummer_u_int(m: int, x: float) -> float:
    """Kummer U(m, 1, x) for integer m >= 0 and finite x > 0.

    U(0,1,x) = 1 exactly, and DLMF 13.3.7 at b = 1,
    U(a+1) = ((2a-1+x) U(a) - U(a-1)) / a^2, gives the rest.  U is the
    minimal solution, so the recurrence runs forward from e^x E1(x) only
    while x <= 0.5 and m x <= 3 (error growth about exp(4 sqrt(m x)) times
    the rounding), and backward by Miller's algorithm otherwise.
    """
    if not (m >= 0 and float(m).is_integer()):
        raise ValueError(f"kummer_u_int requires integer m >= 0, got m={m}")
    m = int(m)
    if not 0.0 < x < math.inf:
        raise ValueError(f"kummer_u_int requires finite x > 0, got x={x}")
    if m == 0:
        return 1.0
    if x <= 0.5 and m * x <= 3.0:
        return _kummer_u_forward(m, x)
    return _kummer_u_miller(m, x)


def hyperbolic_order(i: int, n: int, x: float) -> float:
    """Hyperbolic function of order n: h_i(x, n) = sum_k x^(nk+i-1)/(nk+i-1)!.

    For x >= 0 the series has positive terms and is summed directly; a
    partial sum beyond the float range raises ``OverflowError``.  For
    x < 0 direct summation cancels catastrophically once |x| is large, so
    the exponential-sum form h_i(x,n) = (1/n) sum_nu eps^{-(i-1)nu} e^{eps^nu x}
    (eps = e^{2 pi i / n}) is used instead; there the answer is carried by
    the largest exponentials, not by cancellation.
    """
    if not 1 <= i <= n:
        raise ValueError("hyperbolic_order requires 1 <= i <= n")
    if x < 0.0:
        eps = cmath.exp(2j * math.pi / n)
        total = 0.0 + 0.0j
        for nu in range(n):
            total += eps ** (-(i - 1) * nu) * cmath.exp(x * eps**nu)
        return total.real / n
    # direct series; term_0 = x^(i-1)/(i-1)!
    if x == 0.0:
        return 1.0 if i == 1 else 0.0
    term = math.exp((i - 1) * math.log(x) - log_factorial(i - 1)) if i > 1 else 1.0
    total = term
    comp = 0.0
    small = 0
    k = 0
    while k < 10000:
        num = x**n
        den = 1.0
        base = n * k + i - 1
        for j in range(1, n + 1):
            den *= base + j
        term = term * num / den
        yv = term - comp
        t = total + yv
        if not math.isfinite(t):
            raise OverflowError(f"hyperbolic_order: partial sum overflows at x={x}")
        comp = (t - total) - yv
        total = t
        k += 1
        if abs(term) < _TERM_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                return total
        else:
            small = 0
    raise ValueError("hyperbolic_order: series did not converge")
