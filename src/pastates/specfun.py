"""Special-function kernel.

Self-contained double-precision evaluation of everything the state
constructors and completeness checks need: log-scale factorials, Legendre
functions of both kinds (argument >= 1), Gauss and generalized hypergeometric
series, Laguerre polynomials, Kummer's U at second parameter 1, and the
hyperbolic functions of higher order.  The second-kind Legendre functions
and Kummer's U are array kernels that give every index at a node from one
recurrence; their scalar entry points are views of them.

All functions are pure and deterministic and return values only.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

__all__ = [
    "log_factorial",
    "double_factorial",
    "log_double_factorial",
    "legendre_p",
    "legendre_p_deriv",
    "legendre_q",
    "legendre_q_table",
    "gauss_2f1",
    "generalized_pfq",
    "laguerre",
    "kummer_u_int",
    "kummer_u_table",
    "hyperbolic_order",
]

# Series stop: |term| below this fraction of the partial sum, three times in
# a row (a single small term can be a sign-alternation zero).
_TERM_EPS = 1e-17
_SMALL_RUN = 3
_MAX_2F1_TERMS = 2000
# a Gauss series expected to stop within this many terms is summed term by
# term: below it, the fixed cost of the array passes exceeds the loop's
_LOOP_TERMS = 56
_EPS = 2.220446049250313e-16
_EULER_GAMMA = 0.57721566490153286
# terms of the E1 power series, enough for every x <= 0.5
_EXP1_TERMS = 16


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
    """Legendre polynomial P_n(x): ``legendre_p_deriv`` at order 0, whose
    Gegenbauer recurrence is then the Legendre three-term recurrence.

    Accuracy is stated for real x >= 1 (the recurrence is stable there);
    complex x is accepted because the recurrence is polynomial.
    """
    if n < 0:
        raise ValueError("legendre_p requires n >= 0")
    return legendre_p_deriv(0, n, x)


def legendre_p_deriv(order: int, degree: int, x):
    """order-th derivative of P_degree at x (order >= 0), for scalar or
    array x.

    d^q P_n = (2q-1)!! C^(q+1/2)_(n-q) (DLMF 18.9.19 with 18.7.9), and the
    Gegenbauer polynomial comes from its three-term recurrence
    (k+1) C_(k+1) = (2k+2q+1) x C_k - (k+2q) C_(k-1) in n - q steps;
    polynomial arithmetic, so complex x is fine.
    """
    if order < 0:
        raise ValueError("legendre_p_deriv requires order >= 0")
    if order > degree:
        return 0.0
    c_prev, c = 0.0, 1.0
    for k in range(degree - order):
        c_prev, c = c, ((2 * (k + order) + 1) * x * c - (k + 2 * order) * c_prev) / (k + 1)
    return double_factorial(2 * order - 1) * c


def _legendre_q_row(n_max: int, x: float, theta: float, q0: float) -> list[float]:
    """Q_1..Q_n_max at one x = cosh(theta) by Miller's backward recurrence in
    ratio form, r_k = Q_k / Q_(k-1) = k / ((2k+1) x - (k+1) r_(k+1)), from
    r = 0 at a start above n_max by a buffer that damps the admixed P
    component below exp(-42), so nothing overflows; Q_k = Q_0 r_1 ... r_k."""
    r = 0.0
    for k in range(n_max + int(21.0 / theta) + 10, n_max, -1):
        r = k / ((2 * k + 1) * x - (k + 1) * r)
    ratios = []
    for k in range(n_max, 0, -1):
        r = k / ((2 * k + 1) * x - (k + 1) * r)
        ratios.append(r)
    return list(accumulate(reversed(ratios), mul, initial=q0))[1:]


def legendre_q_table(n_max: int, x, x_minus_1=None) -> np.ndarray:
    """Legendre functions of the second kind Q_0..Q_n_max on an array of x > 1.

    Row i holds Q_n(x_i) for n = 0..n_max.  Q_0 = (1/2) ln((x+1)/(x-1)) is
    evaluated as (1/2) log1p(2/(x-1)), which keeps its digits at both ends.
    Near x = 1 (precisely, while 2 n_max acosh(x) <= 3) the rest comes from
    the forward recurrence (k+1) Q_(k+1) = (2k+1) x Q_k - k Q_(k-1) from
    Q_1 = x Q_0 - 1, on all such nodes at once.  Q is the minimal solution,
    so that recurrence loses digits like exp(2 n acosh x); every other node
    gets one Miller sweep for all its degrees.  ``x_minus_1`` lets the
    caller supply x - 1 in exact form when x is close to 1, where forming
    the difference would lose digits.
    """
    if not (n_max >= 0 and float(n_max).is_integer()):
        raise ValueError(f"legendre_q_table requires integer n >= 0, got n={n_max}")
    n_max = int(n_max)
    x = np.asarray(x, dtype=float)
    xm1 = x - 1.0 if x_minus_1 is None else np.asarray(x_minus_1, dtype=float)
    if x.ndim != 1 or xm1.shape != x.shape:
        raise ValueError("legendre_q_table requires x and x - 1 as 1-D arrays of one length")
    valid = xm1 > 0.0
    if not valid.all():
        raise ValueError(f"legendre_q_table requires x > 1, got x={x[~valid][0]}")
    out = np.empty((len(x), n_max + 1))
    out[:, 0] = 0.5 * np.log1p(2.0 / xm1)
    if n_max == 0:
        return out
    theta = np.log1p(xm1 + np.sqrt(xm1 * (x + 1.0)))  # acosh(x), stable
    near = 2.0 * n_max * theta <= 3.0
    if near.any():
        xf, q_prev = x[near], out[near, 0]
        q = xf * q_prev - 1.0
        columns = [q_prev, q]
        for k in range(1, n_max):
            q_prev, q = q, ((2 * k + 1) * xf * q - k * q_prev) / (k + 1)
            columns.append(q)
        out[near] = np.column_stack(columns)
    if not near.all():
        far = ~near
        out[far, 1:] = [
            _legendre_q_row(n_max, *node)
            for node in zip(x[far].tolist(), theta[far].tolist(), out[far, 0].tolist())
        ]
    return out


def legendre_q(n: int, x: float, x_minus_1: float | None = None) -> float:
    """Legendre function of the second kind Q_n(x) for x > 1: entry n of
    ``legendre_q_table(n, [x], [x_minus_1])``."""
    xm1 = None if x_minus_1 is None else [x_minus_1]
    return float(legendre_q_table(n, [x], xm1)[0, n])


def _nonpositive_int(v: float) -> bool:
    return v <= 0 and float(v).is_integer()


def gauss_2f1(a: float, b: float, c: float, z: complex) -> complex:
    """Gauss hypergeometric series 2F1(a, b; c; z), |z| <= 0.95.

    Terminates exactly when a or b is a nonpositive integer; otherwise a
    straight power series with the three-small-terms stopping rule.  A
    series expected to run past _LOOP_TERMS terms is summed as one array
    (``_gauss_2f1_array``); a terminating or shorter one term by term.
    """
    z = complex(z)
    if not abs(z) <= 0.95:
        raise ValueError("gauss_2f1: |z| > 0.95 is outside the series domain")
    terminates_at = None
    if _nonpositive_int(a):
        terminates_at = int(-a)
    if _nonpositive_int(b):
        tb = int(-b)
        terminates_at = tb if terminates_at is None else min(terminates_at, tb)
    if _nonpositive_int(c) and (terminates_at is None or terminates_at > int(-c)):
        raise ValueError("gauss_2f1: c is a nonpositive integer (pole)")
    if terminates_at is None and z != 0:
        size = int(_gauss_2f1_size(max(a + b - c - 1.0, 0.0), abs(z))) + _SMALL_RUN
        if size > _LOOP_TERMS:
            return _gauss_2f1_array(a, b, c, z, min(size, _MAX_2F1_TERMS))
    term = 1.0 + 0.0j
    total = term
    small = 0
    k = 0
    while k < _MAX_2F1_TERMS:
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
    raise ValueError(f"gauss_2f1: series did not converge within {_MAX_2F1_TERMS} terms")


def _gauss_2f1_size(excess, abs_z: float):
    """First guess, less _SMALL_RUN, at the terms of a Gauss series falling
    like |z|^k k^excess to _TERM_EPS, excess = max(a+b-c-1, 0): no overlap
    form's series (excess <= 13.5, |z| <= 0.9) runs longer."""
    log_z = math.log(abs_z)
    geometric = math.log(_TERM_EPS) / log_z
    return 1.1 * (geometric + excess * math.log(max(geometric, 2.0)) / -log_z)


def _gauss_2f1_array(a: float, b: float, c: float, z: complex, size: int) -> complex:
    """The non-terminating series of ``gauss_2f1`` from its first ``size``
    terms as one array: the terms as the cumulative product of the term
    ratios, the partial sums as their cumulative sum, and the first partial
    sum after which _SMALL_RUN terms in a row fall below _TERM_EPS of it.
    A series that has not stopped is run again twice as long, up to
    _MAX_2F1_TERMS terms."""
    while True:
        k = np.arange(size, dtype=float)
        ratios = np.empty(size + 1, dtype=complex)
        ratios[0] = 1.0
        np.multiply((a + k) * (b + k) / ((c + k) * (k + 1.0)), z, out=ratios[1:])
        terms = np.cumprod(ratios)
        partial = np.cumsum(terms)
        small = np.abs(terms[1:]) < _TERM_EPS * np.abs(partial[1:])
        # run[i]: terms i+1, i+2 and i+3 are all small (_SMALL_RUN = 3)
        run = small[2:] & small[1:-1] & small[:-2]
        stop = int(run.argmax())
        if run[stop]:
            return complex(partial[stop + 3])
        if size >= _MAX_2F1_TERMS:
            raise ValueError(f"gauss_2f1: series did not converge within {_MAX_2F1_TERMS} terms")
        size = min(2 * size, _MAX_2F1_TERMS)


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


def _exp1(x: np.ndarray) -> np.ndarray:
    """E1(x) = -gamma - ln x - sum_{k>=1} (-x)^k / (k k!), for 0 < x <= 0.5.

    Every node sums the same _EXP1_TERMS terms: at x = 0.5 the first one
    left out, k = 17, is 2e-21 of E1.
    """
    k = np.arange(1.0, _EXP1_TERMS + 1.0)
    terms = np.cumprod(-x[:, None] / k, axis=1) / k
    return -_EULER_GAMMA - np.log(x) - terms.sum(axis=1)


def _kummer_u_row(m_max: int, x: float, coefs: list[tuple[float, float]]) -> list[float]:
    """U(1..m_max, 1, x) at one x by Miller's backward recurrence in ratio
    form, r_a = U(a)/U(a-1) = 1 / (2a-1+x - a^2 r_(a+1)) from r_(n+1) = 0,
    so nothing overflows, and U(m) = r_1 ... r_m, with a^2 and 2a-1 read as
    exact floats from coefs[a], which the sweep extends in place to its start.

    Setting r_(n+1) to 0 perturbs r_a by a relative amount that shrinks by
    the factor a^2 r_a r_(a+1) per step down (r_n stands in for r_(n+1) at
    the first step); that product, carried to a = m_max, is the truncation
    estimate, and it bounds the perturbation of every lower ratio too.  The
    start n comes from the asymptotic ratio exp(-4 sqrt(a x)) of the minimal
    to a dominant solution and is raised until the estimate is below half
    the machine epsilon.
    """
    n = int((math.sqrt(m_max) + 9.0 / math.sqrt(x)) ** 2) + 2
    while True:
        coefs.extend((float(a * a), 2.0 * a - 1.0) for a in range(len(coefs), n + 1))
        r = 1.0 / (coefs[n][1] + x)
        trunc = coefs[n][0] * r * r
        for square, odd in coefs[n - 1 : m_max - 1 : -1]:
            s = square * r
            r = 1.0 / (odd + x - s)
            trunc *= s * r
        if trunc <= 0.5 * _EPS:
            break
        n += n // 2 + 4
    ratios = [r]
    for square, odd in coefs[m_max - 1 : 0 : -1]:
        r = 1.0 / (odd + x - square * r)
        ratios.append(r)
    return list(accumulate(reversed(ratios), mul))


def kummer_u_table(m_max: int, x) -> np.ndarray:
    """Kummer U(0..m_max, 1, x) on an array of finite x > 0.

    Row i holds U(m, 1, x_i) for m = 0..m_max.  U(0,1,x) = 1 exactly, and
    DLMF 13.3.7 at b = 1, U(a+1) = ((2a-1+x) U(a) - U(a-1)) / a^2, gives the
    rest.  U is the minimal solution, so the recurrence runs forward from
    e^x E1(x), on all such nodes at once, only while x <= 0.5 and
    m_max x <= 3 (error growth about exp(4 sqrt(m x)) times the rounding);
    every other node gets one Miller sweep for all its orders.
    """
    if not (m_max >= 0 and float(m_max).is_integer()):
        raise ValueError(f"kummer_u_table requires integer m >= 0, got m={m_max}")
    m_max = int(m_max)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"kummer_u_table requires a 1-D array of x, got shape {x.shape}")
    valid = (x > 0.0) & (x < math.inf)
    if not valid.all():
        raise ValueError(f"kummer_u_table requires finite x > 0, got x={x[~valid][0]}")
    out = np.ones((len(x), m_max + 1))
    if m_max == 0:
        return out
    forward = (x <= 0.5) & (m_max * x <= 3.0)
    if forward.any():
        xf = x[forward]
        u_prev, u = out[forward, 0], np.exp(xf) * _exp1(xf)
        columns = [u_prev, u]
        for a in range(1, m_max):
            u_prev, u = u, ((2 * a - 1 + xf) * u - u_prev) / (a * a)
            columns.append(u)
        out[forward] = np.column_stack(columns)
    if not forward.all():
        coefs: list[tuple[float, float]] = []
        out[~forward, 1:] = [_kummer_u_row(m_max, xi, coefs) for xi in x[~forward].tolist()]
    return out


def kummer_u_int(m: int, x: float) -> float:
    """Kummer U(m, 1, x) for integer m >= 0 and finite x > 0: entry m of
    ``kummer_u_table(m, [x])``."""
    return float(kummer_u_table(m, [x])[0, int(m)])


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
