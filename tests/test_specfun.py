import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastates import specfun as sf
from pastates.quadrature import exp_sinh, tanh_sinh

EULER_GAMMA = 0.5772156649015328606


def exp1_series(x: float) -> float:
    """Independent E1 oracle: -gamma - ln x + sum (-1)^(k+1) x^k / (k k!)."""
    acc = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        acc -= term / k
    return acc


# ------------------------------------------------------------ factorials

def test_log_factorial_trivial():
    assert sf.log_factorial(0) == 0.0
    assert sf.log_factorial(1) == 0.0


def test_log_factorial_exact_product():
    assert sf.log_factorial(10) == pytest.approx(math.log(3628800), rel=1e-14)


@given(st.integers(min_value=0, max_value=170))
def test_log_factorial_matches_exact_integers(n):
    assert sf.log_factorial(n) == pytest.approx(
        math.log(math.factorial(n)) if n > 1 else 0.0, rel=1e-14, abs=1e-14
    )


@pytest.mark.parametrize("n,expected", [(-1, 1), (0, 1), (1, 1), (5, 15), (8, 384)])
def test_double_factorial_small(n, expected):
    assert sf.double_factorial(n) == expected


def test_double_factorial_exact_vs_product():
    for n in range(-1, 31):
        direct = 1
        k = n
        while k > 1:
            direct *= k
            k -= 2
        assert sf.double_factorial(n) == direct


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 99, 300])
def test_log_double_factorial(n):
    assert sf.log_double_factorial(n) == pytest.approx(
        math.log(sf.double_factorial(n)) if n > 1 else 0.0, rel=1e-13, abs=1e-13
    )


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        sf.log_factorial(-1)
    with pytest.raises(ValueError):
        sf.double_factorial(-2)


# ------------------------------------------------------------ Legendre P

def test_legendre_p_trivial():
    for x in (1.0, 1.7, 4.2):
        assert sf.legendre_p(0, x) == 1.0
    assert sf.legendre_p(1, 2.0) == 2.0


def test_legendre_p_quadratic():
    # (3 x^2 - 1)/2 at x = 2
    assert sf.legendre_p(2, 2.0) == pytest.approx(5.5, rel=1e-15)


@pytest.mark.parametrize("x", [1.01, 2.0, 5.0])
def test_legendre_recurrence_consistency(x):
    for n in range(1, 101):
        lhs = (n + 1) * sf.legendre_p(n + 1, x)
        rhs = (2 * n + 1) * x * sf.legendre_p(n, x) - n * sf.legendre_p(n - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_legendre_p_deriv_matches_finite_difference():
    h = 1e-6
    for n in (3, 6, 11):
        for x in (1.3, 2.5):
            fd = (sf.legendre_p(n, x + h) - sf.legendre_p(n, x - h)) / (2 * h)
            assert sf.legendre_p_deriv(1, n, x) == pytest.approx(fd, rel=1e-8)


def legendre_p_deriv_differentiated(order, degree, x):
    """Reference d^order P_degree(x): the three-term Legendre recurrence
    differentiated order times, one table row per degree."""
    if order > degree:
        return 0.0
    if order == 0:
        return sf.legendre_p(degree, x)
    d_prev = [1.0] + [0.0] * order
    d = [x, 1.0] + [0.0] * (order - 1)
    for k in range(1, degree):
        d_next = [0.0] * (order + 1)
        for j in range(order + 1):
            lower = d[j - 1] if j >= 1 else 0.0
            d_next[j] = ((2 * k + 1) * (x * d[j] + j * lower) - k * d_prev[j]) / (k + 1)
        d_prev, d = d, d_next
    return d[order]


@settings(max_examples=150, deadline=None)
@given(
    degree=st.integers(0, 20),
    data=st.data(),
    modulus=st.floats(0.0, 0.9),
    angle=st.floats(-math.pi, math.pi),
)
def test_legendre_p_deriv_matches_the_differentiated_recurrence(degree, data, modulus, angle):
    # x = (1 - w)^(-1/2) at |w| <= 0.9, where the overlaps' form 3 evaluates it,
    # and the real x = (1 - y)^(-1/2) >= 1 of the discrete resolution
    order = data.draw(st.integers(0, degree + 1))
    w = modulus * complex(math.cos(angle), math.sin(angle))
    xs = [(1.0 - w) ** -0.5, (1.0 - modulus) ** -0.5]
    for x in xs:
        want = legendre_p_deriv_differentiated(order, degree, x)
        assert abs(sf.legendre_p_deriv(order, degree, x) - want) <= 1e-13 * abs(want)
    got = sf.legendre_p_deriv(order, degree, np.array(xs))
    want = legendre_p_deriv_differentiated(order, degree, np.array(xs))
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


# ------------------------------------------------------------ Legendre Q

def test_legendre_q_closed_values():
    assert sf.legendre_q(0, 2.0) == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
    assert sf.legendre_q(1, 2.0) == pytest.approx(math.log(3.0) - 1.0, rel=1e-13)


def test_legendre_q_rejects_at_or_below_one():
    with pytest.raises(ValueError):
        sf.legendre_q(2, 1.0)
    with pytest.raises(ValueError):
        sf.legendre_q(2, 0.5)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("x", [1.000001, 1.05, 2.0, 9.0])
def test_legendre_q_neumann_integral(n, x):
    # Q_n(x) = 1/2 int_{-1}^{1} P_n(t) / (x - t) dt
    xm1 = x - 1.0

    def f(t, da, db):
        return 0.5 * sf.legendre_p(n, t) / (xm1 + db)  # x - t, stable near t = 1

    res = tanh_sinh(f, -1.0, 1.0, tol=1e-13)
    assert res.converged
    q = sf.legendre_q(n, x, x_minus_1=xm1)
    assert q == pytest.approx(res.value, rel=2e-11)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 20, 40])
def test_legendre_q_matches_mpmath(n):
    # x - 1 from 1e-12 to 1e12 crosses both sides of the switch from the
    # forward to the backward recurrence, at 2 n acosh(x) = 3, for every n
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for xm1 in np.logspace(-12, 12, 49):
            xm1 = float(xm1)
            ref = mpmath.legenq(n, 0, 1 + mpmath.mpf(xm1), type=3).real
            if ref < 1e-300:
                continue  # below the normal float range
            got = sf.legendre_q(n, 1.0 + xm1, x_minus_1=xm1)
            assert abs(got - ref) <= 1e-12 * ref, (n, xm1, got, float(ref))


def test_legendre_q_table_matches_mpmath():
    # Q_40 and Q_39 from mpmath, every lower degree by the backward
    # recurrence in 40-digit arithmetic, which is stable for the minimal
    # solution; x - 1 spans the grid on which the switch point was placed
    mpmath = pytest.importorskip("mpmath")
    xm1 = np.logspace(-12, 12, 241)
    got = sf.legendre_q_table(40, 1.0 + xm1, xm1)
    assert got.shape == (241, 41)
    worst = 0.0
    with mpmath.workdps(40):
        for i, d in enumerate(xm1.tolist()):
            x = 1 + mpmath.mpf(d)
            ref = [None] * 41
            ref[40] = mpmath.legenq(40, 0, x, type=3).real
            ref[39] = mpmath.legenq(39, 0, x, type=3).real
            for k in range(39, 0, -1):
                ref[k - 1] = ((2 * k + 1) * x * ref[k] - (k + 1) * ref[k + 1]) / k
            assert abs(ref[0] - mpmath.acoth(x)) <= mpmath.mpf(10) ** -30 * ref[0]
            for n in range(41):
                if ref[n] >= 1e-300:  # inside the normal float range
                    worst = max(worst, float(abs(got[i, n] - ref[n]) / ref[n]))
    assert worst <= 1e-12


def test_kummer_u_table_matches_mpmath():
    # U(8) and U(7) from mpmath, every lower order by the backward recurrence
    # U(a-1) = (2a-1+x) U(a) - a^2 U(a+1) in 40-digit arithmetic, which is
    # stable for the minimal solution; x brackets 0.5 and 8 x = 3, where
    # the forward recurrence hands over to Miller's algorithm, and at
    # x = 350 the first Miller start falls short of its truncation estimate
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate(
        [np.logspace(-300, 3, 25), [0.37, 0.375, 0.38, 0.49, 0.5, 0.51, 2.0, 350.0]]
    )
    got = sf.kummer_u_table(8, xs)
    assert got.shape == (len(xs), 9)
    with mpmath.workdps(40):
        for i, x in enumerate(map(mpmath.mpf, xs.tolist())):
            ref = [None] * 9
            ref[8] = mpmath.hyperu(8, 1, x)
            ref[7] = mpmath.hyperu(7, 1, x)
            for a in range(7, 0, -1):
                ref[a - 1] = (2 * a - 1 + x) * ref[a] - a * a * ref[a + 1]
            assert abs(ref[0] - 1) <= 1e-25
            for m in range(9):
                assert abs(got[i, m] - ref[m]) <= 1e-13 * ref[m], (m, x, got[i, m], float(ref[m]))


def test_scalar_kernels_are_rows_of_the_tables():
    # a node's row does not depend on the other nodes of its array
    xs = np.concatenate([np.logspace(-300, 3, 40), [0.375, 0.5, 0.75]])
    for m in range(9):
        table = sf.kummer_u_table(m, xs)
        assert [sf.kummer_u_int(m, x) for x in xs.tolist()] == table[:, m].tolist()
    xm1 = np.logspace(-12, 12, 61)
    for n in (0, 1, 4, 40):
        table = sf.legendre_q_table(n, 1.0 + xm1, xm1)
        assert [
            sf.legendre_q(n, 1.0 + d, x_minus_1=d) for d in xm1.tolist()
        ] == table[:, n].tolist()


def test_tables_reject_bad_arguments():
    with pytest.raises(ValueError, match="integer m >= 0, got m=-1"):
        sf.kummer_u_table(-1, [1.0])
    with pytest.raises(ValueError, match=r"finite x > 0, got x=0\.0"):
        sf.kummer_u_table(2, [1.0, 0.0])
    with pytest.raises(ValueError, match="integer n >= 0, got n=2.5"):
        sf.legendre_q_table(2.5, [2.0])
    with pytest.raises(ValueError, match=r"x > 1, got x=1\.0"):
        sf.legendre_q_table(2, [2.0, 1.0])
    with pytest.raises(ValueError, match=r"1-D array of x, got shape \(\)"):
        sf.kummer_u_table(2, 1.0)
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        sf.legendre_q_table(2, [2.0, 3.0], [1.0])


def test_legendre_q_finite_far_from_one():
    # a value near the bottom of the float range, reached through the recurrence
    assert sf.legendre_q(3, 3e54) == pytest.approx(7.0546737213403891e-220, rel=1e-13)


@pytest.mark.parametrize("x", [1.001, 1.5, 4.0, 10.0])
def test_legendre_pq_wronskian(x):
    # P_n Q_{n-1} - P_{n-1} Q_n = 1/n
    for n in range(1, 51):
        w = sf.legendre_p(n, x) * sf.legendre_q(n - 1, x) - sf.legendre_p(
            n - 1, x
        ) * sf.legendre_q(n, x)
        assert w == pytest.approx(1.0 / n, rel=1e-9)


# ------------------------------------------------------------ Gauss 2F1

def test_gauss_2f1_at_zero():
    assert sf.gauss_2f1(0.7, -1.3, 2.2, 0.0) == 1.0 + 0.0j


def test_gauss_2f1_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    z = 0.5
    assert sf.gauss_2f1(1, 1, 2, z).real == pytest.approx(-math.log1p(-z) / z, rel=1e-12)


def test_gauss_2f1_terminating_by_hand():
    # two terms: 1 + (-1)(-0.5)/1 * 0.3
    assert sf.gauss_2f1(-1, -0.5, 1, 0.3).real == pytest.approx(1.15, abs=1e-15)


def test_gauss_2f1_binomial_identity_complex():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    z = 0.3 + 0.4j
    got = sf.gauss_2f1(0.5, 3.0, 3.0, z)
    assert got == pytest.approx((1 - z) ** -0.5, rel=1e-12)


@pytest.mark.parametrize("a", [-1, -2, -3])
@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4)])
@pytest.mark.parametrize("c", [Fraction(3, 2), Fraction(7, 3)])
@pytest.mark.parametrize("z", [Fraction(1, 4), Fraction(-3, 5)])
def test_gauss_2f1_terminating_exact_rational(a, b, c, z):
    total = Fraction(0)
    term = Fraction(1)
    for k in range(0, -a + 1):
        total += term
        term *= Fraction(a + k) * (b + k) / ((c + k) * (k + 1)) * z
    got = sf.gauss_2f1(a, float(b), float(c), float(z))
    assert got.real == pytest.approx(float(total), rel=1e-13)
    assert got.imag == 0.0


@settings(max_examples=150, deadline=None)
@given(
    big_n=st.integers(0, 14),
    data=st.data(),
    modulus=st.floats(0.0, 0.9),
    angle=st.floats(-math.pi, math.pi),
)
def test_gauss_2f1_overlap_series_matches_mpmath(big_n, data, modulus, angle):
    # form 1 of the overlaps: 2F1((N+1)/2, (N+2)/2; q+1; w), q <= N/2.  The
    # direct series loses what its terms cancel, so its error is bounded
    # against the sum of the term moduli, 2F1(a, b; c; |w|), which is the
    # value itself at real positive w
    mpmath = pytest.importorskip("mpmath")
    q = data.draw(st.integers(0, big_n // 2))
    a, b, c = 0.5 * (big_n + 1), 0.5 * (big_n + 2), q + 1.0
    z = modulus * complex(math.cos(angle), math.sin(angle))
    with mpmath.workdps(40):
        want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(z)))
        scale = float(mpmath.hyp2f1(a, b, c, abs(z)))
    for w, ref, bound in ((z, want, scale), (abs(z), scale, scale)):
        assert abs(sf.gauss_2f1(a, b, c, w) - ref) <= 1e-13 * bound


@pytest.mark.parametrize("a, b, c, z", [(10.0, 10.0, 20.0, 0.6j), (3.0, 1.5, 1.0, 0.2)])
def test_gauss_2f1_matches_mpmath_past_its_first_guess(a, b, c, z, monkeypatch):
    # the first stops at term 96, past its first guess at the length, 87
    # terms, and is run again; the second, 31 terms, is summed term by term
    mpmath = pytest.importorskip("mpmath")
    sizes = []
    real = sf._gauss_2f1_array

    def counted(a, b, c, z, size):
        sizes.append(size)
        return real(a, b, c, z, size)

    monkeypatch.setattr(sf, "_gauss_2f1_array", counted)
    with mpmath.workdps(40):
        want = complex(mpmath.hyp2f1(a, b, c, z))
    assert abs(sf.gauss_2f1(a, b, c, z) - want) <= 1e-13 * abs(want)
    assert sizes == ([87] if c == 20.0 else [])


def test_gauss_2f1_gives_up_after_2000_terms():
    # its terms still exceed 1e-17 of the sum at k = 2000
    with pytest.raises(ValueError, match="did not converge within 2000 terms"):
        sf.gauss_2f1(20.0, 20.0, 1.0, 0.95)


def test_gauss_2f1_domain_guard():
    with pytest.raises(ValueError):
        sf.gauss_2f1(1.0, 1.0, 2.0, 0.97)
    with pytest.raises(ValueError, match="outside the series domain"):
        sf.gauss_2f1(1.0, 1.0, 2.0, complex("nan"))


def test_gauss_2f1_pole_guard():
    with pytest.raises(ValueError):
        sf.gauss_2f1(1.0, 1.0, -2.0, 0.5)
    # rescued by earlier termination
    assert sf.gauss_2f1(-1.0, 1.0, -2.5, 0.5).real == pytest.approx(1.2, abs=1e-14)


# ------------------------------------------------------------ pFq

def test_pfq_at_zero():
    assert sf.generalized_pfq([0.3], [1.7], 0.0) == 1.0


def test_pfq_exponential():
    assert sf.generalized_pfq([], [], 1.0) == pytest.approx(math.e, rel=1e-14)


def test_pfq_0f1_bruteforce():
    brute = sum(1.0 / math.factorial(k) ** 2 for k in range(60))
    assert sf.generalized_pfq([], [1.0], 1.0) == pytest.approx(brute, rel=1e-13)


def test_pfq_large_argument():
    # 0F0(z) = e^z stays accurate out to |z| = 100
    assert sf.generalized_pfq([], [], 100.0) == pytest.approx(math.exp(100.0), rel=1e-10)


def test_pfq_rejects_nonpositive_lower():
    with pytest.raises(ValueError):
        sf.generalized_pfq([1.0], [-2.0], 0.5)


def test_pfq_overflow_names_kernel_and_argument():
    # 0F1(; 1/2; z) = cosh(2 sqrt(z)) passes the float maximum long before
    # the series would converge
    with pytest.raises(OverflowError, match=r"generalized_pfq: .* z=250000\.0"):
        sf.generalized_pfq([], [0.5], 2.5e5)


def test_pfq_rejects_divergent_argument():
    with pytest.raises(ValueError, match=r"p = q \+ 1 series diverges at \|z\| > 1, got z=2\.0"):
        sf.generalized_pfq([1.0], [], 2.0)
    # a terminating series converges everywhere: 1F0(-3;; 2) = (1 - 2)^3
    assert sf.generalized_pfq([-3.0], [], 2.0) == -1.0
    # |z| = 1 stays in the domain: 2F1(1, 1; 30; 1) = 29/28
    assert sf.generalized_pfq([1.0, 1.0], [30.0], 1.0) == pytest.approx(29 / 28, rel=1e-14)


# ------------------------------------------------------------ Laguerre

def test_laguerre_trivial():
    assert sf.laguerre(0, 3.7) == 1.0
    assert sf.laguerre(1, -1.0) == 2.0


def test_laguerre_quadratic_by_hand():
    # 1 - 2x + x^2/2 at x = -1
    assert sf.laguerre(2, -1.0) == pytest.approx(3.5, rel=1e-15)


@pytest.mark.parametrize("m", [3, 7, 12])
def test_laguerre_exact_sum(m):
    x = Fraction(7, 5)
    exact = sum(
        Fraction(math.comb(m, k)) * (-x) ** k / Fraction(math.factorial(k))
        for k in range(m + 1)
    )
    assert sf.laguerre(m, float(x)) == pytest.approx(float(exact), rel=1e-12)


def test_laguerre_complex_argument():
    z = -0.5 + 0.3j
    assert sf.laguerre(2, z) == pytest.approx(1 - 2 * z + z * z / 2, rel=1e-14)


# ------------------------------------------------------------ Kummer U

def test_kummer_u_degenerate():
    for x in (1e-4, 1.0, 50.0):
        assert sf.kummer_u_int(0, x) == 1.0


def test_kummer_u_exponential_integral_identity():
    # U(1,1,x) = e^x E1(x)
    for x in (0.5, 1.0, 3.0):
        assert sf.kummer_u_int(1, x) == pytest.approx(
            math.exp(x) * exp1_series(x), rel=1e-10
        )


def test_kummer_u_bruteforce_quadrature():
    # composite Simpson on t = u/(1-u), far more nodes than production path
    m, x = 2, 0.5
    u = np.linspace(0.0, 1.0 - 1e-9, 2000001)
    t = u / (1.0 - u)
    with np.errstate(over="ignore"):
        vals = np.exp(-x * t) * t ** (m - 1) * (1.0 + t) ** -m / (1.0 - u) ** 2
    vals[~np.isfinite(vals)] = 0.0
    h = u[1] - u[0]
    simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())
    brute = simpson / math.gamma(m)
    assert sf.kummer_u_int(m, x) == pytest.approx(brute, rel=1e-9)


@pytest.mark.parametrize("m", [*range(1, 13), 40])
def test_kummer_u_matches_mpmath(m):
    # independent oracle; m = 40 crosses the forward/backward switch at
    # smaller x than the low orders do
    mpmath = pytest.importorskip("mpmath")
    for x in [1e-300] + [10.0 ** (k / 3) for k in range(-18, 10)] + [2000.0]:
        u = sf.kummer_u_int(m, x)
        with mpmath.workdps(30):
            ref = mpmath.hyperu(m, 1, x)
            err = float(abs(u - ref))
        assert err <= 2e-13 * float(abs(ref)), (m, x)


def kummer_u_integral(m: int, x: float) -> float:
    """U(m,1,x) = (1/Gamma(m)) int_0^inf e^{-x t} t^{m-1} (1+t)^{-m} dt by
    exp-sinh quadrature, for integer m >= 1 and finite x > 0; slow, kept as
    the reference the recurrence is tested against."""
    lg = math.lgamma(m)

    def integrand(t):
        # assembled in log scale: t**(m-1) alone overflows long before the
        # exponential cuts the tail off
        return np.exp(-x * t - m * np.log1p(t) - lg + (m - 1) * np.log(t))

    res = exp_sinh(integrand, tol=1e-12, max_level=11)
    assert res.converged, (m, x)
    return res.value


def test_kummer_u_integral_reference_agrees():
    for m in (1, 2, 4, 8):
        for x in (1e-3, 0.3, 0.5, 0.7, 3.0, 40.0):
            fast = sf.kummer_u_int(m, x)
            slow = kummer_u_integral(m, x)
            assert fast == pytest.approx(slow, rel=1e-10)


def test_kummer_u_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        sf.kummer_u_int(1, 0.0)
    with pytest.raises(ValueError):
        sf.kummer_u_int(1, -2.0)


@pytest.mark.parametrize("m", [-1, 2.5, math.nan, math.inf])
def test_kummer_u_rejects_bad_order(m):
    with pytest.raises(ValueError, match="integer m >= 0, got m="):
        sf.kummer_u_int(m, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_kummer_u_rejects_nonfinite_x(x):
    with pytest.raises(ValueError, match="finite x > 0, got x="):
        sf.kummer_u_int(2, x)


# ------------------------------------------------------------ hyperbolic orders

def test_hyperbolic_order_cosh_sinh():
    for x in (-3.0, 0.25, 2.0):
        assert sf.hyperbolic_order(1, 2, x) == pytest.approx(math.cosh(x), rel=1e-13)
    assert sf.hyperbolic_order(2, 2, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-13)


def test_hyperbolic_order_at_zero():
    for n in range(1, 6):
        assert sf.hyperbolic_order(1, n, 0.0) == 1.0
        if n > 1:
            assert sf.hyperbolic_order(2, n, 0.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 10.0])
def test_hyperbolic_orders_sum_to_exp(n, x):
    total = sum(sf.hyperbolic_order(i, n, x) for i in range(1, n + 1))
    assert total == pytest.approx(math.exp(x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [-10.0, -4.0, -1.0])
def test_hyperbolic_orders_sum_to_exp_negative(n, x):
    # the individual h_i reach +-e^|x| while the sum is e^x, so the sum test
    # can only be accurate relative to the total mass of its terms
    values = [sf.hyperbolic_order(i, n, x) for i in range(1, n + 1)]
    mass = sum(abs(v) for v in values)
    assert abs(sum(values) - math.exp(x)) <= 1e-14 * mass


def test_hyperbolic_order_overflow_names_kernel_and_argument():
    with pytest.raises(OverflowError, match=r"hyperbolic_order: .* x=1000\.0"):
        sf.hyperbolic_order(1, 2, 1000.0)


def test_hyperbolic_order_rejects_bad_index():
    with pytest.raises(ValueError):
        sf.hyperbolic_order(0, 2, 1.0)
    with pytest.raises(ValueError):
        sf.hyperbolic_order(3, 2, 1.0)


# ------------------------------------------------------------ determinism

def test_evaluation_is_deterministic():
    pairs = [
        (lambda: sf.gauss_2f1(0.3, 1.2, 2.1, 0.55 + 0.1j)),
        (lambda: sf.kummer_u_int(3, 0.7)),
        (lambda: sf.legendre_q(7, 1.3)),
        (lambda: sf.hyperbolic_order(2, 4, -8.0)),
    ]
    for fn in pairs:
        assert fn() == fn()
