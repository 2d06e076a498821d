"""Closed-form normalization coefficients and overlaps.

Each family's normalization and overlap is available in every closed form
the theory provides, plus a brute-force series route through the Fock
vectors; ``OverlapResult`` reports how far the forms spread and how far the
selected form sits from the series oracle.

Parameters are the ``SqueezeParam`` / ``CircleParam`` values from
``fockstate`` (duck-typed here to keep the import graph acyclic).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import specfun

__all__ = [
    "OverlapResult",
    "sv_overlap",
    "sops_overlap",
    "pasvs_norm",
    "pasops_norm",
    "csc_norm",
    "pacsc_norm",
    "pasvs_overlap",
    "pasops_overlap",
    "overlap_grid",
]


@dataclass(frozen=True)
class OverlapResult:
    """Overlap value plus cross-validation diagnostics.

    form_spread is the max pairwise deviation among the equivalent closed
    forms; oracle_error is the deviation of the reported value from the
    series inner product.
    """

    value: complex
    form_spread: float
    oracle_error: float


def _powprod(pairs) -> complex:
    """Product of base**exponent factors, phases combined before a single
    exponentiation.

    Exactly-zero exponents are skipped (their base may legitimately be 0),
    and exponents are accumulated on the principal logarithms so that
    analytically cancelling fractional powers cancel here too.
    """
    log_sum = 0.0 + 0.0j
    for base, expo in pairs:
        if expo == 0:
            continue
        b = complex(base)
        if b == 0:
            if expo > 0:
                return 0.0 + 0.0j
            raise ZeroDivisionError("zero base with nonpositive exponent")
        log_sum += expo * cmath.log(b)
    return cmath.exp(log_sum)


def sv_overlap(xi, zeta) -> complex:
    """Overlap of two squeezed vacuum states."""
    w = xi.zeta.conjugate() * zeta.zeta
    amp = ((1.0 - zeta.y) * (1.0 - xi.y)) ** 0.25
    return amp * (1.0 - w) ** -0.5


def sops_overlap(xi, zeta) -> complex:
    """Overlap of two squeezed one-photon states."""
    w = xi.zeta.conjugate() * zeta.zeta
    amp = ((1.0 - zeta.y) * (1.0 - xi.y)) ** 0.75
    return amp * (1.0 - w) ** -1.5


def pasvs_norm(zeta, m: int) -> float:
    """Squared norm of (a^dag)^m applied to a squeezed vacuum state.

    m! (1-y)^(-m/2) P_m((1-y)^(-1/2)) with y = |zeta|^2.
    """
    if m < 0:
        raise ValueError("pasvs_norm requires m >= 0")
    omy = 1.0 - zeta.y
    x = omy**-0.5
    return math.exp(specfun.log_factorial(m)) * omy ** (-0.5 * m) * specfun.legendre_p(m, x)


def pasops_norm(zeta, m: int) -> float:
    """Squared norm of (a^dag)^m applied to a squeezed one-photon state.

    (m+1)! (1-y)^(-(m-1)/2) P_{m+1}((1-y)^(-1/2)): the squeezed vacuum norm
    at m+1 times 1-y, since S(zeta)|1> = sqrt(1-y) a^dag S(zeta)|0>.
    """
    if m < 0:
        raise ValueError("pasops_norm requires m >= 0")
    return (1.0 - zeta.y) * pasvs_norm(zeta, m + 1)


def _csc_pfq_params(lam: int, mu: int) -> list[float]:
    """Lower-parameter list of the 0F_{lam-1} normalization series."""
    return [1.0 + j / lam for j in range(1, mu + 1)] + [
        j / lam for j in range(mu + 1, lam)
    ]


def csc_norm(param, form: str = "pfq") -> float:
    """Normalization of an annihilation-power eigenstate; two routes.

    form="pfq": the 0F_{lam-1} series in y = |z|^2 / lam^lam.
    form="circle": mu! |t|^(-2 mu) h_{mu+1}(|t|^2, lam) through the
    hyperbolic functions of higher order (|t| = |z|^(1/lam)).
    """
    lam, mu = param.lam, param.mu
    if form == "pfq":
        return specfun.generalized_pfq([], _csc_pfq_params(lam, mu), param.y)
    if form == "circle":
        if param.z == 0:
            return 1.0
        t_sq = abs(param.z) ** (2.0 / lam)
        return (
            math.exp(specfun.log_factorial(mu))
            * t_sq**-mu
            * specfun.hyperbolic_order(mu + 1, lam, t_sq)
        )
    raise ValueError(f"unknown csc_norm form: {form!r}")


def pacsc_norm(param, m: int, form: str = "pfq") -> float:
    """Normalization of the photon-added circle states; two routes.

    form="pfq": (m+mu)!/mu! * lamF_{2lam-1}(...; y) divided by the base
    normalization.  form="laguerre": the rotated-Laguerre sum over the lam
    circle components; its imaginary part must vanish and is checked.
    """
    if m < 0:
        raise ValueError("pacsc_norm requires m >= 0")
    lam, mu = param.lam, param.mu
    if param.z == 0:
        return math.exp(specfun.log_factorial(m + mu) - specfun.log_factorial(mu))
    n_mu = csc_norm(param, "pfq")
    if form == "pfq":
        a_list = [(m + mu + j) / lam for j in range(1, lam + 1)]
        b_core = _csc_pfq_params(lam, mu)
        b_list = [1.0] + b_core + b_core
        series = specfun.generalized_pfq(a_list, b_list, param.y)
        return (
            math.exp(specfun.log_factorial(m + mu) - specfun.log_factorial(mu))
            / n_mu
            * series
        )
    if form == "laguerre":
        t = param.t
        t_sq = abs(t) ** 2
        eps = cmath.exp(2j * math.pi / lam)
        total = 0.0 + 0.0j
        for nu in range(lam):
            rot = eps**nu
            total += eps ** (-mu * nu) * cmath.exp(t_sq * rot) * specfun.laguerre(
                m, -t_sq * rot
            )
        value = (
            math.exp(specfun.log_factorial(mu) + specfun.log_factorial(m))
            * t_sq**-mu
            / (lam * n_mu)
            * total
        )
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise ValueError(
                f"pacsc_norm laguerre form has non-vanishing imaginary part: {value.imag}"
            )
        return value.real
    raise ValueError(f"unknown pacsc_norm form: {form!r}")


def _pasvs_forms(xi, n: int, zeta, m: int) -> tuple[complex, complex, complex]:
    """The three closed forms of the photon-added squeezed vacuum overlap
    for n >= m with n - m even: hypergeometric, Euler-transformed
    terminating hypergeometric, and associated-Legendre."""
    w = xi.zeta.conjugate() * zeta.zeta
    q = (n - m) // 2
    pref = (pasvs_norm(zeta, m) * pasvs_norm(xi, n)) ** -0.5
    svo = sv_overlap(xi, zeta)
    quarter = ((1.0 - zeta.y) * (1.0 - xi.y)) ** 0.25
    front = math.exp(specfun.log_factorial(n) - specfun.log_factorial(q))
    zq = (0.5 * zeta.zeta) ** q

    f1 = pref * quarter * front * zq * specfun.gauss_2f1(
        0.5 * (n + 1), 0.5 * (n + 2), q + 1.0, w
    )
    f2 = (
        pref
        * svo
        * front
        * zq
        * (1.0 - w) ** (-(n + m) // 2)
        * specfun.gauss_2f1(-0.5 * (m - 1), -0.5 * m, q + 1.0, w)
    )
    x_arg = (1.0 - w) ** -0.5
    powers = _powprod(
        [
            (xi.zeta.conjugate(), (m - n) / 4 + q / 2),
            (zeta.zeta, (n - m) / 4 + q / 2),
            (1.0 - w, -(m + n) / 4 - q / 2),
        ]
    )
    f3 = (
        pref
        * svo
        * math.exp(specfun.log_factorial(n))
        * math.exp(specfun.log_factorial(m) - specfun.log_factorial(n))
        * powers
        * specfun.legendre_p_deriv(q, (m + n) // 2, x_arg)
    )
    return f1, f2, f3


# Oracle vectors are truncated far below working precision: the inner
# product of two vectors cut at different lengths loses ~sqrt(eps_u * eps_v)
# of cross terms, so eps must sit well under the comparison tolerances.
_SERIES_EPS = 1e-26


def _oracle_vector(param, index: int, vectors: dict):
    """Series-oracle squeezed vacuum vector at (param, index), built on first
    use and kept in the caller's ``vectors``."""
    from . import fockstate

    key = (param.zeta, index)
    if key not in vectors:
        vectors[key] = fockstate.pasvs(param, index, eps=_SERIES_EPS)
    return vectors[key]


def _overlap(family: str, xi, n: int, zeta, m: int, form, vectors: dict) -> OverlapResult:
    """Overlap of ``family`` states with its three closed forms cross-checked
    against each other and against the series inner product.

    The one-photon state |1, zeta, m> is the vacuum-family state |zeta, m+1>,
    so both families are evaluated as photon-added squeezed vacuum states.
    """
    from . import fockstate

    if n < 0 or m < 0:
        raise ValueError(f"{family}_overlap requires n >= 0 and m >= 0")
    if (n - m) % 2 != 0:
        return OverlapResult(0.0 + 0.0j, 0.0, 0.0)
    if abs(xi.zeta.conjugate() * zeta.zeta) > 0.9:
        raise ValueError(f"{family}_overlap requires |conj(xi) zeta| <= 0.9")
    if form not in (1, 2, 3, "series"):
        raise ValueError(f"unknown {family}_overlap form: {form!r}")
    if family == "pasops":
        n, m = n + 1, m + 1
    # the closed forms need n >= m; the swapped overlap is the conjugate
    swap = n < m
    if swap:
        xi, n, zeta, m = zeta, m, xi, n
    f1, f2, f3 = _pasvs_forms(xi, n, zeta, m)
    series = fockstate.inner(_oracle_vector(xi, n, vectors), _oracle_vector(zeta, m, vectors))
    value = {1: f1, 2: f2, 3: f3, "series": series}[form]
    spread = max(abs(f1 - f2), abs(f1 - f3), abs(f2 - f3))
    return OverlapResult(value.conjugate() if swap else value, spread, abs(value - series))


def pasvs_overlap(xi, n: int, zeta, m: int, form=1) -> OverlapResult:
    """Overlap of two photon-added squeezed vacuum states.

    Vanishes unless n - m is even.  For nonnegative even n - m the three
    equivalent closed forms (hypergeometric, Euler-transformed terminating
    hypergeometric, associated-Legendre) are evaluated together with the
    series inner product; negative even n - m goes through conjugation of
    the swapped arguments.  ``form`` picks which evaluation is reported
    (1, 2, 3, or "series").
    """
    return _overlap("pasvs", xi, n, zeta, m, form, {})


def pasops_overlap(xi, n: int, zeta, m: int, form=3) -> OverlapResult:
    """Overlap of two photon-added squeezed one-photon states.

    |1, zeta, m> is the photon-added squeezed vacuum state |zeta, m+1>, so
    this is ``pasvs_overlap(xi, n+1, zeta, m+1, form)``: forms 1 and 2 are
    its hypergeometric forms, form 3 is its associated-Legendre form at
    (n+1, m+1), and the series oracle uses the vacuum vectors at n+1, m+1.
    """
    return _overlap("pasops", xi, n, zeta, m, form, {})


def overlap_grid(family: str, label_pairs, max_n: int) -> tuple[float, int]:
    """Worst form spread or form-1 oracle error of the ``family`` overlap
    ("pasvs" or "pasops") over every n <= max_n, m <= n with n - m even,
    and every (xi, zeta) in ``label_pairs``; returns (worst, point count).

    Each oracle vector is built once per (label, index) and shared by every
    grid point that uses it; the vectors are dropped when the call returns.
    """
    if family not in ("pasvs", "pasops"):
        raise ValueError(f"unknown overlap family: {family!r}")
    vectors: dict = {}
    worst = 0.0
    count = 0
    for n in range(max_n + 1):
        for m in range(n % 2, n + 1, 2):
            for xi, zeta in label_pairs:
                res = _overlap(family, xi, n, zeta, m, 1, vectors)
                for dev in (res.form_spread, res.oracle_error):
                    # max() would drop a NaN, and a NaN must fail the grid
                    worst = max(worst, math.inf if math.isnan(dev) else dev)
                count += 1
    return worst, count
