"""Closed-form normalization coefficients and overlaps.

Each family's normalization and overlap is available in every closed form
the theory provides, plus a brute-force series route through the Fock
vectors; ``OverlapResult`` reports how far the forms spread and how far the
selected form sits from the series oracle.

Parameters are ``fockstate``'s ``SqueezeParam`` / ``CircleParam`` values,
duck-typed: ``fockstate`` imports this module for its normalization tables,
so ``_series`` and ``_grid_forms`` import ``fockstate`` inside the function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

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
    "overlap_grids",
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


def _nan_fails(*errs: float) -> float:
    """The largest deviation in errs, or inf if one is NaN, so that no
    check passes on it (Python's max and < both drop a NaN)."""
    return math.inf if any(map(math.isnan, errs)) else max(errs)


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


def _log_legendre_p(zeta, top: int) -> list[float]:
    """ln P_0..ln P_top at x = (1-y)^(-1/2), y = |zeta|^2, summed from the
    logs of the ratios r_j = P_j / P_(j-1) = ((2j-1) x - (j-1) / r_(j-1)) / j,
    which cannot overflow."""
    x = (1.0 - zeta.y) ** -0.5
    r, log_ratios = 1.0, [0.0]
    for j in range(1, top + 1):
        r = ((2 * j - 1) * x - (j - 1) / r) / j
        log_ratios.append(math.log(r))
    return list(accumulate(log_ratios))


def _pasvs_log_norms(zeta, top: int) -> list[float]:
    """ln N_0..ln N_top of the squared norms N_m = m! (1-y)^(-m/2) P_m(x) of
    (a^dag)^m applied to a squeezed vacuum state, the one table that every
    squeezed vacuum norm in the package is read from; the two smaller terms
    are added first."""
    log_omy, log_p = math.log(1.0 - zeta.y), _log_legendre_p(zeta, top)
    return [specfun.log_factorial(m) + (log_p[m] - 0.5 * m * log_omy) for m in range(top + 1)]


def _norm_in_float_range(zeta, m: int, log_norm: float, name: str = "pasvs_norm") -> float:
    """log_norm, the log of the norm ``name(zeta, m)``, or the OverflowError
    of a norm beyond the float range."""
    try:
        math.exp(log_norm)
    except OverflowError:
        raise OverflowError(f"{name}: norm overflows at zeta={zeta.zeta}, m={m}") from None
    return log_norm


def pasvs_norm(zeta, m: int) -> float:
    """Squared norm of (a^dag)^m applied to a squeezed vacuum state.

    m! (1-y)^(-m/2) P_m((1-y)^(-1/2)) with y = |zeta|^2, read off the log
    table ``_pasvs_log_norms``; a norm beyond the float range raises
    ``OverflowError``.
    """
    if m < 0:
        raise ValueError("pasvs_norm requires m >= 0")
    return math.exp(_norm_in_float_range(zeta, m, _pasvs_log_norms(zeta, m)[m]))


def pasops_norm(zeta, m: int) -> float:
    """Squared norm of (a^dag)^m applied to a squeezed one-photon state.

    (m+1)! (1-y)^(-(m-1)/2) P_{m+1}((1-y)^(-1/2)): the squeezed vacuum norm
    at m+1 times 1-y, since S(zeta)|1> = sqrt(1-y) a^dag S(zeta)|0>; a
    norm beyond the float range raises ``OverflowError``.
    """
    if m < 0:
        raise ValueError("pasops_norm requires m >= 0")
    log_norm = _norm_in_float_range(zeta, m, _pasvs_log_norms(zeta, m + 1)[m + 1], "pasops_norm")
    return (1.0 - zeta.y) * math.exp(log_norm)


def _circle_series(param, m: int, label) -> float:
    """F_m = lamF_{2lam-1}((m+mu+j)/lam, j = 1..lam; 1, b, b; y) of |z, mu, m>,
    b = (mu+j)/lam for j = 1..lam, j != lam - mu.  Equal parameters cancel by
    their integer numerators over lam, so F_0 is 0F_{lam-1}(; b; y).  A
    series beyond the float range raises ``OverflowError`` under label(),
    the caller's name for the state and its parameters."""
    lam, mu = param.lam, param.mu
    upper = range(m + mu + 1, m + mu + lam + 1)
    b = [n for n in range(mu + 1, mu + lam + 1) if n != lam]
    # upper numerators in (mu, mu + lam] cancel lam (the 1) or one copy of b
    a_list = [n / lam for n in upper if not mu < n <= mu + lam]
    b_list = [n / lam for n in [lam] + b if n not in upper] + [n / lam for n in b]
    try:
        return specfun.generalized_pfq(a_list, b_list, param.y)
    except OverflowError:
        raise OverflowError(f"{label()}: norm series overflows at y={param.y}") from None


def _circle_label(name: str, param, m=None) -> str:
    """The name and parameters of a circle state, or of its norm, in errors."""
    text = f"{name} z={param.z} lam={param.lam} mu={param.mu}"
    return text if m is None else f"{text} m={m}"


def csc_norm(param, form: str = "pfq") -> float:
    """Normalization of an annihilation-power eigenstate; two routes.

    form="pfq": the 0F_{lam-1} series in y = |z|^2 / lam^lam.
    form="circle": mu! |t|^(-2 mu) h_{mu+1}(|t|^2, lam) through the
    hyperbolic functions of higher order (|t| = |z|^(1/lam)).
    """
    lam, mu = param.lam, param.mu
    if form == "pfq":
        return _circle_series(param, 0, lambda: _circle_label("csc_norm", param))
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

    form="pfq": (m+mu)!/mu! * F_m / F_0 with the circle series F_m of
    ``_circle_series``.  form="laguerre": the rotated-Laguerre sum over the lam
    circle components; its imaginary part must vanish and is checked.  A
    norm beyond the float range raises ``OverflowError``.
    """
    if m < 0:
        raise ValueError("pacsc_norm requires m >= 0")
    log_rising = specfun.log_factorial(m + param.mu) - specfun.log_factorial(param.mu)
    if param.z == 0:
        return _pacsc_in_float_range(lambda: math.exp(log_rising), param, m)

    def label():
        return _circle_label("pacsc_norm", param, m)

    n_mu = _circle_series(param, 0, label)
    if form == "pfq":
        f_m = _circle_series(param, m, label)
        return _pacsc_in_float_range(lambda: math.exp(log_rising) / n_mu * f_m, param, m)
    if form == "laguerre":
        value = _pacsc_in_float_range(lambda: _pacsc_laguerre_norm(param, m, n_mu), param, m)
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise ValueError(
                f"pacsc_norm laguerre form has non-vanishing imaginary part: {value.imag}"
            )
        return value.real
    raise ValueError(f"unknown pacsc_norm form: {form!r}")


def _pacsc_in_float_range(compute, param, m: int):
    """compute(), or an OverflowError that names ``pacsc_norm`` and its
    parameters where a float operation in it overflows or its value is not
    finite.  The circle series called before it raise their own named
    errors."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise OverflowError(
            f"pacsc_norm: norm overflows at z={param.z}, lam={param.lam}, mu={param.mu}, m={m}"
        )
    return value


def _pacsc_laguerre_norm(param, m: int, n_mu: float) -> complex:
    """The laguerre form of ``pacsc_norm`` before its imaginary part is checked."""
    lam, mu = param.lam, param.mu
    t_sq = abs(param.t) ** 2
    eps = cmath.exp(2j * math.pi / lam)
    total = 0.0 + 0.0j
    for nu in range(lam):
        rot = eps**nu
        total += eps ** (-mu * nu) * cmath.exp(t_sq * rot) * specfun.laguerre(m, -t_sq * rot)
    return (
        math.exp(specfun.log_factorial(mu) + specfun.log_factorial(m))
        * t_sq**-mu
        / (lam * n_mu)
        * total
    )


def _pasvs_forms(
    xi, n: int, log_norm_xi: float, zeta, m: int, log_norm_zeta: float
) -> tuple[complex, complex, complex]:
    """The three closed forms of the photon-added squeezed vacuum overlap
    for n >= m with n - m even: hypergeometric, Euler-transformed
    terminating hypergeometric, and associated-Legendre (log_norm_xi,
    log_norm_zeta: ln ``pasvs_norm`` of both states)."""
    w = xi.zeta.conjugate() * zeta.zeta
    q = (n - m) // 2
    pref = math.exp(-0.5 * (log_norm_zeta + log_norm_xi))
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
    # the printed form's conj(xi) exponent (m-n)/4 + q/2 vanishes, leaving
    # zeta^q (1-w)^(-n/2)
    x_arg = (1.0 - w) ** -0.5
    f3 = (
        pref
        * svo
        * math.exp(specfun.log_factorial(m))
        * zeta.zeta**q
        * (1.0 - w) ** (-0.5 * n)
        * specfun.legendre_p_deriv(q, (m + n) // 2, x_arg)
    )
    return f1, f2, f3


# Oracle vectors are truncated far below working precision: the inner
# product of two vectors cut at different lengths loses ~sqrt(eps_u * eps_v)
# of cross terms, so eps must sit well under the comparison tolerances.
SERIES_EPS = 1e-26

# index shift of each family on the vacuum-family indices: the one-photon
# overlap at (n, m) is the vacuum overlap at (n+1, m+1)
_SHIFT = {"pasvs": 0, "pasops": 1}


def _series(family: str, shift: int, left, right) -> complex:
    """The series oracle <xi, n|zeta, m> of the photon-added squeezed vacuum
    vectors left = (xi, n, log_norm) and right = (zeta, m, log_norm), n - m
    even (log_norm: ln ``pasvs_norm``), cut at SERIES_EPS.

    Both vectors are cut by one ``fockstate._pasvs_cut`` pass (one segment
    when they are the same vector) and summed over the photon numbers both
    occupy, as ``fockstate.inner`` sums them.  Errors name a vector as the
    ``family`` state at index i - shift.
    """
    from . import fockstate

    (xi, n, _), (zeta, m, _) = left, right
    labels = [left] if (xi.zeta, n) == (zeta.zeta, m) else [left, right]
    cut = fockstate._pasvs_cut(family, shift, labels, SERIES_EPS)
    u, v = cut[0][0], cut[-1][0]
    # u[k + d] and v[k] sit on the same photon number
    d = (m - n) // 2
    u, v = u[max(d, 0) :], v[max(-d, 0) :]
    size = min(len(u), len(v))
    return complex(np.vdot(u[:size], v[:size]))


def _overlap(family: str, xi, n: int, zeta, m: int, form) -> OverlapResult:
    """Overlap of ``family`` states with its three closed forms cross-checked
    against each other and against the series inner product.

    The one-photon state |1, zeta, m> is the vacuum-family state |zeta, m+1>,
    so both families are evaluated as photon-added squeezed vacuum states.
    Each state's log norm is evaluated once, for the forms and the oracle;
    a norm beyond the float range raises ``pasvs_norm``'s OverflowError.
    """
    if n < 0 or m < 0:
        raise ValueError(f"{family}_overlap requires n >= 0 and m >= 0")
    if (n - m) % 2 != 0:
        return OverlapResult(0.0 + 0.0j, 0.0, 0.0)
    if abs(xi.zeta.conjugate() * zeta.zeta) > 0.9:
        raise ValueError(f"{family}_overlap requires |conj(xi) zeta| <= 0.9")
    if form not in (1, 2, 3, "series"):
        raise ValueError(f"unknown {family}_overlap form: {form!r}")
    shift = _SHIFT[family]
    n, m = n + shift, m + shift
    # the closed forms need n >= m; the swapped overlap is the conjugate
    swap = n < m
    if swap:
        xi, n, zeta, m = zeta, m, xi, n
    log_xi = _norm_in_float_range(xi, n, _pasvs_log_norms(xi, n)[n])
    same = (xi.zeta, n) == (zeta.zeta, m)
    log_zeta = log_xi if same else _norm_in_float_range(zeta, m, _pasvs_log_norms(zeta, m)[m])
    f1, f2, f3 = _pasvs_forms(xi, n, log_xi, zeta, m, log_zeta)
    series = _series(family, shift, (xi, n, log_xi), (zeta, m, log_zeta))
    value = {1: f1, 2: f2, 3: f3, "series": series}[form]
    spread = _nan_fails(abs(f1 - f2), abs(f1 - f3), abs(f2 - f3))
    error = _nan_fails(abs(value - series))
    value = value.conjugate() if swap else value
    return OverlapResult(value, spread, error)


def pasvs_overlap(xi, n: int, zeta, m: int, form=1) -> OverlapResult:
    """Overlap of two photon-added squeezed vacuum states.

    Vanishes unless n - m is even.  For nonnegative even n - m the three
    equivalent closed forms (hypergeometric, Euler-transformed terminating
    hypergeometric, associated-Legendre) are evaluated together with the
    series inner product; negative even n - m goes through conjugation of
    the swapped arguments.  ``form`` picks which evaluation is reported
    (1, 2, 3, or "series").
    """
    return _overlap("pasvs", xi, n, zeta, m, form)


def pasops_overlap(xi, n: int, zeta, m: int, form=3) -> OverlapResult:
    """Overlap of two photon-added squeezed one-photon states.

    |1, zeta, m> is the photon-added squeezed vacuum state |zeta, m+1>, so
    this is ``pasvs_overlap(xi, n+1, zeta, m+1, form)``: forms 1 and 2 are
    its hypergeometric forms, form 3 is its associated-Legendre form at
    (n+1, m+1), and the series oracle uses the vacuum vectors at n+1, m+1.
    """
    return _overlap("pasops", xi, n, zeta, m, form)


def _gauss_2f1_grid(a, b, c, z):
    """2F1(a_i, b_i; c_i; z_j) of the rows (a, b, c) at every point of z: the
    real table coef[i, k] = prod_(j<k) (a_i+j)(b_i+j) / ((c_i+j)(j+1)) summed
    against the power table z_j^k.  Row i sums its own count of terms, exact
    zeros beyond it, so no value depends on the other rows: ``gauss_2f1``'s
    first guess at the largest |z| (a terminating row's: to its last term)
    plus _SMALL_RUN, and doubled, the short rows alone, until the last
    _SMALL_RUN terms of each element fall below _TERM_EPS of its sum."""
    run, cap = specfun._SMALL_RUN, specfun._MAX_2F1_TERMS
    excess, abs_z = np.maximum(a + b - c - 1.0, 0.0), np.abs(z).max(initial=specfun._TERM_EPS)
    ends = [np.where((v <= 0) & (v % 1 == 0), 1 - v, cap - run) for v in (a, b)]
    counts = np.minimum.reduce([specfun._gauss_2f1_size(excess, abs_z), *ends]).astype(int) + run
    total, live = np.empty((len(a), len(z)), complex), np.arange(len(a))
    while live.size:
        size, n = int(counts[live].max()), counts[live, None]
        k, coef = np.arange(size - 1.0), np.ones((live.size, size))
        coef[:, 1:] = (a[live, None] + k) * (b[live, None] + k) / ((c[live, None] + k) * (k + 1.0))
        coef = np.where(np.arange(size) < n, np.cumprod(coef, axis=1), 0.0)
        powers = np.vander(z, size, increasing=True)
        total[live] = np.einsum("ik,jk->ij", coef, powers)
        last = n - np.arange(1, run + 1)
        tail = np.abs(np.take_along_axis(coef, last, 1)) * np.abs(powers[:, last])
        short = (tail >= specfun._TERM_EPS * np.abs(total[live].T)[..., None]).any(axis=(0, 2))
        if counts[live[short]].max(initial=0) >= cap:
            raise ValueError(f"gauss_2f1: series did not converge within {cap} terms")
        live = live[short]
        counts[live] = np.minimum(2 * counts[live], cap)
    return total


def _grid_forms(label_pairs, points):
    """The three closed forms and the series oracle of the photon-added
    squeezed vacuum overlap <xi, N | zeta, M> at every (N, M) in ``points``
    (N >= M, N - M even) and every (xi, zeta) in ``label_pairs``.

    Returns an array of shape (4, points, pairs) holding forms 1, 2, 3 and
    the oracle.  Each form is evaluated once per point on the array of all
    pairs.  The oracle vectors |zeta, 0..max N> of every label are the
    columns of one zero-padded dense matrix V from one
    ``fockstate._pasvs_columns`` call, which cuts one real table per
    distinct modulus, so a pair's oracle overlaps at every point are the
    entries of one product V_xi^H V_zeta, a sum over Fock coefficients.
    """
    from . import fockstate

    big_n, big_m = (np.array(col) for col in zip(*points))
    top = int(big_n.max())
    params = {p.zeta: p for pair in label_pairs for p in pair}
    # (dense, lengths, tails, log norms) of each label
    tables = dict(zip(params, fockstate._pasvs_columns(list(params.values()), top, SERIES_EPS)))
    for param, (*_, log_norms) in zip(params.values(), tables.values()):
        _norm_in_float_range(param, top, log_norms[top])  # N_m grows with m
    gram = np.empty((top + 1, top + 1, len(label_pairs)), dtype=complex)
    for p, (xi, zeta) in enumerate(label_pairs):
        v_xi, v_zeta = tables[xi.zeta][0], tables[zeta.zeta][0]
        rows = min(len(v_xi), len(v_zeta))
        gram[:, :, p] = v_xi[:rows].conj().T @ v_zeta[:rows]

    q = ((big_n - big_m) // 2)[:, None]
    xi_c = np.array([xi.zeta.conjugate() for xi, _ in label_pairs])
    ze = np.array([zeta.zeta for _, zeta in label_pairs])
    w = xi_c * ze
    log_omw = np.log(1.0 - w)
    x_arg = (1.0 - w) ** -0.5
    quarter = ((1.0 - np.abs(ze) ** 2) * (1.0 - np.abs(xi_c) ** 2)) ** 0.25
    svo = quarter * x_arg
    log_fact = np.array([specfun.log_factorial(k) for k in range(top + 1)])
    log_ze = np.array([tables[zeta.zeta][3] for _, zeta in label_pairs]).T[big_m]
    log_xi = np.array([tables[xi.zeta][3] for xi, _ in label_pairs]).T[big_n]
    pref = np.exp(-0.5 * (log_ze + log_xi))
    common = pref * np.exp(log_fact[big_n] - log_fact[q[:, 0]])[:, None] * (0.5 * ze) ** q

    # form 1's 2F1((N+1)/2, (N+2)/2; q+1; w) runs on, and form 2's
    # 2F1(-(M-1)/2, -M/2; q+1; w) terminates, so each has its own run
    lower = q[:, 0] + 1.0
    f1 = common * quarter * _gauss_2f1_grid(0.5 * (big_n + 1), 0.5 * (big_n + 2), lower, w)
    series_2 = _gauss_2f1_grid(-0.5 * (big_m - 1), -0.5 * big_m, lower, w)
    f2 = common * svo * (1.0 - w) ** (-(big_n + big_m) // 2)[:, None] * series_2

    # form 3: the exponent (m-n)/4 + q/2 of conj(xi) vanishes, leaving
    # zeta^q (1-w)^(-N/2) on principal logarithms; zeta = 0 with q > 0 gives 0
    zero = ze == 0
    log_ze = np.log(np.where(zero, 1.0, ze))
    powers = np.where(zero & (q > 0), 0.0, np.exp(q * log_ze - 0.5 * big_n[:, None] * log_omw))
    legendre = np.empty(powers.shape, dtype=complex)
    for i, (n_i, m_i) in enumerate(points):
        legendre[i] = specfun.legendre_p_deriv((n_i - m_i) // 2, (m_i + n_i) // 2, x_arg)
    f3 = pref * svo * np.exp(log_fact[big_m])[:, None] * powers * legendre
    return np.stack([f1, f2, f3, gram[big_n, big_m]])


def overlap_grids(families, label_pairs, max_n: int) -> dict:
    """Worst form spread or form-1 oracle error of each ``families`` overlap
    ("pasvs" or "pasops") over every n <= max_n, m <= n with n - m even,
    and every (xi, zeta) in ``label_pairs``; returns {family: (worst, point
    count)}.

    pasops at (n, m) is pasvs at (N, M) = (n+1, m+1), so each family's
    points are a subset of one vacuum-family grid: those with N <= max_n for
    pasvs, those with M >= 1 for pasops.  The forms and the oracle are
    evaluated once on the union of the families' points (each (N, M) once
    for all label pairs), and each label's oracle vectors |zeta, 0..max N>
    are built once, as one array; each family's worst is the max over its
    own points.
    """
    if not families:
        raise ValueError("overlap_grids requires at least one family")
    for family in families:
        if family not in _SHIFT:
            raise ValueError(f"unknown overlap family: {family!r}")
    if not label_pairs:
        raise ValueError("overlap_grids requires at least one label pair")
    if max_n < 0:
        raise ValueError("overlap_grids requires max_n >= 0")
    if any(abs(xi.zeta.conjugate() * zeta.zeta) > 0.9 for xi, zeta in label_pairs):
        raise ValueError(f"{families[0]}_overlap requires |conj(xi) zeta| <= 0.9")
    grid = [(n, m) for n in range(max_n + 1) for m in range(n % 2, n + 1, 2)]
    members = {
        family: {(n + _SHIFT[family], m + _SHIFT[family]) for n, m in grid}
        for family in families
    }
    points = sorted(set().union(*members.values()))
    f1, f2, f3, series = _grid_forms(label_pairs, points)
    dev = np.max([abs(f1 - f2), abs(f1 - f3), abs(f2 - f3), abs(f1 - series)], axis=0)
    out = {}
    for family in families:
        own = dev[[i for i, point in enumerate(points) if point in members[family]]]
        worst = float(own.max())
        out[family] = _nan_fails(worst), own.size
    return out
