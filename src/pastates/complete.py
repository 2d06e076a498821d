"""Completeness machinery: weight functions, moment checks, resolutions of
unity, and the Carleman uniqueness test.

The continuous resolutions reduce, after exact angular integration, to
radial power moments of two kinds of weight: h_m on (0, 1) for the squeezed
families and e^(-x) U(m,1,x) on (0, inf) for the circle family.  Each kind
is one table that gives every index at a node from one recurrence, and the
measure densities (``weight_hmum``, the CLI's ``weights``) are read off it.
One nested double-exponential pass over each table gives every moment of its
kind, verified against log-space factorial references.  The discrete
resolution over the photon-added family is V D V^H, with V the photon-added
states |zeta, 0..top> on the Fock block and D the Hermitian matrix of pair
coefficients: closed-form, or resummed numerically as C^T conj(C) from the
squeezed-number-state expansion matrix C.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fockstate, overlap, specfun
from .quadrature import QuadResult, exp_sinh_moments, tanh_sinh, tanh_sinh_moments

__all__ = [
    "FAMILIES",
    "WeightFunction",
    "MomentReport",
    "OperatorMatrix",
    "weight_h",
    "weight_h1m",
    "weight_hmum",
    "moment_check",
    "unity_resolution_matrix",
    "radial_checks",
    "pasvs_sns_matrix",
    "sns_pasvs_matrix",
    "discrete_completeness_matrix",
    "sns_completeness_matrix",
    "carleman_sequence",
]

FAMILIES = ("pasvs", "pasops", "pacsc")

_TWO_PI = 2.0 * math.pi
_HERMITICITY_TOL = 1e-12
# tolerance and deepest level of every radial moment-rule pass
_QUAD_TOL = 1e-11
_QUAD_MAX_LEVEL = 12


@dataclass(frozen=True)
class WeightFunction:
    """Identifier of a radial measure density: family plus its indices."""

    family: str
    m: int
    mu: int | None = None
    lam: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family: {self.family!r}")
        if self.family == "pasvs" and self.m < 1:
            raise ValueError("pasvs measure requires m >= 1 (none exists for m = 0)")
        if self.family == "pasops" and self.m < 0:
            raise ValueError("pasops measure requires m >= 0")
        if self.family == "pacsc":
            if self.lam is None or self.mu is None:
                raise ValueError("pacsc measure requires mu and lam")
            if self.lam < 1 or not 0 <= self.mu < self.lam:
                raise ValueError("pacsc requires lam >= 1 and 0 <= mu < lam")
            if self.m < 0:
                raise ValueError("pacsc measure requires m >= 0")


@dataclass(frozen=True)
class MomentReport:
    k: int
    lhs: float
    rhs: float
    rel_err: float
    nodes_used: int
    converged: bool = True


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Finite Hermitian section of a truncated operator in a Fock basis."""

    basis_offset: int
    basis_stride: int
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ValueError("entries must be dim x dim")
        defect = float(np.max(np.abs(arr - arr.conj().T)))
        if defect > _HERMITICITY_TOL:
            raise ArithmeticError(f"matrix is not Hermitian (defect {defect:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def identity_deviation(self) -> float:
        return float(np.max(np.abs(self.entries - np.eye(self.dim))))

    def max_offdiagonal(self) -> float:
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.max(np.abs(off)))


def _vacuum_weight_table(m_max: int, y: np.ndarray, omy: np.ndarray) -> np.ndarray:
    """Closed forms of h_1..h_m_max on an array of y in (0, 1), with 1-y
    given as ``omy``: column m-1 holds h_m.

    h_1 = 1/(2 pi sqrt(1-y)), and h_m = (1-y)^((m-2)/2) Q_(m-2)(x) /
    (2 pi (m-2)!) for m >= 2, with x = (1-y)^(-1/2) and x-1 formed without
    cancellation at either end; one Legendre table gives every Q.
    """
    sq = np.sqrt(omy)
    h = np.empty((len(y), m_max))
    h[:, 0] = 1.0 / (_TWO_PI * sq)
    if m_max >= 2:
        n = np.arange(m_max - 1)
        q = specfun.legendre_q_table(m_max - 2, 1.0 / sq, y / (sq * (1.0 + sq)))
        factorials = np.array([math.factorial(k) for k in n.tolist()], dtype=float)
        h[:, 1:] = omy[:, None] ** (0.5 * n) * q / (_TWO_PI * factorials)
    return h


def weight_h(m: int, y: float, form: str = "closed", one_minus_y: float | None = None) -> float:
    """Radial weight of the photon-added squeezed vacuum measure, m >= 1.

    form="closed": 1/(2 pi sqrt(1-y)) for m = 1 and the second-kind
    Legendre expression for m >= 2.  form="hypergeometric": the Gauss-series
    route (argument 1-y, so it needs y >= 0.05).  form="integral": the
    convolution integral evaluated by quadrature (m >= 2).

    ``one_minus_y`` may carry 1-y in exact form when y is a quadrature node
    adjacent to 1.
    """
    if m < 1:
        raise ValueError("weight_h is defined for m >= 1")
    omy = (1.0 - y) if one_minus_y is None else one_minus_y
    if not (y > 0.0 and omy > 0.0):
        raise ValueError("weight_h requires 0 < y < 1")
    if form == "closed":
        return float(_vacuum_weight_table(m, np.array([y]), np.array([omy]))[0, m - 1])
    if form == "hypergeometric":
        pref = 1.0 / (_TWO_PI * specfun.double_factorial(2 * m - 3))
        hyp = specfun.gauss_2f1(0.5 * m, 0.5 * (m - 1), m - 0.5, omy)
        return pref * omy ** (m - 1.5) * hyp.real
    if form == "integral":
        if m < 2:
            raise ValueError("integral form of weight_h requires m >= 2")

        def f(t: float, dta: float, dtb: float) -> float:
            return t ** (-0.5 * m) * dta ** (0.5 * (m - 2)) * dtb ** (0.5 * (m - 3))

        res = tanh_sinh(f, y, 1.0, tol=1e-11)
        if not res.converged:
            raise ValueError(f"weight_h integral form did not converge at y={y}")
        return res.value / (4.0 * math.pi * math.exp(specfun.log_factorial(m - 2)))
    raise ValueError(f"unknown weight_h form: {form!r}")


def weight_h1m(m: int, y: float, one_minus_y: float | None = None) -> float:
    """Radial weight of the photon-added squeezed one-photon measure.

    |1, zeta, m> is the vacuum-family state |zeta, m+1>, so this is the
    closed form of ``weight_h`` at m+1.
    """
    if m < 0:
        raise ValueError("weight_h1m requires m >= 0")
    return weight_h(m + 1, y, one_minus_y=one_minus_y)


def weight_hmum(lam: int, mu: int, m: int, y: float) -> float:
    """Radial weight of the photon-added circle-state measure: one node of ``_weight_table``."""
    return float(_weight_table("pacsc", [m], np.array([y], dtype=float), mu, lam)[0, 0])


def _integrand(wf: WeightFunction) -> tuple[str, int]:
    """The radial weight a family's checks integrate: ("vacuum", index) for
    the squeezed families at the vacuum-family index (m, or m+1 for the
    one-photon family: |1, zeta, m> = |zeta, m+1>), ("laplace", m) for the
    circle family, whose lam and mu only choose which powers are integrated."""
    if wf.family == "pacsc":
        return ("laplace", wf.m)
    return ("vacuum", wf.m + 1 if wf.family == "pasops" else wf.m)


def _laplace_weight_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """e^(-x) U(0..m_max, 1, x) on an array of finite x > 0: column m holds
    the circle-family weight at m in the Laplace variable."""
    return np.exp(-x)[:, None] * specfun.kummer_u_table(m_max, x)


def _weight_table(family: str, ms, y: np.ndarray, mu: int | None = None, lam: int | None = None):
    """The measure densities of ``family`` at the indices ``ms`` on an array
    of y, read off one call of the radial-pass tables: h_m at the
    vacuum-family index on 0 < y < 1, or y^((mu+1-lam)/lam) e^(-x) U(m,1,x)
    / (pi lam^(lam-mu)) with x = lam y^(1/lam) on finite y > 0."""
    columns = [_integrand(WeightFunction(family, m, mu, lam))[1] for m in ms]
    circle = family == "pacsc"
    bad = ~((y > 0.0) & (y < (math.inf if circle else 1.0)))
    if bad.any():
        domain = "finite y > 0" if circle else "0 < y < 1"
        raise ValueError(f"{family} weight requires {domain}, got y={y[bad][0]}")
    if not circle:
        return _vacuum_weight_table(max(columns), y, 1.0 - y)[:, [i - 1 for i in columns]]
    table = _laplace_weight_table(max(columns), lam * y ** (1.0 / lam))[:, columns]
    # in log space: lam^(lam-mu) overflows from lam = 144 where the density does not
    log_scale = (mu + 1.0 - lam) / lam * np.log(y) - math.log(math.pi) - (lam - mu) * math.log(lam)
    return np.exp(log_scale)[:, None] * table


def _radial_pass(kind: str, pairs: list[tuple[int, float]]) -> list[QuadResult]:
    """Integrals of y^p h_i(y) over the radial domain of ``kind`` for every
    (index i, power p) in ``pairs``, from one nested pass that evaluates
    every index at a node from one recurrence.

    For "laplace", h_i is e^(-x) U(i,1,x) on (0, inf): the circle-family
    measure at m = i after the exact angular reduction and the substitution
    mapping it to the Laplace variable.  For "vacuum", h_i is the weight h_i
    of the vacuum family on (0, 1).
    """
    indices = [i for i, _ in pairs]
    powers = [p for _, p in pairs]
    top = max(indices)
    if kind == "laplace":
        laplace = partial(_laplace_weight_table, top)
        return exp_sinh_moments(
            laplace, powers, tol=_QUAD_TOL, max_level=_QUAD_MAX_LEVEL, columns=indices
        )

    def radial(y: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
        return _vacuum_weight_table(top, y, db)

    columns = [i - 1 for i in indices]
    return tanh_sinh_moments(
        radial, 0.0, 1.0, powers, tol=_QUAD_TOL, max_level=_QUAD_MAX_LEVEL, columns=columns
    )


# a reference moment outside the normal float range cannot serve as one:
# it overflows, or underflows to a subnormal or zero that no relative error
# can be measured against
_LOG_RHS_MIN = math.log(sys.float_info.min)
_LOG_RHS_MAX = math.log(sys.float_info.max)


def _log_squeezed_moment(m: int, k: int) -> float:
    """ln of [(2k)!!]^2 / (pi (m+2k)!), the k-th moment of h_m."""
    return (
        2.0 * specfun.log_double_factorial(2 * k)
        - math.log(math.pi)
        - specfun.log_factorial(m + 2 * k)
    )


def _moment_references(wf: WeightFunction, k_max: int) -> tuple[list[float], list[float]]:
    """Powers and reference moments of ``moment_check(wf, k_max)``."""
    if k_max < 0:
        raise ValueError("moment_check requires k_max >= 0")
    ks = range(k_max + 1)
    orders = [k * wf.lam + wf.mu for k in ks] if wf.family == "pacsc" else list(ks)
    rhs = []
    for k, n in zip(ks, orders):
        if wf.family == "pacsc":
            log_rhs = 2.0 * specfun.log_factorial(n) - specfun.log_factorial(n + wf.m)
        else:
            log_rhs = _log_squeezed_moment(_integrand(wf)[1], k)
        if not _LOG_RHS_MIN < log_rhs < _LOG_RHS_MAX:
            raise ValueError(
                f"moment_check: k_max={k_max} (m={wf.m}) needs the reference moment of "
                f"order {n} at k={k}, which is outside the normal float range"
            )
        rhs.append(math.exp(log_rhs))
    return [float(n) for n in orders], rhs


def _unity_matrix(wf: WeightFunction, powers, reports: list[MomentReport]) -> OperatorMatrix:
    """``unity_resolution_matrix`` from the reports of ``moment_check(wf, basis_dim - 1)``
    at ``powers``: diagonal entry j is moment j divided by its reference."""
    if wf.family == "pacsc":
        stride, offset = wf.lam, wf.m + wf.mu
    else:
        stride, offset = 2, _integrand(wf)[1]
    for power, r in zip(powers, reports):
        if not r.converged:
            raise ArithmeticError(
                f"unity_resolution_matrix: radial quadrature did not converge at index sum "
                f"{2 * r.k} (power {power}) after {r.nodes_used} nodes "
                f"(last estimate {r.lhs:.6e})"
            )
    diagonal = np.array([r.lhs / r.rhs for r in reports], dtype=complex)
    return OperatorMatrix(offset, stride, len(reports), np.diag(diagonal))


def radial_checks(checks) -> list:
    """Run a batch of radial checks with one moment-rule pass per kind of
    weight.

    Each check is ("moments", wf, k_max), answered as ``moment_check`` does,
    or ("unity", wf, basis_dim), answered as ``unity_resolution_matrix``
    does; the results come back in input order.  The checks of one kind
    share one pass over the sorted union of their (index, power) pairs:
    every squeezed-family check integrates h_m at its vacuum-family index
    (the one-photon family at m is the vacuum family at m+1), and every
    circle-family check e^(-x) U(m,1,x) at its m.  Every check is validated
    before any pass runs.  A power converges on its own, but a level's tail
    cut follows every pair still active, so ``nodes_used`` counts the nodes
    of the shared pass.
    """
    plans = []
    needed: dict[str, set[tuple[int, float]]] = {}
    for kind, wf, size in checks:
        if kind == "unity":
            if size < 1 or size > 64:
                raise ValueError("unity_resolution_matrix requires 1 <= basis_dim <= 64")
            size -= 1  # the diagonal is moments 0..basis_dim - 1
        elif kind != "moments":
            raise ValueError(f"unknown radial check: {kind!r}")
        (weight, index), (powers, rhs) = _integrand(wf), _moment_references(wf, size)
        needed.setdefault(weight, set()).update((index, p) for p in powers)
        plans.append((kind, wf, weight, index, powers, rhs))
    moments = {}
    for weight, pairs in needed.items():
        union = sorted(pairs)
        moments[weight] = dict(zip(union, _radial_pass(weight, union)))
    out = []
    for kind, wf, weight, index, powers, rhs in plans:
        results = [moments[weight][index, p] for p in powers]
        reports = [
            MomentReport(k, q.value, r, abs(q.value - r) / abs(r), q.nodes_used, q.converged)
            for k, (r, q) in enumerate(zip(rhs, results))
        ]
        out.append(_unity_matrix(wf, powers, reports) if kind == "unity" else reports)
    return out


def moment_check(wf: WeightFunction, k_max: int) -> list[MomentReport]:
    """Verify the power moments that make the family resolve unity.

    Squeezed families: int_0^1 y^k h(y) dy = [(2k)!!]^2 / (pi (m_eff+2k)!)
    with m_eff the vacuum-family index (m, or m+1 for the one-photon family).
    Circle family: the (kL+mu)-th Laplace moment of U(m,1,x) against
    ((kL+mu)!)^2/(kL+m+mu)!.  A report is produced for every k; quadrature
    that fails to converge is flagged, never skipped.  A reference moment
    outside the normal float range is a ValueError, raised before any
    integration.
    """
    return radial_checks([("moments", wf, k_max)])[0]


def unity_resolution_matrix(wf: WeightFunction, basis_dim: int) -> OperatorMatrix:
    """Truncated continuous resolution of unity in the family's subspace.

    The angular integral is exact: it vanishes between different basis
    states, so the matrix is diagonal, and each diagonal entry is the radial
    moment of its basis state's power.  The normalization coefficients of
    state and measure cancel analytically: entry j is moment j of
    ``moment_check(wf, basis_dim - 1)`` divided by its reference, so a
    reference outside the normal float range is the same ValueError.
    """
    return radial_checks([("unity", wf, basis_dim)])[0]


def pasvs_sns_matrix(param: fockstate.SqueezeParam, dim: int) -> np.ndarray:
    """Coefficient matrix expanding each photon-added state over the
    squeezed number states (rows: added-photon index, cols: number index)."""
    if dim < 1 or dim > 64:
        raise ValueError("pasvs_sns_matrix requires 1 <= dim <= 64")
    return fockstate._expansion_matrix(param, range(dim), range(dim), "pasvs")


def sns_pasvs_matrix(param: fockstate.SqueezeParam, dim: int) -> np.ndarray:
    """Coefficient matrix expanding each squeezed number state over the
    photon-added states; the two matrices are mutual inverses."""
    if dim < 1 or dim > 64:
        raise ValueError("sns_pasvs_matrix requires 1 <= dim <= 64")
    return fockstate._expansion_matrix(param, range(dim), range(dim), "sns")


def _pair_coefficient_closed(param: fockstate.SqueezeParam, m: int, n: int) -> complex:
    """Closed-form coefficient of |zeta,m><zeta,n| (m <= n, n-m even) in the
    discrete resolution of unity."""
    y = param.y
    omy = 1.0 - y
    x = omy**-0.5
    q = (n - m) // 2
    nu = (m + n) // 2
    dq = specfun.legendre_p_deriv(q, nu, x)
    log_w = (
        -0.5 * (specfun.log_factorial(n) - specfun.log_factorial(m))
        + 0.5 * (math.log(specfun.legendre_p(m, x)) + math.log(specfun.legendre_p(n, x)))
        - 0.5 * math.log(omy)
        + math.log(dq)
    )
    if q:
        log_w += 0.5 * q * (math.log(y) - math.log(omy))
    phase = (-cmath.exp(-1j * param.phi)) ** q
    return math.exp(log_w) * phase


def _pair_matrix(param: fockstate.SqueezeParam, top: int, coefficients: str) -> np.ndarray:
    """Hermitian matrix D of the pair coefficients of |zeta,m><zeta,n| for
    m, n <= top, zero across parity.

    "closed": the closed form for m <= n, mirrored.  "series": D = C^T conj(C)
    over the rows j of the squeezed-number-state expansion matrix C, with the
    number of rows doubled until the last two rows of each parity add at
    most 1e-17 of every entry.
    """
    if coefficients == "closed":
        pairs = np.zeros((top + 1, top + 1), dtype=complex)
        for m in range(top + 1):
            for n in range(m, top + 1, 2):
                pairs[m, n] = _pair_coefficient_closed(param, m, n)
                pairs[n, m] = pairs[m, n].conjugate()
        return pairs
    rows = 2 * (top + 1)
    while rows <= 4000:
        c = fockstate._expansion_matrix(param, range(rows), range(top + 1), "sns")
        pairs = c.T @ c.conj()
        last = c[-4:].T @ c[-4:].conj()
        if np.all(np.abs(last) <= 1e-17 * np.abs(pairs)):
            return pairs
        rows *= 2
    raise ValueError("pair coefficient series did not converge")


def discrete_completeness_matrix(
    param: fockstate.SqueezeParam,
    m_cutoff: int,
    basis_dim: int,
    coefficients: str = "closed",
) -> OperatorMatrix:
    """Discrete (nonorthogonal-basis) resolution of unity, truncated to the
    photon-added pairs m <= n <= m_cutoff, on the first basis_dim Fock states.

    ``coefficients`` selects the closed-form pair coefficients ("closed") or
    their independent numerical resummation ("series"); the two assemblies
    agreeing validates the closed form.  Cross-parity pairs carry no
    coefficient (they would need half-integer-order Legendre functions and
    cancel identically in the underlying expansion).  The matrix is
    V D V^H, with V the states |zeta, 0..top> on the block and D their pair
    coefficients; pairs with n >= basis_dim have no support on the block.
    """
    return _discrete_matrices(param, [(m_cutoff, coefficients)], basis_dim)[0]


def _discrete_matrices(param: fockstate.SqueezeParam, routes, basis_dim: int) -> list:
    """``discrete_completeness_matrix`` at every (m_cutoff, coefficients) in ``routes``,
    from one block |zeta, 0..max top> and one assembly per distinct (top, coefficients)."""
    if abs(param.zeta) > 0.5:
        raise ValueError("discrete_completeness_matrix requires |zeta| <= 0.5")
    if not all(0 <= m_cutoff <= 80 for m_cutoff, _ in routes):
        raise ValueError("discrete_completeness_matrix requires 0 <= m_cutoff <= 80")
    if basis_dim < 1 or basis_dim > 64:
        raise ValueError("discrete_completeness_matrix requires 1 <= basis_dim <= 64")
    for _, coefficients in routes:
        if coefficients not in ("closed", "series"):
            raise ValueError(f"unknown coefficient route: {coefficients!r}")
    if param.zeta == 0:
        return [OperatorMatrix(0, 1, basis_dim, np.eye(basis_dim, dtype=complex))] * len(routes)
    keys = [(min(m_cutoff, basis_dim - 1), coefficients) for m_cutoff, coefficients in routes]
    ((dense, *_),) = fockstate._pasvs_columns([param], max(t for t, _ in keys), overlap.SERIES_EPS)
    # |zeta, 0..max top> on the first basis_dim Fock states
    vectors = np.pad(dense, ((0, basis_dim), (0, 0)))[:basis_dim]
    out = {}
    for t, c in dict.fromkeys(keys):  # c: the coefficient route
        v = vectors[:, : t + 1]
        out[t, c] = OperatorMatrix(0, 1, basis_dim, v @ _pair_matrix(param, t, c) @ v.conj().T)
    return [out[key] for key in keys]


def sns_completeness_matrix(
    param: fockstate.SqueezeParam, m_cutoff: int, basis_dim: int
) -> OperatorMatrix:
    """Partial sum of squeezed-number-state projectors on the Fock block.

    This is the orthonormal route to the same identity; its deviation from
    the identity matrix shrinks monotonically in the cutoff and serves as
    the convergence oracle for the discrete resolution.
    """
    return _sns_completeness_matrices(param, [m_cutoff], basis_dim)[0]


def _sns_completeness_matrices(param: fockstate.SqueezeParam, cutoffs, basis_dim: int) -> list:
    """``sns_completeness_matrix`` at every cutoff c in ``cutoffs``: V_c V_c^H, with V_c
    the first c + 1 columns of V, the states |0, zeta>..|max c, zeta> on the block."""
    if basis_dim < 1 or basis_dim > 64:
        raise ValueError("sns_completeness_matrix requires 1 <= basis_dim <= 64")
    if min(cutoffs) < 0:
        raise ValueError("sns_completeness_matrix requires m_cutoff >= 0")
    if param.zeta == 0:  # |m, 0> = |m>, off the block from m = basis_dim on
        vectors = np.eye(basis_dim, dtype=complex)
    else:
        coeffs, _, _ = fockstate._sns_states(param, range(max(cutoffs) + 1), overlap.SERIES_EPS)
        vectors = np.pad(coeffs, ((0, basis_dim), (0, 0)))[:basis_dim]
    prefixes = (vectors[:, : cutoff + 1] for cutoff in cutoffs)
    return [OperatorMatrix(0, 1, basis_dim, v @ v.conj().T) for v in prefixes]


def carleman_sequence(m: int, k_list) -> list[tuple[int, float]]:
    """Logarithmic-test ratios ln(a_k)/ln(k) for the moment sequence.

    a_k = ([(2k)!!]^2 / (pi (m+2k)!))^(-1/(2k)); the ratio tending to a
    limit above -1 certifies divergence of sum a_k, hence uniqueness of the
    measure.  Everything is evaluated in log space.
    """
    if m < 0:
        raise ValueError("carleman_sequence requires m >= 0")
    out = []
    for k in k_list:
        if k < 2:
            raise ValueError("carleman_sequence requires k >= 2")
        log_ak = -_log_squeezed_moment(m, k) / (2.0 * k)
        out.append((k, log_ak / math.log(k)))
    return out
