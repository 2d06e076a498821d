"""State constructors on strided Fock subspaces.

Every family is built as a finite coefficient vector |offset + k*stride>
with a rigorous geometric bound on the squared norm of the truncated tail.
Constructors normalize through the closed-form coefficients from
``overlap`` and then *assert* that the coefficient sum plus tail is 1, so a
formula bug surfaces instead of being hidden by renormalization.

Exact ladder-operator actions are provided for independent verification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import overlap, specfun

__all__ = [
    "SqueezeParam",
    "CircleParam",
    "FockVector",
    "pasvs",
    "pasops",
    "sns",
    "csc",
    "pacsc",
    "apply_raising",
    "apply_lowering",
    "inner",
]

_NORM_TOL = 1e-9
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing label zeta, restricted to the open unit disc."""

    zeta: complex

    def __post_init__(self):
        object.__setattr__(self, "zeta", complex(self.zeta))
        if not abs(self.zeta) < 1.0:
            raise ValueError("SqueezeParam requires |zeta| < 1")

    @property
    def y(self) -> float:
        return abs(self.zeta) ** 2

    @property
    def phi(self) -> float:
        return math.atan2(self.zeta.imag, self.zeta.real)


@dataclass(frozen=True)
class CircleParam:
    """Label (z, lam, mu) of an eigenstate of the lam-th annihilation power."""

    z: complex
    lam: int
    mu: int

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        if not cmath.isfinite(self.z):
            raise ValueError(f"CircleParam requires a finite z, got z={self.z}")
        if self.lam < 1:
            raise ValueError("CircleParam requires lam >= 1")
        if not 0 <= self.mu < self.lam:
            raise ValueError("CircleParam requires 0 <= mu < lam")

    @property
    def t(self) -> complex:
        """Principal lam-th root of z (deterministic choice; any root works)."""
        if self.z == 0:
            return 0.0 + 0.0j
        r = abs(self.z) ** (1.0 / self.lam)
        theta = math.atan2(self.z.imag, self.z.real) / self.lam
        return complex(r * math.cos(theta), r * math.sin(theta))

    @property
    def y(self) -> float:
        """|z|^2 / lam^lam, formed in log space, where neither power overflows."""
        if self.z == 0:
            return 0.0
        try:
            return math.exp(2.0 * math.log(abs(self.z)) - self.lam * math.log(self.lam))
        except OverflowError:
            raise OverflowError(
                f"CircleParam: y = |z|^2 / lam^lam overflows at z={self.z}, lam={self.lam}"
            ) from None


@dataclass(frozen=True, eq=False)
class FockVector:
    """Truncated expansion on the lattice |offset + k*stride>.

    tail_bound bounds the squared norm of everything beyond the stored
    coefficients (rigorous for constructor outputs, heuristic after ladder
    operations).
    """

    offset: int
    stride: int
    coeffs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if self.offset < 0 or self.stride < 1:
            raise ValueError("FockVector requires offset >= 0 and stride >= 1")

    def photon_numbers(self) -> np.ndarray:
        return self.offset + self.stride * np.arange(len(self.coeffs))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def coefficient(self, n: int) -> complex:
        """Amplitude on |n> (0 off the stored lattice)."""
        k, rem = divmod(n - self.offset, self.stride)
        if rem != 0 or k < 0 or k >= len(self.coeffs):
            return 0.0 + 0.0j
        return complex(self.coeffs[k])

    def dense(self, dim: int) -> np.ndarray:
        """Coefficients on |0> .. |dim-1> as a flat array."""
        out = np.zeros(dim, dtype=complex)
        n = self.photon_numbers()
        mask = n < dim
        out[n[mask]] = self.coeffs[mask]
        return out


def _unit_vector(n: int, stride: int) -> FockVector:
    return FockVector(offset=n, stride=stride, coeffs=np.array([1.0 + 0.0j]), tail_bound=0.0)


def _check_defect(label, defect: float) -> None:
    if not defect <= _NORM_TOL:  # label() forms the state's name only here
        raise ArithmeticError(
            f"{label()}: closed-form normalization check failed (defect {defect:.3e})"
        )


def _cap_error(label: str, eps: float) -> ValueError:
    message = f"state truncation did not converge within {_MAX_TERMS} terms"
    return ValueError(f"{label} eps={eps}: {message}")


def _build_truncated(log_mag0, phase_unit, ratio, limit_ratio, eps, label):
    """Coefficients c_k = exp(L_k) * phase_unit^k, cut when the geometric
    tail bound drops below eps.

    ratio(k) is the analytic amplitude ratio |c_{k+1}/c_k|; limit_ratio is
    its k -> inf limit, so max(ratio(k+1), limit_ratio) dominates every
    later step whichever way the ratios approach the limit.  Each ratio is
    evaluated once: ratio(k+1) bounds the tail at step k and is the step
    ratio at k+1.  ``pasvs`` makes the same cut in numpy passes; the short
    circle-state vectors are cut here, one step per coefficient.  Errors
    name the state by label(), formed only when one is raised.
    """
    coeffs = []
    log_mag = log_mag0
    phase = 1.0 + 0.0j
    k = 0
    r = ratio(0)
    while True:
        if not math.isfinite(r):
            raise ArithmeticError(f"{label()}: amplitude ratio is not finite at k={k}")
        coeffs.append(math.exp(log_mag) * phase)
        if r == 0.0:
            # ratio underflowed: every further coefficient is below the
            # smallest positive double, the tail is exactly zero here
            return np.array(coeffs), 0.0
        log_next = log_mag + math.log(r)
        r_next = ratio(k + 1)
        rho = max(r_next, limit_ratio)
        if rho < 1.0:
            tail = math.exp(2.0 * log_next) / (1.0 - rho * rho)
            if tail < eps:
                return np.array(coeffs), tail
        k += 1
        if k > _MAX_TERMS:
            raise _cap_error(label(), eps)
        log_mag = log_next
        phase *= phase_unit
        r = r_next


def _check_eps(name: str, eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"{name} requires a finite eps > 0, got eps={eps}")
    if eps >= _NORM_TOL:  # a tail bound of eps could fail the normalization check
        raise ValueError(
            f"{name} requires eps < {_NORM_TOL}, the normalization tolerance; got eps={eps}"
        )


def _check_args(name: str, m: int, eps: float) -> None:
    if m < 0:
        raise ValueError(f"{name} requires m >= 0")
    _check_eps(name, eps)


def _pasvs_log_amplitude0(param: SqueezeParam, m: int, log_norm: float) -> float:
    """log |<m|zeta, m>|, the first amplitude of |zeta, m> (log_norm: ln of
    its closed-form normalization, from ``overlap._pasvs_log_norms``)."""
    return -0.5 * log_norm + 0.25 * math.log1p(-param.y) + 0.5 * specfun.log_factorial(m)


def _pasvs_rows(az: float, m: int, eps: float) -> int:
    """First guess at the rows a cut of |zeta, m> needs: |c_k|^2 falls like
    |zeta|^(2k) k^m, and the guess is capped at the _MAX_TERMS + 1 rows
    beyond which no cut converges."""
    geometric = math.log(eps) / (2.0 * math.log(az))
    guess = geometric + m * math.log(max(geometric, 2.0)) / (-2.0 * math.log(az))
    return min(max(16, int(guess) + 1), _MAX_TERMS + 1)


def _pasvs_cut(name: str, shift: int, labels, eps: float) -> list:
    """The coefficients and tail bound of |zeta, m> for every (param, m,
    log_norm[, named]) in ``labels`` (log_norm: ln of its closed-form
    normalization, from ``overlap._pasvs_log_norms``), cut as
    ``_build_truncated`` cuts it.

    The rows k = 0..rows of every label's segment are laid end to end in
    one 1-D array, and each elementwise pass of the cut runs once over all
    of them: the step ratio sqrt(j (j + 1)) |zeta| / (2k + 2) with
    j = 2k + m + 1, the log amplitudes (summed within each segment, in the
    order of _build_truncated) and the geometric tail bound.  A segment
    that does not cut is run again twice as long.  Every vector's
    coefficient sum plus tail is checked against 1.  Errors name a vector
    as the ``name`` state at index m - shift; of the segments that reach
    the term cap in one pass, the last is named.
    """
    live = [(i, abs(lab[0].zeta), lab[1]) for i, lab in enumerate(labels) if lab[0].zeta != 0]
    # zeta = 0 gives the unit vector |m>, with no tail
    unit = (np.array([1.0 + 0.0j]), 0.0) if len(live) < len(labels) else None
    out = [unit] * len(labels)
    if not live:
        return out
    rows = [_pasvs_rows(az, m, eps) for _, az, m in live]
    while True:
        # j = 2k + m + 1 at each segment's k = 0..rows; j * (j + 1) and
        # 2k + 2 = j + 1 - m are exact in float
        parts = [
            np.arange(m + 1, m + 2 * r + 3, 2, dtype=float) for (_, _, m), r in zip(live, rows)
        ]
        if len(live) == 1:
            j = parts[0]
            az, one_minus_m = live[0][1], 1.0 - live[0][2]
            bounds = [(0, len(j))]
        else:
            j = np.concatenate(parts)
            sizes = [len(part) for part in parts]
            az = np.repeat([az for _, az, _ in live], sizes)
            one_minus_m = np.repeat([1.0 - m for _, _, m in live], sizes)
            ends = list(accumulate(sizes))
            bounds = list(zip([0] + ends, ends))
        ratio = np.sqrt(j * (j + 1)) * az / (j + one_minus_m)
        with np.errstate(all="ignore"):
            log_mag = np.empty(len(j))
            np.log(ratio[:-1], out=log_mag[1:])
            for (i, _, m), (start, end) in zip(live, bounds):
                param, log_norm = labels[i][0], labels[i][2]
                log_mag[start] = _pasvs_log_amplitude0(param, m, log_norm)
                np.add.accumulate(log_mag[start:end], out=log_mag[start:end])
            rho = np.maximum(ratio[1:], az if len(live) == 1 else az[:-1])
            # rho >= 1 bounds no tail: its tail is +inf or NaN, never below
            # eps.  A ratio that underflows to 0 makes every later log
            # amplitude -inf, so the tail there is exactly 0 and cuts.  A
            # segment's last entry pairs it with the next and is not read.
            tail = np.exp(2.0 * log_mag[1:]) / np.maximum(1.0 - rho * rho, 0.0)
        below = tail < eps
        cuts = [start + below[start : end - 1].argmax() for start, end in bounds]
        short = [n for n, cut in enumerate(cuts) if not below[cut]]
        if not short:
            break
        capped = [n for n in short if rows[n] > _MAX_TERMS]
        if capped:
            raise _cap_error(_segment_label(name, shift, labels[live[capped[-1]][0]]), eps)
        for n in short:
            rows[n] = min(2 * rows[n], _MAX_TERMS + 1)
    for (i, _, _), cut, (start, _) in zip(live, cuts, bounds):
        mag, tail_i = np.exp(log_mag[start : cut + 1]), float(tail[cut])
        defect = abs(float(mag @ mag) + tail_i - 1.0)
        _check_defect(lambda: _segment_label(name, shift, labels[i]), defect)
        out[i] = mag * _phase_powers(labels[i][0].zeta, len(mag)), tail_i
    return out


def _phase_powers(zeta: complex, count: int) -> np.ndarray:
    """(zeta/|zeta|)^k, k < count, the squeeze phase of coefficient k of |zeta, m>."""
    powers = np.empty(count, dtype=complex)
    powers.fill(zeta / abs(zeta))
    powers[0] = 1.0
    return powers.cumprod()


def _segment_label(name: str, shift: int, label) -> str:
    """How errors name the vector of a (param, m, log_norm[, named]) label: named if given."""
    return f"{name} zeta={(label[3:] or label)[0].zeta} m={label[1] - shift}"


def _vacuum_family_vector(
    name: str, shift: int, param: SqueezeParam, m: int, eps: float
) -> FockVector:
    """|zeta, m> as a Fock vector, cut by ``_pasvs_cut`` as one segment,
    whose errors name it as the ``name`` state at index m - shift."""
    if param.zeta == 0:
        return _unit_vector(m, 2)
    log_norm = overlap._pasvs_log_norms(param, m)[m]
    ((coeffs, tail),) = _pasvs_cut(name, shift, [(param, m, log_norm)], eps)
    return FockVector(m, 2, coeffs, tail)


def pasvs(param: SqueezeParam, m: int, eps: float = 1e-14) -> FockVector:
    """Photon-added squeezed vacuum state |zeta, m> as a Fock vector."""
    _check_args("pasvs", m, eps)
    return _vacuum_family_vector("pasvs", 0, param, m, eps)


def _pasvs_columns(params, top: int, eps: float) -> list:
    """|zeta, i> for every i = 0..top and every label zeta in ``params``.

    Returns one (dense, lengths, tails, log_norms) per label: column i of
    ``dense`` holds the coefficients of |zeta, i> on |0>, |1>, ...
    (zero-padded), and lengths[i], tails[i] and log_norms[i] are its stored
    length, tail bound and ln of its closed-form normalization, read off one
    ``overlap._pasvs_log_norms`` table per modulus.  The cut depends on
    |zeta| alone and the phase enters coefficient k as (zeta/|zeta|)^k, so
    one ``_pasvs_cut`` pass cuts a real table per distinct modulus, which
    each label multiplies by its phase powers.
    Column i is ``pasvs(param, i, eps)`` bit for bit; errors name a modulus's first label.
    """
    _check_args("pasvs", top, eps)
    named = {abs(p.zeta): p for p in reversed(params)}  # a modulus's first label
    indices = range(top + 1)
    norms = {a: overlap._pasvs_log_norms(p, top) for a, p in named.items()}
    labels = [(SqueezeParam(a), i, norms[a][i], p) for a, p in named.items() for i in indices]
    cut = iter(_pasvs_cut("pasvs", 0, labels, eps))
    real = {}
    for a, row in norms.items():
        own = [next(cut) for _ in row]
        lengths = np.array([len(coeffs) for coeffs, _ in own])
        dense = np.zeros((top + 2 * int(lengths.max()), top + 1), dtype=complex)
        for i, (coeffs, _) in enumerate(own):
            # coefficient k of |zeta, i> sits on the photon number i + 2k
            dense[i : i + 2 * len(coeffs) : 2, i] = coeffs
        # entry (n, i) is coefficient k = (n - i) / 2 of |zeta, i>, or 0
        k = np.maximum(np.subtract.outer(np.arange(len(dense)), indices), 0) // 2
        real[a] = dense, k, lengths, np.array([tail for _, tail in own]), row
    tables = []
    for param in params:
        dense, k, *rest = real[abs(param.zeta)]
        if param.zeta != abs(param.zeta):
            dense = dense * _phase_powers(param.zeta, len(dense))[k]
        tables.append((dense, *rest))
    return tables


def pasops(param: SqueezeParam, m: int, eps: float = 1e-14) -> FockVector:
    """Photon-added squeezed one-photon state |1, zeta, m> as a Fock vector.

    S(zeta)|1> is proportional to a^dag S(zeta)|0>, so |1, zeta, m> is the
    photon-added squeezed vacuum state |zeta, m+1>, cut as ``pasvs`` cuts
    it.  A failed normalization check and a cut beyond the term cap raise
    their errors under this name and index.
    """
    _check_args("pasops", m, eps)
    return _vacuum_family_vector("pasops", 1, param, m + 1, eps)


def _expansion_matrix(param: SqueezeParam, rows, cols, expand: str) -> np.ndarray:
    """Expansion coefficients between the photon-added squeezed vacuum
    states |zeta, k> and the orthonormal squeezed number states |k, zeta>.

    expand="sns": entry (m, k) is the coefficient of |zeta, k> in |m, zeta>.
    expand="pasvs": entry (m, k) is the coefficient of |k, zeta> in |zeta, m>.
    An entry is zero unless m - k = 2p with p >= 0, and is otherwise
    exp(1/2 (ln m! - ln k!) - ln (m-k)!! +- ln N_j) (-+conj(zeta))^p, with
    N_j = (1-y)^(j/4) P_j(x)^(1/2) and x = (1-y)^(-1/2): the upper signs and
    j = k for "sns", the lower signs and j = m for "pasvs".
    """
    rows, cols = np.asarray(rows)[:, None], np.asarray(cols)[None, :]
    top = int(max(rows.max(), cols.max()))
    log_p = np.array(overlap._log_legendre_p(param, top))
    log_n = 0.25 * np.arange(top + 1) * math.log(1.0 - param.y) + 0.5 * log_p
    log_fact = np.array([specfun.log_factorial(i) for i in range(top + 1)])
    diff = rows - cols
    valid = (diff >= 0) & (diff % 2 == 0)
    p = np.where(valid, diff // 2, 0)
    if expand == "sns":
        log_norm, unit = log_n[cols], -param.zeta.conjugate()
    else:
        log_norm, unit = -log_n[rows], param.zeta.conjugate()
    # (m-k)!! = 2^p p! for even m - k
    log_mag = 0.5 * (log_fact[rows] - log_fact[cols]) - p * math.log(2.0) - log_fact[p] + log_norm
    return np.exp(np.where(valid, log_mag, -np.inf)) * unit**p


def sns(param: SqueezeParam, m: int, eps: float = 1e-14) -> FockVector:
    """Squeezed number state |m, zeta> assembled as its finite combination
    of photon-added squeezed vacuum states."""
    _check_args("sns", m, eps)
    if param.zeta == 0:
        return _unit_vector(m, 2)
    coeffs, lengths, tails = _sns_states(param, [m], eps)
    # part k is stored on the photon numbers k, k + 2, ... below k + 2 * lengths[k]
    ks = np.arange(m % 2, m + 1, 2)
    return FockVector(m % 2, 2, coeffs[m % 2 : int(np.max(ks + 2 * lengths[ks])) : 2, 0], tails[0])


def _sns_states(param: SqueezeParam, ms, eps: float):
    """The squeezed number states |m, zeta> for every m in ``ms`` as the
    columns of dense @ weights^T, with the parts |zeta, k> the columns of
    ``_pasvs_columns`` and one row of the expansion matrix per state;
    returns (coeffs, lengths of the parts, tail bounds of the states).

    The parts are cut at eps / max_m (sum_k |w_mk|)^2, so that the combined
    tail bound (sum_k |w_mk| sqrt(tail_k))^2 of every state stays below eps
    however large its weights are.  The callers check ms >= 0 and eps.
    """
    weights = _expansion_matrix(param, ms, range(max(ms) + 1), "sns")
    part_eps = eps / float(np.max(np.sum(np.abs(weights), axis=1))) ** 2
    ((dense, lengths, part_tails, _),) = _pasvs_columns([param], max(ms), part_eps)
    # one product per parity of photon numbers skips the zeros and stays single-threaded
    coeffs = np.zeros((len(dense), len(weights)), dtype=complex)
    for parity in (0, 1):
        own = np.asarray(ms) % 2 == parity
        coeffs[parity::2, own] = dense[parity::2, parity::2] @ weights[own, parity::2].T
    tails = (np.abs(weights) @ np.sqrt(part_tails)) ** 2
    defects = np.abs(np.sum(np.abs(coeffs) ** 2, axis=0) + tails - 1.0)
    j = int(np.argmax(defects))  # the largest defect, or the first NaN
    _check_defect(lambda: f"sns zeta={param.zeta} m={ms[j]}", defects[j])
    return coeffs, lengths, tails


def csc(param: CircleParam, eps: float = 1e-14) -> FockVector:
    """Eigenstate |z, mu> of a^lam on the photon numbers = mu mod lam: |z, mu, 0>."""
    _check_eps("csc", eps)
    return _circle_state("csc", param, 0, eps)


def pacsc(param: CircleParam, m: int, eps: float = 1e-14) -> FockVector:
    """Photon-added circle coherent state |z, mu, m> as a Fock vector."""
    _check_args("pacsc", m, eps)
    return _circle_state("pacsc", param, m, eps)


def _circle_state(name: str, param: CircleParam, m: int, eps: float) -> FockVector:
    """|z, mu, m> on |m + mu + k lam>, with amplitudes proportional to
    z^k sqrt((k lam + mu + m)!) / (k lam + mu)!; the first is F_m^(-1/2)."""
    lam, mu = param.lam, param.mu
    if param.z == 0:
        return _unit_vector(m + mu, lam)
    az = abs(param.z)

    def ratio(k: int) -> float:
        # one factor per j: the products over all j overflow from lam = 135 at |z| = 1
        r = az
        for n in range(k * lam + mu + 1, (k + 1) * lam + mu + 1):
            r *= math.sqrt(n + m) / n
        return r

    def label():
        return overlap._circle_label(name, param, m if name == "pacsc" else None)

    log_mag0 = -0.5 * math.log(overlap._circle_series(param, m, label))
    coeffs, tail = _build_truncated(log_mag0, param.z / az, ratio, 0.0, eps, label)
    v = FockVector(m + mu, lam, coeffs, tail)
    _check_defect(lambda: name, abs(v.norm_sq() + tail - 1.0))
    return v


def apply_raising(v: FockVector) -> FockVector:
    """a^dag applied exactly; the output is not renormalized."""
    if len(v.coeffs) == 0:
        return FockVector(v.offset, v.stride, v.coeffs, v.tail_bound)
    n = v.photon_numbers()
    top = int(n[-1])
    scaled = v.coeffs * np.sqrt(n + 1.0)
    return FockVector(v.offset + 1, v.stride, scaled, v.tail_bound * (top + v.stride + 1))


def apply_lowering(v: FockVector) -> FockVector:
    """a applied exactly; the output is not renormalized."""
    if len(v.coeffs) == 0:
        return FockVector(v.offset, v.stride, v.coeffs, v.tail_bound)
    n = v.photon_numbers()
    top = int(n[-1])
    scaled = v.coeffs * np.sqrt(n.astype(float))
    if v.offset == 0:
        if len(scaled) == 1:
            return FockVector(0, v.stride, np.zeros(0, dtype=complex), 0.0)
        return FockVector(v.stride - 1, v.stride, scaled[1:], v.tail_bound * (top + 1))
    return FockVector(v.offset - 1, v.stride, scaled, v.tail_bound * (top + 1))


def inner(u: FockVector, v: FockVector) -> complex:
    """<u|v> over the photon numbers both vectors occupy."""
    if u.stride != v.stride:
        _, iu, iv = np.intersect1d(
            u.photon_numbers(), v.photon_numbers(), assume_unique=True, return_indices=True
        )
        return complex(np.vdot(u.coeffs[iu], v.coeffs[iv]))
    shift, rem = divmod(v.offset - u.offset, u.stride)
    if rem != 0:
        return 0.0 + 0.0j
    # u.coeffs[k + shift] and v.coeffs[k] sit on the same photon number
    a = u.coeffs[max(shift, 0) :]
    b = v.coeffs[max(-shift, 0) :]
    n = min(len(a), len(b))
    return complex(np.vdot(a[:n], b[:n]))
