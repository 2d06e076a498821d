"""State constructors on strided Fock subspaces.

Every family is built as a finite coefficient vector |offset + k*stride>
with a rigorous geometric bound on the squared norm of the truncated tail.
Constructors normalize through the closed-form coefficients from
``overlap`` and then *assert* that the coefficient sum plus tail is 1, so a
formula bug surfaces instead of being hidden by renormalization.

Exact ladder-operator actions are provided for independent verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        return abs(self.z) ** 2 / float(self.lam) ** self.lam


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


def _check_normalized(v: FockVector, label: str) -> FockVector:
    defect = abs(v.norm_sq() + v.tail_bound - 1.0)
    if defect > _NORM_TOL:
        raise ArithmeticError(
            f"{label}: closed-form normalization check failed (defect {defect:.3e})"
        )
    return v


def _build_truncated(log_mag0, phase_unit, ratio, limit_ratio, eps):
    """Coefficients c_k = exp(L_k) * phase_unit^k, cut when the geometric
    tail bound drops below eps.

    ratio(k) is the analytic amplitude ratio |c_{k+1}/c_k|; limit_ratio is
    its k -> inf limit, so max(ratio(k+1), limit_ratio) dominates every
    later step whichever way the ratios approach the limit.  Each ratio is
    evaluated once: ratio(k+1) bounds the tail at step k and is the step
    ratio at k+1.
    """
    coeffs = []
    log_mag = log_mag0
    phase = 1.0 + 0.0j
    k = 0
    r = ratio(0)
    while True:
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
            raise ValueError("state truncation did not converge")
        log_mag = log_next
        phase *= phase_unit
        r = r_next


def pasvs(param: SqueezeParam, m: int, eps: float = 1e-14) -> FockVector:
    """Photon-added squeezed vacuum state |zeta, m> as a Fock vector."""
    if m < 0:
        raise ValueError("pasvs requires m >= 0")
    if eps <= 0:
        raise ValueError("pasvs requires eps > 0")
    az = abs(param.zeta)
    if az >= 1.0 - 1e-12:
        raise ValueError("pasvs: |zeta| too close to 1, truncation cost diverges")
    if param.zeta == 0:
        return _unit_vector(m, 2)
    norm = overlap.pasvs_norm(param, m)
    log_mag0 = -0.5 * math.log(norm) + 0.25 * math.log1p(-param.y) + 0.5 * specfun.log_factorial(m)

    def ratio(k: int) -> float:
        return math.sqrt((2 * k + m + 1) * (2 * k + m + 2)) * az / (2.0 * (k + 1))

    coeffs, tail = _build_truncated(log_mag0, param.zeta / az, ratio, az, eps)
    return _check_normalized(FockVector(m, 2, coeffs, tail), "pasvs")


def pasops(param: SqueezeParam, m: int, eps: float = 1e-14) -> FockVector:
    """Photon-added squeezed one-photon state |1, zeta, m> as a Fock vector."""
    if m < 0:
        raise ValueError("pasops requires m >= 0")
    if eps <= 0:
        raise ValueError("pasops requires eps > 0")
    az = abs(param.zeta)
    if az >= 1.0 - 1e-12:
        raise ValueError("pasops: |zeta| too close to 1, truncation cost diverges")
    if param.zeta == 0:
        return _unit_vector(m + 1, 2)
    norm = overlap.pasops_norm(param, m)
    log_mag0 = (
        -0.5 * math.log(norm)
        + 0.75 * math.log1p(-param.y)
        + 0.5 * specfun.log_factorial(m + 1)
    )

    def ratio(k: int) -> float:
        return math.sqrt((2 * k + m + 2) * (2 * k + m + 3)) * az / (2.0 * (k + 1))

    coeffs, tail = _build_truncated(log_mag0, param.zeta / az, ratio, az, eps)
    return _check_normalized(FockVector(m + 1, 2, coeffs, tail), "pasops")


def sns_coefficient(param: SqueezeParam, m: int, k: int) -> complex:
    """Coefficient of |zeta, k> in the expansion of the squeezed number
    state |m, zeta> over photon-added squeezed vacuum states.

    Zero unless m - k is even and 0 <= k <= m.
    """
    if k > m or k < 0 or (m - k) % 2 != 0:
        return 0.0 + 0.0j
    omy = 1.0 - param.y
    x = omy**-0.5
    p = (m - k) // 2
    log_mag = (
        0.5 * specfun.log_factorial(m)
        - 0.5 * specfun.log_factorial(k)
        - specfun.log_double_factorial(m - k)
        + 0.25 * k * math.log(omy)
        + 0.5 * math.log(specfun.legendre_p(k, x))
    )
    return math.exp(log_mag) * (-param.zeta.conjugate()) ** p


def pasvs_coefficient(param: SqueezeParam, m: int, k: int) -> complex:
    """Coefficient of |k, zeta> in the expansion of |zeta, m> over squeezed
    number states.

    Zero unless m - k is even and 0 <= k <= m.
    """
    if k > m or k < 0 or (m - k) % 2 != 0:
        return 0.0 + 0.0j
    omy = 1.0 - param.y
    x = omy**-0.5
    p = (m - k) // 2
    log_mag = (
        0.5 * specfun.log_factorial(m)
        - 0.5 * specfun.log_factorial(k)
        - specfun.log_double_factorial(m - k)
        - 0.25 * m * math.log(omy)
        - 0.5 * math.log(specfun.legendre_p(m, x))
    )
    return math.exp(log_mag) * param.zeta.conjugate() ** p


def sns(param: SqueezeParam, m: int, eps: float = 1e-14) -> FockVector:
    """Squeezed number state |m, zeta> assembled as its finite combination
    of photon-added squeezed vacuum states."""
    if m < 0:
        raise ValueError("sns requires m >= 0")
    if param.zeta == 0:
        return _unit_vector(m, 2)
    off = m % 2
    parts = []
    weights = []
    for k in range(off, m + 1, 2):
        c = sns_coefficient(param, m, k)
        parts.append(pasvs(param, k, eps))
        weights.append(c)
    length = max((k_vec.offset - off) // 2 + len(k_vec.coeffs) for k_vec in parts)
    out = np.zeros(length, dtype=complex)
    tail_amp = 0.0
    for w, vec in zip(weights, parts):
        shift = (vec.offset - off) // 2
        out[shift : shift + len(vec.coeffs)] += w * vec.coeffs
        tail_amp += abs(w) * math.sqrt(vec.tail_bound)
    return _check_normalized(FockVector(off, 2, out, tail_amp**2), "sns")


def csc(param: CircleParam, eps: float = 1e-14) -> FockVector:
    """Eigenstate of a^lam on the subspace with photon numbers = mu mod lam."""
    if eps <= 0:
        raise ValueError("csc requires eps > 0")
    lam, mu = param.lam, param.mu
    if param.z == 0:
        return _unit_vector(mu, lam)
    az = abs(param.z)
    norm = overlap.csc_norm(param)
    log_mag0 = -0.5 * math.log(norm)

    def ratio(k: int) -> float:
        prod = 1.0
        for j in range(1, lam + 1):
            prod *= k * lam + mu + j
        return az / math.sqrt(prod)

    coeffs, tail = _build_truncated(log_mag0, param.z / az, ratio, 0.0, eps)
    return _check_normalized(FockVector(mu, lam, coeffs, tail), "csc")


def pacsc(param: CircleParam, m: int, eps: float = 1e-14) -> FockVector:
    """Photon-added circle coherent state |z, mu, m> as a Fock vector."""
    if m < 0:
        raise ValueError("pacsc requires m >= 0")
    if eps <= 0:
        raise ValueError("pacsc requires eps > 0")
    lam, mu = param.lam, param.mu
    if param.z == 0:
        return _unit_vector(m + mu, lam)
    az = abs(param.z)
    norm_mu = overlap.csc_norm(param)
    norm_mum = overlap.pacsc_norm(param, m)
    log_mag0 = (
        -0.5 * (math.log(norm_mum) + math.log(norm_mu))
        + 0.5 * (specfun.log_factorial(mu) + specfun.log_factorial(m + mu))
        - specfun.log_factorial(mu)
    )

    def ratio(k: int) -> float:
        num = 1.0
        den = 1.0
        for j in range(1, lam + 1):
            num *= k * lam + m + mu + j
            den *= k * lam + mu + j
        return az * math.sqrt(num) / den

    coeffs, tail = _build_truncated(log_mag0, param.z / az, ratio, 0.0, eps)
    return _check_normalized(FockVector(m + mu, lam, coeffs, tail), "pacsc")


def apply_raising(v: FockVector) -> FockVector:
    """a^dag applied exactly; the output is not renormalized."""
    if len(v.coeffs) == 0:
        return FockVector(v.offset, v.stride, v.coeffs, v.tail_bound)
    n = v.photon_numbers()
    top = int(n[-1])
    return FockVector(
        v.offset + 1,
        v.stride,
        v.coeffs * np.sqrt(n + 1.0),
        v.tail_bound * (top + v.stride + 1),
    )


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
