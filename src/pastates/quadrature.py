"""Double-exponential quadrature rules.

Two rules cover every integral in the package: a tanh-sinh rule on a finite
interval (handles algebraic and logarithmic endpoint singularities) and an
exp-sinh rule on (0, inf) for integrands with exponential decay.

Integrands receive endpoint distances computed in the transformed variable,
so a factor like ``(1 - y) ** -0.5`` can be evaluated without cancellation
arbitrarily close to the endpoint.

The refinement levels are nested (Takahasi-Mori): halving the mesh keeps
every node of the coarser levels, so each level evaluates only its new
odd-index nodes and adds their sum to the previous sum, halved for the finer
mesh.  Each rule also has a moment form, which integrates x^p f(x) for
several powers p from one evaluation of f per node; the scalar rules are its
power-0 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadResult", "tanh_sinh", "exp_sinh", "tanh_sinh_moments", "exp_sinh_moments"]

_HALF_PI = math.pi / 2.0
# |g| beyond this makes cosh(g)**2 overflow; the weight is then exactly 0.
_G_MAX = 350.0
# exp(g) and the exp-sinh weight must stay finite
_EXP_G_MAX = 700.0
_LOG_MAX = math.log(np.finfo(float).max)
# tail test: a step is small when no power gains more than this share of its
# absolute mass (the absolute floor catches an all-zero tail)
_TAIL_REL = 1e-18
_TAIL_ABS = 5e-308
_ROUNDING = 32.0 * 2.220446049250313e-16


@dataclass(frozen=True)
class QuadResult:
    value: float
    nodes_used: int
    converged: bool


def _tanh_sinh_ray(f, a, width, h, first):
    """The level's nodes on (a, a + width) as one ray of steps (t, nodes),
    each node an (x, w * f) pair with the weight w, mesh width h included,
    lacking the factor width/2; a step pairs the node at t with its mirror
    at -t."""
    k, stride = (0, 1) if first else (1, 2)
    while True:
        t = k * h
        g = _HALF_PI * math.sinh(t)
        if g > _G_MAX:
            return
        # distances to the endpoints: 1 -/+ tanh(g) without cancellation
        e2g = math.exp(-2.0 * g)
        d_b = width * e2g / (1.0 + e2g)       # b - x
        d_a = width - d_b                     # x - a
        if d_b <= 0.0 or d_a <= 0.0:
            return
        w = h * _HALF_PI * math.cosh(t) / math.cosh(g) ** 2
        x = a + d_a
        if k == 0:
            yield t, ((x, w * f(x, d_a, d_b)),)
        else:
            # mirror node (t -> -t swaps the endpoint distances)
            x_m = a + d_b
            yield t, ((x, w * f(x, d_a, d_b)), (x_m, w * f(x_m, d_b, d_a)))
        k += stride


def _exp_sinh_rays(f, h, first):
    """The level's nodes on (0, inf) as two rays of steps (t, nodes), each
    node an (x, w * f) pair with the weight w, mesh width h included: t > 0,
    where x grows doubly exponentially, and t < 0, where the nodes cluster
    at 0."""

    def ray(direction):
        k = 0 if first and direction == 1 else 1
        stride = 1 if first else 2
        while True:
            t = direction * k * h
            g = _HALF_PI * math.sinh(t)
            if abs(g) > _EXP_G_MAX:
                return
            x = math.exp(g)
            w = x * _HALF_PI * math.cosh(t)
            if w == 0.0 or math.isinf(w):
                return
            yield t, ((x, h * w * f(x)),)
            k += stride

    return ray(1), ray(-1)


class _LevelSums:
    """This level's new nodes, and their signed and absolute sums of
    x^p * (w f) per power, brought up to date on demand."""

    def __init__(self, powers: np.ndarray):
        self.powers = powers
        self.xs: list[float] = []
        self.cs: list[float] = []
        self.total = np.zeros(len(powers))
        self.abs_total = np.zeros(len(powers))
        self._folded = 0

    def _terms(self, start: int) -> np.ndarray:
        # (nodes x powers) terms x^p * (w f); summing them over axis 0 adds
        # in node order, so results do not depend on the BLAS or the CPU
        xs = np.asarray(self.xs[start:])[:, None]
        cs = np.asarray(self.cs[start:])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            xp = xs**self.powers
            terms = cs * xp
        big = ~np.isfinite(xp)
        if big.any():
            # x^p overflows while w f is small: form the term in log space
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                log_abs = np.log(np.abs(cs)) + self.powers * np.log(np.abs(xs))
                odd = (xs < 0) & (self.powers % 2 == 1)
                logged = np.where(odd, -1.0, 1.0) * np.sign(cs) * np.exp(log_abs)
            terms = np.where(big, logged, terms)
        return terms

    def step_abs(self, count: int) -> np.ndarray:
        """Absolute contribution per power of the last ``count`` nodes."""
        return np.abs(self._terms(len(self.xs) - count)).sum(axis=0)

    def fold(self) -> None:
        terms = self._terms(self._folded)
        self.total += terms.sum(axis=0)
        self.abs_total += np.abs(terms).sum(axis=0)
        self._folded = len(self.xs)


def _log_space_term(ac: float, ax: float, p: float) -> float:
    """ac * ax**p for ax**p beyond the float range."""
    log_term = math.log(ac) + p * math.log(ax)
    return math.exp(log_term) if log_term < _LOG_MAX else math.inf


def _walk_level(rays, powers, base_abs) -> _LevelSums:
    """Walk every ray outward, evaluating each node once, until two steps in
    a row are small for every power and |t| > 2.

    ``base_abs`` is the absolute mass per power of the coarser levels; the
    tail test is relative to it plus this level's mass so far.  The lowest
    and highest powers are tracked per step in plain Python; all powers are
    checked only when both of those are small.
    """
    sums = _LevelSums(powers)
    lo, hi = float(powers.min()), float(powers.max())
    i_lo, i_hi = int(powers.argmin()), int(powers.argmax())
    mass_lo, mass_hi = float(base_abs[i_lo]), float(base_abs[i_hi])
    every_power = len(powers) > 2
    for ray in rays:
        small_in_a_row = 0
        for t, nodes in ray:
            step_lo = step_hi = 0.0
            for x, c in nodes:
                sums.xs.append(x)
                sums.cs.append(c)
                if c:
                    ac, ax = abs(c), abs(x)
                    try:
                        t_lo, t_hi = ac * ax**lo, ac * ax**hi
                    except OverflowError:
                        t_lo, t_hi = _log_space_term(ac, ax, lo), _log_space_term(ac, ax, hi)
                    step_lo += t_lo
                    step_hi += t_hi
            mass_lo += step_lo
            mass_hi += step_hi
            small = (
                step_lo <= _TAIL_REL * mass_lo + _TAIL_ABS
                and step_hi <= _TAIL_REL * mass_hi + _TAIL_ABS
            )
            if small and every_power:
                sums.fold()
                mass = base_abs + sums.abs_total
                small = bool(np.all(sums.step_abs(len(nodes)) <= _TAIL_REL * mass + _TAIL_ABS))
            if small:
                small_in_a_row += 1
                if small_in_a_row >= 2 and abs(t) > 2.0:
                    break
            else:
                small_in_a_row = 0
    sums.fold()
    return sums


# a moment beyond the float range sums to inf and is reported unconverged
@np.errstate(over="ignore", invalid="ignore")
def _nested_de(rays_at, scale, powers, tol, max_level) -> list[QuadResult]:
    """Refine the mesh h = 2^-level until each power's estimate agrees with
    the previous level's to ``tol`` (relative, with a rounding floor set by
    its absolute mass).  A converged power keeps the result of the level at
    which it converged and drops out of the walk."""
    p = np.asarray(powers, dtype=float)
    # weighted sums over the nodes of every level so far; each node's weight
    # includes the mesh width, so a sum estimates the integral itself, not
    # 2^level times it, and overflows only with the integral
    total = np.zeros(len(p))
    total_abs = np.zeros(len(p))
    value = np.zeros(len(p))
    err = np.full(len(p), math.inf)
    results: list[QuadResult | None] = [None] * len(p)
    nodes_used = 0
    for level in range(2, max_level + 1):
        h = 0.5**level
        # the finer mesh halves the weight of every node already summed
        total *= 0.5
        total_abs *= 0.5
        active = np.array([i for i, r in enumerate(results) if r is None])
        sums = _walk_level(rays_at(h, level == 2), p[active], total_abs[active])
        nodes_used += len(sums.xs)
        total[active] += sums.total
        total_abs[active] += sums.abs_total
        new_value = scale * total[active]
        # rounding floor: cancellation-heavy integrands cannot converge
        # relative to a tiny result, only relative to their absolute mass
        floor = _ROUNDING * scale * total_abs[active]
        if level > 2:
            err[active] = np.abs(new_value - value[active])
        value[active] = new_value
        for j, i in enumerate(active):
            # an estimate that overflowed is never converged
            if math.isfinite(err[i]) and err[i] <= tol * abs(new_value[j]) + floor[j] + 1e-305:
                results[i] = QuadResult(float(new_value[j]), nodes_used, True)
        if all(r is not None for r in results):
            break
    return [
        r if r is not None else QuadResult(float(value[i]), nodes_used, False)
        for i, r in enumerate(results)
    ]


def _check_powers(powers: Sequence[float], allow_fractional: bool) -> None:
    if len(powers) == 0:
        raise ValueError("moment rule requires at least one power")
    if min(powers) < 0:
        raise ValueError("moment rule requires nonnegative powers")
    if not allow_fractional and any(p != int(p) for p in powers):
        raise ValueError("fractional powers require a >= 0")


def tanh_sinh_moments(
    f: Callable[[float, float, float], float],
    a: float,
    b: float,
    powers: Sequence[float],
    tol: float = 1e-10,
    max_level: int = 12,
) -> list[QuadResult]:
    """Integrals of x^p f(x) over (a, b) for every p in ``powers``, with f
    called once per node as f(x, x - a, b - x).

    Each power converges on its own; one that does not is returned with
    ``converged=False``.  Powers must be nonnegative, and integer if a < 0.
    """
    if not b > a:
        raise ValueError("tanh_sinh requires b > a")
    _check_powers(powers, a >= 0)
    width = b - a
    return _nested_de(
        lambda h, first: (_tanh_sinh_ray(f, a, width, h, first),),
        0.5 * width,
        powers,
        tol,
        max_level,
    )


def tanh_sinh(
    f: Callable[[float, float, float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_level: int = 12,
) -> QuadResult:
    """Integrate f over (a, b); f is called as f(x, x - a, b - x).

    The mesh is halved until two successive estimates agree to ``tol``
    (relative, with an absolute floor for near-zero integrals).
    """
    return tanh_sinh_moments(f, a, b, (0.0,), tol, max_level)[0]


def exp_sinh_moments(
    f: Callable[[float], float],
    powers: Sequence[float],
    tol: float = 1e-10,
    max_level: int = 12,
) -> list[QuadResult]:
    """Integrals of x^p f(x) over (0, inf) for every nonnegative p in
    ``powers``, with f called once per node.

    Each power converges on its own; one that does not is returned with
    ``converged=False``.
    """
    _check_powers(powers, True)
    return _nested_de(lambda h, first: _exp_sinh_rays(f, h, first), 1.0, powers, tol, max_level)


def exp_sinh(
    f: Callable[[float], float],
    tol: float = 1e-10,
    max_level: int = 12,
) -> QuadResult:
    """Integrate f over (0, inf); nodes cluster doubly-exponentially at 0."""
    return exp_sinh_moments(f, (0.0,), tol, max_level)[0]
