"""Double-exponential quadrature rules.

Two rules cover every integral in the package: a tanh-sinh rule on a finite
interval (handles algebraic and logarithmic endpoint singularities) and an
exp-sinh rule on (0, inf) for integrands with exponential decay.

Integrands are called once per refinement level, on that level's new nodes
as one array.  The tanh-sinh rule also passes the endpoint distances,
computed in the transformed variable, so a factor like ``(1 - y) ** -0.5``
can be evaluated without cancellation arbitrarily close to the endpoint.

The levels are nested (Takahasi-Mori): each evaluates only its new odd-index
nodes and adds their sum to the previous sum, halved for the finer mesh.  The
first level takes every node of nonzero, finite weight on the two rays t >= 0
and t < 0 of the transformed variable, a finer level only those inside the
previous level's cut; each ray is cut after evaluation, at two steps in a row
past |t| = 2 that are small for every power still active.  Each rule also has
a moment form, which integrates x^p f_c(x) for several (power p, column c)
pairs from one evaluation per node of an integrand that returns the columns
f_c side by side; the scalar rules are its one-column, power-0 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadResult", "tanh_sinh", "exp_sinh", "tanh_sinh_moments", "exp_sinh_moments"]

# f(x) on an array of nodes, as a (nodes,) array or a (nodes x columns)
# array; the tanh-sinh rule calls f(x, x - a, b - x)
Integrand = Callable[..., np.ndarray]

_HALF_PI = math.pi / 2.0
# exp-sinh: |t| beyond this takes exp(g) and the weight out of the float range
_T_MAX_EXP = math.asinh(700.0 / _HALF_PI)
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


def _level_t(h, first, reach):
    """t of a level's new nodes: the ray t >= 0, then the ray t < 0, each
    ordered outward and ending at its reach."""
    start, stride = (0, 1) if first else (1, 2)
    up = np.arange(start, math.floor(reach[0] / h) + 1, stride)
    down = np.arange(1, math.floor(reach[1] / h) + 1, stride)
    return np.concatenate((up, -down)) * h


def _tanh_sinh_nodes(t, h, a, width):
    """Nodes on (a, a + width) as (weight, (x, x - a, a + width - x)); the
    weight includes the mesh width h but lacks the factor width/2."""
    g = _HALF_PI * np.sinh(np.abs(t))
    # distance to the nearer endpoint, 1 - tanh(g) without cancellation
    e2g = np.exp(-2.0 * g)
    near = width * e2g / (1.0 + e2g)
    far = width - near
    d_a = np.where(t >= 0.0, far, near)
    d_b = np.where(t >= 0.0, near, far)
    return h * _HALF_PI * np.cosh(t) / np.cosh(g) ** 2, (a + d_a, d_a, d_b)


def _exp_sinh_nodes(t, h):
    """Nodes on (0, inf) as (weight, (x,)): x grows doubly exponentially on
    the ray t > 0 and clusters at 0 on the ray t < 0."""
    x = np.exp(_HALF_PI * np.sinh(t))
    return h * (x * _HALF_PI * np.cosh(t)), (x,)


def _terms(xs, cs, powers):
    """(nodes x powers) terms x^p * (w f) from node columns; summing them over
    axis 0 adds in node order, so results do not depend on the BLAS or the CPU."""
    xp = xs**powers
    terms = cs * xp
    big = ~np.isfinite(xp)
    if big.any():
        # x^p overflows while w f is small: form the term in log space
        log_abs = np.log(np.abs(cs)) + powers * np.log(np.abs(xs))
        odd = (xs < 0) & (powers % 2 == 1)
        logged = np.where(odd, -1.0, 1.0) * np.sign(cs) * np.exp(log_abs)
        terms = np.where(big, logged, terms)
    return terms


def _reach(t, terms, base_abs, previous):
    """|t| of the last node each ray keeps: the second of two small steps in
    a row past |t| = 2, or the previous reach where the ray is not cut.  The
    mass a step is measured against is ``base_abs``, the absolute mass per
    power of the coarser levels, plus the ray's own mass out to the step."""
    reach = []
    for ray, last in zip((t >= 0.0, t < 0.0), previous):
        step = np.abs(terms[ray])
        mass = base_abs + np.cumsum(step, axis=0)
        small = np.all(step <= _TAIL_REL * mass + _TAIL_ABS, axis=1)
        at = np.abs(t[ray])
        ends = np.flatnonzero(small[:-1] & small[1:] & (at[1:] > 2.0))
        reach.append(at[ends[0] + 1] if ends.size else last)
    return reach


# nodes past a ray's cut may overflow in f or in x^p; their terms are dropped,
# and a moment beyond the float range sums to inf and is reported unconverged
@np.errstate(all="ignore")
def _nested_de(f, nodes, t_max, scale, powers, columns, tol, max_level) -> list[QuadResult]:
    """Refine the mesh h = 2^-level until the estimate of each power, taken
    over its column of f, agrees with the previous level's to ``tol``
    (relative, with a rounding floor set by its absolute mass).  A converged
    power keeps the result of the level at which it converged and no longer
    shapes the cuts."""
    p = np.asarray(powers, dtype=float)
    col = np.zeros(len(p), dtype=int) if columns is None else np.asarray(columns, dtype=int)
    # weighted sums over the nodes of every level so far; each node's weight
    # includes the mesh width, so a sum estimates the integral itself, not
    # 2^level times it, and overflows only with the integral
    total = np.zeros(len(p))
    total_abs = np.zeros(len(p))
    value = np.zeros(len(p))
    used = np.zeros(len(p), dtype=int)  # 0 until the power converges
    active = np.arange(len(p))
    reach = (t_max, t_max)
    nodes_used = 0
    for level in range(2, max_level + 1):
        h = 0.5**level
        # the finer mesh halves the weight of every node already summed
        total *= 0.5
        total_abs *= 0.5
        t = _level_t(h, level == 2, reach)
        w, args = nodes(t, h)
        nodes_used += len(t)
        values = np.reshape(f(*args), (len(t), -1))
        terms = _terms(args[0][:, None], (w[:, None] * values)[:, col[active]], p[active])
        base = total_abs[active]
        cut = _reach(t, terms, base, reach)
        kept = terms[np.abs(t) <= np.where(t >= 0.0, cut[0], cut[1])]
        total[active] += kept.sum(axis=0)
        total_abs[active] += np.abs(kept).sum(axis=0)
        new_value = scale * total[active]
        # rounding floor: cancellation-heavy integrands cannot converge
        # relative to a tiny result, only relative to their absolute mass
        floor = _ROUNDING * scale * total_abs[active]
        err = np.abs(new_value - value[active]) if level > 2 else math.inf
        value[active] = new_value
        # an estimate that overflowed is never converged
        done = np.isfinite(err) & (err <= tol * np.abs(new_value) + floor + 1e-305)
        used[active[done]] = nodes_used
        active = active[~done]
        if not len(active):
            break
        # the next level's extent is the cut for the powers still active
        reach = _reach(t, terms[:, ~done], base[~done], reach) if done.any() else cut
    return [QuadResult(v, n or nodes_used, n > 0) for v, n in zip(value.tolist(), used.tolist())]


def _check_powers(powers: Sequence[float], columns, allow_fractional: bool) -> None:
    if len(powers) == 0:
        raise ValueError("moment rule requires at least one power")
    if columns is not None and (len(columns) != len(powers) or min(columns) < 0):
        raise ValueError("moment rule requires one nonnegative column index per power")
    if min(powers) < 0:
        raise ValueError("moment rule requires nonnegative powers")
    if not allow_fractional and any(p != int(p) for p in powers):
        raise ValueError("fractional powers require a >= 0")


def tanh_sinh_moments(
    f: Integrand,
    a: float,
    b: float,
    powers: Sequence[float],
    tol=1e-10,
    max_level=12,
    columns: Sequence[int] | None = None,
) -> list[QuadResult]:
    """Integrals of x^p f(x) over (a, b) for every p in ``powers``, with f
    called once per level on that level's node array as f(x, x - a, b - x).

    With ``columns``, f returns a (nodes x K) array and power i is integrated
    against its column columns[i]; without, every power is integrated
    against the one column f returns.  Each power converges on its own; one
    that does not is returned with ``converged=False``.  Powers must be
    nonnegative, and integer if a < 0.
    """
    if not b > a:
        raise ValueError("tanh_sinh requires b > a")
    _check_powers(powers, columns, a >= 0)
    width = b - a
    # |g| beyond this makes cosh(g)**2 overflow, where the weight is exactly
    # 0, or the distance to the nearer endpoint underflow to 0
    t_max = math.asinh(min(350.0, 0.5 * (math.log(width) + 740.0)) / _HALF_PI)
    nodes = partial(_tanh_sinh_nodes, a=a, width=width)
    return _nested_de(f, nodes, t_max, 0.5 * width, powers, columns, tol, max_level)


def tanh_sinh(f: Integrand, a: float, b: float, tol=1e-10, max_level=12) -> QuadResult:
    """Integrate f over (a, b); f is called on node arrays as f(x, x - a, b - x).

    The mesh is halved until two successive estimates agree to ``tol``
    (relative, with an absolute floor for near-zero integrals).
    """
    return tanh_sinh_moments(f, a, b, (0.0,), tol, max_level)[0]


def exp_sinh_moments(
    f: Integrand,
    powers: Sequence[float],
    tol=1e-10,
    max_level=12,
    columns: Sequence[int] | None = None,
) -> list[QuadResult]:
    """Integrals of x^p f(x) over (0, inf) for every nonnegative p in
    ``powers``, with f called once per level on that level's node array.

    ``columns`` pairs each power with a column of f as in
    ``tanh_sinh_moments``.  Each power converges on its own; one that does
    not is returned with ``converged=False``.
    """
    _check_powers(powers, columns, True)
    return _nested_de(f, _exp_sinh_nodes, _T_MAX_EXP, 1.0, powers, columns, tol, max_level)


def exp_sinh(f: Integrand, tol=1e-10, max_level=12) -> QuadResult:
    """Integrate f over (0, inf); nodes cluster doubly-exponentially at 0."""
    return exp_sinh_moments(f, (0.0,), tol, max_level)[0]
