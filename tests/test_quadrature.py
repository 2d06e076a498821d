import math

import numpy as np
import pytest

from pastates.quadrature import exp_sinh, exp_sinh_moments, tanh_sinh, tanh_sinh_moments


def test_tanh_sinh_polynomial():
    res = tanh_sinh(lambda x, da, db: x * x, 0.0, 3.0)
    assert res.converged
    assert res.value == pytest.approx(9.0, rel=1e-12)


def test_tanh_sinh_inverse_sqrt_endpoint():
    res = tanh_sinh(lambda x, da, db: 1.0 / np.sqrt(db), 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_tanh_sinh_log_endpoint():
    res = tanh_sinh(lambda x, da, db: np.log(1.0 / x), 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_tanh_sinh_double_singularity():
    # int_0^1 dx / sqrt(x (1-x)) = pi
    res = tanh_sinh(lambda x, da, db: 1.0 / np.sqrt(da * db), 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(math.pi, rel=1e-12)


def test_tanh_sinh_shifted_interval():
    res = tanh_sinh(lambda x, da, db: np.sin(x), 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_tanh_sinh_requires_ordered_bounds():
    with pytest.raises(ValueError):
        tanh_sinh(lambda x, da, db: 1.0, 1.0, 1.0)


def test_tanh_sinh_reports_nonconvergence():
    # a spike of width 1e-4 needs far finer meshes than max_level allows
    res = tanh_sinh(
        lambda x, da, db: 1e-4 / (1e-8 + (x - 0.37) ** 2), 0.0, 1.0, tol=1e-12, max_level=4
    )
    assert not res.converged


def test_exp_sinh_gamma_moment():
    res = exp_sinh(lambda x: np.exp(-x) * x**3)
    assert res.converged
    assert res.value == pytest.approx(6.0, rel=1e-11)


def test_exp_sinh_inverse_sqrt_origin():
    res = exp_sinh(lambda x: np.exp(-x) / np.sqrt(x))
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_exp_sinh_scale_invariance():
    for scale in (1e-3, 1.0, 50.0):
        res = exp_sinh(lambda x: np.exp(-scale * x))
        assert res.value == pytest.approx(1.0 / scale, rel=1e-10)


def test_results_are_deterministic():
    a = tanh_sinh(lambda x, da, db: np.exp(x), 0.0, 1.0)
    b = tanh_sinh(lambda x, da, db: np.exp(x), 0.0, 1.0)
    assert a.value == b.value and a.nodes_used == b.nodes_used
    # plain Python values, as the JSON envelopes need
    assert (type(a.value), type(a.nodes_used), type(a.converged)) == (float, int, bool)


@pytest.mark.parametrize(
    "f,max_level",
    [
        (lambda x, da, db: 1.0 / np.sqrt(da * db), 12),
        (lambda x, da, db: np.cos(3.0 * x), 12),
        (lambda x, da, db: 1e-4 / (1e-8 + (x - 0.37) ** 2), 5),   # never converges
    ],
)
def test_tanh_sinh_evaluates_each_node_once(f, max_level):
    def run(levels):
        calls = []

        def counted(x, da, db):
            calls.append(list(zip(x.tolist(), da.tolist(), db.tolist())))
            return f(x, da, db)

        return tanh_sinh(counted, -1.0, 1.0, tol=1e-12, max_level=levels), calls

    res, calls = run(max_level)
    nodes = [node for call in calls for node in call]
    assert len(nodes) == res.nodes_used
    # the endpoint distances tell apart nodes whose x rounds to the same float
    assert len(set(nodes)) == len(nodes)
    # one call per level walked: a pass cut one level short makes every call
    # but the last
    short, short_calls = run(len(calls))
    assert not short.converged and short_calls == calls[:-1]


@pytest.mark.parametrize("f", [lambda x: np.exp(-x) * x**3, lambda x: np.exp(-x) / np.sqrt(x)])
def test_exp_sinh_evaluates_each_node_once(f):
    def run(levels):
        calls = []

        def counted(x):
            calls.append(x.tolist())
            return f(x)

        return exp_sinh(counted, tol=1e-12, max_level=levels), calls

    res, calls = run(12)
    assert res.converged
    nodes = [x for call in calls for x in call]
    assert len(nodes) == res.nodes_used == len(set(nodes))
    short, short_calls = run(len(calls))
    assert not short.converged and short_calls == calls[:-1]


def test_tanh_sinh_moments_match_scalar_rule():
    powers = (0.0, 0.5, 3.0, 10.5)

    def f(x, da, db):
        return np.log(1.0 / x) / np.sqrt(db)

    moments = tanh_sinh_moments(f, 0.0, 1.0, powers, tol=1e-12)
    for p, got in zip(powers, moments):
        want = tanh_sinh(lambda x, da, db: x**p * f(x, da, db), 0.0, 1.0, tol=1e-12)
        assert got.converged and want.converged
        assert got.value == pytest.approx(want.value, rel=1e-12)


def test_tanh_sinh_moments_on_negative_interval():
    # int_{-1}^{1} x^p e^x dx against the scalar rule; odd powers are signed
    powers = (0, 1, 2, 7)
    moments = tanh_sinh_moments(lambda x, da, db: np.exp(x), -1.0, 1.0, powers, tol=1e-12)
    for p, got in zip(powers, moments):
        want = tanh_sinh(lambda x, da, db: x**p * np.exp(x), -1.0, 1.0, tol=1e-12)
        assert got.value == pytest.approx(want.value, rel=1e-12)


@pytest.mark.parametrize("powers", [(1.0,), (1.0, 3.0)])
def test_tanh_sinh_moments_with_odd_powers_on_negative_interval(powers):
    # one or two powers take no exact check over every power, so the walk's
    # own tail test must be sign-safe: int_{-1}^{1} x^p * x dx
    moments = tanh_sinh_moments(lambda x, da, db: x, -1.0, 1.0, powers, tol=1e-12)
    for p, got in zip(powers, moments):
        want = tanh_sinh(lambda x, da, db: x ** (p + 1.0), -1.0, 1.0, tol=1e-12)
        assert got.converged and want.converged
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.value == pytest.approx(2.0 / (p + 2.0), rel=1e-12)
        # the walk stops where the scalar rule's does, not at the end of the ray
        assert got.nodes_used == want.nodes_used


@pytest.mark.parametrize("powers", [(140.0,), (0.0, 3.0, 140.0)])
def test_exp_sinh_moments_at_high_power(powers):
    # x^140 e^-x peaks at x = 140 and x^140 alone overflows past x ~ 160
    moments = exp_sinh_moments(lambda x: np.exp(-x), powers, tol=1e-12)
    for p, got in zip(powers, moments):
        assert got.converged
        assert got.value == pytest.approx(math.exp(math.lgamma(p + 1.0)), rel=1e-12)


def test_overflowing_moment_is_not_converged():
    # int x^175 e^-x dx = 175! exceeds the float range
    (res,) = exp_sinh_moments(lambda x: np.exp(-x), (175.0,), max_level=5)
    assert not res.converged


def test_exp_sinh_moments_match_scalar_rule_and_gamma():
    # x^35 e^-x peaks at x = 35, far from where the low powers live
    powers = (0.0, 1.0, 7.5, 30.0, 35.0)
    moments = exp_sinh_moments(lambda x: np.exp(-x) / np.sqrt(x), powers, tol=1e-12)
    for p, got in zip(powers, moments):
        want = exp_sinh(lambda x: x**p * np.exp(-x) / np.sqrt(x), tol=1e-12)
        assert got.converged and want.converged
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.value == pytest.approx(math.gamma(p + 0.5), rel=1e-12)


def test_moment_components_converge_on_their_own():
    calls = []

    def f(x):
        calls.extend(x.tolist())
        return np.exp(-x)

    low, high = exp_sinh_moments(f, (0.0, 35.0), tol=1e-12)
    assert low.converged and high.converged
    # the walk stops when the last power converges; the first keeps its level
    assert low.nodes_used < high.nodes_used == len(calls)


def test_moment_rule_reports_every_unconverged_component():
    moments = tanh_sinh_moments(
        lambda x, da, db: 1e-4 / (1e-8 + (x - 0.37) ** 2), 0.0, 1.0, (0.0, 1.0, 2.0),
        tol=1e-12, max_level=4,
    )
    assert len(moments) == 3
    assert not any(r.converged for r in moments)


def test_moment_rules_reject_bad_powers():
    with pytest.raises(ValueError, match="at least one power"):
        exp_sinh_moments(np.exp, ())
    with pytest.raises(ValueError, match="nonnegative"):
        exp_sinh_moments(np.exp, (1.0, -0.5))
    with pytest.raises(ValueError, match="fractional"):
        tanh_sinh_moments(lambda x, da, db: 1.0, -1.0, 1.0, (0.5,))
