import cmath
import math

import numpy as np
import pytest

from pastates import complete as cm
from pastates import fockstate as fs
from pastates.specfun import legendre_q

TWO_PI = 2.0 * math.pi
EULER_GAMMA = 0.5772156649015328606


def exp1_series(x: float) -> float:
    acc = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        acc -= term / k
    return acc


def log_ratio(y: float) -> float:
    s = math.sqrt(1.0 - y)
    return math.log((1.0 + s) / (1.0 - s))


# ------------------------------------------------------------ weight types

def test_weight_function_validation():
    with pytest.raises(ValueError):
        cm.WeightFunction("pasvs", 0)        # no measure exists for m = 0
    with pytest.raises(ValueError):
        cm.WeightFunction("pacsc", 1)        # needs mu and lam
    with pytest.raises(ValueError):
        cm.WeightFunction("pacsc", 1, mu=2, lam=2)
    with pytest.raises(ValueError):
        cm.WeightFunction("other", 1)
    cm.WeightFunction("pasops", 0)
    cm.WeightFunction("pacsc", 0, mu=1, lam=3)


# ------------------------------------------------------------ weight_h

def test_weight_h_small_y_limit():
    assert cm.weight_h(1, 1e-10) == pytest.approx(1.0 / TWO_PI, abs=1e-9)


def test_weight_h2_closed_value():
    assert cm.weight_h(2, 0.75) == pytest.approx(log_ratio(0.75) / (4 * math.pi), abs=1e-10)


@pytest.mark.parametrize(
    "m,formula",
    [
        (2, lambda y: log_ratio(y) / (4 * math.pi)),
        (3, lambda y: (log_ratio(y) - 2 * math.sqrt(1 - y)) / (4 * math.pi)),
        (4, lambda y: ((2 + y) * log_ratio(y) - 6 * math.sqrt(1 - y)) / (16 * math.pi)),
        (
            5,
            lambda y: (3 * (2 + 3 * y) * log_ratio(y) - 2 * (11 + 4 * y) * math.sqrt(1 - y))
            / (144 * math.pi),
        ),
    ],
)
@pytest.mark.parametrize("y", [0.1, 0.5, 0.75, 0.9])
def test_weight_h_low_orders_printed_formulas(m, formula, y):
    assert cm.weight_h(m, y) == pytest.approx(formula(y), rel=1e-12)


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("y", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_weight_h_triform_agreement(m, y):
    a = cm.weight_h(m, y, "closed")
    b = cm.weight_h(m, y, "hypergeometric")
    c = cm.weight_h(m, y, "integral")
    assert b == pytest.approx(a, rel=1e-8)
    assert c == pytest.approx(a, rel=1e-8)


def test_weight_h_domain_errors():
    with pytest.raises(ValueError):
        cm.weight_h(2, 0.0)
    with pytest.raises(ValueError):
        cm.weight_h(2, 1.0)
    with pytest.raises(ValueError):
        cm.weight_h(0, 0.5)
    with pytest.raises(ValueError):
        cm.weight_h(1, 0.5, form="integral")
    with pytest.raises(ValueError):
        cm.weight_h(2, 0.5, form="nope")


def test_weight_h_boundary_behavior():
    # vanishes at y -> 1 for m >= 2; diverges (logarithmically) at y -> 0
    for m in range(2, 6):
        assert cm.weight_h(m, 1.0 - 1e-6) < 1e-3
        near0 = [cm.weight_h(m, y) for y in (1e-2, 1e-4, 1e-8, 1e-30)]
        assert all(near0[i] < near0[i + 1] for i in range(3))
        assert cm.weight_h(m, 0.1) < near0[0]
    # the divergence is ~ ln(4/y)/(4 pi (m-2)!), so thresholds sit at
    # astronomically small y; check the m = 2 case clears 10 in range
    assert cm.weight_h(2, 1e-60) > 10.0


@pytest.mark.parametrize("m", [3, 4])
def test_weight_h_near_one_matches_mpmath(m):
    # (1-y)^((m-2)/2) Q_(m-2)((1-y)^(-1/2)) / (2 pi (m-2)!); near y = 1 the
    # explicit Legendre sum for Q_1 and Q_2 cancels catastrophically
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for omy in np.logspace(-2, -14, 25):
            omy = float(omy)
            x = 1 / mpmath.sqrt(omy)
            ref = (
                mpmath.mpf(omy) ** (mpmath.mpf(m - 2) / 2)
                * mpmath.legenq(m - 2, 0, x, type=3).real
                / (2 * mpmath.pi * math.factorial(m - 2))
            )
            got = cm.weight_h(m, 1.0 - omy, one_minus_y=omy)
            assert abs(got - ref) <= 1e-9 * ref, (m, omy, got, float(ref))


def test_weight_h_positivity():
    for m in range(1, 9):
        for y in np.linspace(0.01, 0.99, 25):
            assert cm.weight_h(m, float(y)) > 0.0


def test_weight_h_is_a_row_of_the_vacuum_table():
    # the closed form at one y is that y's row of the table the radial
    # pass evaluates, whatever other nodes the table holds
    ys = np.concatenate([np.logspace(-12, -0.01, 30), 1.0 - np.logspace(-12, -0.5, 30)])
    for m in range(1, 9):
        table = cm._vacuum_weight_table(m, ys, 1.0 - ys)
        assert [cm.weight_h(m, y) for y in ys.tolist()] == table[:, m - 1].tolist()


# ------------------------------------------------------------ weight_h1m

def test_weight_h1m_index_identity():
    for m in range(1, 7):
        for y in (0.1, 0.5, 0.9):
            assert cm.weight_h1m(m, y) == pytest.approx(cm.weight_h(m + 1, y), rel=1e-12)


def printed_weight_h1m(m: int, y: float) -> float:
    """The one-photon weight as printed for m >= 1:
    (1-y)^((m-1)/2) Q_{m-1}((1-y)^(-1/2)) / (2 pi (m-1)!)."""
    omy = 1.0 - y
    return omy ** (0.5 * (m - 1)) * legendre_q(m - 1, omy**-0.5) / (TWO_PI * math.factorial(m - 1))


def test_weight_h1m_matches_printed_form():
    for m in range(1, 7):
        for y in (0.1, 0.5, 0.9):
            assert cm.weight_h1m(m, y) == pytest.approx(printed_weight_h1m(m, y), rel=1e-12)


def test_weight_h1m_rejects_negative_index():
    # a shift applied before the check would return the m = 0 vacuum weight
    with pytest.raises(ValueError, match="weight_h1m requires m >= 0"):
        cm.weight_h1m(-1, 0.5)


def test_weight_h1m_base_cases():
    assert cm.weight_h1m(0, 0.5) == pytest.approx(math.sqrt(2) / TWO_PI, rel=1e-12)
    assert cm.weight_h1m(1, 0.4) == pytest.approx(cm.weight_h(2, 0.4), rel=1e-12)


# ------------------------------------------------------------ weight_hmum

def test_weight_hmum_coherent_measure():
    for y in (0.2, 1.0, 3.0):
        assert cm.weight_hmum(1, 0, 0, y) == pytest.approx(math.exp(-y) / math.pi, rel=1e-12)


def test_weight_hmum_kummer_value():
    got = cm.weight_hmum(1, 0, 1, 1.0)
    assert got == pytest.approx(exp1_series(1.0) / math.pi, rel=1e-9)


def test_weight_hmum_two_component_case():
    # lam=2, mu=1: the y prefactor exponent vanishes and U(0,1,.) = 1
    for y in (0.25, 1.0):
        assert cm.weight_hmum(2, 1, 0, y) == pytest.approx(
            math.exp(-2 * math.sqrt(y)) / (2 * math.pi), rel=1e-12
        )


def test_weight_hmum_positivity_and_domain():
    with pytest.raises(ValueError):
        cm.weight_hmum(2, 0, 1, 0.0)
    for lam in (1, 2, 3, 4):
        for mu in range(lam):
            for m in (0, 2, 5):
                for y in (0.05, 0.8, 2.5):
                    assert cm.weight_hmum(lam, mu, m, y) > 0.0


def test_weight_hmum_errors_name_y_and_measure():
    # weight_hmum is the one-node view of the CLI's table: WeightFunction
    # validates the indices, the table the domain of y
    for y in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="pacsc weight requires finite y > 0"):
            cm.weight_hmum(2, 0, 1, y)
    with pytest.raises(ValueError, match="pacsc requires lam >= 1 and 0 <= mu < lam"):
        cm.weight_hmum(2, 2, 1, 0.5)
    with pytest.raises(ValueError, match="pacsc measure requires m >= 0"):
        cm.weight_hmum(2, 0, -1, 0.5)


@pytest.mark.parametrize("lam, mu", [(200, 0), (200, 57), (144, 0)])
def test_weight_hmum_scale_is_formed_in_log_space(lam, mu):
    # pi lam^(lam-mu) is beyond the float range, the density at y = 1e-300
    # is not; at y = 0.5 it underflows to 0
    mpmath = pytest.importorskip("mpmath")
    y = 1e-300
    with mpmath.workdps(40):
        y_mp = mpmath.mpf(y)
        x = lam * y_mp ** (mpmath.mpf(1) / lam)
        want = y_mp ** (mpmath.mpf(mu + 1 - lam) / lam) * mpmath.exp(-x) * mpmath.hyperu(1, 1, x)
        want /= mpmath.pi * mpmath.mpf(lam) ** (lam - mu)
    assert cm.weight_hmum(lam, mu, 1, y) == pytest.approx(float(want), rel=1e-13, abs=0)
    assert cm.weight_hmum(lam, mu, 1, 0.5) == 0.0


# ------------------------------------------------------------ moments

def test_moment_check_reference_values():
    reports = cm.moment_check(cm.WeightFunction("pasvs", 1), 1)
    assert len(reports) == 2
    assert reports[0].lhs == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert reports[0].rhs == pytest.approx(1.0 / math.pi, rel=1e-12)
    # the case separating (m+2k)! from (m+k)!: both sides 2/(3 pi)
    assert reports[1].lhs == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-12)
    assert reports[1].rhs == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-12)


def test_moment_check_would_fail_with_misprinted_reference():
    # regression guard on the corrected factorial: with (m+k)! the k = 1,
    # m = 1 reference would be 4/(pi 2!) = 2/pi, three times the integral
    reports = cm.moment_check(cm.WeightFunction("pasvs", 1), 1)
    misprinted = 4.0 / (math.pi * math.factorial(1 + 1))
    assert abs(reports[1].lhs - misprinted) > 0.1 * misprinted


@pytest.mark.parametrize("m", range(1, 7))
def test_moment_check_pasvs_grid(m):
    reports = cm.moment_check(cm.WeightFunction("pasvs", m), 10)
    assert len(reports) == 11
    assert all(r.converged for r in reports)
    assert max(r.rel_err for r in reports) < 1e-8


@pytest.mark.parametrize("m", range(0, 6))
def test_moment_check_pasops_grid(m):
    reports = cm.moment_check(cm.WeightFunction("pasops", m), 10)
    assert max(r.rel_err for r in reports) < 1e-8


@pytest.mark.parametrize("lam,mu", [(1, 0), (2, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("m", range(0, 5))
def test_moment_check_pacsc_grid(lam, mu, m):
    reports = cm.moment_check(cm.WeightFunction("pacsc", m, mu=mu, lam=lam), 8)
    assert max(r.rel_err for r in reports) < 1e-8


def test_pacsc_moment_check_at_high_order():
    # order k*lam + mu reaches 140: x^140 e^-x U(1,1,x) peaks near x = 140
    reports = cm.moment_check(cm.WeightFunction("pacsc", 1, mu=0, lam=10), 14)
    assert reports[-1].k * 10 == 140
    assert all(r.converged for r in reports)
    assert max(r.rel_err for r in reports) < 1e-8


def test_pacsc_moment_check_near_the_float_maximum():
    # order 171: 171!^2 / 172! = 7.2e306 is within 2^12 of the float maximum,
    # where level sums that leave out the mesh width overflow
    reports = cm.moment_check(cm.WeightFunction("pacsc", 1, mu=0, lam=1), 171)
    assert reports[-1].k == 171
    assert all(r.converged for r in reports)
    assert max(r.rel_err for r in reports) < 1e-8


def test_moment_report_consistency():
    reports = cm.moment_check(cm.WeightFunction("pasvs", 2), 3)
    for r in reports:
        assert r.rel_err == pytest.approx(abs(r.lhs - r.rhs) / abs(r.rhs), rel=1e-12)
        assert r.nodes_used > 0


def test_pacsc_moment_reduces_to_laplace_identity():
    # lam=1, mu=0: int x^k e^{-x} U(m,1,x) dx = (k!)^2/(k+m)!
    reports = cm.moment_check(cm.WeightFunction("pacsc", 2, mu=0, lam=1), 4)
    for r in reports:
        want = math.factorial(r.k) ** 2 / math.factorial(r.k + 2)
        assert r.rhs == pytest.approx(want, rel=1e-12)
        assert r.lhs == pytest.approx(want, rel=1e-9)


def recording_tables(monkeypatch, name) -> list:
    """(top index, nodes) of every call of the specfun table ``name``; a
    Legendre table's nodes are its x - 1, which stay distinct near x = 1."""
    from pastates import specfun

    calls = []
    real = getattr(specfun, name)

    def recorded(top, x, *args):
        calls.append((top, np.array(args[0] if args else x)))
        return real(top, x, *args)

    monkeypatch.setattr(specfun, name, recorded)
    return calls


def test_moment_check_makes_one_pass_over_the_weight(monkeypatch):
    # h_3 is built from Q_1: one Legendre table per level, one row per node
    calls = recording_tables(monkeypatch, "legendre_q_table")
    reports = cm.moment_check(cm.WeightFunction("pasvs", 3), 10)
    assert all(r.converged for r in reports)
    assert {top for top, _ in calls} == {1}
    nodes = np.concatenate([x for _, x in calls])
    assert len(nodes) == len(set(nodes.tolist())) == max(r.nodes_used for r in reports)


def test_pacsc_moment_check_evaluates_kummer_once_per_node(monkeypatch):
    calls = recording_tables(monkeypatch, "kummer_u_table")
    reports = cm.moment_check(cm.WeightFunction("pacsc", 2, mu=1, lam=2), 8)
    assert all(r.converged for r in reports)
    assert {top for top, _ in calls} == {2}
    nodes = np.concatenate([x for _, x in calls])
    assert len(nodes) == len(set(nodes.tolist())) == max(r.nodes_used for r in reports)


def test_no_kummer_memo_left_in_the_package():
    import pathlib

    import pastates

    for path in pathlib.Path(pastates.__file__).parent.glob("*.py"):
        assert "_KummerCache" not in path.read_text(), path.name


def test_moment_check_reports_every_k_when_starved(monkeypatch):
    monkeypatch.setattr(cm, "_QUAD_MAX_LEVEL", 3)
    for wf in (cm.WeightFunction("pasvs", 3), cm.WeightFunction("pacsc", 1, mu=0, lam=2)):
        reports = cm.moment_check(wf, 6)
        assert [r.k for r in reports] == list(range(7))
        assert not all(r.converged for r in reports)
        for r in reports:
            assert r.nodes_used > 0 and math.isfinite(r.lhs)


# ------------------------------------------------------------ unity

UNITY_CASES = (
    [("pasvs", m, None, None) for m in (1, 2, 3, 4)]
    + [("pasops", m, None, None) for m in (0, 1, 2, 3)]
    + [("pacsc", m, mu, lam) for lam, mu, m in ((1, 0, 1), (2, 0, 2), (2, 1, 1), (3, 2, 2))]
)


@pytest.mark.parametrize("family,m,mu,lam", UNITY_CASES)
def test_unity_resolution_matrices(family, m, mu, lam):
    wf = cm.WeightFunction(family, m, mu=mu, lam=lam)
    mat = cm.unity_resolution_matrix(wf, 12)
    assert mat.dim == 12
    assert mat.identity_deviation() < 1e-6
    # the angular integral is exact, so nothing off the diagonal is assembled
    assert mat.max_offdiagonal() == 0.0


def test_unity_matrix_radial_failure_is_arithmetic_error(monkeypatch):
    monkeypatch.setattr(cm, "_QUAD_MAX_LEVEL", 2)
    wf = cm.WeightFunction("pasvs", 2)
    with pytest.raises(ArithmeticError, match=r"index sum 0 \(power 0.0\) after \d+ nodes"):
        cm.unity_resolution_matrix(wf, 4)


def test_unity_matrix_integrates_only_diagonal_powers(monkeypatch):
    asked = recording_passes(monkeypatch)
    cm.unity_resolution_matrix(cm.WeightFunction("pasops", 1), 4)
    cm.unity_resolution_matrix(cm.WeightFunction("pacsc", 2, mu=2, lam=3), 3)
    assert asked == [
        ("vacuum", [(2, 0.0), (2, 1.0), (2, 2.0), (2, 3.0)]),
        ("laplace", [(2, 2.0), (2, 5.0), (2, 8.0)]),
    ]


def test_unity_matrix_subspace_labels():
    mat = cm.unity_resolution_matrix(cm.WeightFunction("pasvs", 2), 4)
    assert (mat.basis_offset, mat.basis_stride) == (2, 2)
    mat = cm.unity_resolution_matrix(cm.WeightFunction("pasops", 1), 4)
    assert (mat.basis_offset, mat.basis_stride) == (2, 2)
    mat = cm.unity_resolution_matrix(cm.WeightFunction("pacsc", 2, mu=1, lam=3), 4)
    assert (mat.basis_offset, mat.basis_stride) == (3, 3)


def test_unity_matrix_rejects_large_dim():
    with pytest.raises(ValueError):
        cm.unity_resolution_matrix(cm.WeightFunction("pasvs", 1), 65)


# ------------------------------------------------------------ radial batches

BATCH = [
    ("moments", cm.WeightFunction("pasvs", 2), 6),
    ("unity", cm.WeightFunction("pacsc", 1, mu=2, lam=3), 5),
    ("moments", cm.WeightFunction("pasops", 1), 4),
    ("unity", cm.WeightFunction("pasvs", 2), 8),
    ("moments", cm.WeightFunction("pacsc", 1, mu=0, lam=2), 6),
]


def recording_passes(monkeypatch) -> list:
    """(kind, [(index, power), ...]) of every moment-rule pass, in call
    order: the exp-sinh rule integrates the "laplace" kind, whose column m
    is e^-x U(m,1,x), and the tanh-sinh rule the "vacuum" kind, whose
    column m-1 is h_m."""
    asked = []
    rules = (("exp_sinh_moments", "laplace", 0), ("tanh_sinh_moments", "vacuum", 1))
    for rule, kind, shift in rules:
        real = getattr(cm, rule)

        def recorded(*args, _real=real, _kind=kind, _shift=shift, **kwargs):
            powers = args[1] if _kind == "laplace" else args[3]
            indices = [c + _shift for c in kwargs["columns"]]
            asked.append((_kind, list(zip(indices, powers))))
            return _real(*args, **kwargs)

        monkeypatch.setattr(cm, rule, recorded)
    return asked


def test_single_checks_are_batches_of_one():
    # the public single checks and a batch of one make the same pass over
    # the same powers, so every number is equal, not merely close
    for kind, wf, size in BATCH:
        (batched,) = cm.radial_checks([(kind, wf, size)])
        if kind == "moments":
            reports = cm.moment_check(wf, size)
            assert reports == batched
            orders = [r.k * wf.lam + wf.mu if wf.lam else r.k for r in reports]
            kind, index = cm._integrand(wf)
            direct = cm._radial_pass(kind, [(index, float(n)) for n in orders])
            assert [(r.lhs, r.nodes_used, r.converged) for r in reports] == [
                (d.value, d.nodes_used, d.converged) for d in direct
            ]
        else:
            mat = cm.unity_resolution_matrix(wf, size)
            assert np.array_equal(mat.entries, batched.entries)
            assert (mat.basis_offset, mat.basis_stride) == (batched.basis_offset, batched.basis_stride)


def test_radial_checks_make_one_pass_per_kind(monkeypatch):
    asked = recording_passes(monkeypatch)
    results = cm.radial_checks(
        BATCH
        + [
            ("moments", cm.WeightFunction("pasvs", 4), 2),
            ("unity", cm.WeightFunction("pacsc", 3, mu=0, lam=1), 2),
        ]
    )
    # pasvs m=2 and pasops m=1 share h_2, and pasvs m=4 joins them as a
    # second column of the same pass; both circle checks at m=1 share
    # e^-x U(1,1,x), and the one at m=3 adds a column
    assert asked == [
        ("vacuum", [(2, float(p)) for p in range(8)] + [(4, 0.0), (4, 1.0), (4, 2.0)]),
        (
            "laplace",
            [(1, float(p)) for p in (0, 2, 4, 5, 6, 8, 10, 11, 12, 14)] + [(3, 0.0), (3, 1.0)],
        ),
    ]
    assert [type(r).__name__ for r in results] == [
        "list", "OperatorMatrix", "list", "OperatorMatrix", "list", "list", "OperatorMatrix"
    ]
    assert [len(r) for r in results if isinstance(r, list)] == [7, 5, 7, 3]


def test_radial_batch_agrees_with_single_checks():
    # a shared pass may cut each level's tail later, so the values may move
    # in the last digits, never beyond rounding
    for (kind, wf, size), got in zip(BATCH, cm.radial_checks(BATCH)):
        (alone,) = cm.radial_checks([(kind, wf, size)])
        if kind == "moments":
            assert [r.k for r in got] == [r.k for r in alone]
            for a, b in zip(got, alone):
                assert a.converged and a.rhs == b.rhs
                assert abs(a.lhs - b.lhs) <= 1e-12 * abs(b.lhs)
        else:
            assert np.max(np.abs(got.entries - alone.entries)) <= 1e-12


def test_unity_diagonal_is_the_moment_check_over_its_references():
    # entry j of a unity matrix of dim d is moment j of moment_check(wf, d - 1)
    # divided by its reference, bit for bit, and the matrix is diagonal
    for kind, wf, size in BATCH:
        if kind == "unity":
            mat = cm.unity_resolution_matrix(wf, size)
            want = [r.lhs / r.rhs for r in cm.moment_check(wf, size - 1)]
            assert np.array_equal(np.diag(mat.entries), np.array(want, dtype=complex))
            assert mat.max_offdiagonal() == 0.0


def test_radial_checks_validate_every_check_before_any_pass(monkeypatch):
    asked = recording_passes(monkeypatch)
    bad = [
        ("moments", cm.WeightFunction("pacsc", 1, mu=0, lam=1), 200),
        ("unity", cm.WeightFunction("pasvs", 1), 65),
        ("moments", cm.WeightFunction("pasvs", 1), -1),
        ("norms", cm.WeightFunction("pasvs", 1), 3),
    ]
    for check in bad:
        with pytest.raises(ValueError):
            cm.radial_checks([BATCH[0], check])
    assert asked == []


def test_moment_check_rejects_reference_beyond_float_range(monkeypatch):
    asked = recording_passes(monkeypatch)
    # ((k lam + mu)!)^2 / (k lam + mu + m)! first overflows at order 171 + m
    wf = cm.WeightFunction("pacsc", 1, mu=0, lam=1)
    with pytest.raises(ValueError, match=r"k_max=172 \(m=1\) .* order 172 at k=172"):
        cm.moment_check(wf, 172)
    with pytest.raises(ValueError, match="k_max=200"):
        cm.moment_check(wf, 200)
    with pytest.raises(ValueError, match="order 171 at k=57"):
        cm.moment_check(cm.WeightFunction("pacsc", 0, mu=0, lam=3), 60)
    # 1/(pi m!) falls below the normal float range for m = 171
    with pytest.raises(ValueError, match="order 0 at k=0"):
        cm.moment_check(cm.WeightFunction("pasvs", 171), 0)
    assert asked == []


# ------------------------------------------------------------ basis matrices

def test_basis_matrices_identity_at_zero():
    p = fs.SqueezeParam(0)
    np.testing.assert_allclose(cm.pasvs_sns_matrix(p, 8), np.eye(8), atol=1e-15)
    np.testing.assert_allclose(cm.sns_pasvs_matrix(p, 8), np.eye(8), atol=1e-15)


def test_basis_matrices_mutual_inverse():
    p = fs.SqueezeParam(0.5 * cmath.exp(1j * math.pi / 4))
    b = cm.pasvs_sns_matrix(p, 12)
    c = cm.sns_pasvs_matrix(p, 12)
    assert np.max(np.abs(b @ c - np.eye(12))) < 1e-10
    assert np.max(np.abs(c @ b - np.eye(12))) < 1e-10


def test_basis_matrix_entries_match_inner_products():
    # row m of the photon-added expansion: entry (m,k) = <k,zeta | zeta,m>
    p = fs.SqueezeParam(0.4 * cmath.exp(-0.6j))
    b = cm.pasvs_sns_matrix(p, 6)
    for m in range(6):
        v = fs.pasvs(p, m, eps=1e-26)
        for k in range(6):
            s = fs.sns(p, k, eps=1e-26)
            assert abs(b[m, k] - fs.inner(s, v)) < 1e-10


def test_basis_matrix_single_entry_row():
    # m = 1 has the single coefficient [(1-y)^(1/2) P_1((1-y)^(-1/2))]^(-1/2)
    p = fs.SqueezeParam(0.3)
    b = cm.pasvs_sns_matrix(p, 3)
    want = ((1 - p.y) ** 0.5 * (1 - p.y) ** -0.5) ** -0.5
    assert b[1, 1] == pytest.approx(want, rel=1e-13)
    assert b[1, 0] == 0.0


# ------------------------------------------------------------ discrete

def test_discrete_matrix_identity_at_zero():
    p = fs.SqueezeParam(0)
    mat = cm.discrete_completeness_matrix(p, 10, 6)
    np.testing.assert_allclose(mat.entries, np.eye(6), atol=1e-15)


def test_discrete_closed_assembly_is_block_exact():
    # with the analytically summed pair coefficients, the truncated double
    # sum already equals the identity on any Fock block the cutoff covers
    p = fs.SqueezeParam(0.3)
    for cutoff in (10, 20, 40):
        mat = cm.discrete_completeness_matrix(p, cutoff, 8, "closed")
        assert mat.identity_deviation() < 1e-10


def test_discrete_assembly_routes_agree():
    p = fs.SqueezeParam(0.3)
    a = cm.discrete_completeness_matrix(p, 20, 8, "closed")
    b = cm.discrete_completeness_matrix(p, 20, 8, "series")
    assert np.max(np.abs(a.entries - b.entries)) < 1e-9


def test_discrete_assembly_routes_agree_complex():
    p = fs.SqueezeParam(0.5 * cmath.exp(1j * 0.8))
    a = cm.discrete_completeness_matrix(p, 16, 6, "closed")
    b = cm.discrete_completeness_matrix(p, 16, 6, "series")
    assert np.max(np.abs(a.entries - b.entries)) < 1e-9


def test_sns_completeness_builds_each_part_once(oracle_builds):
    p = fs.SqueezeParam(0.3 * cmath.exp(0.4j))
    want = np.zeros((8, 8), dtype=complex)
    for j in range(21):
        v = fs.sns(p, j, eps=1e-26).dense(8)
        want += np.outer(v, v.conj())
    oracle_builds.clear()
    got = cm.sns_completeness_matrix(p, 20, 8)
    # the parts |zeta, 0..20> as one array; V V^H sums the projectors in
    # another order than the loop of outer products
    assert oracle_builds == [("columns", abs(p.zeta), 20)]
    assert np.max(np.abs(got.entries - want)) <= 1e-15


def test_sns_completeness_at_several_cutoffs_builds_one_state_matrix(oracle_builds):
    p = fs.SqueezeParam(0.3 * cmath.exp(0.4j))
    mats = cm._sns_completeness_matrices(p, [10, 20, 40], 8)
    # the states up to the largest cutoff, once; each cutoff a column prefix
    assert oracle_builds == [("columns", abs(p.zeta), 40)]
    for cutoff, mat in zip((10, 20, 40), mats):
        single = cm.sns_completeness_matrix(p, cutoff, 8)
        assert np.max(np.abs(mat.entries - single.entries)) <= 1e-15
    with pytest.raises(ValueError, match="m_cutoff >= 0"):
        cm.sns_completeness_matrix(p, -1, 8)


def test_sns_completeness_at_zero_squeezing_is_the_unit_block(oracle_builds):
    # |m, 0> = |m>: the first cutoff + 1 unit projectors of the block, with
    # no table, also at cutoffs where pasvs_norm(0, m) = m! overflows
    p = fs.SqueezeParam(0)
    mats = cm._sns_completeness_matrices(p, [3, 171, 200], 8)
    for cutoff, mat in zip((3, 171, 200), mats):
        want = np.diag([1.0 + 0.0j if n <= cutoff else 0.0j for n in range(8)])
        assert np.array_equal(mat.entries, want)
        assert np.array_equal(cm.sns_completeness_matrix(p, cutoff, 8).entries, want)
    assert oracle_builds == []


def test_discrete_matrices_share_one_block(oracle_builds):
    p = fs.SqueezeParam(0.3 * cmath.exp(0.4j))
    routes = [(10, "closed"), (20, "closed"), (4, "closed"), (20, "series")]
    mats = cm._discrete_matrices(p, routes, 8)
    # one block |zeta, 0..7>, whose first columns serve the smaller top 4
    assert oracle_builds == [("columns", abs(p.zeta), 7)]
    assert mats[0] is mats[1]
    for (cutoff, route), mat in zip(routes, mats):
        single = cm.discrete_completeness_matrix(p, cutoff, 8, route)
        assert np.array_equal(mat.entries, single.entries)


def test_sns_completeness_builds_one_expansion_matrix(expansion_builds):
    p = fs.SqueezeParam(0.3 * cmath.exp(0.4j))
    cm.sns_completeness_matrix(p, 20, 8)
    # one row of weights per state
    assert expansion_builds == [(p.zeta, 21, 21, "sns")]


def test_series_route_doubles_its_rows_until_the_tail_is_negligible(expansion_builds):
    p = fs.SqueezeParam(0.3)
    closed = cm.discrete_completeness_matrix(p, 20, 8, "closed")
    assert expansion_builds == []
    series = cm.discrete_completeness_matrix(p, 20, 8, "series")
    # 16 rows leave the tail of |zeta,7><zeta,7| far above 1e-17 of its sum
    assert [rows for _, rows, _, _ in expansion_builds] == [16, 32, 64]
    assert {(cols, expand) for _, _, cols, expand in expansion_builds} == {(8, "sns")}
    assert np.max(np.abs(closed.entries - series.entries)) < 1e-13


def test_series_pair_matrix_is_the_expansion_gram_matrix():
    p = fs.SqueezeParam(0.5 * cmath.exp(-1.3j))
    pairs = cm._pair_matrix(p, 9, "series")
    c = fs._expansion_matrix(p, range(400), range(10), "sns")
    np.testing.assert_allclose(pairs, c.T @ c.conj(), rtol=1e-14, atol=0)
    np.testing.assert_allclose(pairs, cm._pair_matrix(p, 9, "closed"), rtol=1e-12, atol=1e-14)


def test_pair_series_gives_up_after_4000_rows(monkeypatch):
    # rows that never decay: the doubling stops at the row guard
    def flat(param, rows, cols, expand):
        return np.ones((len(rows), len(cols)))

    monkeypatch.setattr(fs, "_expansion_matrix", flat)
    with pytest.raises(ValueError, match="pair coefficient series did not converge"):
        cm.discrete_completeness_matrix(fs.SqueezeParam(0.3), 20, 8, "series")


def test_discrete_matrix_builds_its_vectors_as_one_array(oracle_builds):
    p = fs.SqueezeParam(0.3 * cmath.exp(0.4j))
    mat = cm.discrete_completeness_matrix(p, 20, 8, "closed")
    # pairs with n >= basis_dim have no support on the block
    assert oracle_builds == [("columns", abs(p.zeta), 7)]
    assert mat.identity_deviation() < 1e-10
    with pytest.raises(ValueError, match="0 <= m_cutoff"):
        cm.discrete_completeness_matrix(p, -1, 8)


def test_sns_completeness_monotone_convergence():
    p = fs.SqueezeParam(0.3)
    devs = [cm.sns_completeness_matrix(p, cutoff, 8).identity_deviation() for cutoff in (10, 20, 40)]
    assert devs[0] > devs[1] > devs[2]


def test_discrete_domain_guards():
    with pytest.raises(ValueError):
        cm.discrete_completeness_matrix(fs.SqueezeParam(0.6), 10, 8)
    with pytest.raises(ValueError):
        cm.discrete_completeness_matrix(fs.SqueezeParam(0.3), 100, 8)
    with pytest.raises(ValueError):
        cm.discrete_completeness_matrix(fs.SqueezeParam(0.3), 10, 8, "nope")


# ------------------------------------------------------------ carleman

def test_carleman_exact_small_case():
    # k = 10, m = 1 from exact integer factorials
    k, m = 10, 1
    a_k = (sf_dfact(2 * k) ** 2 / (math.pi * math.factorial(m + 2 * k))) ** (-1.0 / (2 * k))
    (kk, ratio), = cm.carleman_sequence(m, [k])
    assert kk == k
    assert ratio == pytest.approx(math.log(a_k) / math.log(k), rel=1e-12)


def sf_dfact(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_carleman_ratio_shrinks_to_zero(m):
    seq = cm.carleman_sequence(m, [10, 100, 1000, 10000])
    mags = [abs(r) for _, r in seq]
    assert all(mags[i] > mags[i + 1] for i in range(3))
    assert mags[2] < 0.01


def test_carleman_rejects_small_k():
    with pytest.raises(ValueError):
        cm.carleman_sequence(2, [1])


# ------------------------------------------------------------ operator matrix

def test_operator_matrix_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ArithmeticError):
        cm.OperatorMatrix(0, 1, 2, bad)


def test_operator_matrix_shape_guard():
    with pytest.raises(ValueError):
        cm.OperatorMatrix(0, 1, 3, np.eye(2, dtype=complex))
