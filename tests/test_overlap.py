import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastates import fockstate as fs
from pastates import overlap as ov
from pastates import specfun
from pastates.specfun import laguerre, legendre_p, legendre_p_deriv, log_factorial


def sq(value) -> fs.SqueezeParam:
    return fs.SqueezeParam(value)


def polar(mod, ang) -> complex:
    return mod * cmath.exp(1j * ang)


def pasvs_norm_series(zeta: complex, m: int, terms: int = 300) -> float:
    """Brute-force norm: (1-y)^(1/2) sum_k (2k+m)!/(k!)^2 (y/4)^k, y > 0."""
    y = abs(zeta) ** 2
    total = 0.0
    for k in range(terms):
        total += math.exp(
            log_factorial(2 * k + m) - 2 * log_factorial(k) + k * math.log(y / 4)
        )
    return math.sqrt(1 - y) * total


# ------------------------------------------------------------ sv / sops

def test_sv_overlap_normalization():
    z = sq(polar(0.45, 1.2))
    assert ov.sv_overlap(z, z) == pytest.approx(1.0, abs=1e-14)


def test_sv_overlap_vacuum_case():
    z = sq(0.6)
    assert ov.sv_overlap(sq(0), z) == pytest.approx((1 - 0.36) ** 0.25, rel=1e-14)


def test_sv_overlap_series_oracle():
    xi, zeta = sq(0.3), sq(0.5)
    series = fs.inner(fs.pasvs(xi, 0, eps=1e-26), fs.pasvs(zeta, 0, eps=1e-26))
    assert abs(ov.sv_overlap(xi, zeta) - series) < 1e-10


def test_sops_overlap_cases():
    z = sq(polar(0.5, -0.7))
    assert ov.sops_overlap(z, z) == pytest.approx(1.0, abs=1e-14)
    assert ov.sops_overlap(sq(0), sq(0.6)) == pytest.approx((1 - 0.36) ** 0.75, rel=1e-14)
    xi, zeta = sq(0.3), sq(0.5)
    series = fs.inner(fs.pasops(xi, 0, eps=1e-26), fs.pasops(zeta, 0, eps=1e-26))
    assert abs(ov.sops_overlap(xi, zeta) - series) < 1e-10


# ------------------------------------------------------------ norms

def test_pasvs_norm_trivial_and_linear():
    z = sq(polar(0.37, 2.0))
    assert ov.pasvs_norm(z, 0) == 1.0
    assert ov.pasvs_norm(z, 1) == pytest.approx(1.0 / (1.0 - z.y), rel=1e-13)


def test_pasvs_norm_series_oracle():
    z = sq(0.6)
    assert ov.pasvs_norm(z, 4) == pytest.approx(pasvs_norm_series(0.6, 4), rel=1e-10)


def test_pasops_norm_values():
    z = sq(polar(0.41, 0.3))
    assert ov.pasops_norm(z, 0) == pytest.approx(1.0, rel=1e-13)
    assert ov.pasops_norm(sq(0), 3) == pytest.approx(math.factorial(4), rel=1e-13)


def test_pasops_norm_series_oracle():
    # the one-photon family at m is the vacuum family at m+1 scaled by (1-y)
    z = sq(0.5)
    assert ov.pasops_norm(z, 3) == pytest.approx(
        (1 - z.y) * pasvs_norm_series(0.5, 4), rel=1e-10
    )


@pytest.mark.parametrize("m", range(0, 6))
def test_pasops_norm_one_photon_series(m):
    # (a^dag)^m S(zeta)|1> summed directly on |2k+1>, not through the vacuum
    # family: (1-y)^(3/2) sum_k (2k+1+m)!/(k!)^2 (y/4)^k
    y = 0.25
    series = sum(
        math.exp(log_factorial(2 * k + 1 + m) - 2 * log_factorial(k) + k * math.log(y / 4))
        for k in range(300)
    )
    assert ov.pasops_norm(sq(0.5), m) == pytest.approx((1 - y) ** 1.5 * series, rel=1e-10)


@pytest.mark.parametrize("m", [169, 170, 200])
def test_pasvs_norm_overflow_names_function_and_parameters(m):
    # inf below m = 171, an overflowing m! from there on
    with pytest.raises(OverflowError, match=rf"pasvs_norm: .*zeta=\(0\.5\+0j\), m={m}$"):
        ov.pasvs_norm(sq(0.5), m)


@pytest.mark.parametrize("m", [150, 170, 200])
def test_pasops_norm_overflow_names_function_and_parameters(m):
    # its own name and index, not those of the pasvs_norm(m + 1) it is built from
    with pytest.raises(OverflowError, match=rf"pasops_norm: .*zeta=\(0\.5\+0j\), m={m}$"):
        ov.pasops_norm(sq(0.5), m)
    assert math.isfinite(ov.pasops_norm(sq(0.5), 149))


def test_pasvs_norm_keeps_the_largest_finite_value():
    # m = 150 is the last finite norm at |zeta| = 0.5: the printed formula, unchanged
    omy = 0.75
    want = math.exp(log_factorial(150)) * omy**-75.0 * legendre_p(150, omy**-0.5)
    assert ov.pasvs_norm(sq(0.5), 150) == want


def test_pasops_norm_rejects_negative_index():
    with pytest.raises(ValueError, match="pasops_norm requires m >= 0"):
        ov.pasops_norm(sq(0.5), -1)


@pytest.mark.parametrize("m", range(0, 7))
@pytest.mark.parametrize("mod", [0.2, 0.5, 0.7])
def test_pasops_bridge_identity(m, mod):
    # N_{1m} / (1-y) = N_{m+1}
    z = sq(mod)
    lhs = ov.pasops_norm(z, m) / (1.0 - z.y)
    assert lhs == pytest.approx(ov.pasvs_norm(z, m + 1), rel=1e-11)


def test_norms_match_vector_norms():
    z = sq(polar(0.55, -1.1))
    for m in range(5):
        v = fs.pasvs(z, m, eps=1e-26)
        assert abs(v.norm_sq() + v.tail_bound - 1.0) < 1e-10
        w = fs.pasops(z, m, eps=1e-26)
        assert abs(w.norm_sq() + w.tail_bound - 1.0) < 1e-10


# ------------------------------------------------------------ pasvs overlap

def test_pasvs_overlap_parity_selection():
    assert ov.pasvs_overlap(sq(0.3), 1, sq(0.5), 0).value == 0.0


def test_pasvs_overlap_normalized_diagonal():
    z = sq(polar(0.4, 0.9))
    res = ov.pasvs_overlap(z, 3, z, 3)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_pasvs_overlap_reduces_to_sv():
    xi, zeta = sq(polar(0.3, 0.4)), sq(polar(0.5, -1.0))
    res = ov.pasvs_overlap(xi, 0, zeta, 0)
    assert res.value == pytest.approx(ov.sv_overlap(xi, zeta), rel=1e-12)


def test_pasvs_overlap_complex_grid_point():
    xi, zeta = sq(0.2), sq(polar(0.4, math.pi / 3))
    res = ov.pasvs_overlap(xi, 4, zeta, 2)
    assert res.form_spread < 1e-9
    assert res.oracle_error < 1e-8


def test_pasvs_overlap_forms_agree_on_grid():
    worst = 0.0
    for n in range(0, 7):
        for m in range(n % 2, n + 1, 2):
            for a_xi in (0.2, 0.6):
                for a_ze in (0.4, 0.6):
                    for p_xi, p_ze in ((0.0, 0.0), (math.pi, math.pi), (-2.9, 2.9)):
                        xi, ze = sq(polar(a_xi, p_xi)), sq(polar(a_ze, p_ze))
                        res = ov.pasvs_overlap(xi, n, ze, m)
                        worst = max(worst, res.form_spread, res.oracle_error)
    assert worst < 1e-9


def test_pasvs_overlap_hermiticity():
    xi, zeta = sq(polar(0.5, 1.2)), sq(polar(0.3, -0.4))
    a = ov.pasvs_overlap(xi, 2, zeta, 6).value
    b = ov.pasvs_overlap(zeta, 6, xi, 2).value
    assert abs(a - b.conjugate()) < 1e-11


def test_pasvs_overlap_domain_guard():
    with pytest.raises(ValueError):
        ov.pasvs_overlap(sq(0.96), 2, sq(0.96), 0)


def test_pasvs_overlap_series_form_selector():
    xi, zeta = sq(0.25), sq(0.45)
    r1 = ov.pasvs_overlap(xi, 2, zeta, 0, form=1)
    rs = ov.pasvs_overlap(xi, 2, zeta, 0, form="series")
    assert rs.oracle_error == 0.0
    assert abs(r1.value - rs.value) < 1e-11
    with pytest.raises(ValueError):
        ov.pasvs_overlap(xi, 2, zeta, 0, form=4)
    with pytest.raises(ValueError, match="unknown pasops_overlap form"):
        ov.pasops_overlap(xi, 2, zeta, 0, form=4)


@settings(max_examples=30, deadline=None)
@given(
    a_xi=st.floats(min_value=0.05, max_value=0.6),
    a_ze=st.floats(min_value=0.05, max_value=0.6),
    p_xi=st.floats(min_value=-math.pi, max_value=math.pi),
    p_ze=st.floats(min_value=-math.pi, max_value=math.pi),
    n=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=0, max_value=6),
)
def test_pasvs_overlap_cauchy_schwarz_and_hermiticity(a_xi, a_ze, p_xi, p_ze, n, m):
    xi, ze = sq(polar(a_xi, p_xi)), sq(polar(a_ze, p_ze))
    res = ov.pasvs_overlap(xi, n, ze, m)
    assert abs(res.value) <= 1.0 + 1e-10
    back = ov.pasvs_overlap(ze, m, xi, n)
    assert abs(res.value - back.value.conjugate()) < 1e-10


# ------------------------------------------------------------ pasops overlap

def test_pasops_overlap_cases():
    z = sq(polar(0.35, 0.4))
    assert ov.pasops_overlap(z, 2, z, 2).value == pytest.approx(1.0, abs=1e-12)
    assert ov.pasops_overlap(sq(0.2), 3, sq(0.4), 2).value == 0.0


def test_pasops_overlap_series_oracle():
    xi, zeta = sq(0.2), sq(0.4)
    res = ov.pasops_overlap(xi, 2, zeta, 0)
    series = fs.inner(fs.pasops(xi, 2, eps=1e-26), fs.pasops(zeta, 0, eps=1e-26))
    assert abs(res.value - series) < 1e-9


PASOPS_LABELS = [
    (sq(polar(0.5, -0.8)), sq(polar(0.6, 1.9))),
    (sq(0.2), sq(polar(0.4, 1.0472))),
    (sq(polar(0.6, 2.9)), sq(polar(0.3, -2.9))),
]


@pytest.mark.parametrize("form", [1, 2, 3, "series"])
def test_pasops_overlap_is_shifted_pasvs_overlap(form):
    # |1, zeta, m> = |zeta, m+1>: same value and diagnostics, bit for bit
    for xi, ze in PASOPS_LABELS:
        for n in range(5):
            for m in range(5):
                assert ov.pasops_overlap(xi, n, ze, m, form) == ov.pasvs_overlap(
                    xi, n + 1, ze, m + 1, form
                )


def printed_pasops_legendre_form(xi, n, zeta, m) -> complex:
    """The one-photon overlap in its printed associated-Legendre form, n >= m
    with n - m even, written out on its own one-photon normalizations."""
    w = xi.zeta.conjugate() * zeta.zeta
    q = (n - m) // 2
    pref = (ov.pasops_norm(zeta, m) * ov.pasops_norm(xi, n)) ** -0.5
    powers = cmath.exp(
        ((m - n) / 4 + q / 2) * cmath.log(xi.zeta.conjugate())
        + ((n - m) / 4 + q / 2) * cmath.log(zeta.zeta)
        - ((m + n - 2) / 4 + q / 2) * cmath.log(1.0 - w)
    )
    return (
        pref
        * ov.sops_overlap(xi, zeta)
        * math.factorial(m + 1)
        * powers
        * legendre_p_deriv(q, (m + n + 2) // 2, (1.0 - w) ** -0.5)
    )


def test_pasops_overlap_matches_printed_legendre_form():
    for xi, ze in PASOPS_LABELS:
        for n in range(7):
            for m in range(n % 2, n + 1, 2):
                got = ov.pasops_overlap(xi, n, ze, m).value
                assert abs(got - printed_pasops_legendre_form(xi, n, ze, m)) < 1e-12


def test_pasops_overlap_rejects_negative_index():
    # a shift applied before the check would accept n = -1 as vacuum index 0
    with pytest.raises(ValueError, match="pasops_overlap requires n >= 0"):
        ov.pasops_overlap(sq(0.2), -1, sq(0.4), 1)
    with pytest.raises(ValueError, match="pasvs_overlap requires n >= 0"):
        ov.pasvs_overlap(sq(0.2), 1, sq(0.4), -1)


def test_pasops_overlap_forms_agree():
    worst = 0.0
    for n in range(0, 7):
        for m in range(n % 2, n + 1, 2):
            xi, ze = sq(polar(0.5, -0.8)), sq(polar(0.6, 1.9))
            res = ov.pasops_overlap(xi, n, ze, m)
            worst = max(worst, res.form_spread, res.oracle_error)
    assert worst < 1e-9


def counting_cuts(monkeypatch) -> list:
    """Record the (label, index) segments of every ``fockstate._pasvs_cut``
    pass."""
    passes = []
    real = fs._pasvs_cut

    def counted(name, shift, labels, eps):
        passes.append([(param.zeta, m) for param, m, _ in labels])
        return real(name, shift, labels, eps)

    monkeypatch.setattr(fs, "_pasvs_cut", counted)
    return passes


def test_pasops_overlap_cuts_one_oracle_pair(monkeypatch, oracle_builds):
    # one two-segment pass: the vacuum-family pair at the shifted indices
    passes = counting_cuts(monkeypatch)
    res = ov.pasops_overlap(sq(0.4), 4, sq(0.3j), 2)
    assert passes == [[(0.4, 5), (0.3j, 3)]]
    assert not oracle_builds
    assert res.form_spread < 1e-9 and res.oracle_error < 1e-9


def test_scalar_overlap_cuts_one_oracle_segment_on_the_diagonal(monkeypatch, oracle_builds):
    passes = counting_cuts(monkeypatch)
    for res in (ov.pasvs_overlap(sq(0.4j), 2, sq(0.4j), 2), ov.pasops_overlap(sq(0.3), 1, sq(0.3), 1)):
        assert abs(res.value - 1.0) < 1e-12 and res.oracle_error < 1e-12
    assert passes == [[(0.4j, 2)], [(0.3, 2)]]
    # the same label at another index, and another label at the same index
    ov.pasvs_overlap(sq(0.4j), 2, sq(0.4j), 0)
    ov.pasvs_overlap(sq(0.4j), 2, sq(0.4), 2)
    assert [len(segments) for segments in passes] == [1, 1, 2, 2]
    assert not oracle_builds


@pytest.mark.parametrize("args, index", [((0.5, 2, 1 - 1e-12, 0), 0), ((1 - 1e-12, 2, 0.5, 0), 2)])
def test_scalar_overlap_oracle_names_the_state_that_does_not_cut(args, index):
    # only the state at |zeta| = 1 - 1e-12 reaches the term cap, in either
    # segment of the oracle pass
    xi, n, zeta, m = args
    want = rf"^pasvs zeta=\(0\.999999999999\+0j\) m={index} eps=1e-26: state truncation did not converge"
    with pytest.raises(ValueError, match=want):
        ov.pasvs_overlap(sq(xi), n, sq(zeta), m)


def test_scalar_overlap_evaluates_each_norm_once(monkeypatch):
    calls = []
    real = ov.pasvs_norm

    def counted(zeta, m):
        calls.append((zeta.zeta, m))
        return real(zeta, m)

    monkeypatch.setattr(ov, "pasvs_norm", counted)
    ov.pasops_overlap(sq(0.4), 4, sq(0.3j), 2)
    assert sorted(calls, key=lambda c: c[1]) == [(0.3j, 3), (0.4, 5)]
    calls.clear()
    ov.pasvs_overlap(sq(0.4j), 2, sq(0.4j), 2)
    assert calls == [(0.4j, 2)]


def oracle_labels():
    """(xi, zeta) label pairs with |conj(xi) zeta| <= 0.9, zero labels and
    repeated labels included."""
    modulus = st.one_of(st.just(0.0), st.floats(0.01, 0.99))
    label = st.builds(polar, modulus, st.floats(-math.pi, math.pi))
    return st.tuples(label, label).filter(lambda p: abs(p[0].conjugate() * p[1]) <= 0.9)


@settings(max_examples=80, deadline=None)
@given(
    labels=oracle_labels(),
    n=st.integers(0, 14),
    shift=st.integers(-7, 7),
    same=st.booleans(),
    family=st.sampled_from(["pasvs", "pasops"]),
)
def test_series_oracle_matches_inner_product_of_constructor_vectors(labels, n, shift, same, family):
    # same label and shift 0: the diagonal, one segment
    xi, zeta = sq(labels[0]), sq(labels[0] if same else labels[1])
    m = max(n + 2 * shift, n % 2)
    left = (xi, n, ov.pasvs_norm(xi, n))
    right = (zeta, m, ov.pasvs_norm(zeta, m))
    got = ov._series(family, ov._SHIFT[family], left, right)
    want = fs.inner(fs.pasvs(xi, n, ov.SERIES_EPS), fs.pasvs(zeta, m, ov.SERIES_EPS))
    assert abs(got - want) <= 1e-15


def test_scalar_overlap_oracle_checks_each_normalization(monkeypatch):
    # a closed-form norm off by 1e-6 must fail the oracle's normalization
    # check, named by the segment it fails on
    real = ov.pasvs_norm
    monkeypatch.setattr(ov, "pasvs_norm", lambda zeta, m: real(zeta, m) * (1.0 + 1e-6))
    with pytest.raises(ArithmeticError, match=r"^pasops zeta=\(0\.4\+0j\) m=4: closed-form normalization"):
        ov.pasops_overlap(sq(0.4), 4, sq(0.3j), 2)
    monkeypatch.setattr(
        ov, "pasvs_norm", lambda zeta, m: real(zeta, m) * (1.0 + 1e-6 * (zeta.zeta == 0.3j))
    )
    with pytest.raises(ArithmeticError, match=r"^pasvs zeta=0\.3j m=2: closed-form normalization"):
        ov.pasvs_overlap(sq(0.4), 4, sq(0.3j), 2)


def test_pasops_overlap_evaluates_one_legendre_form(monkeypatch):
    from pastates import specfun

    calls = []
    real = specfun.legendre_p_deriv

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "legendre_p_deriv", counted)
    res = ov.pasops_overlap(sq(0.4), 4, sq(0.3j), 2)
    assert len(calls) == 1
    assert res.form_spread < 1e-9


@pytest.mark.parametrize("family", ["pasvs", "pasops"])
def test_overlap_grid_builds_each_oracle_vector_once(family, oracle_builds):
    pairs = [(sq(polar(0.2, 0.5)), sq(0.4)), (sq(0.4), sq(polar(0.2, 0.5))), (sq(0.4), sq(0.4))]
    worst, count = ov.overlap_grids((family,), pairs, 3)[family]
    assert count == 6 * len(pairs)
    assert worst < 1e-9
    # one array per label: vacuum-family indices 0..3, or 0..4 for pasops
    top = 4 if family == "pasops" else 3
    assert sorted(oracle_builds, key=str) == [("columns", polar(0.2, 0.5), top), ("columns", 0.4, top)]


def test_overlap_grids_share_one_evaluation(oracle_builds, monkeypatch):
    from pastates import specfun

    pairs = [(sq(polar(0.2, 0.5)), sq(0.4)), (sq(0.4), sq(polar(0.6, -2.9)))]
    alone = {f: ov.overlap_grids((f,), pairs, 4)[f] for f in ("pasvs", "pasops")}
    points = []
    real = specfun.legendre_p_deriv

    def counted(order, degree, x):
        points.append((order, degree))
        return real(order, degree, x)

    monkeypatch.setattr(specfun, "legendre_p_deriv", counted)
    oracle_builds.clear()
    assert ov.overlap_grids(("pasvs", "pasops"), pairs, 4) == alone
    # each label's vectors once, up to index 5, and one form-3 evaluation
    # per point of the union: pasvs's 9 points with N <= 4, and the 3 with
    # N = 5 of pasops's 9 (its other 6 are pasvs points)
    assert len(oracle_builds) == 3 and {top for _, _, top in oracle_builds} == {5}
    assert len(points) == len(set(points)) == 9 + 3


def test_overlap_grid_matches_pointwise_overlaps():
    # batched forms and oracle against the scalar forms and inner products,
    # point by point; the pairs include a zero label and phases across the
    # branch cut
    pairs = [
        (sq(polar(0.6, -2.9)), sq(polar(0.4, 2.9))),
        (sq(0.2), sq(polar(0.6, 1.0))),
        (sq(0), sq(polar(0.4, 2.9))),
        (sq(polar(0.4, -2.9)), sq(0)),
    ]
    for family, shift in (("pasvs", 0), ("pasops", 1)):
        points = [(n + shift, m + shift) for n in range(5) for m in range(n % 2, n + 1, 2)]
        forms = ov._grid_forms(pairs, points)
        assert forms.shape == (4, len(points), len(pairs))
        for i, (big_n, big_m) in enumerate(points):
            for p, (xi, ze) in enumerate(pairs):
                oracle = fs.inner(
                    fs.pasvs(xi, big_n, eps=ov.SERIES_EPS), fs.pasvs(ze, big_m, eps=ov.SERIES_EPS)
                )
                norms = ov.pasvs_norm(xi, big_n), ov.pasvs_norm(ze, big_m)
                scalar = [*ov._pasvs_forms(xi, big_n, norms[0], ze, big_m, norms[1]), oracle]
                for got, want in zip(forms[:, i, p], scalar):
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
        assert ov.overlap_grids((family,), pairs, 4)[family][1] == 9 * len(pairs)


def corrupt_oracle_vector(monkeypatch, label, index, corrupt):
    """Make fockstate._pasvs_columns hand column ``index`` of ``label`` as
    ``corrupt(column)``."""
    real = fs._pasvs_columns

    def patched(param, top, *args, **kwargs):
        dense, *rest = real(param, top, *args, **kwargs)
        if param.zeta == label:
            dense[:, index] = corrupt(dense[:, index].copy())
        return (dense, *rest)

    monkeypatch.setattr(fs, "_pasvs_columns", patched)


GRID_PAIRS = [(sq(0.2), sq(0.4)), (sq(0.4), sq(0.2))]


def test_overlap_grid_fails_on_nan_oracle(monkeypatch):
    def nan_first(column):
        column[1] = complex("nan")
        return column

    corrupt_oracle_vector(monkeypatch, 0.4, 1, nan_first)
    assert ov.overlap_grids(("pasvs",), GRID_PAIRS, 1)["pasvs"] == (math.inf, 4)


def test_overlap_grid_fails_on_nan_legendre_form(monkeypatch):
    from pastates import specfun

    monkeypatch.setattr(specfun, "legendre_p_deriv", lambda order, degree, x: math.nan)
    assert ov.overlap_grids(("pasvs",), GRID_PAIRS, 1)["pasvs"] == (math.inf, 4)


@pytest.mark.parametrize("form,field", [(1, "form_spread"), (3, "oracle_error")])
def test_scalar_overlap_fails_on_nan_legendre_form(monkeypatch, form, field):
    from pastates import specfun

    monkeypatch.setattr(specfun, "legendre_p_deriv", lambda order, degree, x: math.nan)
    res = ov.pasvs_overlap(sq(0.2), 4, sq(0.4), 2, form=form)
    assert getattr(res, field) == math.inf


def test_overlap_grid_fails_on_scaled_oracle_vector(monkeypatch):
    corrupt_oracle_vector(monkeypatch, 0.4, 1, lambda column: column * (1.0 + 1e-8))
    worst, count = ov.overlap_grids(("pasvs",), GRID_PAIRS, 1)["pasvs"]
    assert worst > 1e-9 and count == 4


def test_overlap_grid_rejects_empty_grids():
    with pytest.raises(ValueError, match="at least one label pair"):
        ov.overlap_grids(("pasvs",), [], 2)
    with pytest.raises(ValueError, match="max_n >= 0"):
        ov.overlap_grids(("pasops",), GRID_PAIRS, -1)


def test_overlap_grid_rejects_unknown_family_and_wide_pairs():
    with pytest.raises(ValueError, match="unknown overlap family"):
        ov.overlap_grids(("pacsc",), [(sq(0.2), sq(0.2))], 2)
    with pytest.raises(ValueError, match=r"pasops_overlap requires \|conj"):
        ov.overlap_grids(("pasops",), [(sq(0.2), sq(0.2)), (sq(0.96), sq(0.96))], 2)


# ------------------------------------------------------------ circle norms

def circle(z, lam, mu) -> fs.CircleParam:
    return fs.CircleParam(z, lam, mu)


def test_csc_norm_at_zero():
    for lam, mu in ((1, 0), (3, 2)):
        assert ov.csc_norm(circle(0, lam, mu), "pfq") == 1.0
        assert ov.csc_norm(circle(0, lam, mu), "circle") == 1.0


def test_csc_norm_even_coherent_is_cosh():
    # lam=2, mu=0, |t|^2 = 1 -> cosh(1)
    p = circle(1.0, 2, 0)
    assert ov.csc_norm(p, "circle") == pytest.approx(math.cosh(1.0), rel=1e-12)
    assert ov.csc_norm(p, "pfq") == pytest.approx(math.cosh(1.0), rel=1e-12)


@pytest.mark.parametrize("lam,mu,z", [(1, 0, 0.8), (2, 0, 1.0), (2, 1, 0.6), (3, 1, 0.7), (4, 3, 1.2)])
def test_csc_norm_two_forms(lam, mu, z):
    p = circle(z, lam, mu)
    a, b = ov.csc_norm(p, "pfq"), ov.csc_norm(p, "circle")
    assert a == pytest.approx(b, rel=1e-10)


def test_csc_norm_series_oracle():
    p = circle(0.7, 3, 1)
    brute = sum(
        math.factorial(1) / math.factorial(3 * k + 1) * abs(p.z) ** (2 * k) for k in range(40)
    )
    assert ov.csc_norm(p) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("lam,mu,z", [(1, 0, 0.8), (2, 1, 1.5), (3, 2, 5.0), (4, 2, polar(3.0, 1.2))])
def test_csc_norm_is_the_0f_series_of_b(lam, mu, z):
    p = circle(z, lam, mu)
    b = [(mu + j) / lam for j in range(1, lam + 1) if mu + j != lam]
    assert ov.csc_norm(p, "pfq") == specfun.generalized_pfq([], b, p.y)


def test_csc_norm_rejects_unknown_form():
    with pytest.raises(ValueError):
        ov.csc_norm(circle(0.5, 2, 0), "nope")


def test_pacsc_norm_at_zero():
    assert ov.pacsc_norm(circle(0, 2, 1), 3) == pytest.approx(
        math.factorial(4) / math.factorial(1), rel=1e-13
    )


def test_pacsc_norm_single_component_is_laguerre():
    # lam=1: m! L_m(-|t|^2)
    t, m = 0.8, 3
    p = circle(t, 1, 0)
    want = math.factorial(m) * laguerre(m, -t * t)
    assert ov.pacsc_norm(p, m, "pfq") == pytest.approx(want, rel=1e-11)
    assert ov.pacsc_norm(p, m, "laguerre") == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize(
    "lam,mu,m,z",
    [(1, 0, 2, 0.7), (2, 0, 2, 0.5), (2, 1, 2, 0.5), (3, 2, 1, 0.9), (2, 1, 3, polar(0.6, 0.8))],
)
def test_pacsc_norm_two_forms(lam, mu, m, z):
    p = circle(z, lam, mu)
    a = ov.pacsc_norm(p, m, "pfq")
    b = ov.pacsc_norm(p, m, "laguerre")
    assert a == pytest.approx(b, rel=1e-9)


# at z = 0 the norm is m!, finite up to m = 170
@pytest.mark.parametrize("z,m", [(0.8, 169), (0.8, 170), (0.8, 200), (0.0, 200)])
@pytest.mark.parametrize("form", ["pfq", "laguerre"])
def test_pacsc_norm_overflow_names_function_and_parameters(z, m, form):
    want = rf"pacsc_norm: .*z=.*, lam=2, mu=0, m={m}$"
    with pytest.raises(OverflowError, match=want):
        ov.pacsc_norm(circle(z, 2, 0), m, form)


def test_pacsc_norm_series_oracle():
    lam, mu, m = 2, 1, 2
    p = circle(0.5, lam, mu)
    brute = sum(
        math.factorial(mu)
        * math.factorial(k * lam + m + mu)
        / math.factorial(k * lam + mu) ** 2
        * abs(p.z) ** (2 * k)
        for k in range(40)
    ) / ov.csc_norm(p)
    assert ov.pacsc_norm(p, m) == pytest.approx(brute, rel=1e-11)
