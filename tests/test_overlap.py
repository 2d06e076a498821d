import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastates import fockstate as fs
from pastates import overlap as ov
from pastates.specfun import laguerre, log_factorial


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


def test_pasops_overlap_forms_agree():
    worst = 0.0
    for n in range(0, 7):
        for m in range(n % 2, n + 1, 2):
            xi, ze = sq(polar(0.5, -0.8)), sq(polar(0.6, 1.9))
            res = ov.pasops_overlap(xi, n, ze, m)
            worst = max(worst, res.form_spread, res.oracle_error)
    assert worst < 1e-9


def counting_constructors(monkeypatch) -> list:
    """Record (family, label, index) of every pasvs/pasops constructor call."""
    calls = []
    for family in ("pasvs", "pasops"):
        real = getattr(fs, family)

        def counted(param, m, *args, _family=family, _real=real, **kwargs):
            calls.append((_family, param.zeta, m))
            return _real(param, m, *args, **kwargs)

        monkeypatch.setattr(fs, family, counted)
    return calls


def test_pasops_overlap_builds_one_oracle_pair(monkeypatch):
    calls = counting_constructors(monkeypatch)
    res = ov.pasops_overlap(sq(0.4), 4, sq(0.3j), 2)
    assert sorted(calls, key=lambda c: c[2]) == [("pasops", 0.3j, 2), ("pasops", 0.4, 4)]
    assert res.form_spread < 1e-9 and res.oracle_error < 1e-9


@pytest.mark.parametrize("family", ["pasvs", "pasops"])
def test_overlap_grid_builds_each_oracle_vector_once(family, monkeypatch):
    calls = counting_constructors(monkeypatch)
    pairs = [(sq(polar(0.2, 0.5)), sq(0.4)), (sq(0.4), sq(polar(0.2, 0.5))), (sq(0.4), sq(0.4))]
    worst, count = ov.overlap_grid(family, pairs, 3)
    assert count == 6 * len(pairs)
    assert worst < 1e-9
    # two labels at indices 0..3
    assert len(calls) == len(set(calls)) == 8
    assert {c[0] for c in calls} == {family}


def test_overlap_grid_matches_pointwise_overlaps():
    pairs = [(sq(polar(0.6, -2.9)), sq(polar(0.4, 2.9))), (sq(0.2), sq(polar(0.6, 1.0)))]
    for family, fn in (("pasvs", ov.pasvs_overlap), ("pasops", ov.pasops_overlap)):
        worst = max(
            max(res.form_spread, res.oracle_error)
            for n in range(5)
            for m in range(n % 2, n + 1, 2)
            for xi, ze in pairs
            for res in [fn(xi, n, ze, m, form=1)]
        )
        assert ov.overlap_grid(family, pairs, 4) == (worst, 9 * len(pairs))


def test_overlap_grid_fails_on_nan_oracle(monkeypatch):
    monkeypatch.setattr(fs, "inner", lambda u, v: complex("nan"))
    worst, count = ov.overlap_grid("pasvs", [(sq(0.2), sq(0.4)), (sq(0.4), sq(0.2))], 1)
    assert (worst, count) == (math.inf, 4)


def test_overlap_grid_rejects_unknown_family_and_wide_pairs():
    with pytest.raises(ValueError, match="unknown overlap family"):
        ov.overlap_grid("pacsc", [(sq(0.2), sq(0.2))], 2)
    with pytest.raises(ValueError, match=r"pasops_overlap requires \|conj"):
        ov.overlap_grid("pasops", [(sq(0.2), sq(0.2)), (sq(0.96), sq(0.96))], 2)


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
