import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastates import fockstate as fs
from pastates import overlap as ov

TIGHT = 1e-26


def unit_phase(angle):
    return cmath.exp(1j * angle)


def sns_ladder_oracle(param, m, eps=TIGHT):
    """Independent squeezed-number-state construction: repeated application
    of the squeezed raising operator to the squeezed vacuum.

    Conjugating a^dag by the squeeze carries the conjugate phase:
    S a^dag S^-1 = cosh(r) a^dag - e^(-i phi) sinh(r) a.
    """
    r = math.atanh(abs(param.zeta))
    phase = unit_phase(-param.phi)
    vec = fs.pasvs(param, 0, eps)
    for j in range(1, m + 1):
        up = fs.apply_raising(vec)
        down = fs.apply_lowering(vec)
        length = max(len(up.coeffs) * 2 + up.offset, len(down.coeffs) * 2 + down.offset, 1)
        dense = (math.cosh(r) * up.dense(length + 2) - phase * math.sinh(r) * down.dense(length + 2)) / math.sqrt(j)
        off = j % 2
        vec = fs.FockVector(off, 2, dense[off::2], 0.0)
    return vec


# ------------------------------------------------------------ parameters

def test_squeeze_param_rejects_unit_disc_boundary():
    with pytest.raises(ValueError):
        fs.SqueezeParam(1.0)
    with pytest.raises(ValueError):
        fs.SqueezeParam(0.8 + 0.7j)
    assert fs.SqueezeParam(0.3).y == pytest.approx(0.09)


def test_circle_param_validation():
    with pytest.raises(ValueError):
        fs.CircleParam(1.0, 0, 0)
    with pytest.raises(ValueError):
        fs.CircleParam(1.0, 2, 2)
    p = fs.CircleParam(0.5, 3, 1)
    assert p.y == pytest.approx(0.25 / 27)


@pytest.mark.parametrize("z", [0.7, -0.4, 0.3 + 0.9j, 1.2 * unit_phase(2.8)])
@pytest.mark.parametrize("lam", [1, 2, 3, 5])
def test_circle_param_root_reproduces_z(z, lam):
    p = fs.CircleParam(z, lam, 0)
    assert abs(p.t**lam - p.z) <= 1e-13 * abs(p.z)


# ------------------------------------------------------------ pasvs

def test_pasvs_zero_squeezing_is_number_state():
    v = fs.pasvs(fs.SqueezeParam(0), 3)
    assert v.offset == 3 and v.stride == 2
    assert list(v.coeffs) == [1.0 + 0.0j]
    assert v.tail_bound == 0.0


def test_pasvs_squeezed_vacuum_coefficients():
    v = fs.pasvs(fs.SqueezeParam(0.5), 0)
    for k in range(len(v.coeffs)):
        expected = 0.75**0.25 * math.sqrt(math.factorial(2 * k)) / math.factorial(k) * 0.25**k
        assert complex(v.coeffs[k]) == pytest.approx(expected, rel=1e-13)


def test_pasvs_norm_closed_vs_sum():
    v = fs.pasvs(fs.SqueezeParam(0.5), 2, eps=TIGHT)
    assert abs(v.norm_sq() + v.tail_bound - 1.0) < 1e-12


def test_pasvs_rejects_near_unit_modulus():
    with pytest.raises(ValueError):
        fs.pasvs(fs.SqueezeParam(1 - 1e-13), 0)


@settings(max_examples=40, deadline=None)
@given(
    modulus=st.floats(min_value=0.0, max_value=0.7),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    m=st.integers(min_value=0, max_value=6),
)
def test_pasvs_support_and_normalization(modulus, angle, m):
    param = fs.SqueezeParam(modulus * unit_phase(angle))
    v = fs.pasvs(param, m)
    assert v.offset == m and v.stride == 2
    assert all(n >= m and (n - m) % 2 == 0 for n in v.photon_numbers())
    assert abs(v.norm_sq() + v.tail_bound - 1.0) < 1e-9
    assert v.tail_bound < 1e-12


def test_truncation_honesty():
    param = fs.SqueezeParam(0.6 * unit_phase(0.4))
    coarse = fs.pasvs(param, 3)
    fine = fs.pasvs(param, 3, eps=1e-30)
    for k in range(len(coarse.coeffs)):
        assert abs(coarse.coeffs[k] - fine.coeffs[k]) < 1e-13


# ------------------------------------------------------------ pasops

def test_pasops_zero_squeezing():
    v = fs.pasops(fs.SqueezeParam(0), 4)
    assert v.offset == 5 and list(v.coeffs) == [1.0 + 0.0j]


def test_pasops_squeezed_one_photon_coefficients():
    zeta = 0.3
    v = fs.pasops(fs.SqueezeParam(zeta), 0)
    omy = 1 - zeta * zeta
    for k in range(len(v.coeffs)):
        expected = omy**0.75 * math.sqrt(math.factorial(2 * k + 1)) / math.factorial(k) * (zeta / 2) ** k
        assert complex(v.coeffs[k]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_pasops_equals_shifted_pasvs(m):
    # the one-photon family coincides with the vacuum family at m+1;
    # the proportionality scalar between the unit vectors is exactly 1
    param = fs.SqueezeParam(0.45 * unit_phase(1.3))
    a = fs.pasops(param, m, eps=TIGHT)
    b = fs.pasvs(param, m + 1, eps=TIGHT)
    assert a.offset == b.offset
    for n in range(0, 40):
        assert abs(a.coefficient(n) - b.coefficient(n)) < 1e-12


# ------------------------------------------------------------ sns

def test_sns_zero_squeezing_and_single_term():
    assert list(fs.sns(fs.SqueezeParam(0), 5).coeffs) == [1.0 + 0.0j]
    param = fs.SqueezeParam(0.4)
    a, b = fs.sns(param, 0), fs.pasvs(param, 0)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_sns_matches_ladder_oracle():
    param = fs.SqueezeParam(0.5 * unit_phase(0.9))
    for m in range(0, 9):
        built = fs.sns(param, m, eps=TIGHT)
        oracle = sns_ladder_oracle(param, m)
        for n in range(m % 2, 40, 2):
            assert abs(built.coefficient(n) - oracle.coefficient(n)) < 1e-10


def test_sns_orthonormality():
    param = fs.SqueezeParam(0.5)
    states = [fs.sns(param, m, eps=TIGHT) for m in range(13)]
    for a in range(13):
        for b in range(13):
            got = fs.inner(states[a], states[b])
            assert abs(got - (1.0 if a == b else 0.0)) < 1e-10


def test_sns_ladder_identity():
    # (cosh r a - e^{i phi} sinh r a^dag) |m> = sqrt(m) |m-1> in the family
    param = fs.SqueezeParam(0.4 * unit_phase(0.7))
    r = math.atanh(abs(param.zeta))
    for m in range(1, 11):
        vm = fs.sns(param, m, eps=TIGHT)
        lo, hi = fs.apply_lowering(vm), fs.apply_raising(vm)
        target = fs.sns(param, m - 1, eps=TIGHT)
        for n in range(0, 50):
            lhs = math.cosh(r) * lo.coefficient(n) - unit_phase(param.phi) * math.sinh(
                r
            ) * hi.coefficient(n)
            assert abs(lhs - math.sqrt(m) * target.coefficient(n)) < 1e-10


# ------------------------------------------------------------ csc / pacsc

def test_csc_zero_label():
    v = fs.csc(fs.CircleParam(0, 3, 2))
    assert v.offset == 2 and v.stride == 3 and list(v.coeffs) == [1.0 + 0.0j]


def test_csc_ordinary_coherent_state():
    t = 0.8
    v = fs.csc(fs.CircleParam(t, 1, 0))
    for k in range(len(v.coeffs)):
        expected = math.exp(-t * t / 2) * t**k / math.sqrt(math.factorial(k))
        assert complex(v.coeffs[k]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lam,mu", [(1, 0), (2, 0), (2, 1), (3, 1)])
def test_csc_annihilation_power_eigenstate(lam, mu):
    param = fs.CircleParam(0.8 * unit_phase(1.1), lam, mu)
    v = fs.csc(param, eps=1e-28)
    w = v
    for _ in range(lam):
        w = fs.apply_lowering(w)
    for n in w.photon_numbers():
        assert abs(w.coefficient(int(n)) - param.z * v.coefficient(int(n))) < 1e-11


def test_pacsc_zero_label():
    v = fs.pacsc(fs.CircleParam(0, 2, 1), 3)
    assert v.offset == 4 and list(v.coeffs) == [1.0 + 0.0j]


def test_pacsc_photon_added_coherent_state():
    # lam = 1: [m! L_m(-|t|^2)]^(-1/2) e^(-|t|^2/2) sqrt((k+m)!)/k! t^k
    t, m = 0.7, 2
    v = fs.pacsc(fs.CircleParam(t, 1, 0), m)
    from pastates.specfun import laguerre

    norm = math.factorial(m) * laguerre(m, -t * t)
    for k in range(len(v.coeffs)):
        expected = (
            norm**-0.5
            * math.exp(-t * t / 2)
            * math.sqrt(math.factorial(k + m))
            / math.factorial(k)
            * t**k
        )
        assert complex(v.coeffs[k]) == pytest.approx(expected, rel=1e-11)


def test_pacsc_support():
    v = fs.pacsc(fs.CircleParam(0.6, 2, 0), 1)
    assert v.offset == 1 and v.stride == 2
    assert all((n - 1) % 2 == 0 for n in v.photon_numbers())


# ------------------------------------------------------------ ladders / inner

def test_lowering_annihilates_vacuum():
    vac = fs.FockVector(0, 1, np.array([1.0 + 0.0j]), 0.0)
    out = fs.apply_lowering(vac)
    assert len(out.coeffs) == 0
    assert fs.inner(out, out) == 0.0


def test_commutator_identity():
    v = fs.pasvs(fs.SqueezeParam(0.4 + 0.2j), 2)
    ad_a = fs.apply_raising(fs.apply_lowering(v))
    a_ad = fs.apply_lowering(fs.apply_raising(v))
    for n in range(0, 30):
        assert abs(a_ad.coefficient(n) - ad_a.coefficient(n) - v.coefficient(n)) < 1e-12


def test_squeezed_vacuum_kernel_condition():
    # (a - zeta a^dag)|zeta> = 0
    param = fs.SqueezeParam(0.5 * unit_phase(-0.8))
    v = fs.pasvs(param, 0, eps=1e-28)
    lo, hi = fs.apply_lowering(v), fs.apply_raising(v)
    for n in range(0, 40):
        assert abs(lo.coefficient(n) - param.zeta * hi.coefficient(n)) < 1e-12


def test_photon_added_ladder_identity():
    # a (a^dag)^m |z> = m (a^dag)^(m-1)|z> + z (a^dag)^(m+1)|z>, unnormalized
    param = fs.SqueezeParam(0.55 * unit_phase(-0.3))
    for m in range(1, 11):
        n_m = math.sqrt(ov.pasvs_norm(param, m))
        n_lo = math.sqrt(ov.pasvs_norm(param, m - 1))
        n_hi = math.sqrt(ov.pasvs_norm(param, m + 1))
        lhs = fs.apply_lowering(fs.pasvs(param, m, eps=TIGHT))
        lo = fs.pasvs(param, m - 1, eps=TIGHT)
        hi = fs.pasvs(param, m + 1, eps=TIGHT)
        for n in range(0, 50):
            res = n_m * lhs.coefficient(n) - m * n_lo * lo.coefficient(n) - param.zeta * n_hi * hi.coefficient(n)
            assert abs(res) < 1e-10


def test_inner_disjoint_support():
    a = fs.FockVector(2, 1, np.array([1.0 + 0.0j]), 0.0)
    b = fs.FockVector(3, 1, np.array([1.0 + 0.0j]), 0.0)
    assert fs.inner(a, b) == 0.0


def brute_inner(u, v) -> complex:
    """<u|v> summed over photon numbers, one dict lookup per coefficient."""
    lookup = {int(n): c for n, c in zip(u.photon_numbers(), u.coeffs)}
    return sum(
        (lookup[int(n)].conjugate() * c for n, c in zip(v.photon_numbers(), v.coeffs) if int(n) in lookup),
        0.0 + 0.0j,
    )


def lattice(offset, stride, length, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
    return fs.FockVector(offset, stride, coeffs, 0.0)


@pytest.mark.parametrize(
    "u,v",
    [
        ((1, 2, 7), (5, 2, 4)),    # v starts two lattice steps above u
        ((5, 2, 4), (1, 2, 7)),    # v starts below u
        ((3, 2, 5), (3, 2, 9)),    # same offset, different lengths
        ((0, 2, 6), (1, 2, 6)),    # misaligned offsets: disjoint lattices
        ((2, 3, 5), (30, 3, 2)),   # v starts past the end of u
        ((0, 2, 0), (0, 2, 3)),    # empty u
        ((4, 2, 3), (0, 2, 0)),    # empty v
        ((0, 2, 9), (0, 3, 7)),    # mixed strides meet on multiples of 6
        ((1, 3, 8), (3, 4, 6)),    # mixed strides and offsets
        ((0, 2, 5), (1, 4, 5)),    # mixed strides, never meet
    ],
)
def test_inner_matches_brute_force(u, v):
    a, b = lattice(*u, seed=1), lattice(*v, seed=2)
    got = fs.inner(a, b)
    assert isinstance(got, complex)
    assert abs(got - brute_inner(a, b)) < 1e-13
    assert abs(fs.inner(b, a) - got.conjugate()) < 1e-13


def test_build_truncated_evaluates_each_ratio_once():
    seen = []
    az = 0.6

    def ratio(k):
        seen.append(k)
        return math.sqrt((2 * k + 3) * (2 * k + 4)) * az / (2.0 * (k + 1))

    coeffs, tail = fs._build_truncated(0.0, 1.0 + 0.0j, ratio, az, 1e-20)
    assert 0.0 < tail < 1e-20
    assert seen == list(range(len(coeffs) + 1))


def test_inner_matches_closed_form():
    xi, zeta = fs.SqueezeParam(0.3), fs.SqueezeParam(0.5 * unit_phase(0.6))
    got = fs.inner(fs.pasvs(xi, 2, eps=TIGHT), fs.pasvs(zeta, 4, eps=TIGHT))
    want = ov.pasvs_overlap(xi, 2, zeta, 4).value
    assert abs(got - want) < 1e-9


def test_dense_and_coefficient_lookup():
    v = fs.pasvs(fs.SqueezeParam(0.4), 1)
    d = v.dense(9)
    assert d.shape == (9,)
    for n in range(9):
        assert d[n] == v.coefficient(n)
    assert v.coefficient(2) == 0.0  # off-lattice
