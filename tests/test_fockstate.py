import cmath
import math
import re
import time

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


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.3)])
def test_circle_param_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="CircleParam requires a finite z, got z="):
        fs.CircleParam(z, 2, 0)


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


def pasvs_step_ratio(az, m, sqrt=math.sqrt):
    """The amplitude ratio k -> |<m+2k+2|zeta, m> / <m+2k|zeta, m>| of
    |zeta, m>; with sqrt=np.sqrt, m and k may be numpy arrays."""

    def ratio(k):
        twice = 2 * k
        j = twice + (m + 1)
        return sqrt(j * (j + 1)) * az / (twice + 2.0)

    return ratio


def build_truncated(log_mag0, phase_unit, ratio, limit_ratio, eps):
    """The scalar reference cut: coefficients c_k = exp(L_k) * phase_unit^k,
    one step per coefficient, cut when the geometric tail bound drops below
    eps.

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
        assert k <= fs._MAX_TERMS
        log_mag = log_next
        phase *= phase_unit
        r = r_next


def scalar_pasvs(param, m, eps):
    """The coefficients and tail bound of |zeta, m> from the reference cut
    ``build_truncated``."""
    if param.zeta == 0:
        return np.array([1.0 + 0.0j]), 0.0
    az = abs(param.zeta)
    log_mag0 = fs._pasvs_log_amplitude0(param, m, ov._pasvs_log_norms(param, m)[m])
    ratio = pasvs_step_ratio(az, m)
    return build_truncated(log_mag0, param.zeta / az, ratio, az, eps)


@pytest.mark.parametrize("eps", [1e-14, TIGHT])
@pytest.mark.parametrize("modulus", [1e-200, 0.3, 0.9, 0.95, 0.99])
def test_pasvs_matches_scalar_reference_cut(modulus, eps):
    param = fs.SqueezeParam(modulus * unit_phase(2.3))
    # the log norms build every index, also where the norm itself overflows
    for m in (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 40, 64, 99, 127, 160):
        want, want_tail = scalar_pasvs(param, m, eps)
        v = fs.pasvs(param, m, eps)
        assert v.offset == m and len(v.coeffs) == len(want)
        assert abs(v.tail_bound - want_tail) <= 1e-12 * want_tail
        assert np.max(np.abs(v.coeffs - want)) <= 1e-14


def test_pasvs_cut_at_an_underflowing_ratio_has_zero_tail():
    # the first step ratio sqrt(2) |zeta| / 2 rounds to 0 at the smallest
    # subnormal modulus
    param = fs.SqueezeParam(5e-324)
    v = fs.pasvs(param, 0)
    want, want_tail = scalar_pasvs(param, 0, 1e-14)
    assert want_tail == 0.0 and v.tail_bound == 0.0
    assert list(v.coeffs) == list(want) == [1.0 + 0.0j]


def array_pass_pasvs(param, m, eps):
    """The coefficients and tail bound of |zeta, m> from a copy of the
    one-vector numpy cut that ``pasvs`` made before its segment kernel, with
    no normalization check; (None, None) where it hits the term cap."""
    if param.zeta == 0:
        return np.array([1.0 + 0.0j]), 0.0
    az = abs(param.zeta)
    log_mag0 = fs._pasvs_log_amplitude0(param, m, ov._pasvs_log_norms(param, m)[m])
    ratio = pasvs_step_ratio(az, m, np.sqrt)
    rows = fs._pasvs_rows(az, m, eps)
    while True:
        r = ratio(np.arange(rows + 1))
        with np.errstate(all="ignore"):
            log_mag = np.empty(rows + 1)
            log_mag[0] = log_mag0
            np.log(r[:rows], out=log_mag[1:])
            np.cumsum(log_mag, out=log_mag)
            rho = np.maximum(r[1:], az)
            tail = np.exp(2.0 * log_mag[1:]) / np.maximum(1.0 - rho * rho, 0.0)
        cut = int(np.argmax(tail < eps))
        if tail[cut] < eps:
            break
        if rows > fs._MAX_TERMS:
            return None, None
        rows = min(2 * rows, fs._MAX_TERMS + 1)
    phase = np.full(cut + 1, param.zeta / az)
    phase[0] = 1.0
    return np.exp(log_mag[: cut + 1]) * np.cumprod(phase), float(tail[cut])


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.one_of(st.just(0.0), st.floats(1e-6, 0.99)),
    angle=st.floats(-math.pi, math.pi),
    m=st.integers(0, 60),
    log_eps=st.floats(-30.0, -3.0),
)
def test_pasvs_is_bit_identical_to_the_one_vector_array_cut(modulus, angle, m, log_eps):
    param, eps = fs.SqueezeParam(modulus * unit_phase(angle)), 10.0**log_eps
    if eps >= 1e-9:
        # a tail bound of eps could exceed the normalization tolerance
        want = r"^pasvs requires eps < 1e-09, the normalization tolerance; got eps="
        with pytest.raises(ValueError, match=want):
            fs.pasvs(param, m, eps)
        return
    want, want_tail = array_pass_pasvs(param, m, eps)
    if want is None:
        with pytest.raises(ValueError, match="state truncation did not converge"):
            fs.pasvs(param, m, eps)
        return
    v = fs.pasvs(param, m, eps)
    assert (v.offset, v.stride) == (m, 2)
    assert v.tail_bound == want_tail
    assert np.array_equal(v.coeffs, want)


def test_pasops_beyond_the_term_cap_names_its_own_index():
    want = r"^pasops zeta=\(0\.999999999\+0j\) m=0 eps=1e-14: state truncation did not converge"
    with pytest.raises(ValueError, match=want):
        fs.pasops(fs.SqueezeParam(1 - 1e-9), 0)


def mpmath_pasvs_amplitudes(zeta: complex, m: int, count: int) -> np.ndarray:
    """The first ``count`` amplitudes of |zeta, m> on |m + 2k>, with its norm
    summed in mpmath: sqrt(t_k / S) (zeta/|zeta|)^k, t_k = (2k+m)! (y/4)^k / (k!)^2
    and S the sum of every t_k."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        quarter_y = mpmath.mpf(abs(zeta)) ** 2 / 4
        terms = [mpmath.factorial(m)]
        total, k = terms[0], 0
        while k < count or terms[-1] > mpmath.mpf(10) ** -40 * total:
            terms.append(terms[-1] * (2 * k + m + 1) * (2 * k + m + 2) / (k + 1) ** 2 * quarter_y)
            total += terms[-1]
            k += 1
        mags = [float(mpmath.sqrt(t / total)) for t in terms[:count]]
    return np.array(mags) * (zeta / abs(zeta)) ** np.arange(count)


@pytest.mark.parametrize("family", ["pasvs", "pasops"])
@pytest.mark.parametrize("modulus, m", [(0.1, 168), (0.5, 151), (0.9, 117), (0.5, 200), (0.9, 300)])
def test_states_past_the_float_range_of_their_norm_match_mpmath(family, modulus, m):
    # the norm of |zeta, m> is beyond the float range from m = 168 at
    # |zeta| = 0.1, 151 at 0.5 and 117 at 0.9; the unit vector is not
    param = fs.SqueezeParam(modulus * unit_phase(-2.2))
    v = getattr(fs, family)(param, m)
    assert abs(v.norm_sq() + v.tail_bound - 1.0) <= 1e-9
    want = mpmath_pasvs_amplitudes(param.zeta, m + (family == "pasops"), len(v.coeffs))
    assert np.max(np.abs(v.coeffs - want)) <= 1e-12


def test_pasvs_gives_up_at_the_term_cap_quickly(recwarn):
    # about 1.6e10 coefficients before the tail drops below eps: far past
    # the term cap, which must stop the cut before any large allocation
    start = time.perf_counter()
    want = r"^pasvs zeta=\(0\.999999999\+0j\) m=0 eps=1e-14: state truncation did not converge"
    with pytest.raises(ValueError, match=want):
        fs.pasvs(fs.SqueezeParam(1 - 1e-9), 0)
    assert time.perf_counter() - start < 0.1
    assert not recwarn.list


@pytest.mark.parametrize("eps", [1e-14, TIGHT])
@pytest.mark.parametrize("zeta", [0, 0.3, 0.6 * unit_phase(2.9), 0.9, 0.95])
def test_pasvs_columns_match_scalar_constructor(zeta, eps):
    param = fs.SqueezeParam(zeta)
    ((dense, lengths, tails, log_norms),) = fs._pasvs_columns([param], 40, eps)
    assert np.array_equal(log_norms, ov._pasvs_log_norms(param, 40))
    for i in range(41):
        want, want_tail = scalar_pasvs(param, i, eps)
        assert lengths[i] == len(want)
        assert abs(tails[i] - want_tail) <= 1e-12 * want_tail
        # column i holds |zeta, i> on the photon numbers i, i + 2, ... only
        support = np.arange(i, i + 2 * lengths[i], 2)
        assert np.max(np.abs(dense[support, i] - want)) <= 1e-14
        assert not np.delete(dense[:, i], support).any()


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.one_of(st.just(0.0), st.floats(1e-6, 0.97)),
    angle=st.floats(-math.pi, math.pi),
    top=st.integers(0, 30),
    log_eps=st.floats(-30.0, -4.0),
)
def test_pasvs_columns_are_bit_identical_to_pasvs(modulus, angle, top, log_eps):
    param, eps = fs.SqueezeParam(modulus * unit_phase(angle)), 10.0**log_eps
    if eps >= 1e-9:
        # a tail bound of eps could exceed the normalization tolerance, and
        # the columns reject such an eps as pasvs does
        with pytest.raises(ValueError) as scalar:
            fs.pasvs(param, 0, eps)
        with pytest.raises(ValueError) as batch:
            fs._pasvs_columns([param], top, eps)
        assert str(batch.value) == str(scalar.value)
        return
    want = [fs.pasvs(param, i, eps) for i in range(top + 1)]
    ((dense, lengths, tails, _),) = fs._pasvs_columns([param], top, eps)
    for i, v in enumerate(want):
        assert lengths[i] == len(v.coeffs)
        assert tails[i] == v.tail_bound
        assert np.array_equal(dense[i : i + 2 * lengths[i] : 2, i], v.coeffs)


def test_row_doubling_gives_the_results_of_a_long_enough_first_guess(monkeypatch):
    # the first row guess of _pasvs_rows is long enough wherever it has been
    # tried, so the doubling runs only when a one-row guess forces every
    # segment through it
    labels = [fs.SqueezeParam(z) for z in (0, 0.3, 0.6 * unit_phase(2.9), 0.9, 0.99 * unit_phase(-1))]
    xi, zeta = labels[3], labels[2]

    def cut_results():
        vectors = [
            build(param, m, 1e-20)
            for build in (fs.pasvs, fs.pasops)
            for param in labels
            for m in (0, 3, 12)
        ]
        left = (xi, 6, ov._pasvs_log_norms(xi, 6)[6])
        series = ov._series("pasvs", 0, left, (zeta, 2, ov._pasvs_log_norms(zeta, 2)[2]))
        columns = fs._pasvs_columns(labels, 10, 1e-20)
        with pytest.raises(ValueError, match="state truncation did not converge") as cap:
            fs.pasops(fs.SqueezeParam(1 - 1e-9), 0)
        return vectors, series, columns, str(cap.value)

    want = cut_results()
    monkeypatch.setattr(fs, "_pasvs_rows", lambda az, m, eps: 1)
    got = cut_results()
    for v, w in zip(got[0], want[0]):
        assert (v.offset, v.tail_bound) == (w.offset, w.tail_bound)
        assert np.array_equal(v.coeffs, w.coeffs)
    assert got[1] == want[1]
    for table, want_table in zip(got[2], want[2]):
        assert all(np.array_equal(a, b) for a, b in zip(table, want_table))
    assert got[3] == want[3]


def corrupt_log_norms(monkeypatch, factor, index=None):
    """Scale the norms of the table ``overlap._pasvs_log_norms`` by factor:
    every norm, or the one at ``index``."""
    real = ov._pasvs_log_norms

    def patched(zeta, top):
        at = np.arange(top + 1) == index if index is not None else True
        return np.add(real(zeta, top), math.log(factor) * at)

    monkeypatch.setattr(ov, "_pasvs_log_norms", patched)


def test_pasvs_columns_check_every_normalization(monkeypatch):
    corrupt_log_norms(monkeypatch, 1.0 + 1e-8)
    with pytest.raises(ArithmeticError, match=r"pasvs zeta=\(0\.3\+0j\) m=0: .*normalization"):
        fs._pasvs_columns([fs.SqueezeParam(0.3)], 5, TIGHT)
    # a column that is not the first is named by its own index
    monkeypatch.undo()
    corrupt_log_norms(monkeypatch, 1.0 + 1e-8, index=4)
    with pytest.raises(ArithmeticError, match=r"m=4: closed-form normalization check failed"):
        fs._pasvs_columns([fs.SqueezeParam(0.3)], 5, TIGHT)


def test_pasvs_columns_name_the_label_a_caller_passed(monkeypatch):
    # one real table per modulus; its errors name the first label with that
    # modulus as pasvs names it, not the modulus
    label = fs.SqueezeParam(0.99999999 * unit_phase(1.0))
    params = [fs.SqueezeParam(0.3), label, fs.SqueezeParam(-abs(label.zeta))]
    with pytest.raises(ValueError) as scalar:
        fs.pasvs(label, 3)
    with pytest.raises(ValueError) as batch:
        fs._pasvs_columns(params, 3, 1e-14)
    assert str(batch.value) == str(scalar.value)
    assert f"zeta={label.zeta} m=3" in str(batch.value)
    corrupt_log_norms(monkeypatch, 1.0 + 1e-8, index=2)
    label = fs.SqueezeParam(-0.3j)
    with pytest.raises(ArithmeticError, match=rf"pasvs zeta={re.escape(str(label.zeta))} m=2: "):
        fs._pasvs_columns([label, fs.SqueezeParam(0.3)], 4, TIGHT)


@pytest.mark.parametrize(
    "zeta, index, eps",
    [(0.3, 2, 0.0), (0.3, 2, -1e-14), (0.3, -1, 1e-14), (1 - 1e-12, 2, 1e-14), (1 - 1e-13, 0, 1e-14)],
)
def test_pasvs_columns_reject_what_pasvs_rejects(zeta, index, eps):
    param = fs.SqueezeParam(zeta)
    with pytest.raises(ValueError) as scalar:
        fs.pasvs(param, index, eps)
    with pytest.raises(ValueError) as batch:
        fs._pasvs_columns([param], index, eps)
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize(
    "name, build",
    [
        ("pasvs", lambda eps: fs.pasvs(fs.SqueezeParam(0.5), 1, eps)),
        ("pasops", lambda eps: fs.pasops(fs.SqueezeParam(0.5), 1, eps)),
        ("sns", lambda eps: fs.sns(fs.SqueezeParam(0.5), 1, eps)),
        ("csc", lambda eps: fs.csc(fs.CircleParam(0.5, 2, 0), eps)),
        ("pacsc", lambda eps: fs.pacsc(fs.CircleParam(0.5, 2, 0), 1, eps)),
    ],
)
def test_constructors_reject_bad_eps(name, build, eps):
    # a NaN tolerance never stops the truncation; an infinite one stops it
    # at the first term, short of normalization
    with pytest.raises(ValueError, match=rf"^{name} requires a finite eps > 0, got eps="):
        build(eps)


@pytest.mark.parametrize("eps", [1e-9, 1e-4, 0.5])
@pytest.mark.parametrize(
    "name, build",
    [
        ("pasvs", lambda eps: fs.pasvs(fs.SqueezeParam(0.3), 2, eps)),
        ("pasops", lambda eps: fs.pasops(fs.SqueezeParam(0.3), 2, eps)),
        ("sns", lambda eps: fs.sns(fs.SqueezeParam(0.3), 2, eps)),
        ("csc", lambda eps: fs.csc(fs.CircleParam(2.0, 1, 0), eps)),
        ("pacsc", lambda eps: fs.pacsc(fs.CircleParam(2.0, 1, 0), 1, eps)),
    ],
)
def test_constructors_reject_eps_at_the_normalization_tolerance(name, build, eps):
    # the tail bound alone may reach eps, so a cut at eps >= 1e-9 could fail
    # the normalization check of the state it builds
    want = rf"^{name} requires eps < 1e-09, the normalization tolerance; got eps={eps}$"
    with pytest.raises(ValueError, match=want):
        build(eps)


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
    # the one-photon family coincides with the vacuum family at m+1, so
    # pasops builds exactly the vacuum-family vector
    for mod in (0.2, 0.45, 0.6):
        param = fs.SqueezeParam(mod * unit_phase(1.3))
        a, b = fs.pasops(param, m, eps=TIGHT), fs.pasvs(param, m + 1, eps=TIGHT)
        assert (a.offset, a.stride, a.tail_bound) == (b.offset, b.stride, b.tail_bound)
        assert np.array_equal(a.coeffs, b.coeffs)


def test_pasops_rejects_negative_index():
    # a shift applied before the check would build the vacuum state at m = 0
    with pytest.raises(ValueError, match="pasops requires m >= 0"):
        fs.pasops(fs.SqueezeParam(0.3), -1)


# ------------------------------------------------------------ sns

def test_sns_zero_squeezing_and_single_term():
    assert list(fs.sns(fs.SqueezeParam(0), 5).coeffs) == [1.0 + 0.0j]
    param = fs.SqueezeParam(0.4)
    a, b = fs.sns(param, 0), fs.pasvs(param, 0)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_sns_at_zero_squeezing_builds_no_table(oracle_builds):
    # |m, 0> = |m> at every m, also beyond m = 170, where pasvs_norm(0, m) = m!
    # overflows
    for m in (5, 171, 200):
        v = fs.sns(fs.SqueezeParam(0), m)
        assert (v.offset, v.stride, list(v.coeffs), v.tail_bound) == (m, 2, [1.0 + 0.0j], 0.0)
    assert oracle_builds == []
    with pytest.raises(ValueError, match="m >= 0"):
        fs.sns(fs.SqueezeParam(0), -1)
    with pytest.raises(ValueError, match="eps"):
        fs.sns(fs.SqueezeParam(0), 200, 1e-4)


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


def test_sns_passes_its_normalization_check_at_the_default_eps():
    # weights up to ~1e5 near |zeta| = 1 amplify the parts' truncation
    # tails; the parts are cut finer by the largest weight sum, so the
    # combined tail of every state stays below the requested eps
    for modulus in (1e-3, 0.3, 0.6, 0.9, 0.95):
        param = fs.SqueezeParam(modulus)
        for m in range(28):
            v = fs.sns(param, m)
            assert v.tail_bound <= 1e-14
            assert abs(v.norm_sq() + v.tail_bound - 1.0) <= 1e-9


def test_sns_builds_one_expansion_matrix(expansion_builds):
    param = fs.SqueezeParam(0.4 * unit_phase(0.3))
    fs.sns(param, 5)
    assert expansion_builds == [(param.zeta, 1, 6, "sns")]


# ------------------------------------------------------------ expansion matrix

def expansion_oracle(zeta, top, expand):
    """The expansion matrix on rows and columns 0..top at 40 digits, from
    mpmath's Legendre polynomials and exact factorials."""
    mpmath = pytest.importorskip("mpmath")
    out = np.zeros((top + 1, top + 1), dtype=complex)
    with mpmath.workdps(40):
        z = mpmath.mpc(zeta)
        omy = 1 - abs(z) ** 2
        x = 1 / mpmath.sqrt(omy)
        norm = [
            omy ** (mpmath.mpf(j) / 4) * mpmath.sqrt(mpmath.legendre(j, x)) for j in range(top + 1)
        ]
        for m in range(top + 1):
            for k in range(m % 2, m + 1, 2):
                p = (m - k) // 2
                mag = mpmath.sqrt(mpmath.mpf(math.factorial(m)) / math.factorial(k))
                mag /= math.prod(range(m - k, 0, -2))
                if expand == "sns":
                    entry = mag * norm[k] * (-mpmath.conj(z)) ** p
                else:
                    entry = mag / norm[m] * mpmath.conj(z) ** p
                out[m, k] = complex(entry)
    return out


@pytest.mark.parametrize("expand", ["sns", "pasvs"])
@pytest.mark.parametrize("zeta", [0.3, 0.5 * unit_phase(0.8), 0.95 * unit_phase(-2.0)])
def test_expansion_matrix_matches_mpmath(zeta, expand):
    got = fs._expansion_matrix(fs.SqueezeParam(zeta), range(61), range(61), expand)
    want = expansion_oracle(zeta, 60, expand)
    # zero unless m - k is even and non-negative
    assert np.array_equal(got == 0, want == 0)
    nz = want != 0
    assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) < 1e-13


def test_expansion_matrix_rows_and_columns_are_index_lists():
    param = fs.SqueezeParam(0.6 * unit_phase(1.1))
    full = fs._expansion_matrix(param, range(12), range(12), "pasvs")
    part = fs._expansion_matrix(param, [11, 4, 7], [0, 3, 4, 9], "pasvs")
    np.testing.assert_array_equal(part, full[np.ix_([11, 4, 7], [0, 3, 4, 9])])


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


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.floats(min_value=0.0, max_value=5.0),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    lam=st.integers(min_value=1, max_value=4),
    mu=st.integers(min_value=0, max_value=3),
)
def test_csc_is_the_photon_added_circle_state_at_m_0(modulus, angle, lam, mu):
    param = fs.CircleParam(modulus * unit_phase(angle), lam, mu % lam)
    v, w = fs.csc(param), fs.pacsc(param, 0)
    assert (v.offset, v.stride, v.tail_bound) == (w.offset, w.stride, w.tail_bound)
    np.testing.assert_array_equal(v.coeffs, w.coeffs)


@pytest.mark.parametrize("build", [lambda p: fs.csc(p), lambda p: fs.pacsc(p, 3)])
def test_circle_states_sum_one_series(build, monkeypatch):
    from pastates import specfun

    calls = []
    real = specfun.generalized_pfq

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "generalized_pfq", counted)
    build(fs.CircleParam(0.9 * unit_phase(0.4), 3, 1))
    assert len(calls) == 1


# at lam = 135 the products of the lam step factors overflow, and at m = 300
# the norm relative to |z, mu> does; the state needs neither
@pytest.mark.parametrize("z,lam,m", [(1.0, 135, 1), (0.8, 2, 300)])
def test_pacsc_is_normalized_quickly_past_the_float_range_of_its_products(z, lam, m):
    start = time.perf_counter()
    v = fs.pacsc(fs.CircleParam(z, lam, 0), m)
    assert time.perf_counter() - start < 0.2
    assert v.offset == m and v.stride == lam
    assert abs(v.norm_sq() + v.tail_bound - 1.0) < 1e-12


def scalar_circle(param, m, eps):
    """The coefficients and tail bound of |z, mu, m> from the reference cut
    ``build_truncated``, with the step ratio of block k a product of one
    factor sqrt(n + m) / n per photon number n of the block."""
    lam, mu, az = param.lam, param.mu, abs(param.z)

    def ratio(k):
        r = az
        for n in range(k * lam + mu + 1, (k + 1) * lam + mu + 1):
            r *= math.sqrt(n + m) / n
        return r

    log_mag0 = -0.5 * math.log(ov._circle_series(param, m, lambda: "reference"))
    return build_truncated(log_mag0, param.z / az, ratio, 0.0, eps)


@pytest.mark.parametrize("eps", [1e-14, TIGHT])
@pytest.mark.parametrize("m", [0, 1, 4, 11, 300])
@pytest.mark.parametrize("lam", [1, 2, 3, 4, 135])
def test_circle_states_match_scalar_reference_cut(lam, m, eps):
    for modulus in (1e-3, 0.4, 1.0, 2.5, 6.0):
        for mu in sorted({0, lam // 2, lam - 1}):
            param = fs.CircleParam(modulus * unit_phase(-2.1), lam, mu)
            want, want_tail = scalar_circle(param, m, eps)
            for v in [fs.pacsc(param, m, eps)] + ([fs.csc(param, eps)] if m == 0 else []):
                assert (v.offset, v.stride, len(v.coeffs)) == (m + mu, lam, len(want))
                assert np.max(np.abs(v.coeffs - want)) <= 1e-13
                assert abs(v.tail_bound - want_tail) <= 1e-12 * want_tail


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda p: fs.csc(p), "csc z=(0.5+0.5j) lam=2 mu=1"),
        (lambda p: fs.pacsc(p, 3), "pacsc z=(0.5+0.5j) lam=2 mu=1 m=3"),
    ],
)
def test_circle_normalization_check_names_the_state(build, want, monkeypatch):
    real = ov._circle_series
    monkeypatch.setattr(ov, "_circle_series", lambda param, m, label: 2.0 * real(param, m, label))
    with pytest.raises(ArithmeticError) as info:
        build(fs.CircleParam(0.5 + 0.5j, 2, 1))
    assert str(info.value) == f"{want}: closed-form normalization check failed (defect 5.000e-01)"


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

    coeffs, tail = build_truncated(0.0, 1.0 + 0.0j, ratio, az, 1e-20)
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
