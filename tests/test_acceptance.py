"""Acceptance suite: the project's exit criteria at their stated tolerances.

Each test prints a one-line pass report (run with -s to see them) and fails
hard if the criterion is missed.  Tolerances here are the contract; they are
not calibration knobs.
"""

import cmath
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pastates import complete as cm
from pastates import fockstate as fs
from pastates import overlap as ov

PHASE_PAIRS = (
    (0.0, 0.0),
    (0.0, math.pi / 3),
    (math.pi / 4, -math.pi / 4),
    (math.pi / 2, math.pi),
    (-2 * math.pi / 3, math.pi / 3),
    (math.pi, math.pi),
    (-2.9, 2.9),
    (0.3, 2.0),
)


def report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


def polar(mod, ang):
    return mod * cmath.exp(1j * ang)


def test_c01_moment_suite_pasvs():
    t0 = time.time()
    worst = 0.0
    for m in range(1, 7):
        reports = cm.moment_check(cm.WeightFunction("pasvs", m), 10)
        assert all(r.converged for r in reports)
        worst = max(worst, max(r.rel_err for r in reports))
    elapsed = time.time() - t0
    # reference case m = 1, k = 1: both sides 2/(3 pi)
    r = cm.moment_check(cm.WeightFunction("pasvs", 1), 1)[1]
    two_thirds_pi = 2.0 / (3.0 * math.pi)
    assert r.lhs == pytest.approx(two_thirds_pi, rel=1e-10)
    assert r.rhs == pytest.approx(two_thirds_pi, rel=1e-12)
    assert worst < 1e-8
    assert elapsed < 10.0
    report("criterion 1 (moment suite)", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_weight_triform_agreement():
    t0 = time.time()
    worst = 0.0
    for m in range(2, 9):
        for i in range(1, 10):
            y = i / 10.0
            closed = cm.weight_h(m, y, "closed")
            hyp = cm.weight_h(m, y, "hypergeometric")
            integral = cm.weight_h(m, y, "integral")
            spread = max(abs(closed - hyp), abs(closed - integral), abs(hyp - integral))
            worst = max(worst, spread / abs(closed))
    elapsed = time.time() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    report("criterion 2 (weight tri-form)", f"worst rel spread {worst:.2e}, {elapsed:.1f}s")


def test_c03_weight_figure_reproduction():
    lim = cm.weight_h(1, 1e-12)
    assert abs(lim - 1.0 / (2.0 * math.pi)) < 1e-9
    for m in range(2, 6):
        assert cm.weight_h(m, 1.0 - 1e-6) < 1e-3
    y = 0.75
    s = math.sqrt(1 - y)
    want = math.log((1 + s) / (1 - s)) / (4 * math.pi)   # = ln(3)/(4 pi)
    assert cm.weight_h(2, y) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(math.log(3.0) / (4 * math.pi), abs=1e-15)
    report(
        "criterion 3 (figure data)",
        f"h1(0+)={lim:.10f}, h2(0.75)={cm.weight_h(2, y):.7f}, h(m>=2) vanishes at y->1",
    )


def test_c04_continuous_unity_resolutions():
    t0 = time.time()
    cases = (
        [("pasvs", m, None, None) for m in (1, 2, 3, 4)]
        + [("pasops", m, None, None) for m in (0, 1, 2, 3)]
        + [("pacsc", m, mu, lam) for lam, mu, m in ((1, 0, 1), (2, 0, 2), (2, 1, 1), (3, 2, 2))]
    )
    worst_dev = worst_off = 0.0
    for family, m, mu, lam in cases:
        mat = cm.unity_resolution_matrix(cm.WeightFunction(family, m, mu=mu, lam=lam), 12)
        worst_dev = max(worst_dev, mat.identity_deviation())
        worst_off = max(worst_off, mat.max_offdiagonal())
    elapsed = time.time() - t0
    assert worst_dev < 1e-6
    assert worst_off < 1e-10
    assert elapsed < 60.0
    report(
        "criterion 4 (continuous unity)",
        f"12 matrices, worst dev {worst_dev:.2e}, worst offdiag {worst_off:.2e}, {elapsed:.1f}s",
    )


def test_c05_discrete_completeness():
    param = fs.SqueezeParam(0.3)
    devs = []
    for cutoff in (10, 20, 40):
        devs.append(cm.sns_completeness_matrix(param, cutoff, 8).identity_deviation())
    assert devs[0] > devs[1] > devs[2], "number-basis partial sums must converge monotonically"
    # the analytically resummed pair coefficients make the truncated pair
    # sum exact on the block at every cutoff; assert that too
    literal_devs = [
        cm.discrete_completeness_matrix(param, cutoff, 8, "closed").identity_deviation()
        for cutoff in (10, 20, 40)
    ]
    assert max(literal_devs) < 1e-10
    a = cm.discrete_completeness_matrix(param, 20, 8, "closed")
    b = cm.discrete_completeness_matrix(param, 20, 8, "series")
    gap = float(np.max(np.abs(a.entries - b.entries)))
    assert gap < 1e-9
    report(
        "criterion 5 (discrete completeness)",
        f"projector-route devs {devs[0]:.1e} > {devs[1]:.1e} > {devs[2]:.1e}; "
        f"pair-route exact to {max(literal_devs):.1e}; assembly gap {gap:.1e}",
    )


def _overlap_grid(family):
    fn = ov.pasvs_overlap if family == "pasvs" else ov.pasops_overlap
    worst = 0.0
    count = 0
    for n in range(0, 9):
        for m in range(n % 2, n + 1, 2):
            for a_xi in (0.2, 0.4, 0.6):
                for a_ze in (0.2, 0.4, 0.6):
                    for p_xi, p_ze in PHASE_PAIRS:
                        xi = fs.SqueezeParam(polar(a_xi, p_xi))
                        ze = fs.SqueezeParam(polar(a_ze, p_ze))
                        res = fn(xi, n, ze, m)
                        worst = max(worst, res.form_spread, res.oracle_error)
                        count += 1
    return worst, count


def test_c06_overlap_equivalence():
    worst_v, count_v = _overlap_grid("pasvs")
    worst_o, count_o = _overlap_grid("pasops")
    assert worst_v < 1e-9
    assert worst_o < 1e-9
    report(
        "criterion 6 (overlap equivalence)",
        f"pasvs worst {worst_v:.2e} ({count_v} pts); pasops worst {worst_o:.2e} ({count_o} pts)",
    )


def test_c07_normalization_closed_forms():
    worst = 0.0
    for mod in (0.2, 0.4, 0.6):
        for ang in (0.0, 1.1, -2.4):
            z = fs.SqueezeParam(polar(mod, ang))
            for m in range(0, 9):
                v = fs.pasvs(z, m, eps=1e-26)
                worst = max(worst, abs(v.norm_sq() + v.tail_bound - 1.0))
                w = fs.pasops(z, m, eps=1e-26)
                worst = max(worst, abs(w.norm_sq() + w.tail_bound - 1.0))
    for lam, mu in ((1, 0), (2, 0), (2, 1), (3, 2), (4, 1)):
        for zmod in (0.4, 0.9):
            p = fs.CircleParam(polar(zmod, 0.7), lam, mu)
            a, b = ov.csc_norm(p, "pfq"), ov.csc_norm(p, "circle")
            worst = max(worst, abs(a - b) / abs(a))
            vec = fs.csc(p, eps=1e-26)
            worst = max(worst, abs(vec.norm_sq() + vec.tail_bound - 1.0))
            for m in range(0, 5):
                na, nb = ov.pacsc_norm(p, m, "pfq"), ov.pacsc_norm(p, m, "laguerre")
                worst = max(worst, abs(na - nb) / abs(na))
                vec = fs.pacsc(p, m, eps=1e-26)
                worst = max(worst, abs(vec.norm_sq() + vec.tail_bound - 1.0))
    assert worst < 1e-9
    report("criterion 7 (normalizations)", f"worst deviation {worst:.2e}")


def test_c08_carleman_logarithmic_test():
    worst_at_1000 = 0.0
    for m in range(1, 5):
        seq = cm.carleman_sequence(m, [10, 100, 1000, 10000])
        mags = [abs(r) for _, r in seq]
        assert all(mags[i] > mags[i + 1] for i in range(3)), f"not shrinking for m={m}"
        worst_at_1000 = max(worst_at_1000, mags[2])
    assert worst_at_1000 < 0.01
    report("criterion 8 (carleman)", f"worst |ratio| at k=1000: {worst_at_1000:.2e}")


def test_c09_ladder_and_structure_identities():
    worst = 0.0
    # squeezed-vacuum kernel condition (a - zeta a^dag)|zeta> = 0
    param = fs.SqueezeParam(polar(0.5, -0.8))
    v = fs.pasvs(param, 0, eps=1e-28)
    lo, hi = fs.apply_lowering(v), fs.apply_raising(v)
    for n in range(0, 40):
        worst = max(worst, abs(lo.coefficient(n) - param.zeta * hi.coefficient(n)))
    # annihilation-power eigenvalue relation
    cp = fs.CircleParam(polar(0.8, 1.1), 3, 1)
    vec = fs.csc(cp, eps=1e-28)
    w = vec
    for _ in range(cp.lam):
        w = fs.apply_lowering(w)
    for n in w.photon_numbers():
        worst = max(worst, abs(w.coefficient(int(n)) - cp.z * vec.coefficient(int(n))))
    # squeezed-number-state orthonormality
    p = fs.SqueezeParam(0.5)
    states = [fs.sns(p, m, eps=1e-26) for m in range(13)]
    for a in range(13):
        for b in range(13):
            worst = max(worst, abs(fs.inner(states[a], states[b]) - (1.0 if a == b else 0.0)))
    # mutual-inverse basis change
    pc = fs.SqueezeParam(0.5 * cmath.exp(1j * math.pi / 4))
    bm, cmx = cm.pasvs_sns_matrix(pc, 12), cm.sns_pasvs_matrix(pc, 12)
    worst = max(worst, float(np.max(np.abs(bm @ cmx - np.eye(12)))))
    worst = max(worst, float(np.max(np.abs(cmx @ bm - np.eye(12)))))
    assert worst < 1e-10
    report("criterion 9 (ladder/structure identities)", f"worst residual {worst:.2e}")


def test_c10_full_cli_verification_suite(cli_env):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pastates.cli", "verify", "all"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "verify all: PASS" in proc.stdout
    assert elapsed < 180.0
    report("criterion 10 (verify all)", f"exit 0 in {elapsed:.1f}s")
