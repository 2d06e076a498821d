"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pastates import complete as cm, fockstate as fs, overlap as ov  # noqa: E402


def bindings() -> dict:
    return {
        (name, attr): value
        for name in tracing.MODULES
        for attr, value in vars(importlib.import_module(name)).items()
    }


def assert_unchanged(before: dict) -> None:
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


@pytest.fixture
def probed(monkeypatch):
    """Prepends to every pass a call that records the wrappers in place
    while the pass is being timed; passes are cut to a few groups."""
    seen: list = []
    make_pass = workloads.make_pass

    def probed_pass(*args):
        probe = workloads.Group((), (lambda: seen.extend(tracing.traced_bindings()),), lambda _: True)
        return [probe] + make_pass(*args)[:6]

    monkeypatch.setattr(workloads, "make_pass", probed_pass)
    return seen


def test_untraced_run_installs_no_wrappers(probed, monkeypatch, tmp_path):
    installs = []
    monkeypatch.setattr(tracing.Tracer, "install", lambda self: installs.append(self))
    before = bindings()
    result = worker.measure("state_queries", 1, 0.01, False, str(tmp_path))
    assert installs == []
    assert probed == []
    assert_unchanged(before)
    assert set(result["metrics"]) == {"wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"}


def test_wrappers_removed_after_tracing(probed, tmp_path):
    before = bindings()
    result = worker.measure("state_queries", 1, 0.01, True, str(tmp_path))
    # both bindings of a function imported by name were patched while tracing
    assert ("pastates.fockstate", "pasvs") in probed
    assert ("pastates", "pasvs") in probed
    assert tracing.traced_bindings() == []
    assert_unchanged(before)
    assert result["metrics"]["quadrature.exp_sinh.calls"]["value"] == 0


def test_exp_sinh_patched_where_imported_by_name():
    tracer = tracing.Tracer()
    before = bindings()
    with tracer:
        patched = tracing.traced_bindings()
        tracer.active = True
        cm.weight_hmum(2, 1, 3, 0.7)
        tracer.active = False
    assert ("pastates.specfun", "exp_sinh") in patched
    assert ("pastates.complete", "exp_sinh") in patched
    assert tracer.stats["quadrature.exp_sinh"].calls == 1
    assert tracer.kummer_quad_nodes > 0
    assert_unchanged(before)


def test_wrappers_removed_when_traced_code_raises():
    before = bindings()
    with pytest.raises(ValueError):
        with tracing.Tracer() as tracer:
            tracer.active = True
            fs.pasvs(fs.SqueezeParam(0.5), -1)
    assert_unchanged(before)


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()
    with tracer:
        tracer.active = True
        ov.pasops_overlap(fs.SqueezeParam(0.4), 4, fs.SqueezeParam(0.3j), 2)
        tracer.active = False
    top = tracer.stats["overlap.pasops_overlap"]
    assert top.calls == 1
    assert 0.0 < top.self_s < top.total_s
    assert tracer.oracle_vectors["overlap.pasops_overlap"] == 6
    assert tracer.stats["overlap.pasvs_overlap"].calls == 2


def test_same_seed_reproduces_inputs(tmp_path):
    def params(seed, index):
        return [g.params for g in workloads.make_pass("state_queries", seed, index, str(tmp_path))]

    assert params(7, 3) == params(7, 3)
    assert params(7, 3) != params(8, 3)
    assert params(7, 3) != params(7, 4)


def test_no_failures_at_contract_tolerances(tmp_path):
    result = worker.measure("state_queries", 3, 0.05, False, str(tmp_path))
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_wrong_overlap_raises_fail_ratio(monkeypatch, tmp_path):
    exact = ov.pasvs_overlap

    def off_by_1e_6(*args, **kwargs):
        res = exact(*args, **kwargs)
        return dataclasses.replace(res, value=res.value * (1 + 1e-6) + 1e-6)

    monkeypatch.setattr(ov, "pasvs_overlap", off_by_1e_6)
    result = worker.measure("state_queries", 1, 0.05, False, str(tmp_path))
    assert result["failed"] > 0


def test_wrong_norm_raises_fail_ratio(monkeypatch, tmp_path):
    exact = ov.csc_norm
    monkeypatch.setattr(ov, "csc_norm", lambda *a: exact(*a) * (1 + 1e-6))
    result = worker.measure("state_queries", 1, 0.05, False, str(tmp_path))
    assert result["failed"] > 0


def test_latency_sample_memory_is_fixed():
    sample = worker.LatencySample(seed=1, capacity=100)
    size = sample.values.buffer_info()
    for k in range(1000):
        sample.add(float(k))
    assert sample.values.buffer_info() == size
    assert sample.seen == 1000
    p50, p99 = sample.percentiles(50, 99)
    assert 300 < p50 < 700 and p99 > 900


def test_latency_percentiles_exact_below_capacity():
    sample = worker.LatencySample(seed=1, capacity=1000)
    for k in range(1, 101):
        sample.add(float(k))
    assert sample.percentiles(50, 99) == [50.0, 99.0]


def test_raising_operation_counts_as_failure(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(fs, "pacsc", broken)
    result = worker.measure("state_queries", 1, 0.05, False, str(tmp_path))
    assert result["failed"] > 0


@pytest.mark.parametrize("passed", [True, False])
def test_verify_all_envelope_decides_correctness(passed, monkeypatch, tmp_path):
    def fake_main(argv):
        out = argv[argv.index("--out") + 1]
        with open(out, "w") as fh:
            json.dump({"command": "verify all", "pass": passed, "results": [{"pass": passed}]}, fh)
        print(f"verify all: {'PASS' if passed else 'FAIL'}")
        return 0 if passed else 1

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    result = worker.measure("verify_all", 1, 0.0, False, str(tmp_path))
    assert result["attempted"] == 1
    assert result["failed"] == (0 if passed else 1)
