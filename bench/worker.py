"""One workload in one fresh interpreter: set-up, timed passes, checks.

Run by ``run.py``; not meant to be called by hand, though it can be:

    python3 bench/worker.py --workload state_queries --seed 1 --seconds 5 --trace 0
    python3 bench/worker.py --workload state_queries --seed 1 --setup-only

Prints one JSON line.  ``--setup-only`` stops once the program is imported
and the first pass's inputs are built, which is what ``setup_s`` times.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program() -> float:
    """Import pastates.cli from this checkout's src/; returns seconds taken."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import pastates.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    import pastates

    if not os.path.abspath(pastates.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pastates imported from {pastates.__file__}, not {SRC}")
    return elapsed


class LatencySample:
    """Uniform sample of at most ``capacity`` latencies (reservoir sampling).

    The buffer is allocated in full up front, so the process's peak RSS does
    not grow with the number of operations the machine manages in a run.
    Below capacity every latency is kept and the percentiles are exact.
    """

    def __init__(self, seed: int, capacity: int = 1 << 18):
        self.values = array.array("d", bytes(8 * capacity))
        self.capacity = capacity
        self.seen = 0
        self.rng = random.Random(seed)

    def add(self, value: float) -> None:
        slot = self.seen if self.seen < self.capacity else self.rng.randrange(self.seen + 1)
        if slot < self.capacity:
            self.values[slot] = value
        self.seen += 1

    def percentiles(self, *qs: float) -> list[float]:
        """Nearest-rank percentiles of the sample."""
        ordered = sorted(self.values[: min(self.seen, self.capacity)])
        return [ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1] for q in qs]


class Run:
    """Timed passes of one workload, checked pass by pass."""

    def __init__(self, workload: str, seed: int, scratch_dir: str):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.latencies_s = LatencySample(seed)
        self.pass_walls_s: list[float] = []

    def one_pass(self, tracer=None) -> float:
        """Time one pass (tracer active only inside the calls), then check it."""
        groups = self.workloads.make_pass(self.workload, self.seed, self.next_index, self.scratch_dir)
        self.next_index += 1
        clock = time.perf_counter
        outcomes = []
        pass_start = clock()
        for group in groups:
            results = []
            for call in group.calls:
                if tracer is not None:
                    tracer.active = True
                t0 = clock()
                try:
                    results.append(call())
                except Exception as exc:  # a failed operation, counted below
                    results.append(exc)
                t1 = clock()
                if tracer is not None:
                    tracer.active = False
                self.latencies_s.add(t1 - t0)
            outcomes.append(results)
        wall = clock() - pass_start
        self.pass_walls_s.append(wall)
        for group, results in zip(groups, outcomes):
            self.attempted += len(results)
            self.failed += self._failures(group, results)
        return wall

    @staticmethod
    def _failures(group, results) -> int:
        """Operations of the group that failed.  A group's calls fail
        together: when any of them raised, or when the check rejects them."""
        raised = sum(isinstance(r, Exception) for r in results)
        if raised:
            return len(results)
        try:
            ok = bool(group.check(results))
        except Exception:  # a result the check cannot even read is wrong
            ok = False
        return 0 if ok else len(results)

    def until(self, seconds: float, tracer=None) -> list[float]:
        """Passes until their summed wall time reaches ``seconds`` (at least one)."""
        walls = []
        while not walls or sum(walls) < seconds:
            walls.append(self.one_pass(tracer))
        return walls


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch_dir: str) -> dict:
    """Metrics of one run; ``trace`` selects the per-layer set.

    A traced run spends half its time untraced and half traced, so the
    tracing overhead is the difference of their median pass times.
    """
    run = Run(workload, seed, scratch_dir)
    if not trace:
        run.until(seconds)
        # read before the latencies are sorted, which is the harness's work
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p50_s, p99_s = run.latencies_s.percentiles(50, 99)
        metrics = {
            "wall_s": (statistics.median(run.pass_walls_s), "s"),
            "op_p50_ms": (p50_s * 1e3, "ms"),
            "op_p99_ms": (p99_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import tracing

        plain = run.until(seconds / 2)
        tracer = tracing.Tracer()
        with tracer:
            traced = run.until(seconds / 2, tracer)
        layer = tracer.metrics(len(traced), sum(traced))
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_unit(name: str) -> str:
    """Per-layer metrics are times (``*_s``), shares or counts."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    # inside the checkout: the benchmark writes nowhere else
    scratch_dir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        if args.setup_only:
            workloads.make_pass(args.workload, args.seed, 0, scratch_dir)
            result = {}
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch_dir)
            if args.trace:
                result["metrics"]["cli.import_s"] = {"value": import_s, "unit": "s"}
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
