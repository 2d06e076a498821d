"""pastates benchmark entry point.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

Workloads: verify_all, state_queries (see bench/README.md).
With ``--trace 0`` prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separately traced run.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from ``src/`` of the checkout holding this file;
without it the benchmark exits non-zero and prints no result.  Each
workload runs in its own fresh interpreter, and ``setup_s`` is the median
over several fresh interpreters that only import the program and build the
seeded inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_PROBES = 7
DEADLINE_S = 170.0   # whole run, so a hung worker is killed before 180 s


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> float:
    """Median wall time of fresh interpreters that import pastates.cli and
    build the workload's seeded inputs, then exit."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline - time.monotonic())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pastates benchmark")
    parser.add_argument("--workload", required=True, help="checked by the worker")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "pastates", "cli.py")):
        print(f"error: no pastates sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = _worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline - time.monotonic(),
        )
        if not args.trace:
            setup = setup_seconds(args.workload, args.seed, deadline)
            result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload}: {attempted} operations, {failed} failed "
        f"(fail_ratio {failed / max(attempted, 1):.3g})",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": dict(sorted(result["metrics"].items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
