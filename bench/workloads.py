"""Seeded workloads: inputs, timed operations and their correctness checks.

A workload hands out *passes*.  A pass is a fixed list of groups, generated
from (seed, pass index) alone; a group is one or more timed calls into the
public API plus one check over their results.  Checks run outside the timed
span and use oracles independent of the code under test where they exist:
Fock amplitudes summed here in log space and direct norm series.  Tolerances are those of ``tests/test_acceptance.py``.

Every call resolves the function through its module attribute at call time
(``fs.pasvs``, not a captured reference), so a tracer that patches the
module attribute sees it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from pastates import cli, fockstate as fs, overlap as ov

# Contract tolerances (tests/test_acceptance.py).
NORM_TOL = 1e-9        # c07: normalization defects and two-form norms
OVERLAP_TOL = 1e-9     # c06: overlap forms against the series oracle


@dataclass(frozen=True)
class Group:
    """Timed calls plus the check over their results (True when correct).

    ``params`` describes the inputs, so equal seeds can be seen to give
    equal inputs."""

    params: tuple
    calls: tuple[Callable[[], object], ...]
    check: Callable[[list], bool]


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _value(res):
    """Overlap value whether the evaluator returns a result object or a number."""
    return complex(getattr(res, "value", res))


# ---------------------------------------------------------------- oracles

_LOG_FACTORIAL = np.zeros(0)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln(n!) for an integer array, from a table grown as needed."""
    global _LOG_FACTORIAL
    top = int(n.max()) + 1
    if top > len(_LOG_FACTORIAL):
        size = max(top, 2 * len(_LOG_FACTORIAL))
        _LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(size)])
    return _LOG_FACTORIAL[n]


def fock_oracle(family: str, label: complex, m: int, lam: int = 2, mu: int = 0, min_len: int = 0):
    """Normalized Fock amplitudes of a constructor's state, summed here.

    Squeezed families (state (a^dag)^m S(zeta)|s>, s = 0 or 1) live on
    |m + s + 2k> with amplitude sqrt((2k+m+s)!) zeta^k / (2^k k!); circle
    families ((a^dag)^m on the a^lam eigenstate) live on |k lam + mu + m>
    with amplitude sqrt((k lam+mu+m)!) z^k / (k lam+mu)!.  The series is
    extended until its remaining mass is below 1e-30, then normalized.
    Returns (offset, stride, amplitudes).
    """
    mod = abs(label)
    phase = label / mod
    length = max(2 * min_len + 64, 64)
    while True:
        k = np.arange(length)
        if family in ("pasvs", "pasops"):
            s = 1 if family == "pasops" else 0
            offset, stride = m + s, 2
            log_amp = 0.5 * _log_factorial(2 * k + m + s) - _log_factorial(k) + k * math.log(0.5 * mod)
        else:
            offset, stride = mu + m, lam
            log_amp = k * math.log(mod) + 0.5 * _log_factorial(k * lam + mu + m) - _log_factorial(k * lam + mu)
        log_amp -= log_amp.max()
        mass = np.exp(2.0 * log_amp)
        if mass[-8:].sum() < 1e-30 * mass.sum():
            break
        length *= 2
    amps = np.exp(log_amp) * phase ** k / math.sqrt(mass.sum())
    return offset, stride, amps


def check_vector(vec, family: str, label: complex, m: int, lam: int = 2, mu: int = 0) -> bool:
    """Constructor output against the oracle amplitudes (c07 tolerance)."""
    offset, stride, amps = fock_oracle(family, label, m, lam, mu, len(vec.coeffs))
    coeffs = np.asarray(vec.coeffs)
    if (vec.offset, vec.stride) != (offset, stride) or not np.all(np.isfinite(coeffs)):
        return False
    dev = float(np.max(np.abs(coeffs - amps[: len(coeffs)])))
    defect = abs(float(np.sum(np.abs(coeffs) ** 2)) + vec.tail_bound - 1.0)
    return dev < NORM_TOL and defect < NORM_TOL and 0.0 <= vec.tail_bound < NORM_TOL


def overlap_oracle(family: str, xi: complex, n: int, zeta: complex, m: int) -> complex:
    """<xi, n|zeta, m> from the oracle amplitudes of both states."""
    off_u, _, u = fock_oracle(family, xi, n)
    off_v, _, v = fock_oracle(family, zeta, m)
    shift = (off_u - off_v) // 2   # v index aligned with u index 0
    if shift >= 0:
        v = v[shift:]
    else:
        u = u[-shift:]
    size = min(len(u), len(v))
    return complex(np.vdot(u[:size], v[:size]))


def circle_norms_oracle(z: complex, lam: int, mu: int, m: int) -> tuple[float, float]:
    """(csc norm, pacsc norm) as direct series in log space.

    csc: mu! sum_k |z|^2k / (k lam+mu)!.
    pacsc: sum_k |z|^2k (k lam+mu+m)! / ((k lam+mu)!)^2 over the csc sum.
    """
    lz = 2.0 * math.log(abs(z))
    base, added = [], []
    k = 0
    while True:
        j = k * lam + mu
        base.append(k * lz - math.lgamma(j + 1))
        added.append(k * lz + math.lgamma(j + m + 1) - 2.0 * math.lgamma(j + 1))
        if k > 8 and base[-1] < max(base) - 80.0 and added[-1] < max(added) - 80.0:
            break
        k += 1
    base_arr, added_arr = np.array(base), np.array(added)
    top = base_arr.max()
    base_sum = float(np.sum(np.exp(base_arr - top)))
    added_sum = float(np.sum(np.exp(added_arr - top)))
    return math.factorial(mu) * math.exp(top) * base_sum, added_sum / base_sum


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- state_queries

def _overlap_group(rng: random.Random, family: str) -> Group:
    n = rng.randint(0, 12)
    m = rng.choice([k for k in range(0, 13) if (n - k) % 2 == 0])
    xi, zeta = _polar(rng, 0.05, 0.9), _polar(rng, 0.05, 0.9)
    form = rng.choice((1, 2, 3))
    fn_name = f"{family}_overlap"

    def call():
        return getattr(ov, fn_name)(fs.SqueezeParam(xi), n, fs.SqueezeParam(zeta), m, form=form)

    def check(results):
        return abs(_value(results[0]) - overlap_oracle(family, xi, n, zeta, m)) < OVERLAP_TOL

    return Group((fn_name, xi, n, zeta, m, form), (call,), check)


def _squeezed_group(rng: random.Random, family: str) -> Group:
    m = rng.randint(0, 8)
    zeta = _polar(rng, 0.05, 0.95)

    def call():
        return getattr(fs, family)(fs.SqueezeParam(zeta), m)

    def check(results):
        return check_vector(results[0], family, zeta, m)

    return Group((family, zeta, m), (call,), check)


def _circle_label(rng: random.Random):
    lam = rng.randint(1, 4)
    return _polar(rng, 0.05, 5.0), lam, rng.randrange(lam), rng.randint(0, 6)


def _circle_group(rng: random.Random, family: str) -> Group:
    z, lam, mu, m = _circle_label(rng)
    if family == "csc":
        m = 0

        def call():
            return fs.csc(fs.CircleParam(z, lam, mu))
    else:

        def call():
            return fs.pacsc(fs.CircleParam(z, lam, mu), m)

    def check(results):
        return check_vector(results[0], family, z, m, lam, mu)

    return Group((family, z, lam, mu, m), (call,), check)


def _norm_group(rng: random.Random, family: str) -> Group:
    z, lam, mu, m = _circle_label(rng)
    if family == "csc_norm":
        calls = (
            lambda: ov.csc_norm(fs.CircleParam(z, lam, mu), "pfq"),
            lambda: ov.csc_norm(fs.CircleParam(z, lam, mu), "circle"),
        )
        slot = 0
    else:
        calls = (
            lambda: ov.pacsc_norm(fs.CircleParam(z, lam, mu), m, "pfq"),
            lambda: ov.pacsc_norm(fs.CircleParam(z, lam, mu), m, "laguerre"),
        )
        slot = 1

    def check(results):
        want = circle_norms_oracle(z, lam, mu, m)[slot]
        return all(_rel(float(r), want) < NORM_TOL for r in results)

    return Group((family, z, lam, mu, m), calls, check)


# (group maker, share of groups in a pass)
_STATE_MIX = (
    (partial(_overlap_group, family="pasvs"), 2),
    (partial(_overlap_group, family="pasops"), 1),
    (partial(_squeezed_group, family="pasvs"), 2),
    (partial(_squeezed_group, family="pasops"), 2),
    (partial(_circle_group, family="csc"), 1),
    (partial(_circle_group, family="pacsc"), 1),
    (partial(_norm_group, family="csc_norm"), 1),
    (partial(_norm_group, family="pacsc_norm"), 1),
)


def _mixed_pass(mix, workload: str, seed: int, index: int, copies: int) -> list[Group]:
    """``copies`` of the mix's groups at fresh points, in shuffled order.

    Every pass has the same composition, so pass times vary with the
    points drawn and the machine, not with how many costly calls a pass
    happened to draw.
    """
    rng = pass_rng(workload, seed, index)
    makers = [make for make, share in mix for _ in range(share * copies)]
    rng.shuffle(makers)
    return [make(rng) for make in makers]


# ---------------------------------------------------------------- verify_all

def verify_all_pass(out_path: str) -> list[Group]:
    """One ``pastates verify all`` battery, run in-process."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "all", "--out", out_path])
        return code, buf.getvalue()

    def check(results):
        code, stdout = results[0]
        with open(out_path) as fh:
            env = json.load(fh)
        lines = env["results"]
        return (
            code == 0
            and stdout.rstrip("\n").splitlines()[-1] == "verify all: PASS"
            and env["command"] == "verify all"
            and env["pass"] is True
            and len(lines) > 0
            and all(line["pass"] is True for line in lines)
        )

    return [Group(("verify_all",), (call,), check)]


# ---------------------------------------------------------------- registry

# copies of the mix per pass: 198 groups
STATE_PASS_COPIES = 18

WORKLOADS = ("verify_all", "state_queries")


def make_pass(workload: str, seed: int, index: int, scratch_dir: str) -> list[Group]:
    """Pass ``index`` of a workload; a pure function of its arguments.

    state_queries draws fresh points for every pass, so no point is
    evaluated twice in a run; verify_all repeats the fixed battery.
    """
    if workload == "verify_all":
        return verify_all_pass(os.path.join(scratch_dir, "verify_all.json"))
    if workload == "state_queries":
        return _mixed_pass(_STATE_MIX, workload, seed, index, STATE_PASS_COPIES)
    raise ValueError(f"unknown workload: {workload!r}")
