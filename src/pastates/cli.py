"""Command-line front end.

Subcommands: state, overlap, norm, weights, verify.  Tables go out as CSV
(RFC-4180 fields, 17 significant digits), verification envelopes as JSON.
Nothing is stochastic and no timestamps are embedded, so identical
invocations produce byte-identical output.

Exit codes: 0 pass, 1 verification or numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, complete, fockstate, overlap

_PHASE_PAIRS = (
    (0.0, 0.0),
    (0.0, math.pi / 3),
    (math.pi / 4, -math.pi / 4),
    (math.pi / 2, math.pi),
    (-2 * math.pi / 3, math.pi / 3),
    (math.pi, math.pi),
    (-2.9, 2.9),
    (0.3, 2.0),
)

_UNITY_CASES = (
    ("pasvs", 1, None, None),
    ("pasvs", 2, None, None),
    ("pasvs", 3, None, None),
    ("pasvs", 4, None, None),
    ("pasops", 0, None, None),
    ("pasops", 1, None, None),
    ("pasops", 2, None, None),
    ("pasops", 3, None, None),
    ("pacsc", 1, 0, 1),
    ("pacsc", 2, 0, 2),
    ("pacsc", 1, 1, 2),
    ("pacsc", 2, 2, 3),
)


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Complex input as 'modulus' or 'modulus@radians' (locale-proof)."""
    try:
        if "@" in text:
            mod_s, ang_s = text.split("@", 1)
            mod, ang = float(mod_s), float(ang_s)
            return mod * cmath.exp(1j * ang)
        return complex(float(text))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex value {text!r}: use MOD or MOD@RADIANS") from exc


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse float list {text!r}") from exc


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _json_ready(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pastates-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _envelope(command: str, parameters: dict, results, max_error: float, tol: float) -> dict:
    return {
        "command": command,
        "parameters": _json_ready({**parameters, "tol": tol}),
        "results": _json_ready(results),
        "max_error": max_error,
        "pass": bool(max_error < tol),
        "tool_version": __version__,
    }


def _emit_envelope(env: dict, out_path: str | None) -> int:
    _write_output(json.dumps(env, sort_keys=True, indent=2) + "\n", out_path)
    return 0 if env["pass"] else 1


def _csv_table(header: list[str], rows: list[list[float]], preamble: list[str] | None = None) -> str:
    lines = list(preamble or [])
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- state

def _build_state(args) -> fockstate.FockVector:
    if args.family in ("pasvs", "pasops", "sns"):
        param = fockstate.SqueezeParam(parse_complex(args.zeta))
        builder = {"pasvs": fockstate.pasvs, "pasops": fockstate.pasops, "sns": fockstate.sns}
        return builder[args.family](param, args.m, eps=args.eps)
    param = fockstate.CircleParam(parse_complex(args.z), args.lam, args.mu)
    if args.family == "csc":
        return fockstate.csc(param, eps=args.eps)
    return fockstate.pacsc(param, args.m, eps=args.eps)


def cmd_state(args) -> int:
    vec = _build_state(args)
    rows = [
        [int(n), complex(c).real, complex(c).imag, abs(complex(c)) ** 2]
        for n, c in zip(vec.photon_numbers(), vec.coeffs)
    ]
    defect = abs(vec.norm_sq() + vec.tail_bound - 1.0)
    if args.format == "csv":
        text = _csv_table(
            ["n", "re_c", "im_c", "abs2"],
            rows,
            preamble=[f"# tail_bound = {_fmt(vec.tail_bound)}"],
        )
        _write_output(text, args.out)
        return 0
    env = _envelope(
        "state",
        {"family": args.family, "m": getattr(args, "m", None), "eps": args.eps},
        {"rows": rows, "tail_bound": vec.tail_bound, "offset": vec.offset, "stride": vec.stride},
        defect,
        1e-9,
    )
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- overlap

def cmd_overlap(args) -> int:
    if args.family in ("sv", "sops"):
        xi = fockstate.SqueezeParam(parse_complex(args.xi))
        zeta = fockstate.SqueezeParam(parse_complex(args.zeta))
        if args.family == "sv":
            value = overlap.sv_overlap(xi, zeta)
            oracle = fockstate.inner(
                fockstate.pasvs(xi, 0, eps=1e-26), fockstate.pasvs(zeta, 0, eps=1e-26)
            )
        else:
            value = overlap.sops_overlap(xi, zeta)
            oracle = fockstate.inner(
                fockstate.pasops(xi, 0, eps=1e-26), fockstate.pasops(zeta, 0, eps=1e-26)
            )
        err = abs(value - oracle)
        env = _envelope(
            "overlap",
            {"family": args.family, "xi": args.xi, "zeta": args.zeta},
            {"value": value, "oracle_error": err},
            err,
            args.tol,
        )
        return _emit_envelope(env, args.out)
    xi = fockstate.SqueezeParam(parse_complex(args.xi))
    zeta = fockstate.SqueezeParam(parse_complex(args.zeta))
    form = int(args.form) if args.form in ("1", "2", "3") else args.form
    fn = overlap.pasvs_overlap if args.family == "pasvs" else overlap.pasops_overlap
    res = fn(xi, args.n, zeta, args.m, form=form)
    max_err = max(res.form_spread, res.oracle_error)
    env = _envelope(
        "overlap",
        {
            "family": args.family,
            "xi": args.xi,
            "n": args.n,
            "zeta": args.zeta,
            "m": args.m,
            "form": args.form,
        },
        {"value": res.value, "form_spread": res.form_spread, "oracle_error": res.oracle_error},
        max_err,
        args.tol,
    )
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- norm

def cmd_norm(args) -> int:
    if args.family in ("pasvs", "pasops"):
        param = fockstate.SqueezeParam(parse_complex(args.zeta))
        if args.family == "pasvs":
            value = overlap.pasvs_norm(param, args.m)
            vec = fockstate.pasvs(param, args.m, eps=1e-26)
        else:
            value = overlap.pasops_norm(param, args.m)
            vec = fockstate.pasops(param, args.m, eps=1e-26)
        err = abs(vec.norm_sq() + vec.tail_bound - 1.0)
        results = {"value": value, "normalization_defect": err}
        params = {"family": args.family, "zeta": args.zeta, "m": args.m}
    else:
        param = fockstate.CircleParam(parse_complex(args.z), args.lam, args.mu)
        if args.family == "csc":
            a = overlap.csc_norm(param, "pfq")
            b = overlap.csc_norm(param, "circle")
        else:
            a = overlap.pacsc_norm(param, args.m, "pfq")
            b = overlap.pacsc_norm(param, args.m, "laguerre")
        err = abs(a - b) / abs(a)
        results = {"value": a, "alternate_form": b, "form_rel_error": err}
        params = {
            "family": args.family,
            "z": args.z,
            "mu": args.mu,
            "lambda": args.lam,
            "m": getattr(args, "m", None),
        }
    env = _envelope("norm", params, results, err, args.tol)
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- weights

def cmd_weights(args) -> int:
    if args.grid < 2:
        raise UsageError("weights requires --grid >= 2")
    ms = parse_int_list(args.m)
    if args.family == "pacsc":
        y_max = args.y_max if args.y_max is not None else 4.0
        y_min = args.y_min if args.y_min is not None else 0.01
    else:
        y_max = args.y_max if args.y_max is not None else 0.9999
        y_min = args.y_min if args.y_min is not None else 0.0001
    ys = [y_min + i * (y_max - y_min) / (args.grid - 1) for i in range(args.grid)]
    header = ["y"] + [f"h_{m}" for m in ms]
    rows = []
    positive = True
    for y in ys:
        row = [y]
        for m in ms:
            if args.family == "pasvs":
                v = complete.weight_h(m, y)
            elif args.family == "pasops":
                v = complete.weight_h1m(m, y)
            else:
                v = complete.weight_hmum(args.lam, args.mu, m, y)
            positive = positive and v > 0.0 and math.isfinite(v)
            row.append(v)
        rows.append(row)
    if args.format == "csv":
        _write_output(_csv_table(header, rows), args.out)
        return 0 if positive else 1
    env = _envelope(
        "weights",
        {"family": args.family, "m": args.m, "grid": args.grid, "y_min": y_min, "y_max": y_max},
        {"columns": header, "rows": rows},
        0.0 if positive else math.inf,
        1.0,
    )
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- verify

def _wf_from(family: str, m: int, mu, lam) -> complete.WeightFunction:
    if family == "pacsc":
        return complete.WeightFunction(family, m, mu=mu, lam=lam)
    return complete.WeightFunction(family, m)


def _verify_moments(args, lines: list[dict]) -> float:
    wf = _wf_from(args.family, args.m, args.mu, args.lam)
    reports = complete.moment_check(wf, args.kmax)
    worst = max(r.rel_err for r in reports)
    ok = all(r.converged for r in reports)
    for r in reports:
        lines.append(
            {
                "check": f"moment {args.family} m={args.m} k={r.k}",
                "lhs": r.lhs,
                "rhs": r.rhs,
                "rel_err": r.rel_err,
                "nodes": r.nodes_used,
                "pass": bool(r.converged and r.rel_err < args.tol),
            }
        )
    return worst if ok else math.inf


def _verify_unity(args, lines: list[dict]) -> float:
    wf = _wf_from(args.family, args.m, args.mu, args.lam)
    mat = complete.unity_resolution_matrix(wf, args.dim)
    dev = mat.identity_deviation()
    off = mat.max_offdiagonal()
    lines.append(
        {
            "check": f"unity {args.family} m={args.m} mu={args.mu} lambda={args.lam} dim={args.dim}",
            "identity_deviation": dev,
            "max_offdiagonal": off,
            "pass": bool(dev < args.tol and off < args.offtol),
        }
    )
    return dev if off < args.offtol else math.inf


def _verify_discrete(args, lines: list[dict]) -> float:
    param = fockstate.SqueezeParam(parse_complex(args.zeta))
    cutoffs = parse_int_list(args.cutoffs)
    devs = []
    for cutoff in cutoffs:
        mat = complete.sns_completeness_matrix(param, cutoff, args.dim)
        devs.append(mat.identity_deviation())
        closed = complete.discrete_completeness_matrix(param, cutoff, args.dim, "closed")
        pair_dev = closed.identity_deviation()
        lines.append(
            {
                "check": f"discrete cutoff={cutoff}",
                "number_basis_deviation": devs[-1],
                "pair_basis_deviation": pair_dev,
                "pass": bool(pair_dev < args.tol),
            }
        )
    decreasing = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    ref_cut = cutoffs[len(cutoffs) // 2]
    a = complete.discrete_completeness_matrix(param, ref_cut, args.dim, "closed")
    b = complete.discrete_completeness_matrix(param, ref_cut, args.dim, "series")
    gap = float(np.max(np.abs(a.entries - b.entries)))
    lines.append(
        {
            "check": f"discrete assembly consistency at cutoff={ref_cut}",
            "entrywise_gap": gap,
            "strictly_decreasing": decreasing,
            "pass": bool(decreasing and gap < args.tol),
        }
    )
    return gap if decreasing else math.inf


def _verify_carleman(args, lines: list[dict]) -> float:
    ks = parse_int_list(args.k)
    seq = complete.carleman_sequence(args.m, ks)
    mags = [abs(r) for _, r in seq]
    shrinking = all(mags[i] > mags[i + 1] for i in range(len(mags) - 1))
    for k, r in seq:
        lines.append(
            {
                "check": f"carleman m={args.m} k={k}",
                "ratio": r,
                "pass": bool(math.isfinite(r) and r > -1.0),
            }
        )
    final = mags[-1]
    lines.append(
        {
            "check": f"carleman m={args.m} limit trend",
            "final_ratio_magnitude": final,
            "shrinking": shrinking,
            "pass": bool(shrinking and final < args.limit),
        }
    )
    return final if shrinking else math.inf


def _verify_overlaps(args, lines: list[dict]) -> float:
    moduli = parse_float_list(args.moduli)
    label_pairs = [
        (
            fockstate.SqueezeParam(axi * cmath.exp(1j * pxi)),
            fockstate.SqueezeParam(aze * cmath.exp(1j * pze)),
        )
        for axi in moduli
        for aze in moduli
        for pxi, pze in _PHASE_PAIRS
    ]
    worst, count = overlap.overlap_grid(args.family, label_pairs, args.max_n)
    lines.append(
        {
            "check": f"overlaps {args.family} grid (n,m <= {args.max_n}, {count} points)",
            "worst_deviation": worst,
            "pass": bool(worst < args.tol),
        }
    )
    return worst


def _run_verify_all(args, lines: list[dict]) -> tuple[float, float]:
    """Acceptance-scale battery; returns the worst error-to-tolerance ratio
    against a unit tolerance."""
    worst_ratio = 0.0

    def track(err: float, tol: float):
        nonlocal worst_ratio
        worst_ratio = max(worst_ratio, err / tol)

    ns = argparse.Namespace
    for m in range(1, 7):
        track(_verify_moments(ns(family="pasvs", m=m, mu=None, lam=None, kmax=10, tol=1e-8), lines), 1e-8)
    for m in range(0, 6):
        track(_verify_moments(ns(family="pasops", m=m, mu=None, lam=None, kmax=10, tol=1e-8), lines), 1e-8)
    for lam, mu in ((1, 0), (2, 0), (2, 1), (3, 2)):
        for m in range(0, 5):
            track(
                _verify_moments(ns(family="pacsc", m=m, mu=mu, lam=lam, kmax=8, tol=1e-8), lines),
                1e-8,
            )
    for fam, m, mu, lam in _UNITY_CASES:
        track(
            _verify_unity(
                ns(family=fam, m=m, mu=mu, lam=lam, dim=12, tol=1e-6, offtol=1e-10), lines
            ),
            1e-6,
        )
    track(
        _verify_discrete(ns(zeta="0.3", cutoffs="10,20,40", dim=8, tol=1e-9), lines), 1e-9
    )
    for m in range(1, 5):
        track(_verify_carleman(ns(m=m, k="10,100,1000,10000", limit=0.01), lines), 0.01)
    for family in ("pasvs", "pasops"):
        track(
            _verify_overlaps(ns(family=family, max_n=8, moduli="0.2,0.4,0.6", tol=1e-9), lines),
            1e-9,
        )
    return worst_ratio, 1.0


def cmd_verify(args) -> int:
    lines: list[dict] = []
    if args.suite == "moments":
        max_err, tol = _verify_moments(args, lines), args.tol
    elif args.suite == "unity":
        max_err, tol = _verify_unity(args, lines), args.tol
    elif args.suite == "discrete":
        max_err, tol = _verify_discrete(args, lines), args.tol
    elif args.suite == "carleman":
        max_err, tol = _verify_carleman(args, lines), args.limit
    elif args.suite == "overlaps":
        max_err, tol = _verify_overlaps(args, lines), args.tol
    else:
        max_err, tol = _run_verify_all(args, lines)
    all_pass = all(line["pass"] for line in lines) and max_err < tol
    for line in lines:
        status = "PASS" if line["pass"] else "FAIL"
        detail = " ".join(
            f"{k}={_fmt(v) if isinstance(v, float) else v}"
            for k, v in line.items()
            if k not in ("check", "pass")
        )
        print(f"[{status}] {line['check']}: {detail}")
    env = _envelope(
        f"verify {args.suite}",
        {k: v for k, v in vars(args).items() if k not in ("func", "out", "format") and v is not None},
        lines,
        max_err,
        tol,
    )
    env["pass"] = bool(all_pass)
    if args.out:
        _write_output(json.dumps(env, sort_keys=True, indent=2) + "\n", args.out)
    print(f"verify {args.suite}: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pastates",
        description="Photon-added state construction and completeness verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="emit state coefficients")
    p_state.add_argument("family", choices=("pasvs", "pasops", "sns", "csc", "pacsc"))
    p_state.add_argument("--zeta", help="squeezing label, MOD or MOD@RADIANS")
    p_state.add_argument("--z", help="circle label, MOD or MOD@RADIANS")
    p_state.add_argument("--m", type=int, default=0, help="photon-added index")
    p_state.add_argument("--mu", type=int, default=0)
    p_state.add_argument("--lambda", dest="lam", type=int, default=2)
    p_state.add_argument("--eps", type=float, default=1e-14, help="truncation tolerance")
    p_state.add_argument("--format", choices=("csv", "json"), default="csv")
    p_state.add_argument("--out", default=None)
    p_state.set_defaults(func=cmd_state)

    p_ov = sub.add_parser("overlap", help="closed-form overlaps with oracles")
    p_ov.add_argument("family", choices=("pasvs", "pasops", "sv", "sops"))
    p_ov.add_argument("--xi", required=True)
    p_ov.add_argument("--zeta", required=True)
    p_ov.add_argument("--n", type=int, default=0)
    p_ov.add_argument("--m", type=int, default=0)
    p_ov.add_argument("--form", choices=("1", "2", "3", "series"), default="1")
    p_ov.add_argument("--tol", type=float, default=1e-8)
    p_ov.add_argument("--format", choices=("json",), default="json")
    p_ov.add_argument("--out", default=None)
    p_ov.set_defaults(func=cmd_overlap)

    p_norm = sub.add_parser("norm", help="closed-form normalizations")
    p_norm.add_argument("family", choices=("pasvs", "pasops", "csc", "pacsc"))
    p_norm.add_argument("--zeta")
    p_norm.add_argument("--z")
    p_norm.add_argument("--m", type=int, default=0)
    p_norm.add_argument("--mu", type=int, default=0)
    p_norm.add_argument("--lambda", dest="lam", type=int, default=2)
    p_norm.add_argument("--tol", type=float, default=1e-9)
    p_norm.add_argument("--format", choices=("json",), default="json")
    p_norm.add_argument("--out", default=None)
    p_norm.set_defaults(func=cmd_norm)

    p_w = sub.add_parser("weights", help="weight-function tables")
    p_w.add_argument("family", choices=("pasvs", "pasops", "pacsc"))
    p_w.add_argument("--m", default="1,2,3,4,5", help="comma-separated index list")
    p_w.add_argument("--mu", type=int, default=0)
    p_w.add_argument("--lambda", dest="lam", type=int, default=2)
    p_w.add_argument("--grid", type=int, default=101)
    p_w.add_argument("--y-min", dest="y_min", type=float, default=None)
    p_w.add_argument("--y-max", dest="y_max", type=float, default=None)
    p_w.add_argument("--format", choices=("csv", "json"), default="csv")
    p_w.add_argument("--out", default=None)
    p_w.set_defaults(func=cmd_weights)

    p_v = sub.add_parser("verify", help="verification suites")
    p_v.add_argument("suite", choices=("moments", "unity", "discrete", "carleman", "overlaps", "all"))
    p_v.add_argument("--family", choices=("pasvs", "pasops", "pacsc"), default="pasvs")
    p_v.add_argument("--m", type=int, default=1)
    p_v.add_argument("--mu", type=int, default=None)
    p_v.add_argument("--lambda", dest="lam", type=int, default=None)
    p_v.add_argument("--kmax", type=int, default=10)
    p_v.add_argument("--dim", type=int, default=12)
    p_v.add_argument("--zeta", default="0.3")
    p_v.add_argument("--cutoffs", default="10,20,40")
    p_v.add_argument("--k", default="10,100,1000")
    p_v.add_argument("--limit", type=float, default=0.01)
    p_v.add_argument("--max-n", dest="max_n", type=int, default=8)
    p_v.add_argument("--moduli", default="0.2,0.4,0.6")
    p_v.add_argument("--tol", type=float, default=1e-8)
    p_v.add_argument("--offtol", type=float, default=1e-10)
    p_v.add_argument("--out", default=None)
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "state":
            if args.family in ("pasvs", "pasops", "sns") and args.zeta is None:
                raise UsageError(f"state {args.family} requires --zeta")
            if args.family in ("csc", "pacsc") and args.z is None:
                raise UsageError(f"state {args.family} requires --z")
        if args.command == "norm":
            if args.family in ("pasvs", "pasops") and args.zeta is None:
                raise UsageError(f"norm {args.family} requires --zeta")
            if args.family in ("csc", "pacsc") and args.z is None:
                raise UsageError(f"norm {args.family} requires --z")
        if args.command == "verify" and args.suite in ("moments", "unity") and args.family == "pacsc":
            if args.mu is None or args.lam is None:
                raise UsageError("pacsc verification requires --mu and --lambda")
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a numerical failure (overflow, failed normalization check), not bad usage
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
