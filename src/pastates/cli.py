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


def _parse_list(text: str, convert, kind: str) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse {kind} list {text!r}") from exc
    if not values:
        raise UsageError(f"empty {kind} list {text!r}")
    return values


def parse_int_list(text: str) -> list[int]:
    return _parse_list(text, int, "integer")


def parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float, "float")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pastates-")
    try:
        # mkstemp creates the file 0600; give it the mode open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _envelope(command: str, parameters: dict, results, max_error: float, tol: float) -> dict:
    return {
        "command": command,
        "parameters": {**parameters, "tol": tol},
        "results": results,
        "max_error": max_error,
        "pass": bool(max_error < tol),
        "tool_version": __version__,
    }


def _json_default(obj):
    """The JSON form of what ``json`` cannot write itself: complex values
    and numpy integers (numpy's float64 is a float)."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_envelope(env: dict, out_path: str | None) -> int:
    _write_output(json.dumps(env, sort_keys=True, indent=2, default=_json_default) + "\n", out_path)
    return 0 if env["pass"] else 1


def _csv_table(header: list[str], rows: list[list[float]], preamble: list[str] | None = None) -> str:
    lines = list(preamble or [])
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- state

def _label(args):
    """The squeezing (--zeta) or circle (--z) label of a state or norm
    command's family."""
    flag = "zeta" if args.family in ("pasvs", "pasops", "sns") else "z"
    text = getattr(args, flag)
    if text is None:
        raise UsageError(f"{args.command} {args.family} requires --{flag}")
    if flag == "zeta":
        return fockstate.SqueezeParam(parse_complex(text))
    return fockstate.CircleParam(parse_complex(text), args.lam, args.mu)


def _build_state(args) -> fockstate.FockVector:
    param = _label(args)
    if args.family in ("pasvs", "pasops", "sns"):
        builder = {"pasvs": fockstate.pasvs, "pasops": fockstate.pasops, "sns": fockstate.sns}
        return builder[args.family](param, args.m, eps=args.eps)
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
    xi = fockstate.SqueezeParam(parse_complex(args.xi))
    zeta = fockstate.SqueezeParam(parse_complex(args.zeta))
    if args.family in ("sv", "sops"):
        # |xi> and S(xi)|1> are the vacuum-family states |xi, 0> and |xi, 1>
        shift = 0 if args.family == "sv" else 1
        value = (overlap.sv_overlap if shift == 0 else overlap.sops_overlap)(xi, zeta)
        labels = [(p, shift, overlap._pasvs_log_norms(p, shift)[shift]) for p in (xi, zeta)]
        oracle = overlap._series(args.family, shift, *labels)
        err = abs(value - oracle)
        env = _envelope(
            "overlap",
            {"family": args.family, "xi": args.xi, "zeta": args.zeta},
            {"value": value, "oracle_error": err},
            err,
            args.tol,
        )
        return _emit_envelope(env, args.out)
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
    param = _label(args)
    if args.family in ("pasvs", "pasops"):
        if args.family == "pasvs":
            value = overlap.pasvs_norm(param, args.m)
            vec = fockstate.pasvs(param, args.m, eps=overlap.SERIES_EPS)
        else:
            value = overlap.pasops_norm(param, args.m)
            vec = fockstate.pasops(param, args.m, eps=overlap.SERIES_EPS)
        err = abs(vec.norm_sq() + vec.tail_bound - 1.0)
        results = {"value": value, "normalization_defect": err}
        params = {"family": args.family, "zeta": args.zeta, "m": args.m}
    else:
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
    for flag, value in (("--y-min", args.y_min), ("--y-max", args.y_max)):
        if value is not None and not math.isfinite(value):
            raise UsageError(f"weights requires a finite {flag}, got {value}")
    ms = parse_int_list(args.m)
    if args.family == "pacsc":
        y_max = args.y_max if args.y_max is not None else 4.0
        y_min = args.y_min if args.y_min is not None else 0.01
    else:
        y_max = args.y_max if args.y_max is not None else 0.9999
        y_min = args.y_min if args.y_min is not None else 0.0001
    # the last point is y_max itself, not the rounded end of the steps
    steps = range(args.grid - 1)
    ys = [y_min + i * (y_max - y_min) / (args.grid - 1) for i in steps] + [y_max]
    if not all(map(math.isfinite, ys)):
        raise UsageError(
            f"weights requires a grid from --y-min to --y-max within the float range, "
            f"got --y-min={_fmt(y_min)} --y-max={_fmt(y_max)}"
        )
    table = complete._weight_table(args.family, ms, np.array(ys), args.mu, args.lam)
    header = ["y"] + [f"h_{m}" for m in ms]
    rows = [[y] + values for y, values in zip(ys, table.tolist())]
    bad = np.argwhere(~((table > 0.0) & np.isfinite(table)))
    positive = len(bad) == 0
    if args.format == "csv":
        _write_output(_csv_table(header, rows), args.out)
        if positive:
            return 0
        i, j = bad[0]
        where = f"{header[j + 1]} at y={_fmt(ys[i])}"
        print(f"error: {where} is {_fmt(table[i, j])}, not positive and finite", file=sys.stderr)
        return 1
    env = _envelope(
        "weights",
        {"family": args.family, "m": args.m, "grid": args.grid, "y_min": y_min, "y_max": y_max},
        {"columns": header, "rows": rows},
        0.0 if positive else math.inf,
        1.0,
    )
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- verify

def _radial_check(suite: str, args) -> tuple:
    """The ``complete.radial_checks`` entry of a moments or unity suite."""
    if args.family != "pacsc":
        wf = complete.WeightFunction(args.family, args.m)
    elif args.mu is None or args.lam is None:
        raise UsageError("pacsc verification requires --mu and --lambda")
    else:
        wf = complete.WeightFunction("pacsc", args.m, mu=args.mu, lam=args.lam)
    return (suite, wf, args.kmax if suite == "moments" else args.dim)


def _moment_lines(args, reports: list, lines: list[dict]) -> float:
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


def _unity_lines(args, mat, lines: list[dict]) -> float:
    dev = mat.identity_deviation()
    lines.append(
        {
            "check": f"unity {args.family} m={args.m} mu={args.mu} lambda={args.lam} dim={args.dim}",
            "identity_deviation": dev,
            "pass": bool(dev < args.tol),
        }
    )
    return dev


# line writers of the suites whose checks are batched by complete.radial_checks
_RADIAL_LINES = {"moments": _moment_lines, "unity": _unity_lines}


def _verify_discrete(args, lines: list[dict]) -> float:
    param = fockstate.SqueezeParam(parse_complex(args.zeta))
    cutoffs = parse_int_list(args.cutoffs)
    ref_cut = cutoffs[len(cutoffs) // 2]
    routes = [(cutoff, "closed") for cutoff in cutoffs] + [(ref_cut, "series")]
    *closed, series = complete._discrete_matrices(param, routes, args.dim)
    numbers = complete._sns_completeness_matrices(param, cutoffs, args.dim)
    devs = [mat.identity_deviation() for mat in numbers]
    for cutoff, dev, mat in zip(cutoffs, devs, closed):
        pair_dev = mat.identity_deviation()
        lines.append(
            {
                "check": f"discrete cutoff={cutoff}",
                "number_basis_deviation": dev,
                "pair_basis_deviation": pair_dev,
                "pass": bool(pair_dev < args.tol),
            }
        )
    decreasing = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    gap = float(np.max(np.abs(closed[len(cutoffs) // 2].entries - series.entries)))
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


def _label_pairs(moduli: str) -> list[tuple]:
    """The overlaps suite's label pairs: every pair of moduli at every
    phase pair."""
    mods, sq = parse_float_list(moduli), fockstate.SqueezeParam
    return [
        (sq(axi * cmath.exp(1j * pxi)), sq(aze * cmath.exp(1j * pze)))
        for axi in mods
        for aze in mods
        for pxi, pze in _PHASE_PAIRS
    ]


def _overlap_lines(args, grid: tuple[float, int], lines: list[dict]) -> float:
    worst, count = grid
    lines.append(
        {
            "check": f"overlaps {args.family} grid (n,m <= {args.max_n}, {count} points)",
            "worst_deviation": worst,
            "pass": bool(worst < args.tol),
        }
    )
    return worst


# (suite, arguments, tolerance) of every check in ``verify all``, in order
_BATTERY = (
    [("moments", {"family": "pasvs", "m": m, "kmax": 10}, 1e-8) for m in range(1, 7)]
    + [("moments", {"family": "pasops", "m": m, "kmax": 10}, 1e-8) for m in range(6)]
    + [
        ("moments", {"family": "pacsc", "m": m, "mu": mu, "lam": lam, "kmax": 8}, 1e-8)
        for lam, mu in ((1, 0), (2, 0), (2, 1), (3, 2))
        for m in range(5)
    ]
    + [("unity", {"family": "pasvs", "m": m, "dim": 12}, 1e-6) for m in range(1, 5)]
    + [("unity", {"family": "pasops", "m": m, "dim": 12}, 1e-6) for m in range(4)]
    + [
        ("unity", {"family": "pacsc", "m": m, "mu": mu, "lam": lam, "dim": 12}, 1e-6)
        for m, mu, lam in ((1, 0, 1), (2, 0, 2), (1, 1, 2), (2, 2, 3))
    ]
    + [("discrete", {"zeta": "0.3", "cutoffs": "10,20,40", "dim": 8}, 1e-9)]
    + [("carleman", {"m": m, "k": "10,100,1000,10000"}, 0.01) for m in range(1, 5)]
    + [
        ("overlaps", {"family": family, "max_n": 8, "moduli": "0.2,0.4,0.6"}, 1e-9)
        for family in ("pasvs", "pasops")
    ]
)


def _run_battery(entries, lines: list[dict]) -> list[float]:
    """Run the (suite, args) entries of a battery, append their lines in
    entry order and return each entry's error.  Every moments and unity
    entry goes through one ``complete.radial_checks`` call, so each kind of
    radial weight is integrated in one pass, and the overlaps entries of
    one (moduli, max_n) grid through one ``overlap.overlap_grids`` call, so
    each point and oracle vector is evaluated once."""
    radial = iter(
        complete.radial_checks(
            [_radial_check(suite, args) for suite, args in entries if suite in _RADIAL_LINES]
        )
    )
    families = {}
    for suite, args in entries:
        if suite == "overlaps":
            families.setdefault((args.moduli, args.max_n), []).append(args.family)
    grids = {
        (moduli, max_n): overlap.overlap_grids(fams, _label_pairs(moduli), max_n)
        for (moduli, max_n), fams in families.items()
    }
    errors = []
    for suite, args in entries:
        if suite in _RADIAL_LINES:
            err = _RADIAL_LINES[suite](args, next(radial), lines)
        elif suite == "overlaps":
            err = _overlap_lines(args, grids[args.moduli, args.max_n][args.family], lines)
        else:
            err = (_verify_discrete if suite == "discrete" else _verify_carleman)(args, lines)
        errors.append(err)
    return errors


def cmd_verify(args) -> int:
    if args.dim is None:
        # the pairs up to the first default cutoff, 10, cover the first 11
        # Fock states, not the 12 of the unity default
        args.dim = 8 if args.suite == "discrete" else 12
    lines: list[dict] = []
    if args.suite == "all":
        # carleman reads its tolerance as the limit, every other suite as tol
        entries = [
            (suite, argparse.Namespace(**{"mu": None, "lam": None, **params}, tol=tol, limit=tol))
            for suite, params, tol in _BATTERY
        ]
        # the worst error-to-tolerance ratio, against a unit tolerance
        max_err, tol = 0.0, 1.0
        for (_, entry), err in zip(entries, _run_battery(entries, lines)):
            max_err = max(max_err, err / entry.tol)
    else:
        (max_err,) = _run_battery([(args.suite, args)], lines)
        tol = args.limit if args.suite == "carleman" else args.tol
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
        _emit_envelope(env, args.out)
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
    p_v.add_argument(
        "--dim", type=int, default=None, help="basis dimension (default 12; 8 for discrete)"
    )
    p_v.add_argument("--zeta", default="0.3")
    p_v.add_argument("--cutoffs", default="10,20,40")
    p_v.add_argument("--k", default="10,100,1000")
    p_v.add_argument("--limit", type=float, default=0.01)
    p_v.add_argument("--max-n", dest="max_n", type=int, default=8)
    p_v.add_argument("--moduli", default="0.2,0.4,0.6")
    p_v.add_argument("--tol", type=float, default=1e-8)
    p_v.add_argument("--out", default=None)
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (pastates ... | head): send what is still
        # buffered to devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a numerical failure (overflow, failed normalization check), not bad usage
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
