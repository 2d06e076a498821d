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
import types

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


class UsageError(argparse.ArgumentTypeError):
    """Bad usage (exit 2); raised by an option's type, argparse names the option."""


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


def threshold(text: str) -> float:
    """A --tol or --limit: finite and > 0, so that its check can both pass and fail."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise UsageError(f"must be finite and > 0, got {text}")
    return value


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
    """The label of a state or norm command: --zeta or --z, the one its family reads."""
    if args.zeta is not None:
        return fockstate.SqueezeParam(parse_complex(args.zeta))
    return fockstate.CircleParam(parse_complex(args.z), args.lam, args.mu)


def cmd_state(args) -> int:
    # every family but csc reads a photon-added index
    index = () if args.m is None else (args.m,)
    vec = getattr(fockstate, args.family)(_label(args), *index, eps=args.eps)
    rows = [
        [int(n), complex(c).real, complex(c).imag, abs(complex(c)) ** 2]
        for n, c in zip(vec.photon_numbers(), vec.coeffs)
    ]
    defect = abs(vec.norm_sq() + vec.tail_bound - 1.0)
    if args.format == "csv":
        preamble = [f"# tail_bound = {_fmt(vec.tail_bound)}"]
        _write_output(_csv_table(["n", "re_c", "im_c", "abs2"], rows, preamble), args.out)
        return 0
    results = {"rows": rows, "tail_bound": vec.tail_bound, "offset": vec.offset, "stride": vec.stride}
    return _emit_envelope(_envelope("state", args.parameters, results, defect, 1e-9), args.out)


# ----------------------------------------------------------------- overlap

def cmd_overlap(args) -> int:
    xi = fockstate.SqueezeParam(parse_complex(args.xi))
    zeta = fockstate.SqueezeParam(parse_complex(args.zeta))
    if args.family in ("sv", "sops"):
        # |xi> and S(xi)|1> are the vacuum-family states |xi, 0> and |xi, 1>
        shift = 0 if args.family == "sv" else 1
        value = (overlap.sv_overlap if shift == 0 else overlap.sops_overlap)(xi, zeta)
        labels = [(p, shift, overlap._pasvs_log_norms(p, shift)[shift]) for p in (xi, zeta)]
        err = abs(value - overlap._series(args.family, shift, *labels))
        results = {"value": value, "oracle_error": err}
    else:
        form = int(args.form) if args.form in ("1", "2", "3") else args.form
        fn = overlap.pasvs_overlap if args.family == "pasvs" else overlap.pasops_overlap
        res = fn(xi, args.n, zeta, args.m, form=form)
        err = max(res.form_spread, res.oracle_error)
        results = {key: getattr(res, key) for key in ("value", "form_spread", "oracle_error")}
    return _emit_envelope(_envelope("overlap", args.parameters, results, err, args.tol), args.out)


# ----------------------------------------------------------------- norm

def cmd_norm(args) -> int:
    param = _label(args)
    if args.family in ("pasvs", "pasops"):
        value = getattr(overlap, f"{args.family}_norm")(param, args.m)
        vec = getattr(fockstate, args.family)(param, args.m, eps=overlap.SERIES_EPS)
        err = abs(vec.norm_sq() + vec.tail_bound - 1.0)
        results = {"value": value, "normalization_defect": err}
    else:
        if args.family == "csc":
            a, b = overlap.csc_norm(param, "pfq"), overlap.csc_norm(param, "circle")
        else:
            a, b = (overlap.pacsc_norm(param, args.m, form) for form in ("pfq", "laguerre"))
        err = abs(a - b) / abs(a)
        results = {"value": a, "alternate_form": b, "form_rel_error": err}
    env = _envelope("norm", args.parameters, results, err, args.tol)
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- weights

def cmd_weights(args) -> int:
    if args.grid < 2:
        raise UsageError("weights requires --grid >= 2")
    for flag, value in (("--y-min", args.y_min), ("--y-max", args.y_max)):
        if not math.isfinite(value):
            raise UsageError(f"weights requires a finite {flag}, got {value}")
    ms, y_min, y_max = args.m, args.y_min, args.y_max
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
    # a density below the normal float range (a subnormal or 0) has lost its digits
    bad = np.argwhere(~((table >= sys.float_info.min) & np.isfinite(table)))
    positive = len(bad) == 0
    if args.format == "csv":
        _write_output(_csv_table(header, rows), args.out)
        if positive:
            return 0
        i, j = bad[0]
        value = table[i, j]
        why = "below the normal float range" if 0.0 < value < math.inf else "not positive and finite"
        print(f"error: {header[j + 1]} at y={_fmt(ys[i])} is {_fmt(value)}, {why}", file=sys.stderr)
        return 1
    results = {"columns": header, "rows": rows}
    env = _envelope("weights", args.parameters, results, 0.0 if positive else math.inf, 1.0)
    return _emit_envelope(env, args.out)


# ----------------------------------------------------------------- verify

def _radial_check(args) -> tuple:
    """The ``complete.radial_checks`` entry of a moments or unity suite."""
    wf = complete.WeightFunction(args.family, args.m, mu=args.mu, lam=args.lam)
    return (args.suite, wf, args.kmax if args.suite == "moments" else args.dim)


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


def _run_battery(entries, lines: list[dict]) -> list[float]:
    """Run the verify entries of a battery, append their lines in entry
    order and return each entry's error.  Every moments and unity entry goes
    through one ``complete.radial_checks`` call, so each kind of radial
    weight is integrated in one pass, and the overlaps entries of one
    (moduli, max_n) grid through one ``overlap.overlap_grids`` call, so each
    point and oracle vector is evaluated once."""
    checks = [_radial_check(args) for args in entries if args.suite in _RADIAL_LINES]
    radial = iter(complete.radial_checks(checks))
    families = {}
    for args in entries:
        if args.suite == "overlaps":
            families.setdefault((args.moduli, args.max_n), []).append(args.family)
    grids = {
        (moduli, max_n): overlap.overlap_grids(fams, _label_pairs(moduli), max_n)
        for (moduli, max_n), fams in families.items()
    }
    errors = []
    for args in entries:
        if args.suite in _RADIAL_LINES:
            err = _RADIAL_LINES[args.suite](args, next(radial), lines)
        elif args.suite == "overlaps":
            err = _overlap_lines(args, grids[args.moduli, args.max_n][args.family], lines)
        else:
            err = (_verify_discrete if args.suite == "discrete" else _verify_carleman)(args, lines)
        errors.append(err)
    return errors


def _tolerance(args) -> float:
    """The threshold of a verify entry: --limit for carleman, --tol for the rest."""
    return args.limit if args.suite == "carleman" else args.tol


def cmd_verify(args) -> int:
    lines: list[dict] = []
    if args.suite == "all":
        # the worst error-to-tolerance ratio, against a unit tolerance
        max_err, tol = 0.0, 1.0
        for entry, err in zip(_BATTERY, _run_battery(_BATTERY, lines)):
            max_err = max(max_err, err / _tolerance(entry))
    else:
        (max_err,) = _run_battery([args], lines)
        tol = _tolerance(args)
    all_pass = all(line["pass"] for line in lines) and max_err < tol
    for line in lines:
        status = "PASS" if line["pass"] else "FAIL"
        detail = " ".join(
            f"{k}={_fmt(v) if isinstance(v, float) else v}"
            for k, v in line.items()
            if k not in ("check", "pass")
        )
        print(f"[{status}] {line['check']}: {detail}")
    env = _envelope(f"verify {args.suite}", args.parameters, lines, max_err, tol)
    env["pass"] = bool(all_pass)
    if args.out:
        _emit_envelope(env, args.out)
    print(f"verify {args.suite}: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# ----------------------------------------------------------------- parser

# every option of the CLI, declared once: the name its value is stored
# under -> its option string and argparse keywords
_FLAGS = {
    "family": ("--family", {"choices": complete.FAMILIES, "help": "state family of the suite"}),
    "zeta": ("--zeta", {"help": "squeezing label, MOD or MOD@RADIANS"}),
    "z": ("--z", {"help": "circle label, MOD or MOD@RADIANS"}),
    "xi": ("--xi", {"help": "squeezing label of the bra, MOD or MOD@RADIANS"}),
    "n": ("--n", {"type": int, "help": "photon-added index of the bra"}),
    "m": ("--m", {"type": parse_int_list, "help": "photon-added index (weights: a list)"}),
    "mu": ("--mu", {"type": int, "help": "circle index, 0 <= mu < lambda"}),
    "lam": ("--lambda", {"type": int, "help": "circle order"}),
    "eps": ("--eps", {"type": float, "help": "truncation tolerance"}),
    "form": ("--form", {"choices": ("1", "2", "3", "series"), "help": "closed form to check"}),
    "grid": ("--grid", {"type": int, "help": "number of grid points, at least 2"}),
    "y_min": ("--y-min", {"type": float, "help": "first grid point"}),
    "y_max": ("--y-max", {"type": float, "help": "last grid point"}),
    "kmax": ("--kmax", {"type": int, "help": "highest moment index k"}),
    "dim": ("--dim", {"type": int, "help": "Fock basis dimension"}),
    "cutoffs": ("--cutoffs", {"help": "comma-separated pair cutoffs"}),
    "k": ("--k", {"help": "comma-separated Carleman orders"}),
    "max_n": ("--max-n", {"type": int, "help": "largest photon-added index of the grid"}),
    "moduli": ("--moduli", {"help": "comma-separated label moduli of the grid"}),
    "tol": ("--tol", {"type": threshold, "help": "pass threshold of the error"}),
    "limit": ("--limit", {"type": threshold, "help": "pass threshold of the last Carleman ratio"}),
    "format": ("--format", {"choices": ("csv", "json")}),
    "out": ("--out", {"help": "write to this file, atomically, instead of stdout"}),
}

_REQUIRED = object()
_SQUEEZED = {"zeta": _REQUIRED, "m": 0}
_CIRCLE = {"z": _REQUIRED, "mu": 0, "lam": 2}
_CSV = {"format": "csv", "out": None}
_CHECK = {"tol": 1e-8, "out": None}
_OVERLAP = {"xi": _REQUIRED, "zeta": _REQUIRED, **_CHECK}
_WEIGHTS = {"m": [1, 2, 3, 4, 5], "grid": 101}
_CIRCLE_INDICES = {"mu": _REQUIRED, "lam": _REQUIRED}

# command -> family or suite -> the flags it reads, each with its default
# (_REQUIRED: none).  moments and unity read the flags of their --family,
# so their keys name it.
_READS = {
    "state": {
        **dict.fromkeys(("pasvs", "pasops", "sns"), {**_SQUEEZED, "eps": 1e-14, **_CSV}),
        "csc": {**_CIRCLE, "eps": 1e-14, **_CSV},
        "pacsc": {**_CIRCLE, "m": 0, "eps": 1e-14, **_CSV},
    },
    "overlap": {
        **dict.fromkeys(("pasvs", "pasops"), {**_OVERLAP, "n": 0, "m": 0, "form": "1"}),
        **dict.fromkeys(("sv", "sops"), _OVERLAP),
    },
    "norm": {
        **dict.fromkeys(("pasvs", "pasops"), {**_SQUEEZED, "tol": 1e-9, "out": None}),
        "csc": {**_CIRCLE, "tol": 1e-9, "out": None},
        "pacsc": {**_CIRCLE, "m": 0, "tol": 1e-9, "out": None},
    },
    "weights": {
        **dict.fromkeys(("pasvs", "pasops"), {**_WEIGHTS, "y_min": 1e-4, "y_max": 0.9999, **_CSV}),
        "pacsc": {**_WEIGHTS, "mu": 0, "lam": 2, "y_min": 0.01, "y_max": 4.0, **_CSV},
    },
    "verify": {
        **{
            f"{suite} --family {family}": {"family": family, "m": 1, **indices, **size, **_CHECK}
            for suite, size in (("moments", {"kmax": 10}), ("unity", {"dim": 12}))
            for family, indices in (("pasvs", {}), ("pasops", {}), ("pacsc", _CIRCLE_INDICES))
        },
        # the pairs up to the first cutoff, 10, cover the first 11 Fock states
        "discrete": {"zeta": "0.3", "cutoffs": "10,20,40", "dim": 8, **_CHECK},
        "carleman": {"m": 1, "k": "10,100,1000", "limit": 0.01, "out": None},
        "overlaps": {"family": "pasvs", "max_n": 8, "moduli": "0.2,0.4,0.6", **_CHECK},
        "all": {"out": None},
    },
}


def _resolve(command: str, given: dict) -> types.SimpleNamespace:
    """The arguments of a command line from its parsed values (None: not
    given): every flag its family or suite reads, given or at its default,
    with ``parameters`` for the envelope, and the other flags None.  A foreign
    flag, a missing required one and a list where one index is read are usage
    errors that name the flag and the family or suite."""
    positional = _COMMANDS[command][0]
    key = given[positional]
    if (by_family := f"{key} --family {given.get('family') or 'pasvs'}") in _READS[command]:
        key = by_family
    reads, where = _READS[command][key], f"{command} {key}"
    named = [flag for flag, value in given.items() if value is not None and flag != positional]
    if missing := [flag for flag in reads if reads[flag] is _REQUIRED and flag not in named]:
        raise UsageError(f"{where} requires {_FLAGS[missing[0]][0]}")
    if foreign := [flag for flag in named if flag not in reads]:
        raise UsageError(f"{where} does not read " + ", ".join(_FLAGS[flag][0] for flag in foreign))
    args = {**dict.fromkeys(_FLAGS), **given}
    parameters = {positional: key.split()[0]}
    for flag, default in reads.items():
        value = default if args[flag] is None else args[flag]
        if isinstance(value, list) and not isinstance(default, list):
            if len(value) != 1:
                raise UsageError(f"{where} reads one {_FLAGS[flag][0]}, not a list of {len(value)}")
            (value,) = value
        args[flag] = value
        if flag not in ("format", "out"):
            parameters[_FLAGS[flag][0][2:].replace("-", "_")] = value
    return types.SimpleNamespace(**args, parameters=parameters)


# command -> its positional argument, help and handler
_COMMANDS = {
    "state": ("family", "emit state coefficients", cmd_state),
    "overlap": ("family", "closed-form overlaps with oracles", cmd_overlap),
    "norm": ("family", "closed-form normalizations", cmd_norm),
    "weights": ("family", "weight-function tables", cmd_weights),
    "verify": ("suite", "verification suites", cmd_verify),
}

# command -> its positional's choices, and the flags that its families or suites read
_PARSERS = {
    command: (
        tuple(dict.fromkeys(key.split()[0] for key in keys)),
        [(option, {"dest": flag, **kw}) for flag, (option, kw) in _FLAGS.items()
         if any(flag in reads for reads in keys.values())],
    )
    for command, keys in _READS.items()
}


def build_parser() -> argparse.ArgumentParser:
    """One parser per command, with every flag that some family or suite of
    the command reads; ``_resolve`` checks them against the family or suite."""
    parser = argparse.ArgumentParser(
        prog="pastates",
        description="Photon-added state construction and completeness verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (positional, text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        choices, flags = _PARSERS[command]
        p.add_argument(positional, choices=choices)
        for option, kw in flags:
            p.add_argument(option, **kw)
    return parser


# every check of ``verify all``, in order: its suite and the flags it sets,
# the others at their ``verify <suite>`` defaults
_BATTERY = [
    _resolve("verify", {"suite": suite, **flags})
    for suite, flags in (
        [("moments", {"family": "pasvs", "m": m}) for m in range(1, 7)]
        + [("moments", {"family": "pasops", "m": m}) for m in range(6)]
        + [
            ("moments", {"family": "pacsc", "m": m, "mu": mu, "lam": lam, "kmax": 8})
            for lam, mu in ((1, 0), (2, 0), (2, 1), (3, 2))
            for m in range(5)
        ]
        + [("unity", {"family": "pasvs", "m": m, "tol": 1e-6}) for m in range(1, 5)]
        + [("unity", {"family": "pasops", "m": m, "tol": 1e-6}) for m in range(4)]
        + [
            ("unity", {"family": "pacsc", "m": m, "mu": mu, "lam": lam, "tol": 1e-6})
            for m, mu, lam in ((1, 0, 1), (2, 0, 2), (1, 1, 2), (2, 2, 3))
        ]
        + [("discrete", {"tol": 1e-9})]
        + [("carleman", {"m": m, "k": "10,100,1000,10000"}) for m in range(1, 5)]
        + [("overlaps", {"family": family, "tol": 1e-9}) for family in ("pasvs", "pasops")]
    )
]


def main(argv=None) -> int:
    parsed = vars(build_parser().parse_args(argv))
    command = parsed.pop("command")
    try:
        code = _COMMANDS[command][2](_resolve(command, parsed))
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
