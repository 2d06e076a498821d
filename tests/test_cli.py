import argparse
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from pastates import cli, complete, specfun


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ parsing

def test_parse_complex_forms():
    assert cli.parse_complex("0.5") == 0.5 + 0.0j
    got = cli.parse_complex("0.5@0.7854")
    assert abs(got - 0.5 * complex(math.cos(0.7854), math.sin(0.7854))) < 1e-15
    with pytest.raises(cli.UsageError):
        cli.parse_complex("0.5+0.2j")


def test_parse_lists():
    assert cli.parse_int_list("10,20,40") == [10, 20, 40]
    assert cli.parse_float_list("0.2,0.4") == [0.2, 0.4]
    with pytest.raises(cli.UsageError):
        cli.parse_int_list("1,x")


@pytest.mark.parametrize("parse", [cli.parse_int_list, cli.parse_float_list])
@pytest.mark.parametrize("text", ["", ",", ",,"])
def test_parse_lists_reject_empty(parse, text):
    with pytest.raises(cli.UsageError, match="empty"):
        parse(text)


# ------------------------------------------------------------ state

def test_state_number_state_row(capsys):
    code, out, _ = run_cli(["state", "pasvs", "--zeta", "0", "--m", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# tail_bound = 0")
    assert lines[1] == "n,re_c,im_c,abs2"
    assert lines[2].split(",")[0] == "3"
    assert float(lines[2].split(",")[1]) == 1.0
    assert len(lines) == 3


def test_state_normalization(capsys):
    code, out, _ = run_cli(["state", "pasvs", "--zeta", "0.5", "--m", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    tail = float(lines[0].split("=")[1])
    total = sum(float(line.split(",")[3]) for line in lines[2:])
    assert abs(total + tail - 1.0) < 1e-9


def test_state_circle_family_json(capsys):
    code, out, _ = run_cli(
        ["state", "pacsc", "--z", "0.8", "--lambda", "2", "--mu", "0", "--m", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    env = json.loads(out)
    assert env["pass"] is True
    ns = [row[0] for row in env["results"]["rows"]]
    assert ns[0] == 1 and all((n - 1) % 2 == 0 for n in ns)


@pytest.mark.parametrize(
    "command, family, flag",
    [(command, family, "zeta") for command in ("state", "norm") for family in ("pasvs", "pasops")]
    + [("state", "sns", "zeta")]
    + [(command, family, "z") for command in ("state", "norm") for family in ("csc", "pacsc")],
)
def test_missing_label_is_a_usage_error(command, family, flag, capsys):
    code, out, err = run_cli([command, family, "--m", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {command} {family} requires --{flag}\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["state", "pasvs", "--zeta", "0.5", "--m", "1", "--eps", "nan"], "pasvs"),
        (["state", "csc", "--z", "0.5", "--eps", "inf"], "csc"),
    ],
)
def test_non_finite_eps_exits_2(argv, name, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} requires a finite eps > 0, got eps=")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["state", "pasvs", "--zeta", "0.3", "--m", "2", "--eps", "1e-4"], "pasvs"),
        (["state", "pacsc", "--z", "2", "--m", "1", "--eps", "1e-4"], "pacsc"),
    ],
)
def test_eps_above_the_normalization_tolerance_exits_2(argv, name, capsys):
    # such a cut used to fail its own normalization check and exit 1
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    want = f"error: {name} requires eps < 1e-09, the normalization tolerance; got eps=0.0001\n"
    assert err == want


def test_state_rejects_bad_modulus(capsys):
    code, _, err = run_cli(["state", "pasvs", "--zeta", "1.5", "--m", "1"], capsys)
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------ overlap / norm

def test_overlap_envelope(capsys):
    code, out, _ = run_cli(
        ["overlap", "pasvs", "--xi", "0.2", "--n", "4", "--zeta", "0.4@1.0472", "--m", "2"],
        capsys,
    )
    assert code == 0
    env = json.loads(out)
    assert env["pass"] is True
    assert env["max_error"] < env["parameters"]["tol"]
    assert set(env["results"]) == {"value", "form_spread", "oracle_error"}


@pytest.mark.parametrize("family, shift", [("sv", 0), ("sops", 1)])
def test_unlabelled_overlap_oracle_is_one_cut_pass(family, shift, capsys, monkeypatch, oracle_builds):
    from pastates import fockstate

    passes = []
    real = fockstate._pasvs_cut

    def counted(name, index_shift, labels, eps):
        passes.append((name, index_shift, [(param.zeta, m) for param, m, _ in labels]))
        return real(name, index_shift, labels, eps)

    monkeypatch.setattr(fockstate, "_pasvs_cut", counted)
    code, out, _ = run_cli(["overlap", family, "--xi", "0.9@1", "--zeta", "0.9@-2"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["pass"] is True
    assert env["results"]["oracle_error"] <= 1e-15
    # the vacuum-family vectors |xi, shift> and |zeta, shift>, cut together
    assert [(name, index_shift, [m for _, m in labels]) for name, index_shift, labels in passes] == [
        (family, shift, [shift, shift])
    ]
    assert not oracle_builds


def test_overlap_parity_zero(capsys):
    code, out, _ = run_cli(["overlap", "pasvs", "--xi", "0.2", "--n", "1", "--zeta", "0.3", "--m", "0"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["results"]["value"] == {"re": 0.0, "im": 0.0}


def test_overlap_fails_on_nan_legendre_form(monkeypatch, capsys):
    from pastates import specfun

    monkeypatch.setattr(specfun, "legendre_p_deriv", lambda order, degree, x: math.nan)
    code, out, _ = run_cli(
        ["overlap", "pasvs", "--xi", "0.2", "--zeta", "0.4", "--n", "4", "--m", "2", "--form", "3"],
        capsys,
    )
    assert code == 1
    env = json.loads(out)
    assert env["max_error"] == math.inf and env["pass"] is False


def test_norm_two_form_check(capsys):
    code, out, _ = run_cli(
        ["norm", "pacsc", "--z", "0.5", "--lambda", "2", "--mu", "1", "--m", "2"], capsys
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["form_rel_error"] < 1e-9


@pytest.mark.parametrize("family, zeta, m", [("pasvs", "0.5", 3), ("pasops", "0.9@1", 5)])
def test_norm_squeezed_families_report_the_closed_form(family, zeta, m, capsys):
    from pastates import fockstate, overlap

    code, out, _ = run_cli(["norm", family, "--zeta", zeta, "--m", str(m)], capsys)
    assert code == 0
    env = json.loads(out)
    param = fockstate.SqueezeParam(cli.parse_complex(zeta))
    assert env["results"]["value"] == getattr(overlap, f"{family}_norm")(param, m)
    assert env["results"]["normalization_defect"] < 1e-9
    assert env["pass"] is True


# ------------------------------------------------------------ weights

def test_weights_header_and_positivity(capsys):
    code, out, _ = run_cli(["weights", "pasvs", "--grid", "11"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,h_1,h_2,h_3,h_4,h_5"
    assert len(lines) == 12
    for line in lines[1:]:
        assert all(float(v) > 0 for v in line.split(","))


def test_weights_h2_value_on_grid(capsys):
    code, out, _ = run_cli(
        ["weights", "pasvs", "--m", "2", "--grid", "3", "--y-min", "0.25", "--y-max", "0.75"],
        capsys,
    )
    lines = out.strip().splitlines()
    y, h2 = map(float, lines[-1].split(","))
    assert y == 0.75
    s = math.sqrt(1 - y)
    assert h2 == pytest.approx(math.log((1 + s) / (1 - s)) / (4 * math.pi), abs=1e-10)


def test_weights_h2_monotone_decrease(capsys):
    code, out, _ = run_cli(["weights", "pasvs", "--m", "2", "--grid", "100"], capsys)
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_weights_h1_increasing_from_small_y(capsys):
    code, out, _ = run_cli(["weights", "pasvs", "--m", "1", "--grid", "50"], capsys)
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert vals[0] == pytest.approx(1 / (2 * math.pi), rel=1e-3)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_weights_grid_guard(capsys):
    code, _, err = run_cli(["weights", "pasvs", "--grid", "1"], capsys)
    assert code == 2


def weights_table(family, capsys, *flags):
    code, out, err = run_cli(["weights", family, *flags], capsys)
    lines = out.strip().splitlines()
    return code, lines[0].split(","), [list(map(float, line.split(","))) for line in lines[1:]]


SCALAR_WEIGHTS = {
    "pasvs": complete.weight_h,
    "pasops": complete.weight_h1m,
    "pacsc": lambda m, y: complete.weight_hmum(2, 0, m, y),
}


@pytest.mark.parametrize("family", ["pasvs", "pasops", "pacsc"])
def test_weights_default_table_matches_scalar_views(family, capsys):
    code, header, rows = weights_table(family, capsys)
    assert code == 0
    assert header == ["y", "h_1", "h_2", "h_3", "h_4", "h_5"]
    assert len(rows) == 101
    for y, *values in rows:
        for m, v in enumerate(values, start=1):
            assert v == pytest.approx(SCALAR_WEIGHTS[family](m, y), rel=1e-13, abs=0)


def mpmath_weight(family, m, y, mu=0, lam=2):
    """The density that ``weights`` tabulates, from mpmath's Legendre Q and
    Kummer U at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        if family == "pacsc":
            x = lam * y ** (mpmath.mpf(1) / lam)
            u = mpmath.hyperu(m, 1, x)
            ref = y ** (mpmath.mpf(mu + 1 - lam) / lam) * mpmath.exp(-x) * u
            return float(ref / (mpmath.pi * mpmath.mpf(lam) ** (lam - mu)))
        index = m + 1 if family == "pasops" else m
        if index == 1:
            return float(1 / (2 * mpmath.pi * mpmath.sqrt(1 - y)))
        q = mpmath.legenq(index - 2, 0, 1 / mpmath.sqrt(1 - y), type=3).real
        ref = (1 - y) ** (mpmath.mpf(index - 2) / 2) * q
        return float(ref / (2 * mpmath.pi * mpmath.factorial(index - 2)))


@pytest.mark.parametrize(
    "family,flags",
    [
        ("pasvs", ["--y-min", "1e-6", "--y-max", "0.999999"]),
        ("pasops", ["--y-min", "1e-6", "--y-max", "0.999999"]),
        ("pacsc", ["--y-min", "1e-4", "--y-max", "30"]),
        ("pacsc", ["--mu", "1", "--lambda", "3", "--m", "0,2,7"]),
    ],
)
def test_weights_match_mpmath(family, flags, capsys):
    code, header, rows = weights_table(family, capsys, "--grid", "7", *flags)
    assert code == 0
    mu, lam = (1, 3) if "--mu" in flags else (0, 2)
    for y, *values in rows:
        for name, v in zip(header[1:], values):
            ref = mpmath_weight(family, int(name[2:]), y, mu, lam)
            assert v == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "family,kernel",
    [("pasvs", "legendre_q_table"), ("pasops", "legendre_q_table"), ("pacsc", "kummer_u_table")],
)
def test_weights_makes_one_table_call(family, kernel, capsys, monkeypatch):
    calls = []
    for name in ("legendre_q_table", "kummer_u_table"):
        real = getattr(specfun, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(specfun, name, counted)
    code, _, rows = weights_table(family, capsys)
    assert code == 0 and len(rows) == 101
    assert calls == [kernel]


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["pasvs", "--y-max", "1.5"], "0 < y < 1, got y="),
        (["pasops", "--y-min", "0"], "0 < y < 1, got y=0"),
        (["pacsc", "--y-min", "-1"], "finite y > 0, got y=-1"),
        (["pacsc", "--y-max", "inf"], "--y-max"),
        (["pasvs", "--y-max", "nan"], "--y-max"),
        (["pacsc", "--y-min=-inf"], "--y-min"),
        (["pasvs", "--m", "0"], "pasvs measure requires m >= 1"),
        (["pasops", "--m", "-1"], "pasops measure requires m >= 0"),
        (["pacsc", "--mu", "2", "--lambda", "2"], "pacsc requires lam >= 1 and 0 <= mu < lam"),
        # both ends are finite, but the span or the grid's steps are not
        (["pacsc", "--y-min=-1e308", "--y-max", "1e308"], "--y-min=-1e+308 --y-max=1e+308"),
        (["pacsc", "--y-max", "1e308", "--grid", "5"], "--y-min=0.01 --y-max=1e+308"),
    ],
)
def test_weights_usage_errors_name_y_or_flag(argv, needle, capsys):
    code, out, err = run_cli(["weights", *argv], capsys)
    assert code == 2
    assert out == ""
    assert needle in err and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, last",
    [
        (["pasvs", "--y-min", "0.9", "--y-max", "0.1", "--grid", "3"], "0.10000000000000001"),
        (["pasvs", "--grid", "11"], "0.99990000000000001"),
        (["pasops", "--grid", "100"], "0.99990000000000001"),
    ],
)
def test_weights_grid_ends_at_y_max(argv, last, capsys):
    code, out, _ = run_cli(["weights", *argv], capsys)
    assert code == 0
    assert out.splitlines()[-1].split(",")[0] == last


def test_weights_pacsc_at_lambda_200_match_mpmath(capsys):
    # pi lam^(lam-mu) is beyond the float range at lam = 200; the densities
    # are not: 1.556e-166 at y = 1e-300
    flags = ["--lambda", "200", "--m", "1", "--y-min", "1e-300", "--y-max", "1e-299", "--grid", "3"]
    code, _, rows = weights_table("pacsc", capsys, *flags)
    assert code == 0
    assert rows[0][1] == pytest.approx(1.556e-166, rel=1e-3)
    for y, value in rows:
        assert value == pytest.approx(mpmath_weight("pacsc", 1, y, 0, 200), rel=1e-13, abs=0)


def test_weights_pacsc_at_lambda_200_underflow_names_y(capsys):
    # on the default grid the densities underflow to 0
    argv = ["weights", "pacsc", "--lambda", "200", "--m", "1", "--grid", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out.splitlines()[-1] == "4,0"
    assert err == "error: h_1 at y=0.01 is 0, not positive and finite\n"


def test_weights_csv_nonpositive_value_names_y_and_column(capsys):
    # e^(-2000) underflows: the table is written, and the first value that
    # is not positive and finite is named on stderr
    argv = ["weights", "pacsc", "--m", "1", "--y-max", "1e6", "--grid", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out.splitlines()[-1] == "1000000,0"
    assert err == "error: h_1 at y=500000.005 is 0, not positive and finite\n"


def test_weights_json_nonpositive_value_fails_envelope(capsys):
    argv = ["weights", "pacsc", "--m", "1", "--y-max", "1e6", "--grid", "3", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    env = json.loads(out)
    assert code == 1 and err == ""
    assert env["pass"] is False and env["max_error"] == math.inf


def test_weights_subnormal_density_names_y_and_column(capsys):
    # 4.0e-313 is below the normal float range: the table is written, and
    # the value is named on stderr as a failure, not printed as a density
    argv = ["weights", "pasvs", "--m", "140", "--y-min", "0.5", "--y-max", "0.501", "--grid", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out.splitlines()[1] == "0.5,4.009894931296623e-313"
    assert err == "error: h_140 at y=0.5 is 4.009894931296623e-313, below the normal float range\n"
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    env = json.loads(out)
    assert code == 1 and err == ""
    assert env["pass"] is False and env["max_error"] == math.inf


# ------------------------------------------------------------ flags read

# the flags that each family or suite reads; moments and unity read the
# flags of their --family
READS = {
    ("state", "pasvs"): "zeta m eps format out",
    ("state", "pasops"): "zeta m eps format out",
    ("state", "sns"): "zeta m eps format out",
    ("state", "csc"): "z mu lambda eps format out",
    ("state", "pacsc"): "z m mu lambda eps format out",
    ("overlap", "pasvs"): "xi zeta n m form tol out",
    ("overlap", "pasops"): "xi zeta n m form tol out",
    ("overlap", "sv"): "xi zeta tol out",
    ("overlap", "sops"): "xi zeta tol out",
    ("norm", "pasvs"): "zeta m tol out",
    ("norm", "pasops"): "zeta m tol out",
    ("norm", "csc"): "z mu lambda tol out",
    ("norm", "pacsc"): "z m mu lambda tol out",
    ("weights", "pasvs"): "m grid y-min y-max format out",
    ("weights", "pasops"): "m grid y-min y-max format out",
    ("weights", "pacsc"): "m mu lambda grid y-min y-max format out",
    ("verify", "moments --family pasvs"): "family m kmax tol out",
    ("verify", "moments --family pasops"): "family m kmax tol out",
    ("verify", "moments --family pacsc"): "family m mu lambda kmax tol out",
    ("verify", "unity --family pasvs"): "family m dim tol out",
    ("verify", "unity --family pasops"): "family m dim tol out",
    ("verify", "unity --family pacsc"): "family m mu lambda dim tol out",
    ("verify", "discrete"): "zeta cutoffs dim tol out",
    ("verify", "carleman"): "m k limit out",
    ("verify", "overlaps"): "family max-n moduli tol out",
    ("verify", "all"): "out",
}
# the flags of each command's parser: those that some family or suite reads
COMMAND_FLAGS = {
    "state": "zeta z m mu lambda eps format out",
    "overlap": "xi zeta n m form tol out",
    "norm": "zeta z m mu lambda tol out",
    "weights": "m mu lambda grid y-min y-max format out",
    "verify": "family zeta m mu lambda kmax dim cutoffs k limit max-n moduli tol out",
}
# a value of each flag at which every family or suite that reads it passes
VALUES = {
    "zeta": "0.3", "z": "0.5", "xi": "0.2", "n": "2", "m": "2", "mu": "1", "lambda": "3",
    "eps": "1e-15", "form": "2", "grid": "5", "y-min": "0.2", "y-max": "0.6", "kmax": "3",
    "dim": "4", "cutoffs": "10,20", "k": "10,100,1000", "max-n": "2", "moduli": "0.2",
    "tol": "1e-6", "limit": "0.05", "format": "json", "family": "pasops",
}


def base_argv(command, key):
    """The command line of a family or suite with only its required flags."""
    suite, _, family = key.partition(" --family ")
    if family:
        indices = ["--mu", "0", "--lambda", "2"] if family == "pacsc" else []
        return [command, suite, "--family", family, *indices]
    if command == "overlap":
        return [command, key, "--xi", "0.2", "--zeta", "0.3"]
    if command in ("state", "norm"):
        return [command, key, *(["--z", "0.5"] if key in ("csc", "pacsc") else ["--zeta", "0.3"])]
    return [command, key]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_parser_declares_the_flags_its_families_read(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for action in sub.choices[command]._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert options == {f"--{flag}" for flag in COMMAND_FLAGS[command].split()}


@pytest.mark.parametrize(
    "command, key, flag",
    [
        pytest.param(command, key, flag, id=f"{command}-{key.replace(' --family ', '-')}-{flag}")
        for (command, key), reads in READS.items()
        for flag in COMMAND_FLAGS[command].split()
    ],
)
def test_every_flag_is_read_or_a_usage_error(command, key, flag, capsys, tmp_path):
    argv = base_argv(command, key)
    if f"--{flag}" not in argv:
        argv += [f"--{flag}", str(tmp_path / "out") if flag == "out" else VALUES[flag]]
    code, out, err = run_cli(argv, capsys)
    if flag in READS[command, key].split():
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {command} {key} does not read --{flag}\n"


@pytest.mark.parametrize(
    "argv, where, flag",
    [
        # the commands of ROADMAP item 8, which used to run a different check
        ("verify discrete --family pacsc", "verify discrete", "--family"),
        ("verify discrete --family pasops", "verify discrete", "--family"),
        ("verify discrete --m 5 --lambda 3", "verify discrete", "--m"),
        ("verify carleman --family pacsc", "verify carleman", "--family"),
        (
            "verify moments --family pasvs --m 2 --zeta 0.5 --cutoffs 3",
            "verify moments --family pasvs",
            "--zeta",
        ),
        ("verify all --family pacsc --m 9", "verify all", "--family"),
        ("verify discrete --family pasops --cutoffs 3 --dim 4", "verify discrete", "--family"),
        ("verify carleman --family pacsc --m 2 --k 10,100", "verify carleman", "--family"),
        ("overlap sv --xi 0.2 --zeta 0.3 --n 5 --form 2", "overlap sv", "--n"),
        ("state csc --z 1 --m 7 --zeta 0.5", "state csc", "--zeta"),
        ("norm pasvs --zeta 0.3 --z 5 --lambda 9", "norm pasvs", "--z"),
        ("verify unity --family pasvs --mu 1 --lambda 2", "verify unity --family pasvs", "--mu"),
        ("verify all --tol 5", "verify all", "--tol"),
    ],
)
def test_foreign_flags_name_the_flag_and_the_family_or_suite(argv, where, flag, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where} does not read {flag}")


def test_a_single_index_flag_rejects_a_list(capsys):
    code, out, err = run_cli(["state", "pasvs", "--zeta", "0.3", "--m", "1,2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: state pasvs reads one --m, not a list of 2\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["overlap", "pasvs", "--xi", "0.2", "--zeta", "0.3"], "--tol"),
        (["norm", "pasvs", "--zeta", "0.3", "--m", "2"], "--tol"),
        (["verify", "moments", "--m", "2", "--kmax", "2"], "--tol"),
        (["verify", "carleman", "--m", "2", "--k", "10,100"], "--limit"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_threshold_that_cannot_both_pass_and_fail_exits_2(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {flag}: must be finite and > 0, got {value}" in captured.err


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (["state", "pasvs", "--zeta", "0.3", "--format", "json"], "family zeta m eps"),
        (["state", "csc", "--z", "0.5", "--format", "json"], "family z mu lambda eps"),
        (["state", "pacsc", "--z", "0.5", "--format", "json"], "family z m mu lambda eps"),
        (["overlap", "pasvs", "--xi", "0.2", "--zeta", "0.3"], "family xi zeta n m form tol"),
        (["overlap", "sops", "--xi", "0.2", "--zeta", "0.3"], "family xi zeta tol"),
        (["norm", "pasops", "--zeta", "0.3"], "family zeta m tol"),
        (["norm", "csc", "--z", "0.5"], "family z mu lambda tol"),
        (["norm", "pacsc", "--z", "0.5"], "family z m mu lambda tol"),
        (["weights", "pasvs", "--format", "json"], "family m grid y_min y_max"),
        (["weights", "pacsc", "--format", "json"], "family m mu lambda grid y_min y_max"),
        (["verify", "moments"], "suite family m kmax tol"),
        (
            ["verify", "unity", "--family", "pacsc", "--mu", "0", "--lambda", "2"],
            "suite family m mu lambda dim tol",
        ),
        (["verify", "discrete"], "suite zeta cutoffs dim tol"),
        (["verify", "carleman"], "suite m k limit"),
        (["verify", "overlaps"], "suite family max_n moduli tol"),
        (["verify", "all"], "suite"),
    ],
)
def test_envelope_parameters_are_the_flags_read(argv, parameters, capsys, tmp_path):
    out = tmp_path / "env.json"
    code, _, _ = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 0
    env = json.loads(out.read_text())
    # tol is the threshold that max_error is judged against
    assert set(env["parameters"]) == {*parameters.split(), "tol"}


def test_envelope_parameters_hold_the_values_used(capsys):
    code, out, _ = run_cli(["weights", "pacsc", "--m", "2", "--grid", "3", "--format", "json"], capsys)
    assert code == 0
    want = {"family": "pacsc", "m": [2], "mu": 0, "lambda": 2, "grid": 3, "y_min": 0.01, "y_max": 4.0}
    assert json.loads(out)["parameters"] == {**want, "tol": 1.0}


# ------------------------------------------------------------ verify

def test_verify_moments_pass(capsys):
    code, out, _ = run_cli(
        ["verify", "moments", "--family", "pasvs", "--m", "3", "--kmax", "8", "--tol", "1e-8"],
        capsys,
    )
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_moments_fails_at_absurd_tolerance(capsys):
    code, out, _ = run_cli(
        ["verify", "moments", "--family", "pasvs", "--m", "3", "--kmax", "2", "--tol", "1e-20"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_carleman(capsys):
    code, out, _ = run_cli(["verify", "carleman", "--m", "2", "--k", "10,100,1000"], capsys)
    assert code == 0
    assert "verify carleman: PASS" in out


def test_verify_discrete(capsys):
    code, out, _ = run_cli(
        ["verify", "discrete", "--zeta", "0.3", "--cutoffs", "10,20,40", "--dim", "8", "--tol", "1e-9"],
        capsys,
    )
    assert code == 0
    assert "strictly_decreasing=True" in out


def test_verify_discrete_builds_each_closed_matrix_once(capsys, monkeypatch, oracle_builds):
    pairs = []
    real = cli.complete._pair_matrix

    def counted(param, top, coefficients):
        pairs.append((top, coefficients))
        return real(param, top, coefficients)

    monkeypatch.setattr(cli.complete, "_pair_matrix", counted)
    code, _, _ = run_cli(["verify", "discrete", "--cutoffs", "10,20,40", "--dim", "8"], capsys)
    assert code == 0
    # on 8 Fock states every cutoff keeps the pairs up to top 7, so the three
    # closed matrices are one
    assert pairs == [(7, "closed"), (7, "series")]
    # one block |zeta, 0..7> for both routes, and the parts |zeta, 0..40> of
    # every squeezed number state up to the largest cutoff
    assert oracle_builds == [("columns", 0.3, 7), ("columns", 0.3, 40)]


def test_verify_discrete_fails_on_scaled_number_state_weights(capsys, monkeypatch):
    # a weight error of 1e-6 in one squeezed number state fails its
    # normalization check, which names the state
    real = cli.fockstate._expansion_matrix

    def scaled(param, rows, cols, expand):
        out = real(param, rows, cols, expand)
        if expand == "sns":
            out[5] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(cli.fockstate, "_expansion_matrix", scaled)
    code, out, err = run_cli(["verify", "discrete"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(
        "error: ArithmeticError: sns zeta=(0.3+0j) m=5: closed-form normalization check failed"
    )


def test_verify_discrete_defaults_pass(capsys):
    code, out, _ = run_cli(["verify", "discrete"], capsys)
    assert code == 0
    assert "[PASS] discrete cutoff=10:" in out and out.endswith("verify discrete: PASS\n")


def test_verify_discrete_fails_when_the_cutoff_misses_the_block(capsys):
    # the pair basis at cutoff 10 does not cover a 12-state block
    code, out, _ = run_cli(["verify", "discrete", "--cutoffs", "10,20,40", "--dim", "12"], capsys)
    assert code == 1
    assert "[FAIL] discrete cutoff=10: number_basis_deviation=" in out
    assert "pair_basis_deviation=2.58560049842068" in out


def test_verify_discrete_fails_below_rounding(capsys):
    code, out, _ = run_cli(
        ["verify", "discrete", "--zeta", "0.3", "--cutoffs", "10,20,40", "--dim", "8", "--tol", "1e-16"],
        capsys,
    )
    assert code == 1
    assert "[FAIL] discrete cutoff=10:" in out


def test_verify_carleman_fails_on_nan_ratio(capsys, monkeypatch):
    monkeypatch.setattr(cli.complete, "carleman_sequence", lambda m, ks: [(k, math.nan) for k in ks])
    code, out, _ = run_cli(["verify", "carleman", "--m", "2", "--k", "10,100,1000"], capsys)
    assert code == 1
    assert "[FAIL] carleman m=2 k=10:" in out


def test_verify_unity_single(capsys):
    code, out, _ = run_cli(
        ["verify", "unity", "--family", "pacsc", "--m", "1", "--mu", "1", "--lambda", "2",
         "--dim", "8", "--tol", "1e-6"],
        capsys,
    )
    assert code == 0
    # the matrix is diagonal by construction, so only its deviation is reported
    assert out.splitlines()[0].startswith(
        "[PASS] unity pacsc m=1 mu=1 lambda=2 dim=8: identity_deviation="
    )
    assert "max_offdiagonal" not in out


def test_verify_unity_has_no_offtol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "unity", "--offtol", "1e-10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --offtol" in capsys.readouterr().err


def test_verify_pacsc_requires_indices(capsys):
    code, _, err = run_cli(["verify", "moments", "--family", "pacsc", "--m", "1"], capsys)
    assert code == 2
    assert "--mu" in err


def test_verify_moments_past_the_weight_factorial_keeps_its_reference_error(capsys):
    # the weight h_173 is out of float range, but the moment check stops
    # first, at its reference moment
    code, out, err = run_cli(["verify", "moments", "--family", "pasvs", "--m", "173"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: moment_check: k_max=10 (m=173) needs the reference moment")


def test_verify_overlaps_with_zero_labels_only(capsys):
    # every w = conj(xi) zeta is 0, so each Gauss series is its first term
    code, out, _ = run_cli(
        ["verify", "overlaps", "--family", "pasvs", "--moduli", "0", "--max-n", "3"], capsys
    )
    assert code == 0
    assert "worst_deviation=0\n" in out


def test_verify_moments_reference_overflow_exits_2(capsys):
    code, out, err = run_cli(
        ["verify", "moments", "--family", "pacsc", "--m", "1", "--mu", "0", "--lambda", "1",
         "--kmax", "200"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: moment_check: k_max=200")
    assert "Traceback" not in err and "OverflowError" not in err


def run_verify_all(capsys, tmp_path) -> list[dict]:
    out = tmp_path / "all.json"
    code, stdout, _ = run_cli(["verify", "all", "--out", str(out)], capsys)
    assert code == 0 and stdout.endswith("verify all: PASS\n")
    return json.loads(out.read_text())["results"]


def test_verify_all_makes_one_radial_pass_per_kind(capsys, tmp_path, monkeypatch):
    passes = []
    for rule in ("exp_sinh_moments", "tanh_sinh_moments"):
        real = getattr(cli.complete, rule)

        def counted(*args, _real=real, _rule=rule, **kwargs):
            results = _real(*args, **kwargs)
            # the pair that converges last reports every node of the pass
            nodes = max(r.nodes_used for r in results)
            passes.append((_rule, sorted(set(kwargs["columns"])), nodes))
            return results

        monkeypatch.setattr(cli.complete, rule, counted)
    tables = {"legendre_q_table": [], "kummer_u_table": []}
    for name, calls in tables.items():
        real = getattr(cli.complete.specfun, name)

        def recorded(top, x, *args, _real=real, _calls=calls):
            _calls.append((top, len(x)))
            return _real(top, x, *args)

        monkeypatch.setattr(cli.complete.specfun, name, recorded)
    run_verify_all(capsys, tmp_path)
    # one pass for h_m at vacuum indices 1..6 and one for e^-x U(m,1,x) at
    # m = 0..4, each with a column per index
    assert [(rule, columns) for rule, columns, _ in passes] == [
        ("tanh_sinh_moments", [0, 1, 2, 3, 4, 5]),
        ("exp_sinh_moments", [0, 1, 2, 3, 4]),
    ]
    # one Legendre table, Q_0..Q_4, per node of the vacuum pass, and one U
    # recurrence per node of the laplace pass, for every m at once
    for (_, _, nodes), calls in zip(passes, tables.values()):
        assert {top for top, _ in calls} == {4}
        assert sum(n for _, n in calls) == nodes


def test_verify_all_radial_lines_match_single_suites(capsys, tmp_path):
    battery = run_verify_all(capsys, tmp_path)
    alone = []
    for i, entry in enumerate(cli._BATTERY):
        # a new name per suite: replacing an existing file can cost a flush
        single = tmp_path / f"single-{i}.json"
        argv = ["verify", entry.suite, "--out", str(single)]
        # every flag the suite reads, its threshold flag among them, as used
        for key, value in entry.parameters.items():
            if key != "suite":
                argv += ["--" + key.replace("_", "-"), str(value)]
        assert ("--limit" in argv) == (entry.suite == "carleman") != ("--tol" in argv)
        assert run_cli(argv, capsys)[0] == 0
        alone += json.loads(single.read_text())["results"]
    radial = 6 * 11 + 6 * 11 + 20 * 9 + 12
    assert len(battery) == len(alone) == radial + 4 + 4 * 5 + 2
    for got, want in zip(battery, alone):
        assert got["check"] == want["check"] and got["pass"]
        if "lhs" in want:
            assert got["rhs"] == want["rhs"]
            assert abs(got["lhs"] - want["lhs"]) <= 1e-12 * abs(want["lhs"])
        elif "identity_deviation" in want:
            assert abs(got["identity_deviation"] - want["identity_deviation"]) <= 1e-12
        else:
            # discrete, carleman and overlaps lines are computed the same way alone
            assert got == want


# ------------------------------------------------------------ determinism

def test_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            ["state", "pasvs", "--zeta", "0.5@0.3", "--m", "2", "--out", str(path)], capsys
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    for path in (ja, jb):
        run_cli(
            ["verify", "moments", "--family", "pasvs", "--m", "2", "--kmax", "3",
             "--tol", "1e-8", "--out", str(path)],
            capsys,
        )
    assert ja.read_bytes() == jb.read_bytes()


def test_envelope_json_writes_complex_values_and_numpy_integers(capsys):
    env = cli._envelope("x", {"n": np.int64(3)}, {"value": [0.5 - 2j]}, 0.0, 1.0)
    assert cli._emit_envelope(env, None) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["parameters"] == {"n": 3, "tol": 1.0}
    assert got["results"] == {"value": [{"re": 0.5, "im": -2.0}]}


def test_envelope_records_version_and_tolerance(tmp_path, capsys):
    out = tmp_path / "env.json"
    run_cli(
        ["verify", "moments", "--family", "pasvs", "--m", "1", "--kmax", "2",
         "--tol", "1e-8", "--out", str(out)],
        capsys,
    )
    env = json.loads(out.read_text())
    from pastates import __version__

    assert env["tool_version"] == __version__
    assert env["parameters"]["tol"] == 1e-8
    assert env["pass"] == (env["max_error"] < env["parameters"]["tol"])


@pytest.mark.parametrize(
    "argv,names",
    [
        pytest.param(
            ["norm", "pasvs", "--zeta", "0.5", "--m", "200"], ("pasvs_norm", "m=200"), id="norm"
        ),
        # pasops is built from pasvs at m + 1, but keeps its own name and index
        pytest.param(
            ["norm", "pasops", "--zeta", "0.5", "--m", "170"],
            ("pasops_norm", "zeta=", "m=170"),
            id="norm-pasops",
        ),
        pytest.param(
            ["norm", "pacsc", "--z", "0.8", "--lambda", "2", "--mu", "0", "--m", "200"],
            ("pacsc_norm", "z=", "lam=2", "mu=0", "m=200"),
            id="norm-pacsc",
        ),
        pytest.param(["norm", "csc", "--z", "1000", "--lambda", "2"], ("z=",), id="norm-csc"),
        # y = |z|^2 / lam^lam overflows in CircleParam.y before any kernel runs
        pytest.param(
            ["norm", "csc", "--z", "1e155", "--lambda", "2"], ("CircleParam", "z="), id="norm-csc-y2"
        ),
        pytest.param(
            ["norm", "csc", "--z", "1e200", "--lambda", "1"], ("CircleParam", "z="), id="norm-csc-y1"
        ),
        # h_i holds (i-2)!, which overflows from vacuum-family index 173 on;
        # pasops at m is that family at m + 1, but keeps its own name and m
        pytest.param(["weights", "pasvs", "--m", "173"], ("pasvs weight", "m=173"), id="weights"),
        pytest.param(
            ["weights", "pasvs", "--m", "1,173"], ("pasvs weight", "m=173"), id="weights-list"
        ),
        pytest.param(
            ["weights", "pasops", "--m", "172"], ("pasops weight", "m=172"), id="weights-pasops"
        ),
    ],
)
def test_numerical_overflow_exits_1_without_traceback(argv, names, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: OverflowError")
    assert all(name in err for name in names)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["state", "pasvs", "--zeta", "0.5", "--m", "200"], id="state"),
        # the norm is inf here, below the m at which m! overflows
        pytest.param(["state", "pasvs", "--zeta", "0.5", "--m", "170"], id="state-inf-norm"),
        pytest.param(["state", "pasops", "--zeta", "0.5", "--m", "170"], id="state-pasops"),
    ],
)
def test_states_past_the_float_range_of_their_norm_exit_0(argv, capsys):
    # the norm is beyond the float range, the unit vector is not
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    preamble, header, *rows = out.splitlines()
    assert header == "n,re_c,im_c,abs2"
    tail = float(preamble.split("=")[1])
    assert abs(sum(float(row.split(",")[3]) for row in rows) + tail - 1.0) <= 1e-9


def test_failed_normalization_check_exits_1(capsys, monkeypatch):
    # a closed-form norm off by a factor of 2 must fail the constructor's check
    from pastates import overlap

    real = overlap._pasvs_log_norms
    monkeypatch.setattr(
        overlap, "_pasvs_log_norms", lambda zeta, top: np.add(real(zeta, top), math.log(2.0))
    )
    code, _, err = run_cli(["state", "pasvs", "--zeta", "0.5", "--m", "2"], capsys)
    assert code == 1
    assert "normalization check failed" in err


@pytest.mark.parametrize("command", ["norm", "state"])
def test_circle_label_with_lam_lam_beyond_the_float_range_exits_0(command, capsys):
    # y = 1 / 200^200 underflows to 0, though 200^200 itself overflows
    code, out, err = run_cli([command, "csc", "--z", "1", "--lambda", "200"], capsys)
    assert code == 0 and err == "" and out


def test_pasops_beyond_the_term_cap_names_its_own_index(capsys):
    code, out, err = run_cli(["state", "pasops", "--zeta", "0.99999", "--m", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: pasops zeta=(0.99999+0j) m=0 eps=1e-14: state truncation")


@pytest.mark.parametrize("command", ["state", "norm"])
@pytest.mark.parametrize("family, extra", [("csc", []), ("pacsc", ["--m", "3"])])
def test_circle_series_overflow_names_the_state_and_y(command, family, extra, capsys):
    code, out, err = run_cli(
        [command, family, "--z", "1000", "--lambda", "2", "--mu", "1", *extra], capsys
    )
    assert code == 1 and out == ""
    name = family if command == "state" else f"{family}_norm"
    label = f"{name} z=(1000+0j) lam=2 mu=1" + (" m=3" if extra else "")
    # y = |z|^2 / lam^lam is the argument of the series that overflows
    assert err == f"error: OverflowError: {label}: norm series overflows at y=249999.99999999983\n"
    assert "generalized_pfq" not in err


def test_pasvs_beyond_the_term_cap_names_its_label(capsys):
    code, out, err = run_cli(["state", "pasvs", "--zeta", "0.99999", "--m", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: pasvs zeta=(0.99999+0j) m=0 eps=1e-14: state truncation")


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_non_finite_circle_label_exits_2(z, capsys):
    code, out, err = run_cli(["state", "csc", "--z", z, "--lambda", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "CircleParam" in err and "z=" in err


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_file_gets_the_mode_of_a_plain_open(umask, mode, tmp_path, capsys):
    out = tmp_path / "state.csv"
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli(
            ["state", "pasvs", "--zeta", "0.5", "--m", "2", "--out", str(out)], capsys
        )
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_radial_nonconvergence_exits_1(monkeypatch, capsys):
    from pastates import complete

    monkeypatch.setattr(complete, "_QUAD_MAX_LEVEL", 2)
    code, out, err = run_cli(["verify", "unity", "--family", "pasvs", "--m", "2", "--dim", "4"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ArithmeticError: unity_resolution_matrix")
    assert "index sum 0" in err and "nodes" in err


def test_verify_overlaps_builds_each_oracle_vector_once(oracle_builds, capsys):
    code, out, _ = run_cli(
        ["verify", "overlaps", "--family", "pasvs", "--max-n", "3", "--moduli", "0.2,0.4"], capsys
    )
    assert code == 0
    assert "(n,m <= 3, 192 points)" in out
    # 22 labels, 2 moduli x 11 distinct phases, whose moduli are 4 distinct
    # floats: one real table of indices 0..3 per float
    moduli = {abs(p.zeta) for pair in cli._label_pairs("0.2,0.4") for p in pair}
    assert len(moduli) == 4
    assert len(oracle_builds) == 4
    assert set(oracle_builds) == {("columns", modulus, 3) for modulus in moduli}


def test_verify_all_catches_a_conjugated_squeeze_phase(capsys, monkeypatch):
    # zeta/|zeta| is formed in one place, the power table of every squeeze
    # phase; conjugated there, the overlap grids of verify all fail
    real = cli.fockstate._phase_powers
    monkeypatch.setattr(
        cli.fockstate, "_phase_powers", lambda zeta, count: real(zeta.conjugate(), count)
    )
    code, out, _ = run_cli(["verify", "all"], capsys)
    assert code == 1
    failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        f"[FAIL] overlaps {family} grid (n,m <= 8, 1800 points)" for family in ("pasvs", "pasops")
    ]


def test_verify_all_builds_each_overlap_label_once(oracle_builds, capsys, tmp_path):
    lines = run_verify_all(capsys, tmp_path)
    assert [line["check"] for line in lines if line["check"].startswith("overlaps")] == [
        f"overlaps {family} grid (n,m <= 8, 1800 points)" for family in ("pasvs", "pasops")
    ]
    # both grids share one real table of indices 0..9 per distinct modulus:
    # 33 labels, 3 moduli x 11 distinct phases, on 6 distinct floats; the
    # discrete suite builds one zeta = 0.3 block and one table of the parts
    # of its squeezed number states
    moduli = {abs(p.zeta) for pair in cli._label_pairs("0.2,0.4,0.6") for p in pair}
    assert len(moduli) == 6
    assert len(oracle_builds) == 8
    assert set(oracle_builds[:6]) == {("columns", modulus, 9) for modulus in moduli}
    assert oracle_builds[6:] == [("columns", 0.3, 7), ("columns", 0.3, 40)]


@pytest.mark.parametrize(
    "argv",
    [["discrete", "--cutoffs", ","], ["carleman", "--k", ","], ["overlaps", "--moduli", ","]],
)
def test_verify_rejects_empty_lists(argv, capsys):
    code, out, err = run_cli(["verify", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty")


def test_verify_overlaps_rejects_unknown_family(capsys):
    code, _, err = run_cli(["verify", "overlaps", "--family", "pacsc", "--max-n", "1"], capsys)
    assert code == 2
    assert "unknown overlap family" in err


def test_console_entry_point_runs(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "pastates.cli", "state", "pasvs", "--zeta", "0", "--m", "1"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "n,re_c,im_c,abs2"


def test_usage_error_exit_code_from_argparse(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "pastates.cli", "state", "unknown-family"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all"],
        # about 370 kB of coefficients, more than a pipe holds
        ["state", "pasvs", "--zeta", "0.99", "--m", "30", "--eps", "1e-30"],
    ],
)
def test_closed_stdout_pipe_exits_without_traceback(argv, cli_env):
    # as `pastates ... | head -1`: read one line, then close the pipe while
    # the command may still be writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "pastates.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # 1 where a write met the closed pipe, 0 where every write came first
    assert proc.wait() in (0, 1)
    assert err == b""
