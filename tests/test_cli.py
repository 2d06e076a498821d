import json
import math
import subprocess
import sys

import pytest

from pastates import cli


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


def test_state_requires_label(capsys):
    code, _, err = run_cli(["state", "pasvs", "--m", "1"], capsys)
    assert code == 2
    assert "requires --zeta" in err


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


def test_overlap_parity_zero(capsys):
    code, out, _ = run_cli(["overlap", "pasvs", "--xi", "0.2", "--n", "1", "--zeta", "0.3", "--m", "0"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["results"]["value"] == {"re": 0.0, "im": 0.0}


def test_norm_two_form_check(capsys):
    code, out, _ = run_cli(
        ["norm", "pacsc", "--z", "0.5", "--lambda", "2", "--mu", "1", "--m", "2"], capsys
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["form_rel_error"] < 1e-9


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


def test_verify_pacsc_requires_indices(capsys):
    code, _, err = run_cli(["verify", "moments", "--family", "pacsc", "--m", "1"], capsys)
    assert code == 2
    assert "--mu" in err


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


@pytest.mark.parametrize("command", ["state", "norm"])
def test_numerical_overflow_exits_1_without_traceback(command, capsys):
    code, out, err = run_cli([command, "pasvs", "--zeta", "0.5", "--m", "200"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: OverflowError")
    assert "Traceback" not in err


def test_failed_normalization_check_exits_1(capsys):
    code, _, err = run_cli(["state", "pasvs", "--zeta", "0.5", "--m", "170"], capsys)
    assert code == 1
    assert "normalization check failed" in err


def test_verify_overlaps_builds_each_oracle_vector_once(monkeypatch, capsys):
    from pastates import fockstate

    keys = []
    real = fockstate.pasvs

    def counted(param, m, *args, **kwargs):
        keys.append((param.zeta, m))
        return real(param, m, *args, **kwargs)

    monkeypatch.setattr(fockstate, "pasvs", counted)
    code, out, _ = run_cli(
        ["verify", "overlaps", "--family", "pasvs", "--max-n", "3", "--moduli", "0.2,0.4"], capsys
    )
    assert code == 0
    assert "(n,m <= 3, 192 points)" in out
    assert len(keys) == len(set(keys))
    # 2 moduli x 11 distinct phases, indices 0..3
    assert len(keys) == 88


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
