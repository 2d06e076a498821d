import os

import pytest

import pastates


@pytest.fixture
def cli_env():
    """Environment for a child interpreter that imports pastates from the
    same source tree as this one, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pastates.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def oracle_builds(monkeypatch):
    """Record every oracle-vector build: ("columns", |label|, top) for each
    real table of a ``fockstate._pasvs_columns`` call, one per distinct
    modulus of its labels, and ("pasvs", label, m) for each scalar
    ``fockstate.pasvs`` call."""
    from pastates import fockstate

    calls = []
    real_columns, real_pasvs = fockstate._pasvs_columns, fockstate.pasvs

    def columns(params, top, *args, **kwargs):
        moduli = dict.fromkeys(abs(param.zeta) for param in params)
        calls.extend(("columns", modulus, top) for modulus in moduli)
        return real_columns(params, top, *args, **kwargs)

    def pasvs(param, m, *args, **kwargs):
        calls.append(("pasvs", param.zeta, m))
        return real_pasvs(param, m, *args, **kwargs)

    monkeypatch.setattr(fockstate, "_pasvs_columns", columns)
    monkeypatch.setattr(fockstate, "pasvs", pasvs)
    return calls


@pytest.fixture
def expansion_builds(monkeypatch):
    """Record every expansion-matrix build: (zeta, rows, columns, direction)
    for each ``fockstate._expansion_matrix`` call."""
    from pastates import fockstate

    calls = []
    real = fockstate._expansion_matrix

    def counted(param, rows, cols, expand):
        calls.append((param.zeta, len(rows), len(cols), expand))
        return real(param, rows, cols, expand)

    monkeypatch.setattr(fockstate, "_expansion_matrix", counted)
    return calls
