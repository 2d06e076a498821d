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
    """Record every oracle-vector build: ("columns", label, top) for each
    ``fockstate._pasvs_columns`` call and ("pasvs", label, m) for each scalar
    ``fockstate.pasvs`` call."""
    from pastates import fockstate

    calls = []
    for name, kind in (("_pasvs_columns", "columns"), ("pasvs", "pasvs")):
        real = getattr(fockstate, name)

        def counted(param, index, *args, _kind=kind, _real=real, **kwargs):
            calls.append((_kind, param.zeta, index))
            return _real(param, index, *args, **kwargs)

        monkeypatch.setattr(fockstate, name, counted)
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
