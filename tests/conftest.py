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
