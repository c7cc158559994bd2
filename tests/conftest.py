import os
import subprocess
import sys

import pytest

import covlat
from covlat import BaseSet, ConcreteSpace, Cover, cover_from_concrete_space

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# The directory holding the covlat package these tests import.
COVLAT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(covlat.__file__)))


def cli_env() -> dict:
    """Environment for a CLI child: the tested covlat first, default caps.

    The absolute COVLAT_ROOT goes before any inherited PYTHONPATH entries,
    so the child imports the same sources whatever its working directory
    and whatever other copy of covlat is installed.
    """
    env = dict(os.environ)
    env.pop("COVLAT_MAX_BASE", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([COVLAT_ROOT, inherited] if inherited else [COVLAT_ROOT])
    return env


def run_cli(*args, cwd=DATA, env=None):
    """Run `python -m covlat.cli ARGS` in cwd and capture its text output.

    `env` holds variables to set on top of `cli_env()`.
    """
    return subprocess.run(
        [sys.executable, "-m", "covlat.cli", *args],
        cwd=cwd,
        env={**cli_env(), **(env or {})},
        capture_output=True,
        text=True,
    )


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def random_space_cover(rng, size, points=4):
    """The cover induced by a seeded concrete space on `size` observables."""
    base = BaseSet([chr(ord("a") + i) for i in range(size)])
    names = [f"p{i}" for i in range(points)]
    forcing = [(p, a) for p in names for a in base.elements if rng.random() < 0.4]
    return cover_from_concrete_space(ConcreteSpace(names, base, forcing))


def assert_same_verdict(fast, slow):
    """A cut agrees with its full scan and examines no more cases."""
    assert fast.passed == slow.passed
    assert fast.witness == slow.witness
    assert fast.checked <= slow.checked


@pytest.fixture
def m3_cover():
    base = BaseSet(["a", "b", "c"])
    return Cover.from_axiom_names(
        base, [("a", ["b", "c"]), ("b", ["a", "c"]), ("c", ["a", "b"])]
    )


@pytest.fixture
def free2():
    return Cover.from_axiom_names(BaseSet(["a", "b"]), [])


@pytest.fixture
def chain2():
    # a is covered by {b}: saturated sets form a 3-chain
    return Cover.from_axiom_names(BaseSet(["a", "b"]), [("a", ["b"])])
