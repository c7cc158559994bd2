"""The benchmark tracer in perfbench/ must find every covlat function it
wraps; a rename would otherwise silence a benchmark layer."""

import importlib.util
import os
import subprocess
import sys

from conftest import cli_env

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_module():
    path = os.path.join(REPO, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target):
    """The function object behind a tracer target, as the tracer finds it."""
    modname, qualname = target.split(":")
    owner_name, _, attr = qualname.rpartition(".")
    owner = importlib.import_module(modname)
    if owner_name:
        owner = vars(getattr(owner, owner_name))
        return getattr(owner[attr], "__func__", owner[attr])
    return getattr(owner, attr)


def test_tracer_finds_every_target():
    tracer = _tracer_module()
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()


def test_traced_functions_are_distinct():
    # two layers bound to one function object would book one layer's work to the other
    tracer = _tracer_module()
    targets = [target for targets, _note in tracer.SPANS.values() for target in targets]
    functions = [_resolve(target) for target in targets]
    assert len({id(f) for f in functions}) == len(targets)



def test_lazy_package_name_drops_its_wrapper_on_uninstall():
    # covlat resolves its names on each use; one stored while traced would
    # keep the wrapper after uninstall.  A fresh child, so that no earlier
    # test has read the name first.
    code = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {os.path.join(REPO, 'perfbench')!r})",
            "import covlat, tracer",
            "from covlat import morphism",
            "original = morphism.respects_covers",
            "t = tracer.Tracer()",
            "t.install()",
            "traced = covlat.respects_covers",
            "t.uninstall()",
            "print(traced is not original, traced.__wrapped__ is original,",
            "      covlat.respects_covers is original)",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]
