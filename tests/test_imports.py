"""What importing covlat, and running one command, loads.

Names in the covlat package resolve on first use, and each CLI command
imports only the modules it runs, so a fresh ``covlat check`` compiles no
operator, subobject or oracle code.
"""

import importlib
import json
import subprocess
import sys

import pytest

import covlat
from conftest import DATA, cli_env

# Public names by the module that defines them.
EXPORTS = {
    "caps": ["cap_for", "require_cap"],
    "closure": [
        "check_preimage_continuity",
        "closed_subobjects",
        "compare_closures",
        "discrete_closure",
        "initial_closure",
        "is_c_continuous",
        "is_closed",
        "is_dense",
        "join_closures",
        "leq_closures",
        "meet_closures",
        "preservation_checks",
        "reflection",
        "trivial_closure",
        "verify_closure_axioms",
    ],
    "cover": [
        "ConcreteSpace",
        "Cover",
        "CoverAxioms",
        "FiniteSuplattice",
        "FrameOfSaturated",
        "cover_from_concrete_space",
        "cover_from_suplattice",
        "cover_from_table",
    ],
    "errors": [
        "BaseMismatchError",
        "CapExceededError",
        "CompositionDefectError",
        "ContinuityPreconditionError",
        "CovlatError",
        "ExtensionFailureError",
        "InitialContinuityDefectError",
        "InputError",
        "MixedParentError",
        "MorphismValidationError",
        "PartialTableError",
        "UpperBoundFailureError",
    ],
    "fileio": [
        "Workspace",
        "dump_json",
        "instance_to_json",
        "load_instance",
        "operator_to_json",
        "parse_instance",
        "parse_space",
        "space_to_json",
    ],
    "interior": [
        "coreflection",
        "corestriction_mask",
        "discrete_interior",
        "initial_interior_corrected",
        "initial_interior_paper",
        "is_i_continuous",
        "is_open",
        "join_interiors",
        "leq_interiors",
        "meet_interiors",
        "open_preimage_check",
        "open_subobjects",
        "trivial_interior",
        "verify_interior_axioms",
    ],
    "morphism": [
        "MorphismClass",
        "Relation",
        "ValidatedMorphism",
        "canonical_form",
        "compose",
        "equivalent",
        "identity",
        "respects_covers",
        "terminal_cover",
        "terminal_morphism",
    ],
    "oracle": ["Certificate", "EnumerationBudget", "default_certificates"],
    "sets": ["BaseSet", "Subset"],
    "subobject": ["Subobject", "SublocaleFamily", "SubobjectLattice", "induced_cover", "lattice", "p_star"],
    "table": ["ClosureTable", "InteriorTable"],
    "verdict": ["Verdict"],
}

OPERATOR_MODULES = {"covlat.table", "covlat.closure", "covlat.interior"}
UNUSED_BY_CHECKS = OPERATOR_MODULES | {"covlat.subobject", "covlat.oracle"}

# Runs covlat.cli.main on argv in this child, output discarded, and prints
# the exit code and the covlat modules loaded.
FOOTPRINT = """
import contextlib, io, json, sys
import covlat.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = covlat.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("covlat"))]))
"""


def child(code, *args, cwd=DATA):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=cli_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def footprint(*argv, cwd=DATA):
    code, modules = child(FOOTPRINT, *argv, cwd=cwd)
    return code, set(modules)


class TestPackageNames:
    def test_all_is_pinned(self):
        assert covlat.__all__ == sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_the_defining_modules_object(self, module):
        defining = importlib.import_module(f"covlat.{module}")
        assert getattr(covlat, module) is defining
        for name in EXPORTS[module]:
            assert getattr(covlat, name) is getattr(defining, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from covlat import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == covlat.__all__
        assert all(namespace[name] is getattr(covlat, name) for name in covlat.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            covlat.nonesuch

    def test_dir_lists_every_public_name(self):
        assert set(covlat.__all__) <= set(dir(covlat))


class TestImportFootprint:
    def test_import_covlat_loads_no_module(self):
        loaded = child("import json, sys, covlat; print(json.dumps(sorted(sys.modules)))")
        assert [m for m in loaded if m.startswith("covlat.")] == []

    def test_import_cli_loads_no_operator_subobject_or_oracle_module(self):
        loaded = child("import json, sys, covlat.cli; print(json.dumps(sorted(sys.modules)))")
        assert "covlat.morphism" in loaded  # perfbench/selftest.py reads cli.respects_covers
        assert UNUSED_BY_CHECKS.isdisjoint(loaded)

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["check", "m3.json"], 1),
            (["frame", "chain.json"], 0),
            (["morphism", "verify", "id2.json"], 0),
            (["check", "bad.json"], 2),
        ],
    )
    def test_commands_without_operators(self, argv, exit_code):
        code, loaded = footprint(*argv)
        assert code == exit_code
        assert UNUSED_BY_CHECKS.isdisjoint(loaded)

    def test_cap_exceeded_path(self, tmp_path):
        (tmp_path / "nine.json").write_text(json.dumps({"base": [f"e{i}" for i in range(9)], "axioms": []}))
        code, loaded = footprint("check", "nine.json", cwd=tmp_path)
        assert code == 3
        assert UNUSED_BY_CHECKS.isdisjoint(loaded)

    def test_operator_loads_the_operator_modules_only(self):
        code, loaded = footprint("operator", "reflect", "trivial_closure_free2.json")
        assert code == 0
        assert OPERATOR_MODULES <= loaded
        assert {"covlat.subobject", "covlat.oracle"}.isdisjoint(loaded)
