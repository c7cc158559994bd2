"""Finite cover relations, their frames of saturated sets, relational
morphisms, and closure/interior operator tables on subobject lattices.

Everything is finite and explicit: subsets are bitmasks over a fixed
base, operators are total tables, and every checked law returns a
verdict with a concrete witness on failure.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# Public names by defining module.  Each name, and each submodule, loads on
# first use (PEP 562), so importing covlat, or covlat.cli, compiles only the
# modules a command needs.
_EXPORTS = {
    "caps": ("cap_for", "require_cap"),
    "closure": (
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
    ),
    "cover": (
        "ConcreteSpace",
        "Cover",
        "CoverAxioms",
        "FiniteSuplattice",
        "FrameOfSaturated",
        "cover_from_concrete_space",
        "cover_from_suplattice",
        "cover_from_table",
    ),
    "errors": (
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
    ),
    "fileio": (
        "Workspace",
        "dump_json",
        "instance_to_json",
        "load_instance",
        "operator_to_json",
        "parse_instance",
        "parse_space",
        "space_to_json",
    ),
    "interior": (
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
    ),
    "morphism": (
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
    ),
    "oracle": ("Certificate", "EnumerationBudget", "default_certificates"),
    "sets": ("BaseSet", "Subset"),
    "subobject": ("Subobject", "SublocaleFamily", "SubobjectLattice", "induced_cover", "lattice", "p_star"),
    "table": ("ClosureTable", "InteriorTable"),
    "verdict": ("Verdict",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    # Resolved on every use and never stored here: a name read while
    # perfbench's tracer is installed must not keep its wrapper afterwards.
    if name in _EXPORTS:
        return _import("." + name, __name__)
    if name in _HOME:
        return getattr(_import("." + _HOME[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
