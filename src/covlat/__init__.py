"""Finite cover relations, their frames of saturated sets, relational
morphisms, and closure/interior operator tables on subobject lattices.

Everything is finite and explicit: subsets are bitmasks over a fixed
base, operators are total tables, and every checked law returns a
verdict with a concrete witness on failure.
"""

from .caps import cap_for, require_cap
from .closure import (
    ClosureTable,
    check_preimage_continuity,
    closed_subobjects,
    compare_closures,
    discrete_closure,
    initial_closure,
    is_c_continuous,
    is_closed,
    is_dense,
    join_closures,
    leq_closures,
    meet_closures,
    preservation_checks,
    reflection,
    trivial_closure,
    verify_closure_axioms,
)
from .cover import (
    ConcreteSpace,
    Cover,
    CoverAxioms,
    FiniteSuplattice,
    FrameOfSaturated,
    cover_from_concrete_space,
    cover_from_suplattice,
    cover_from_table,
)
from .errors import (
    BaseMismatchError,
    CapExceededError,
    CompositionDefectError,
    ContinuityPreconditionError,
    CovlatError,
    ExtensionFailureError,
    InitialContinuityDefectError,
    InputError,
    MixedParentError,
    MorphismValidationError,
    PartialTableError,
    UpperBoundFailureError,
)
from .fileio import (
    Workspace,
    dump_json,
    instance_to_json,
    load_instance,
    operator_to_json,
    parse_instance,
    parse_space,
    space_to_json,
)
from .interior import (
    InteriorTable,
    coreflection,
    corestriction_mask,
    discrete_interior,
    initial_interior_corrected,
    initial_interior_paper,
    is_i_continuous,
    is_open,
    join_interiors,
    leq_interiors,
    meet_interiors,
    open_preimage_check,
    open_subobjects,
    trivial_interior,
    verify_interior_axioms,
)
from .morphism import (
    MorphismClass,
    Relation,
    ValidatedMorphism,
    canonical_form,
    compose,
    equivalent,
    identity,
    respects_covers,
    terminal_cover,
    terminal_morphism,
)
from .sets import BaseSet, Subset
from .subobject import (
    Subobject,
    SublocaleFamily,
    SubobjectLattice,
    induced_cover,
    lattice,
    p_star,
)
from .verdict import Verdict

__version__ = "0.1.0"

# The oracle and its names load on first use (PEP 562), so importing
# covlat, or covlat.cli, does not pay for covlat.oracle.
_ORACLE_NAMES = ("Certificate", "EnumerationBudget", "default_certificates")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_ORACLE_NAMES, "oracle"])


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        from importlib import import_module

        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
