"""Closure-operator tables on subobject lattices.

The table structure, its lattice operations, order, fixed carriers and
axiom scan are shared with interior tables in :mod:`covlat.table`; this
module holds what is particular to closures.  The table axioms are
extension, monotonicity and fixing the bottom; idempotence is not
required (and is verified only where claimed, i.e. for the reflection).
"""

from __future__ import annotations

from typing import Iterable

from .caps import require_cap
from .cover import Cover
from .errors import (
    CompositionDefectError,
    ExtensionFailureError,
    InitialContinuityDefectError,
)
from .morphism import Relation, ValidatedMorphism
from .sets import Subset
from .table import (
    ClosureTable,
    check_morphism_tables,
    escape,
    fixed_preimages,
    lift,
    pointwise,
    reflect,
    scan_axioms,
)
from .verdict import Verdict


def verify_closure_axioms(candidate: ClosureTable) -> Verdict:
    """Extension (C1), monotonicity (C2) and fixing the bottom (C3)."""
    return scan_axioms(candidate)


def discrete_closure(parent: Cover) -> ClosureTable:
    size = 1 << len(parent.base)
    return ClosureTable(parent, range(size))


def trivial_closure(parent: Cover) -> ClosureTable:
    size = 1 << len(parent.base)
    full = size - 1
    return ClosureTable(parent, (full if m else 0 for m in range(size)))


def join_closures(family: Iterable[ClosureTable]) -> ClosureTable:
    return pointwise(ClosureTable, family, meet=False)


def meet_closures(family: Iterable[ClosureTable]) -> ClosureTable:
    return pointwise(ClosureTable, family, meet=True)


# -- continuity --------------------------------------------------------------


def is_c_continuous(
    m: ValidatedMorphism, c_src: ClosureTable, c_tgt: ClosureTable
) -> Verdict:
    """Image continuity: the image of a closure is inside the closure of
    the image, for every source subobject."""
    check_morphism_tables(m, c_src, c_tgt)
    images = m.relation.images()
    inner = map(images.__getitem__, c_src.table)
    return escape(inner, map(c_tgt.table.__getitem__, images), m.relation.source)


# -- initial closure ---------------------------------------------------------


def initial_closure(m: ValidatedMorphism, c_tgt: ClosureTable) -> ClosureTable:
    """Pull a closure table back along a morphism: image, close, preimage
    (:func:`~covlat.table.lift`).

    A target table that fails its axioms is an input error.  Requires the
    relation to be left-total (otherwise the extension axiom fails;
    reported as an error with the least failing carrier).  The result is
    re-verified: it must be a valid closure table, which holds by proof
    once the checks above pass, and must make the morphism continuous.
    For genuinely relational morphisms the continuity half can fail even
    on a valid table; that defect is raised, never patched.
    """
    require_cap("initial_closure", len(m.relation.source), "single")
    result = lift(m, c_tgt, Relation.images)
    rel = m.relation
    if not rel.is_left_total():
        # a carrier escapes the preimage of its image exactly when it holds
        # an element related to nothing; the least such carrier is that
        # element alone
        x = next(x for x in range(len(rel.source)) if not rel.direct_image_mask(1 << x))
        raise ExtensionFailureError(rel.source.subset_from_mask(1 << x))
    axioms = verify_closure_axioms(result)
    if not axioms.passed:
        raise CompositionDefectError(f"initial closure fails its axioms: {axioms.witness}")
    cont = is_c_continuous(m, result, c_tgt)
    if not cont.passed:
        raise InitialContinuityDefectError(cont.witness["carrier"])
    return result


# -- closed and dense subobjects ---------------------------------------------


def is_dense(c: ClosureTable, t: Subset) -> bool:
    return c.table[t.mask] == (1 << len(c.parent.base)) - 1


def preservation_checks(
    m: ValidatedMorphism, c_src: ClosureTable, c_tgt: ClosureTable
) -> Verdict:
    """Closed subobjects pull back to closed ones; dense subobjects push
    forward to dense ones when the image of the source top is the target
    top (carrier surjectivity)."""
    cont = is_c_continuous(m, c_src, c_tgt)
    closed = fixed_preimages(m, cont, c_src, c_tgt, law="closed-preimage")
    if not closed.passed:
        return closed
    rel = m.relation
    images = rel.images()
    checked = closed.checked
    full_src = len(images) - 1
    full_tgt = (1 << len(rel.target)) - 1
    if images[full_src] == full_tgt:
        for u, out in enumerate(c_src.table):
            if out != full_src:
                continue
            checked += 1
            if c_tgt.table[images[u]] != full_tgt:
                return Verdict.fail(
                    {"law": "dense-image", "carrier": rel.source.subset_from_mask(u)},
                    checked,
                )
    return Verdict.ok(checked)


# -- reflection onto closed subobjects ---------------------------------------


def reflection(c: ClosureTable) -> ClosureTable:
    """Send each carrier to the intersection of the closed carriers above
    it; the left Galois adjoint of including the closed subobjects."""
    return reflect(c)
