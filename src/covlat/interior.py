"""Interior-operator tables on subobject lattices.

The dual of :mod:`covlat.closure`, on the table structure shared in
:mod:`covlat.table`, with the axioms contraction, monotonicity and fixing
the top.  Two pullback constructions are
shipped: the literal image/interior/preimage composite, whose
contraction axiom can fail for genuinely relational morphisms (the
failure is returned as data, not raised), and a corrected composite
that replaces the inner direct image by the co-restriction
``T -> {w | preimage of {w} inside T}`` and always verifies.
"""

from __future__ import annotations

from typing import Iterable

from .caps import require_cap
from .cover import Cover
from .errors import (
    CompositionDefectError,
    UpperBoundFailureError,
)
from .morphism import Relation, ValidatedMorphism
from .table import (
    InteriorTable,
    check_morphism_tables,
    conjugate,
    escape,
    fixed_preimages,
    lift,
    pointwise,
    reflect,
    scan_axioms,
)
from .verdict import Verdict


def verify_interior_axioms(candidate: InteriorTable) -> Verdict:
    """Contraction (I1), monotonicity (I2) and fixing the top (I3)."""
    return scan_axioms(candidate)


def discrete_interior(parent: Cover) -> InteriorTable:
    size = 1 << len(parent.base)
    return InteriorTable(parent, range(size))


def trivial_interior(parent: Cover) -> InteriorTable:
    size = 1 << len(parent.base)
    full = size - 1
    return InteriorTable(parent, (full if m == full else 0 for m in range(size)))


def join_interiors(family: Iterable[InteriorTable]) -> InteriorTable:
    return pointwise(InteriorTable, family, meet=False)


def meet_interiors(family: Iterable[InteriorTable]) -> InteriorTable:
    return pointwise(InteriorTable, family, meet=True)


# -- continuity --------------------------------------------------------------


def is_i_continuous(
    m: ValidatedMorphism, i_src: InteriorTable, i_tgt: InteriorTable
) -> Verdict:
    """Preimage of a target interior is inside the interior of the
    preimage, for every target subobject."""
    check_morphism_tables(m, i_src, i_tgt)
    preimages = m.relation.preimages()
    inner = map(preimages.__getitem__, i_tgt.table)
    return escape(inner, map(i_src.table.__getitem__, preimages), m.relation.target)


# -- initial interior --------------------------------------------------------


def initial_interior_paper(
    m: ValidatedMorphism, i_tgt: InteriorTable
) -> tuple[InteriorTable, Verdict]:
    """The literal image/interior/preimage pullback plus its verification.

    A target table that fails its axioms is an input error.  The
    contraction axiom of the pullback can fail for relational morphisms;
    the verdict records it and the (possibly invalid) table is returned
    alongside.
    """
    require_cap("initial_interior_paper", len(m.relation.source), "single")
    candidate = lift(m, i_tgt, Relation.images)
    return candidate, verify_interior_axioms(candidate)


def initial_interior_corrected(
    m: ValidatedMorphism, i_tgt: InteriorTable
) -> InteriorTable:
    """Pullback with the inner direct image replaced by the co-restriction.

    A target table that fails its axioms is an input error.  Contraction
    holds by construction; the top-fixing axiom needs the preimage of the
    full target to cover the full source (left-totality).
    """
    require_cap("initial_interior_corrected", len(m.relation.source), "single")
    result = lift(m, i_tgt, _co_restrictions)
    rel = m.relation
    pre_top = rel.preimage_minus_mask((1 << len(rel.target)) - 1)
    if pre_top != (1 << len(rel.source)) - 1:
        raise UpperBoundFailureError(rel.source.subset_from_mask(pre_top))
    axioms = verify_interior_axioms(result)
    if not axioms.passed:
        raise CompositionDefectError(
            f"corrected initial interior fails its axioms: {axioms.witness}"
        )
    cont = is_i_continuous(m, result, i_tgt)
    if not cont.passed:
        raise CompositionDefectError(
            f"corrected initial interior is not continuous: {cont.witness}"
        )
    return result


def _co_restrictions(rel: Relation) -> list[int]:
    """For every source carrier t, by mask, the target elements whose whole
    preimage lies in t: those outside the image of the complement of t."""
    full_tgt = (1 << len(rel.target)) - 1
    return [full_tgt ^ img for img in reversed(rel.images())]


# -- open subobjects ---------------------------------------------------------


def open_preimage_check(
    m: ValidatedMorphism, i_src: InteriorTable, i_tgt: InteriorTable
) -> Verdict:
    """Preimages of open subobjects must be open."""
    return fixed_preimages(m, is_i_continuous(m, i_src, i_tgt), i_src, i_tgt)


# -- coreflection onto open subobjects ---------------------------------------


def coreflection(i: InteriorTable) -> InteriorTable:
    """Send each carrier to the union of the open carriers inside it; the
    right Galois adjoint of including the open subobjects.

    Complement turns the open carriers into the closed carriers of the
    conjugate closure table, so this is the conjugate of its reflection.
    """
    return conjugate(reflect(conjugate(i)))
