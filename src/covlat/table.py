"""Operator tables on subobject lattices, shared by closure and interior.

A table is an explicit, total map from carriers to carriers, so the whole
lattice of operators is enumerable and every claimed law is falsifiable.
The two kinds are one structure seen through complement (:func:`conjugate`).
The axiom scan is not conjugated: complement reverses mask order, so it
would report a different least witness.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping, Sequence

from .cover import Cover
from .errors import ContinuityPreconditionError, InputError, MixedParentError, PartialTableError
from .morphism import Relation, ValidatedMorphism
from .sets import BaseSet, Subset, first_escape, fixed_points, joins_below, meets_above, submasks
from .verdict import Verdict


class OperatorTable:
    """A total map carrier -> carrier on the subobject lattice of a cover.

    Each kind names its axioms ``axiom`` 1-3 and is ``extensive`` (closure)
    or contractive (interior); the carrier it must fix, ``fixed``, is the
    bottom for an extensive kind and the top otherwise.
    """

    __slots__ = ("parent", "table")
    kind: str
    axiom: str
    extensive: bool

    def __init__(self, parent: Cover, table: Iterable[int]):
        entries = tuple(table)
        if len(entries) != 1 << len(parent.base):
            raise PartialTableError(
                f"table has {len(entries)} entries, expected {1 << len(parent.base)}"
            )
        self.parent = parent
        self.table = entries

    @classmethod
    def from_mapping(cls, parent: Cover, mapping: Mapping[int, int] | Sequence[int | None]):
        """The table with image ``mapping[m]`` at each carrier mask m.

        ``mapping`` has one key per carrier, each carrier's mask: a dict, or
        a list by mask.  A key it lacks, or a None image, leaves the
        table partial.
        """
        size = 1 << len(parent.base)
        if len(mapping) == size:
            try:
                entries = list(map(mapping.__getitem__, range(size)))
            except KeyError:  # a key out of range stands where a carrier's should
                pass
            else:
                if None not in entries:
                    return cls(parent, entries)
        raise PartialTableError("operator table must map every carrier exactly once")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorTable)
            and self.kind == other.kind
            and self.parent.base == other.parent.base
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.parent.base, self.table))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.table)!r})"

    @property
    def fixed(self) -> int:
        return 0 if self.extensive else len(self.table) - 1


class ClosureTable(OperatorTable):
    __slots__ = ()
    kind, axiom, extensive = "closure", "C", True


class InteriorTable(OperatorTable):
    __slots__ = ()
    kind, axiom, extensive = "interior", "I", False


def conjugate(t: OperatorTable) -> OperatorTable:
    """The table ``m -> not t(not m)`` of the other kind; an involution that
    sends fixed carriers to their complements."""
    full = (1 << len(t.parent.base)) - 1
    other = InteriorTable if t.kind == "closure" else ClosureTable
    return other(t.parent, (full ^ t.table[full ^ m] for m in range(full + 1)))


# -- parent checks -----------------------------------------------------------


_MIXED_KINDS = "cannot combine closure and interior tables"


def common_parent(tables: list[OperatorTable], kind: str | None = None) -> Cover:
    """The one parent cover of ``tables``, which must all be of one kind,
    ``kind`` when it is given."""
    if not tables:
        raise ValueError("empty operator family")
    if len({kind or tables[0].kind, *(t.kind for t in tables)}) > 1:
        raise MixedParentError(_MIXED_KINDS)
    parent = tables[0].parent
    for t in tables[1:]:
        if not parent.same_cover(t.parent):
            raise MixedParentError("operator tables have different parent covers")
    return parent


def check_morphism_tables(
    m: ValidatedMorphism, src: OperatorTable, tgt: OperatorTable
) -> None:
    """The two tables are of one kind and live on the source and the
    target of the morphism."""
    if src.kind != tgt.kind:
        raise MixedParentError(_MIXED_KINDS)
    if not src.parent.same_cover(m.source_cover):
        raise MixedParentError("source table does not live on the morphism's source")
    if not tgt.parent.same_cover(m.target_cover):
        raise MixedParentError("target table does not live on the morphism's target")


# -- pointwise lattice operations and order ----------------------------------


def pointwise(cls: type, family: Iterable[OperatorTable], meet: bool) -> OperatorTable:
    """Carrier by carrier intersection (``meet``) or union of a family of
    ``cls`` tables."""
    tables = list(family)
    parent = common_parent(tables, cls.kind)
    size = 1 << len(parent.base)
    combine = operator.and_ if meet else operator.or_
    out = [size - 1 if meet else 0] * size
    for t in tables:
        out = list(map(combine, out, t.table))
    return cls(parent, out)


def escape(inner: Iterable[int], outer: Iterable[int], base: BaseSet) -> Verdict:
    """The least carrier over ``base`` where ``inner`` escapes ``outer``
    (:func:`~covlat.sets.first_escape`), counting the carriers up to it, or a
    pass over all 2^n: the one scan behind ``compare`` and continuity."""
    m = first_escape(inner, outer)
    if m is None:
        return Verdict.ok(1 << len(base))
    return Verdict.fail({"carrier": base.subset_from_mask(m)}, m + 1)


def compare(s: OperatorTable, t: OperatorTable) -> Verdict:
    """Pointwise-order certificate with a witness carrier on failure: the
    least carrier m with ``s(m)`` not inside ``t(m)``."""
    return escape(s.table, t.table, common_parent([s, t]).base)


def leq(s: OperatorTable, t: OperatorTable) -> bool:
    """Whether ``s`` is below ``t`` at every carrier."""
    return compare(s, t).passed


# -- fixed carriers ----------------------------------------------------------


def is_fixed(t: OperatorTable, s: Subset) -> bool:
    return t.table[s.mask] == s.mask


def fixed_carriers(t: OperatorTable) -> list[Subset]:
    """The carriers the table fixes, in mask order: the closed carriers of
    a closure table, the open ones of an interior table."""
    return t.parent.base.subsets_from_masks(fixed_points(t.table))


def fixed_preimages(
    m: ValidatedMorphism, cont: Verdict, src: OperatorTable, tgt: OperatorTable, **label
) -> Verdict:
    """Every carrier ``tgt`` fixes has a preimage that ``src`` fixes; ``cont``,
    the continuity verdict of ``m`` for the tables, must pass.  A failure
    names the least target carrier, after ``label``."""
    if not cont.passed:
        raise ContinuityPreconditionError(
            f"morphism is not continuous for these tables: {cont.witness}"
        )
    rel = m.relation
    preimages = rel.preimages()
    checked = 0
    for v in fixed_points(tgt.table):
        checked += 1
        pre = preimages[v]
        if src.table[pre] != pre:
            return Verdict.fail({**label, "carrier": rel.target.subset_from_mask(v)}, checked)
    return Verdict.ok(checked)


def reflect(t: OperatorTable) -> OperatorTable:
    """Send each carrier to the intersection of the fixed carriers above it,
    by :func:`~covlat.sets.meets_above` in at most n steps per carrier,
    where ``oracle.reflect_full`` tests every fixed carrier against every
    carrier.
    """
    return type(t)(t.parent, meets_above(fixed_points(t.table), len(t.parent.base)))


# -- initial lifts -----------------------------------------------------------


def lift(
    m: ValidatedMorphism, tgt: OperatorTable, inner: Callable[[Relation], list[int]]
) -> OperatorTable:
    """The one pullback behind the initial lifts: the table of ``tgt``'s kind
    on the source of ``m`` sending carrier u to ``preimage(tgt(inner(rel)[u]))``.

    ``tgt`` must live on the target of ``m`` and pass its axioms, else the
    input error names the failing axiom and its carriers; ``inner`` gives a
    target carrier per source carrier, by mask, and runs after these checks.
    """
    if not tgt.parent.same_cover(m.target_cover):
        raise MixedParentError("table does not live on the morphism's target")
    axioms = scan_axioms(tgt)
    if not axioms.passed:
        w = axioms.witness
        where = ", ".join(f"{k} {v.sorted_members()}" for k, v in w.items() if k != "axiom")
        raise InputError(f"target {tgt.kind} table fails {w['axiom']} at {where}")
    pre = m.relation.preimages()
    outer = map(tgt.table.__getitem__, inner(m.relation))
    return type(tgt)(m.source_cover, map(pre.__getitem__, outer))


# -- axioms ------------------------------------------------------------------


def scan_axioms(t: OperatorTable) -> Verdict:
    """The axioms of ``t``'s kind, each failure with its least witness in
    mask order: extension (contraction unless the kind is extensive),
    monotonicity, and fixing the kind's fixed carrier.

    Extension is one bulk pass that names the least failing carrier.  For
    monotonicity, :func:`~covlat.sets.joins_below` joins each entry with
    those of its submasks, so the least carrier L where the joined table
    escapes the table is the least carrier with a failing submask; only
    the submasks of L are then scanned for the least failing one.  ``checked`` counts as
    ``oracle.scan_axioms_full`` does: on a failure, every submask pair of
    the carriers below L; on a pass, the 2^n extension cases, the
    n * 2^(n-1) one-bit edges that imply monotonicity and the fixed carrier.
    """
    base = t.parent.base
    table = t.table
    size = len(table)
    bad = first_escape(range(size), table) if t.extensive else first_escape(table, range(size))
    if bad is not None:
        return Verdict.fail({"axiom": f"{t.axiom}1", "carrier": base.subset_from_mask(bad)}, bad + 1)
    checked = size
    larger = first_escape(joins_below(table), table)
    if larger is not None:
        out_larger = table[larger]
        position, smaller = next(
            (i, s) for i, s in enumerate(submasks(larger), 1) if table[s] & ~out_larger
        )
        return Verdict.fail(
            {
                "axiom": f"{t.axiom}2",
                "smaller": base.subset_from_mask(smaller),
                "larger": base.subset_from_mask(larger),
            },
            checked + sum(1 << m.bit_count() for m in range(larger)) + position,
        )
    if table[t.fixed] != t.fixed:
        # counted as the full scan counts it: after all 3^n submask pairs
        return Verdict.fail(
            {"axiom": f"{t.axiom}3", "carrier": base.subset_from_mask(t.fixed)},
            checked + 3 ** len(base) + 1,
        )
    return Verdict.ok(checked + len(base) * size // 2 + 1)
