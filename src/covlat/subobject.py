"""Subobjects of a cover and the lattice they form.

A subobject is identified by its carrier subset alone; the induced cover
data (axioms relativized through the carrier's complement) is derived
lazily.  The lattice of all subobjects is the full powerset of the base
under inclusion, so meets and joins are plain carrier intersection and
union.
"""

from __future__ import annotations

from .caps import require_cap
from .cover import Cover
from .errors import BaseMismatchError
from .sets import Subset
from .verdict import Verdict


class Subobject:
    __slots__ = ("parent", "carrier")

    def __init__(self, parent: Cover, carrier: Subset):
        if carrier.base != parent.base:
            raise BaseMismatchError("carrier is not over the parent base")
        self.parent = parent
        self.carrier = carrier

    @property
    def complement(self) -> Subset:
        return self.carrier.complement()

    def induced_axioms(self) -> list[tuple[str, Subset]]:
        return induced_cover(self.parent, self.carrier)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subobject)
            and self.parent.same_cover(other.parent)
            and self.carrier == other.carrier
        )

    def __hash__(self) -> int:
        return hash((self.parent.base, self.carrier.mask))

    def __repr__(self) -> str:
        return f"Subobject({self.carrier!r})"


class SublocaleFamily:
    """The family of unions of carrier subsets with the carrier complement."""

    def __init__(self, t: Subset):
        self.carrier = t
        base = t.base
        comp = t.complement().mask
        seen = []
        # all subsets of the carrier, in mask order over the base
        for mask in range(1 << len(base)):
            if mask & ~t.mask == 0:
                seen.append(base.subset_from_mask(mask | comp))
        self.sets = tuple(seen)
        self._masks = frozenset(s.mask for s in seen)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, u: Subset) -> bool:
        return u.base == self.carrier.base and u.mask in self._masks

    def verify(self) -> Verdict:
        """Check intersection closure, implication closure, presence of the
        full base, and that the family's meet is the carrier complement."""
        base = self.carrier.base
        checked = 0
        full = (1 << len(base)) - 1
        if full not in self._masks:
            return Verdict.fail({"missing": base.subset_from_mask(full)}, checked)
        bottom = full
        for u in self.sets:
            bottom &= u.mask
            for v in self.sets:
                checked += 1
                if u.mask & v.mask not in self._masks:
                    return Verdict.fail(
                        {"law": "intersection", "u": u, "v": v}, checked
                    )
        if bottom != self.carrier.complement().mask:
            return Verdict.fail(
                {"law": "meet", "got": base.subset_from_mask(bottom)}, checked
            )
        for mask in range(1 << len(base)):
            impl_lhs = full & ~mask
            for w in self.sets:
                checked += 1
                if impl_lhs | w.mask not in self._masks:
                    return Verdict.fail(
                        {
                            "law": "implication",
                            "u": base.subset_from_mask(mask),
                            "w": w,
                        },
                        checked,
                    )
        return Verdict.ok(checked)


def p_star(t: Subset) -> SublocaleFamily:
    require_cap("p_star", len(t.base), "single")
    return SublocaleFamily(t)


def induced_cover(parent: Cover, t: Subset) -> list[tuple[str, Subset]]:
    """Relativized axioms: for each carrier-complement element covering a
    saturated subset, the subset unioned with the complement.

    Only saturated right-hand sides are enumerated; arbitrary ones are
    implied via their saturations.
    """
    if t.base != parent.base:
        raise BaseMismatchError("carrier is not over the parent base")
    n = len(parent.base)
    require_cap("induced_cover", n, "single")
    comp = t.complement()
    saturated = [m for m, sat in enumerate(parent.saturation_table()) if sat == m]
    out = []
    seen = set()
    for a_idx in range(n):
        if not comp.mask >> a_idx & 1:
            continue
        a = parent.base.elements[a_idx]
        for mask in saturated:
            if not mask >> a_idx & 1:
                continue
            rhs = mask | comp.mask
            if (a_idx, rhs) in seen:
                continue
            seen.add((a_idx, rhs))
            out.append((a, parent.base.subset_from_mask(rhs)))
    return out


class SubobjectLattice:
    """All subobjects of a cover, ordered by carrier inclusion."""

    def __init__(self, parent: Cover):
        self.parent = parent
        self._elements: tuple[Subobject, ...] | None = None

    @property
    def top(self) -> Subobject:
        return Subobject(self.parent, self.parent.base.full())

    @property
    def bottom(self) -> Subobject:
        return Subobject(self.parent, self.parent.base.empty())

    def elements(self) -> tuple[Subobject, ...]:
        if self._elements is None:
            n = len(self.parent.base)
            require_cap("subobject_lattice", n, "respects")
            self._elements = tuple(
                Subobject(self.parent, s) for s in self.parent.base.all_subsets()
            )
        return self._elements

    def __len__(self) -> int:
        return len(self.elements())

    def __iter__(self):
        return iter(self.elements())

    def meet(self, x: Subobject, y: Subobject) -> Subobject:
        return Subobject(self.parent, x.carrier & y.carrier)

    def join(self, x: Subobject, y: Subobject) -> Subobject:
        return Subobject(self.parent, x.carrier | y.carrier)

    def leq(self, x: Subobject, y: Subobject) -> bool:
        return x.carrier.issubset(y.carrier)

    def hasse_edges(self) -> list[tuple[Subobject, Subobject]]:
        edges = []
        for x in self.elements():
            for y in self.elements():
                diff = y.carrier.mask & ~x.carrier.mask
                if x.carrier.issubset(y.carrier) and diff and diff & (diff - 1) == 0:
                    edges.append((x, y))
        return edges


def lattice(parent: Cover) -> SubobjectLattice:
    return SubobjectLattice(parent)
