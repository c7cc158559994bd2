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
from .sets import Subset, fixed_points, submasks
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
        # the subsets of the carrier in mask order, each joined with comp
        self.sets = tuple(base.subsets_from_masks(sub | comp for sub in submasks(t.mask)))
        self._masks = frozenset(s.mask for s in self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, u: Subset) -> bool:
        return u.base == self.carrier.base and u.mask in self._masks

    def verify(self) -> Verdict:
        """Check intersection closure, implication closure, presence of the
        full base, and that the family's meet is the carrier complement.

        A family of 2^|t| distinct members, each containing the carrier
        complement, is the whole up-set of the complement, which has every
        one of these properties; ``checked`` then counts the members.
        Otherwise the scan over pairs of members
        (``oracle.sublocale_verify_full``) finds the failing law.
        """
        comp = self.carrier.complement().mask
        members = {u.mask for u in self.sets}
        if (
            members == self._masks
            and len(members) == 1 << len(self.carrier)
            and all(m & comp == comp for m in members)
        ):
            return Verdict.ok(len(self.sets))
        from .oracle import sublocale_verify_full

        return sublocale_verify_full(self)


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
    saturated = fixed_points(parent.saturation_table())
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
        """The pairs (x, x + b), in the order of x and then of b; the
        order of ``oracle.subobject_hasse_edges_full``."""
        elements = self.elements()
        n = len(self.parent.base)
        return [
            (x, elements[x.carrier.mask | 1 << b])
            for x in elements
            for b in range(n)
            if not x.carrier.mask >> b & 1
        ]


def lattice(parent: Cover) -> SubobjectLattice:
    return SubobjectLattice(parent)
