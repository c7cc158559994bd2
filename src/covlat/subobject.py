"""Sublocale families and relativized axioms of a cover's subobjects.

A subobject is its carrier, a subset of the base: the subobject lattice
is the powerset of the base (``BaseSet.all_subsets()`` under ``&``, ``|``
and ``<=``), the carriers every operator table is indexed by.  This
module holds what a carrier induces: its sublocale family (``p_star``)
and the parent's axioms relativized through its complement
(``induced_cover``).
"""

from __future__ import annotations

from .caps import require_cap
from .cover import Cover
from .errors import BaseMismatchError
from .sets import Subset, submasks
from .verdict import Verdict


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
    saturated = parent.frame_masks()
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
