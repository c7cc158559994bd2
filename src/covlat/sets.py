"""Finite base sets and their subsets.

A :class:`BaseSet` fixes a canonical ordering of element identifiers at
construction; a :class:`Subset` is a bitmask over that ordering (element
at position ``i`` occupies bit ``i``).  All subset algebra is total and
errors out when operands belong to different bases.

Subsets enumerate in increasing mask order; that order is the tie-break
used for every witness the library reports.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import add, and_, or_
from typing import Iterable, Iterator, Sequence

from .errors import BaseMismatchError


class BaseSet:
    """An ordered finite set of distinct, non-empty element identifiers."""

    __slots__ = ("_elements", "_index")

    def __init__(self, elements: Iterable[str]):
        elems = tuple(elements)
        index = {}
        for i, e in enumerate(elems):
            if not isinstance(e, str) or not e:
                raise ValueError(f"element identifiers must be non-empty strings: {e!r}")
            if e in index:
                raise ValueError(f"duplicate element identifier: {e!r}")
            index[e] = i
        self._elements = elems
        self._index = index

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name, e.g. a list
            raise BaseMismatchError(f"element {name!r} is not in this base") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseSet) and self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"BaseSet({list(self._elements)!r})"

    # -- subset construction -------------------------------------------------

    def mask_of(self, names: Iterable[str]) -> int:
        """The mask of the named members; an unknown name raises as in :meth:`index`."""
        index = self._index
        mask = 0
        for name in names:
            try:
                mask |= 1 << index[name]
            except (KeyError, TypeError):
                self.index(name)  # raises BaseMismatchError for this name
        return mask

    def subset(self, members: Iterable[str] = ()) -> Subset:
        return Subset(self, self.mask_of(members))

    def subset_from_mask(self, mask: int) -> Subset:
        """The subset with this mask; a mask outside the base raises."""
        if mask < 0 or mask >> len(self._elements):
            raise ValueError(f"mask {mask:#x} out of range for base of size {len(self)}")
        return Subset(self, mask)

    def subsets_from_masks(self, masks: Iterable[int]) -> list[Subset]:
        """The subsets with these masks, in the given order, for masks the
        caller has already bounded: a frame's saturated sets (the boundary
        view ``FrameOfSaturated.sets``), an operator table's fixed
        carriers, a sublocale family, a range of masks.  A mask that may
        come from outside goes through :meth:`subset_from_mask` and its
        range check.

        Each Subset is made by ``Subset.__new__`` and filled through the
        slot descriptors, one ``map`` per slot, which skips the range check
        and ``Subset.__init__``'s two ``object.__setattr__`` calls; the
        immutability guard is untouched.
        """
        masks = list(masks)
        subsets = list(map(Subset.__new__, repeat(Subset, len(masks))))
        deque(map(Subset.base.__set__, subsets, repeat(self)), 0)
        deque(map(Subset.mask.__set__, subsets, masks), 0)
        return subsets

    def empty(self) -> Subset:
        return Subset(self, 0)

    def full(self) -> Subset:
        return Subset(self, (1 << len(self._elements)) - 1)

    def sorted_member_table(self) -> list[list[str]]:
        """``subset_from_mask(m).sorted_members()`` for every mask ``m``, by mask."""
        return self.by_sorted_members([], lambda name: [name])

    def by_sorted_members(self, empty, piece) -> list:
        """For every mask m, by mask: ``empty + piece(a) + piece(b) + ...``
        over the member names a, b, ... of m in sorted order.

        Built once per call by doubling over sorted positions, so ``piece``
        runs once per element and ``+`` 2^n times in all, and then read
        through each mask's image as a mask over sorted positions.
        """
        names = sorted(self._elements)
        by_rank = [empty]  # indexed by masks over sorted positions
        for name in names:
            by_rank += list(map(add, by_rank, repeat(piece(name))))
        rank = {name: i for i, name in enumerate(names)}
        # each mask of this base, as a mask over sorted positions
        rank_masks = unions([1 << rank[e] for e in self._elements])
        return list(map(by_rank.__getitem__, rank_masks))

    def all_subsets(self) -> Iterator[Subset]:
        """All subsets in increasing mask order (the canonical witness order)."""
        return iter(self.subsets_from_masks(range(1 << len(self._elements))))


class Subset:
    """An immutable subset of a :class:`BaseSet`, stored as a bitmask."""

    __slots__ = ("base", "mask")

    def __init__(self, base: BaseSet, mask: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *_):
        raise AttributeError("Subset is immutable")

    def __reduce__(self):
        # pickle through __init__: the default path assigns the slots and trips the guard
        return Subset, (self.base, self.mask)

    def _check(self, other: Subset) -> None:
        if not isinstance(other, Subset):
            raise TypeError(f"expected Subset, got {type(other).__name__}")
        if self.base != other.base:
            raise BaseMismatchError("subsets belong to different base sets")

    # -- algebra -------------------------------------------------------------

    def union(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.base, self.mask | other.mask)

    def intersection(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.base, self.mask & other.mask)

    def difference(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.base, self.mask & ~other.mask)

    def complement(self) -> Subset:
        full = (1 << len(self.base)) - 1
        return Subset(self.base, full & ~self.mask)

    def issubset(self, other: Subset) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset

    def __lt__(self, other: Subset) -> bool:
        return self.issubset(other) and self.mask != other.mask

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.base.index(name) & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.members())

    def members(self) -> tuple[str, ...]:
        """Member names in base order."""
        return tuple(
            e for i, e in enumerate(self.base.elements) if self.mask >> i & 1
        )

    def sorted_members(self) -> list[str]:
        """Member names sorted lexicographically; the serialized form."""
        return sorted(self.members())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subset)
            and self.base == other.base
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.base, self.mask))

    def __repr__(self) -> str:
        return "{" + ",".join(self.members()) + "}"


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def union_over(per_element: Sequence[int], mask: int) -> int:
    """The union of ``per_element[i]`` over the bits i of ``mask``: the
    image of a subset under a relation given per element, or its down-set
    given the singleton saturations."""
    out = 0
    while mask:
        low = mask & -mask
        out |= per_element[low.bit_length() - 1]
        mask ^= low
    return out


def unions(per_element: Iterable[int]) -> list[int]:
    """``union_over(per_element, m)`` for every mask m over the positions
    of ``per_element``, by mask.

    Built by doubling: the masks below 2^(i+1) are those below 2^i and
    then the same masks with element i added, so each element is one
    bulk pass over the list so far.
    """
    out = [0]
    for img in per_element:
        out += [m | img for m in out]
    return out


def transitive_closure(rows: Iterable[int]) -> list[int]:
    """The reflexive-transitive closure of a relation given by rows, row
    i holding bit i: row i of the result holds every j reachable from i.

    Warshall's bit-matrix closure: for each k in turn, every row holding
    bit k takes in row k, so each k is one bulk pass over the rows.
    """
    rows = list(rows)
    for k in range(len(rows)):
        bit, row = 1 << k, rows[k]
        rows = [r | row if r & bit else r for r in rows]
    return rows


def fixed_points(table: Sequence[int]) -> list[int]:
    """The entries ``table[m]`` with ``table[m] == m``, in mask order: the
    fixed carriers of an operator table, and the frame of a cover that
    already holds its saturation table.

    The entries are the table's own objects, not the equal ints that
    ``enumerate`` counts out, so a frame read from a table that is kept
    anyway holds no second copy of its masks.
    """
    return [out for m, out in enumerate(table) if out == m]


def first_escape(inner: Iterable[int], outer: Iterable[int]) -> int | None:
    """The least position i with ``inner[i]`` not inside ``outer[i]``, or
    None if there is none: one bulk pass, and a second up to i on a
    failure."""
    outer = list(outer)
    joined = list(map(or_, inner, outer))
    if joined == outer:
        return None
    return next(i for i, (j, o) in enumerate(zip(joined, outer)) if j != o)


def meets_above(marked: Iterable[int], n: int) -> list[int]:
    """For every mask w over ``n`` bits, by mask: the intersection of the
    ``marked`` masks that contain w, or the full mask if none does.

    This is the superset ("zeta") transform under intersection.  Start
    from each mask's own entry (w if marked, else the full mask); for each
    bit b, every w without b then takes in the entry of w + b, so after
    all n bits it has met every marked mask above it.  Each bit is one
    bulk pass: with the bit at position 0, ``rows[0::2]`` and
    ``rows[1::2]`` pair each w with w + b, and unshuffling the result
    (the low half, then the high half) rotates the positions by one, so
    the next bit comes to position 0 and n passes restore mask order.
    """
    full = (1 << n) - 1
    rows = [full] * (full + 1)
    for v in marked:
        rows[v] = v
    for _ in range(n):
        high = rows[1::2]
        rows = list(map(and_, rows[0::2], high)) + high
    return rows


def joins_below(rows: Sequence[int]) -> list[int]:
    """For every mask m, by mask: the union of ``rows[s]`` over the
    submasks s of m; ``rows`` has one entry per mask over n bits.

    The subset ("zeta") transform under union, dual to :func:`meets_above`:
    for each bit b, every m with b takes in the entry of m - b, in one bulk
    pass per bit, unshuffled the same way.
    """
    rows = list(rows)
    for _ in range(len(rows).bit_length() - 1):
        low = rows[0::2]
        rows = low + list(map(or_, low, rows[1::2]))
    return rows
