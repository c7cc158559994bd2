"""Relations between cover bases and their validation as morphisms.

A relation between two bases induces a preimage operator (union of the
sources of each target element); it respects the covers when target-side
covering is carried back to source-side covering.  Validation uses the
singleton reduction (quantify over target elements rather than all
subset pairs); the full-quantifier cross-checks live in
:mod:`covlat.oracle`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .caps import require_cap
from .cover import Cover
from .errors import (
    BaseMismatchError,
    CompositionDefectError,
    MorphismValidationError,
)
from .sets import BaseSet, union_over, unions
from .verdict import Verdict


class Relation:
    """A finite relation between a source base and a target base."""

    __slots__ = ("source", "target", "pairs", "_image", "_preimage")

    def __init__(
        self,
        source: BaseSet,
        target: BaseSet,
        pairs: Iterable[tuple[str, str]],
    ):
        image = [0] * len(source)  # per source element, mask over target
        preimage = [0] * len(target)  # per target element, mask over source
        canon = set()
        for s, t in pairs:
            si = source.index(s)
            ti = target.index(t)
            image[si] |= 1 << ti
            preimage[ti] |= 1 << si
            canon.add((s, t))
        self.source = source
        self.target = target
        self.pairs = frozenset(canon)
        self._image = image
        self._preimage = preimage

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and self.source == other.source
            and self.target == other.target
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.pairs))

    def __repr__(self) -> str:
        return f"Relation({sorted(self.pairs)!r})"

    # -- image operators -----------------------------------------------------

    def preimage_minus_mask(self, w_mask: int) -> int:
        return union_over(self._preimage, w_mask)

    def direct_image_mask(self, x_mask: int) -> int:
        return union_over(self._image, x_mask)

    def images(self) -> list[int]:
        """``direct_image_mask(x)`` for every source mask x, by mask."""
        return unions(self._image)

    def preimages(self) -> list[int]:
        """``preimage_minus_mask(w)`` for every target mask w, by mask."""
        return unions(self._preimage)

    def is_left_total(self) -> bool:
        return all(self._image)


def respects_covers(r: Relation, c1: Cover, c2: Cover) -> Verdict:
    """Singleton reduction of cover respect.

    Checks, for every target element a and every target subset V covering
    it, that the preimage of {a} is covered by the preimage of V.

    Only the minimal covers V of a are examined, and ``checked`` counts
    them.  Preimage and saturation are monotone, so if V fails then so
    does every V0 <= V still covering a; the least failing V in mask order
    is minimal, and the witness is the one the scan over all covers would
    report (``oracle.respects_covers_every_cover``).

    A V that is a minimal cover of several elements has its preimage
    saturated once, on first use.
    """
    if r.source != c1.base or r.target != c2.base:
        raise BaseMismatchError("relation endpoints do not match the covers")
    n2 = len(c2.base)
    require_cap("respects_covers", n2, "respects")
    checked = 0
    minimal = c2.minimal_covers()
    covered: dict[int, int] = {}  # sat1(pre(v)) per minimal cover v met so far
    for a in range(n2):
        pre_a = r._preimage[a]
        for v in minimal[a]:
            checked += 1
            sat_v = covered.get(v)
            if sat_v is None:
                sat_v = covered[v] = c1.saturate_mask(r.preimage_minus_mask(v))
            if pre_a & ~sat_v:
                return Verdict.fail(
                    {
                        "element": c2.base.elements[a],
                        "v": c2.base.subset_from_mask(v),
                    },
                    checked,
                )
    return Verdict.ok(checked)


def _convergence_verdict(r: Relation, c1: Cover, c2: Cover) -> Verdict:
    """Totality-style condition plus the singleton-pair down-set condition.

    The down-set of a union is the union of down-sets, so the source meet
    of pre({u}) and pre({v}) is the intersection of two of the n2 down-sets
    ``down[u]``, and the target meet of {u} and {v} is
    ``sat2[u] & sat2[v]``; both are built before the pair loop.  Pairs
    with the same target meet share its saturated preimage, taken on
    first use.  The per-pair reference is
    ``oracle.convergence_singletons_full``.
    """
    n1 = len(c1.base)
    n2 = len(c2.base)
    checked = 1
    full1 = (1 << n1) - 1
    pre_all = r.preimage_minus_mask((1 << n2) - 1)
    if full1 & ~c1.saturate_mask(pre_all):
        return Verdict.fail({"condition": "source covered by preimage of target"}, checked)
    sat1 = c1.singleton_saturations()
    sat2 = c2.singleton_saturations()
    down = [union_over(sat1, pre) for pre in r._preimage]
    covered: dict[int, int] = {}  # sat1(pre(w)) per target meet w met so far
    for u in range(n2):
        for v in range(n2):
            checked += 1
            meet = sat2[u] & sat2[v]
            right = covered.get(meet)
            if right is None:
                right = covered[meet] = c1.saturate_mask(r.preimage_minus_mask(meet))
            if down[u] & down[v] & ~right:
                return Verdict.fail(
                    {
                        "condition": "down-set",
                        "u": c2.base.elements[u],
                        "v": c2.base.elements[v],
                    },
                    checked,
                )
    return Verdict.ok(checked)


class ValidatedMorphism:
    """A relation that has passed cover-respect validation.

    Construction is eager: a relation failing validation never becomes a
    ValidatedMorphism.
    """

    __slots__ = ("relation", "source_cover", "target_cover", "respects", "convergent")

    def __init__(self, relation, source_cover, target_cover, respects, convergent):
        if not respects.passed:
            raise MorphismValidationError(respects)
        self.relation = relation
        self.source_cover = source_cover
        self.target_cover = target_cover
        self.respects = respects
        self.convergent = convergent

    @classmethod
    def build(cls, relation: Relation, c1: Cover, c2: Cover) -> "ValidatedMorphism":
        verdict = respects_covers(relation, c1, c2)
        if not verdict.passed:
            raise MorphismValidationError(verdict)
        convergent = _convergence_verdict(relation, c1, c2)
        return cls(relation, c1, c2, verdict, convergent)

    def __repr__(self) -> str:
        return f"ValidatedMorphism({sorted(self.relation.pairs)!r})"


class MorphismClass(namedtuple("MorphismClass", "source target table")):
    """Canonical representative of a morphism: the saturated preimage of
    each target element.  Two morphisms are equal as arrows iff their
    tables coincide.  Built only by ``canonical_form``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            w: self.source.subset_from_mask(mask).sorted_members()
            for w, mask in zip(self.target.elements, self.table)
        }


def canonical_form(m: ValidatedMorphism) -> MorphismClass:
    c1 = m.source_cover
    return MorphismClass(
        c1.base, m.target_cover.base, tuple(map(c1.saturate_mask, m.relation._preimage))
    )


def equivalent(m1: ValidatedMorphism, m2: ValidatedMorphism) -> bool:
    if not (
        m1.source_cover.same_cover(m2.source_cover)
        and m1.target_cover.same_cover(m2.target_cover)
    ):
        raise BaseMismatchError("morphisms do not share source and target covers")
    return canonical_form(m1) == canonical_form(m2)


def compose(t: ValidatedMorphism, s: ValidatedMorphism) -> ValidatedMorphism:
    """Relational composite of s (first) and t (second)."""
    if not s.target_cover.same_cover(t.source_cover):
        raise BaseMismatchError("morphisms do not chain: target of s is not source of t")
    # a is related to w iff w is in the t-image of the s-image of {a}
    outs = map(t.relation.direct_image_mask, s.relation._image)
    pairs = [
        (a, w)
        for a, out in zip(s.relation.source.elements, outs)
        for j, w in enumerate(t.relation.target.elements)
        if out >> j & 1
    ]
    composite = Relation(s.relation.source, t.relation.target, pairs)
    try:
        return ValidatedMorphism.build(composite, s.source_cover, t.target_cover)
    except MorphismValidationError as exc:
        raise CompositionDefectError(
            f"composite of validated morphisms failed re-verification: {exc.verdict.witness}"
        ) from exc


def identity(c: Cover) -> ValidatedMorphism:
    rel = Relation(c.base, c.base, [(a, a) for a in c.base.elements])
    return ValidatedMorphism.build(rel, c, c)


def terminal_cover() -> Cover:
    """The one-element cover in which covering is plain membership."""
    return Cover(BaseSet(["0"]))


def terminal_morphism(c: Cover, terminal: Cover | None = None) -> ValidatedMorphism:
    if terminal is None:
        terminal = terminal_cover()
    if len(terminal.base) != 1:
        raise BaseMismatchError("terminal cover must have a one-element base")
    point = terminal.base.elements[0]
    rel = Relation(c.base, terminal.base, [(a, point) for a in c.base.elements])
    return ValidatedMorphism.build(rel, c, terminal)
