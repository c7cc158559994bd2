"""The cuts against their twins on covers whose cases repeat.

``minimal_covers``, ``is_convergent``, ``respects_covers`` and the
convergent-morphism check take their costly step once per distinct value
it depends on: the down-set of each distinct minimal cover, the saturated
preimage of each distinct minimal cover or target meet.  Here every
verdict must equal its twin's, ``checked`` included, on the covers where
those values repeat most: all-equivalent, free, near-free and chain
covers, covers with empty-premise facts and covers given by their table.
"""

import random

import pytest

from covlat import Cover, Relation, Verdict, respects_covers
from covlat.morphism import _convergence_verdict
from covlat.oracle import (
    convergence_singletons_full,
    default_base,
    hasse_edges_full,
    is_convergent_full,
    minimal_covers_full,
    random_cover,
    respects_covers_every_cover,
)


def axiom_cover(n, axioms):
    names = default_base(n).elements
    return Cover.from_axiom_names(
        default_base(n), [(names[h], [names[x] for x in body]) for h, body in axioms]
    )


def all_equivalent(n):
    # element i covered by {i + 1 mod n}: every nonempty set saturates to all
    return axiom_cover(n, [(i, [(i + 1) % n]) for i in range(n)])


def free(n):
    return axiom_cover(n, [])


def near_free(n):
    return axiom_cover(n, [(0, [1, 2])])


def chain(n):
    return axiom_cover(n, [(i, [i + 1]) for i in range(n - 1)])


AXIOM_COVERS = {
    **{f"all-equivalent{n}": all_equivalent(n) for n in range(1, 7)},
    **{f"free{n}": free(n) for n in range(0, 7)},
    **{f"near-free{n}": near_free(n) for n in range(3, 7)},
    **{f"chain{n}": chain(n) for n in range(1, 7)},
    # empty-premise facts: a is covered by the empty set
    "fact-only": axiom_cover(3, [(0, [])]),
    "fact-all-equivalent4": axiom_cover(4, [(0, [])] + [(i, [(i + 1) % 4]) for i in range(4)]),
    "fact-and-pair5": axiom_cover(5, [(0, []), (1, [2, 3]), (4, [1])]),
    "fact-chain4": axiom_cover(4, [(3, []), (0, [1]), (1, [2])]),
    **{f"random{seed}": random_cover(random.Random(seed), 2 + seed % 5) for seed in range(8)},
}
# the same covers, given by their saturation tables
COVERS = {
    **AXIOM_COVERS,
    **{f"{name}-table": Cover(c.base, table=c.saturation_table()) for name, c in AXIOM_COVERS.items()},
}


def relations(rng, c1, c2, count=4):
    """The identity (on equal bases), the constant and full relations and
    ``count`` seeded random ones."""
    src, tgt = c1.base.elements, c2.base.elements
    out = [Relation(c1.base, c2.base, [(s, t) for s in src for t in tgt])]
    if tgt:
        out.append(Relation(c1.base, c2.base, [(s, tgt[0]) for s in src]))
    if c1.base == c2.base:
        out.append(Relation(c1.base, c2.base, [(s, s) for s in src]))
    for _ in range(count):
        out.append(Relation(c1.base, c2.base, [(s, t) for s in src for t in tgt if rng.random() < 0.4]))
    return out


def minimal_scan(minimal, fail, rank, per_element):
    """The verdict of a scan of each element's minimal covers, in order,
    stopping at ``fail``: ``per_element(covers)`` cases for each element
    passed, plus ``rank`` of the failing case in its element's order."""
    if fail.passed:
        return Verdict.ok(sum(map(per_element, minimal)))
    a = default_base(len(minimal)).index(fail.witness["element"])
    done = sum(map(per_element, minimal[:a]))
    return Verdict.fail(fail.witness, done + rank(minimal[a], fail.witness) + 1)


def expected_convergence(cover):
    """``is_convergent`` from its twin: the twin's witness, and a pair
    (u, v) of minimal covers of a in (v, u) order per element."""
    return minimal_scan(
        minimal_covers_full(cover),
        is_convergent_full(cover),
        lambda covers, w: covers.index(w["v"].mask) * len(covers) + covers.index(w["u"].mask),
        lambda covers: len(covers) ** 2,
    )


def expected_respect(r, c1, c2):
    """``respects_covers`` from its twin: the twin's witness, and one
    minimal cover v of a per case."""
    return minimal_scan(
        minimal_covers_full(c2),
        respects_covers_every_cover(r, c1, c2),
        lambda covers, w: covers.index(w["v"].mask),
        len,
    )


@pytest.mark.parametrize("name", sorted(COVERS))
class TestCutsAgainstTwins:
    def test_minimal_covers(self, name):
        c = COVERS[name]
        assert c.minimal_covers() == minimal_covers_full(c)

    def test_is_convergent(self, name):
        c = COVERS[name]
        assert c.is_convergent() == expected_convergence(c)

    def test_hasse_edges(self, name):
        fr = COVERS[name].saturated_sets()
        assert fr.hasse_edges() == hasse_edges_full(fr)

    def test_morphism_checks(self, name):
        c2 = COVERS[name]
        rng = random.Random(name)
        for c1 in (c2, COVERS["free2"], COVERS["all-equivalent3-table"], COVERS["fact-only"]):
            for r in relations(rng, c1, c2):
                assert respects_covers(r, c1, c2) == expected_respect(r, c1, c2)
                assert _convergence_verdict(r, c1, c2) == convergence_singletons_full(r, c1, c2)


def test_the_shapes_fail_as_well_as_pass():
    # the twins above are compared on failures too, not only on passes
    converge, respect, converge_morphism = set(), set(), set()
    rng = random.Random(0)
    for c2 in COVERS.values():
        converge.add(c2.is_convergent().passed)
        for r in relations(rng, c2, c2):
            respect.add(respects_covers(r, c2, c2).passed)
            converge_morphism.add(_convergence_verdict(r, c2, c2).passed)
    assert converge == respect == converge_morphism == {True, False}


def counted(monkeypatch, cls, name):
    """Record the arguments of every call to ``cls.name``."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def identity_relation(c):
    return Relation(c.base, c.base, [(a, a) for a in c.base.elements])


class TestEachDistinctCaseOnce:
    """Call counts on all-equivalent covers, where every case repeats."""

    def test_convergent_morphism_saturates_each_target_meet_once(self, monkeypatch):
        # every target meet is the whole base: one preimage for the
        # totality condition and one for the 100 pairs
        c = all_equivalent(10)
        preimages = counted(monkeypatch, Relation, "preimage_minus_mask")
        assert _convergence_verdict(identity_relation(c), c, c) == Verdict.ok(101)
        assert len(preimages) == 2

    def test_respects_covers_saturates_each_minimal_cover_once(self, monkeypatch):
        # the minimal covers of every element are the 10 singletons
        c = all_equivalent(10)
        c.minimal_covers()
        preimages = counted(monkeypatch, Relation, "preimage_minus_mask")
        saturations = counted(monkeypatch, Cover, "saturate_mask")
        assert respects_covers(identity_relation(c), c, c) == Verdict.ok(100)
        assert sorted(preimages) == [(1 << x,) for x in range(10)]
        assert len(saturations) == 10

    def test_is_convergent_takes_each_down_set_once(self, monkeypatch):
        c = all_equivalent(7)
        downs = counted(monkeypatch, Cover, "down_mask")
        assert c.is_convergent() == Verdict.ok(343)
        assert sorted(downs) == [(1 << x, 1 << x) for x in range(7)]


@pytest.mark.parametrize("name", ["all-equivalent6", "chain6", "near-free5-table", "fact-and-pair5"])
def test_is_convergent_still_calls_down_mask(monkeypatch, name):
    # perfbench's per-layer metric cover.down_mask.calls counts these
    # calls; a check that stopped making them would read 0 there
    downs = counted(monkeypatch, Cover, "down_mask")
    COVERS[name].is_convergent()
    assert downs
