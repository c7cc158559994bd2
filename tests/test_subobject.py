import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlat import (
    BaseMismatchError,
    BaseSet,
    Cover,
    induced_cover,
    p_star,
)
from covlat.oracle import (
    default_base,
    sublocale_verify_full,
)


class TestSublocaleFamily:
    def test_family_members(self, free2):
        t = free2.base.subset(["a"])
        fam = p_star(t)
        got = sorted(s.sorted_members() for s in fam)
        # V union {b} for V inside {a}
        assert got == [["a", "b"], ["b"]]

    def test_verify_laws(self, free2, chain2, m3_cover):
        for cover in (free2, chain2, m3_cover):
            for t in cover.base.all_subsets():
                assert p_star(t).verify().passed

    def test_top_and_bottom(self, m3_cover):
        t = m3_cover.base.subset(["a", "b"])
        fam = p_star(t)
        assert m3_cover.base.full() in fam
        assert m3_cover.base.subset(["c"]) in fam
        assert m3_cover.base.subset(["a"]) not in fam

    def test_full_carrier_gives_whole_powerset(self, free2):
        fam = p_star(free2.base.full())
        assert len(fam) == 4


def tampered(fam, masks):
    """The family of `fam`'s carrier with the given members instead."""
    base = fam.carrier.base
    fam.sets = tuple(base.subset_from_mask(m) for m in masks)
    fam._masks = frozenset(masks)
    return fam


class TestSublocaleFamilyCut:
    """`SublocaleFamily.verify` (the up-set test) against the scan over
    pairs of members."""

    def families(self, rng, size):
        base = default_base(size)
        t = base.subset_from_mask(rng.randrange(1 << size))
        masks = [u.mask for u in p_star(t)]
        dropped = list(masks)
        del dropped[rng.randrange(len(dropped))]
        extra = sorted(set(masks) | {rng.randrange(1 << size)})
        arbitrary = sorted({rng.randrange(1 << size) for _ in range(rng.randint(1, 1 << size))})
        return [
            p_star(t),
            tampered(p_star(t), dropped),
            tampered(p_star(t), extra),
            tampered(p_star(t), arbitrary),
            tampered(p_star(t), masks[1:] + [(1 << size) - 1]),
        ]

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_verdicts_match_pair_scan(self, seed, size):
        rng = random.Random(seed)
        for fam in self.families(rng, size):
            fast, slow = fam.verify(), sublocale_verify_full(fam)
            assert fast.passed == slow.passed
            assert fast.witness == slow.witness
            assert fast.checked == (len(fam) if fast.passed else slow.checked)

    def test_passing_verdict_counts_members(self, m3_cover):
        fam = p_star(m3_cover.base.subset(["a", "b"]))
        assert fam.verify().checked == len(fam) == 4

    def test_missing_complement_fails_meet_law(self, m3_cover):
        fam = p_star(m3_cover.base.subset(["a", "b"]))
        # closed under intersection, but the complement {c} is missing
        v = tampered(fam, [0b101, 0b111]).verify()
        assert not v.passed
        assert v.witness["law"] == "meet"
        assert v.witness["got"].sorted_members() == ["a", "c"]
        assert v.checked == 4


class TestInducedCover:
    def test_relativized_axioms(self, chain2):
        t = chain2.base.subset(["b"])
        axioms = induced_cover(chain2, t)
        # complement is {a}; every saturated set containing a yields a
        # relativized axiom (a, U union {a})
        heads = {h for h, _ in axioms}
        assert heads == {"a"}
        for _, rhs in axioms:
            assert "a" in rhs.members()

    def test_full_carrier_has_no_relative_axioms(self, chain2):
        assert induced_cover(chain2, chain2.base.full()) == []

    def test_base_mismatch(self, chain2, m3_cover):
        with pytest.raises(BaseMismatchError):
            induced_cover(chain2, m3_cover.base.full())

