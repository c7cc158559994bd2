import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covlat.morphism
from covlat import (
    BaseMismatchError,
    BaseSet,
    CompositionDefectError,
    Cover,
    MorphismValidationError,
    Relation,
    ValidatedMorphism,
    Verdict,
    canonical_form,
    compose,
    cover_from_suplattice,
    equivalent,
    identity,
    respects_covers,
    terminal_cover,
    terminal_morphism,
)
from covlat.oracle import (
    all_relations,
    convergence_singletons_full,
    convergent_morphism_full,
    enumerate_covers,
    minimal_covers_full,
    random_cover,
    respects_covers_every_cover,
    respects_covers_full,
    standard_suplattices,
)
from covlat.morphism import _convergence_verdict
from conftest import assert_same_verdict, random_space_cover


def random_relation(rng, c1, c2):
    pairs = [(s, t) for s in c1.base.elements for t in c2.base.elements if rng.random() < 0.5]
    return Relation(c1.base, c2.base, pairs)


class TestRelation:
    def test_image_and_preimage(self, free2):
        tgt = BaseSet(["x", "y"])
        r = Relation(free2.base, tgt, [("a", "x"), ("a", "y"), ("b", "x")])
        assert r.direct_image_mask(free2.base.mask_of(["a"])) == tgt.mask_of(["x", "y"])
        assert r.preimage_minus_mask(tgt.mask_of(["x"])) == free2.base.mask_of(["a", "b"])
        assert r.preimage_minus_mask(0) == 0

    def test_inverse_image_is_converse_direct_image(self, free2):
        tgt = BaseSet(["x", "y"])
        r = Relation(free2.base, tgt, [("a", "y"), ("b", "x")])
        conv = Relation(tgt, free2.base, [(t, s) for s, t in r.pairs])
        for w in range(1 << len(tgt)):
            assert r.preimage_minus_mask(w) == conv.direct_image_mask(w)

    def test_left_total(self, free2):
        tgt = BaseSet(["x"])
        assert Relation(free2.base, tgt, [("a", "x"), ("b", "x")]).is_left_total()
        assert not Relation(free2.base, tgt, [("a", "x")]).is_left_total()


class TestImageTables:
    """`Relation.images()` and `preimages()`, built by doubling, against the
    per-mask bit loops."""

    @given(st.integers(0, 10_000), st.integers(0, 6), st.integers(0, 6), st.sampled_from([0, 0.2, 0.5, 1]))
    @settings(max_examples=80, deadline=None)
    def test_match_per_mask_loops(self, seed, n1, n2, density):
        rng = random.Random(seed)
        source = BaseSet([f"s{i}" for i in range(n1)])
        target = BaseSet([f"t{i}" for i in range(n2)])
        pairs = [(s, t) for s in source.elements for t in target.elements if rng.random() < density]
        r = Relation(source, target, pairs)
        assert r.images() == [r.direct_image_mask(x) for x in range(1 << n1)]
        assert r.preimages() == [r.preimage_minus_mask(w) for w in range(1 << n2)]

    def test_empty_and_not_left_total(self, free2):
        tgt = BaseSet(["x", "y", "z"])
        empty = Relation(free2.base, tgt, [])
        assert empty.images() == [0] * 4
        assert empty.preimages() == [0] * 8
        partial = Relation(free2.base, tgt, [("b", "x"), ("b", "z")])
        assert not partial.is_left_total()
        assert partial.images() == [0, 0, 0b101, 0b101]
        assert partial.preimages() == [0, 0b10, 0, 0b10, 0b10, 0b10, 0b10, 0b10]

    def test_empty_bases(self):
        none = BaseSet([])
        one = BaseSet(["x"])
        assert Relation(none, one, []).images() == [0]
        assert Relation(none, one, []).preimages() == [0, 0]
        assert Relation(one, none, []).images() == [0, 0]


class TestRespectsCovers:
    def test_identity_respects(self, chain2):
        m = identity(chain2)
        assert m.respects.passed

    def test_failing_relation_with_witness(self, chain2, free2):
        # target: chain (a covered by {b}); source: free cover.
        # send a to a, b to b: preimage of {b} = {b}, whose free saturation
        # misses the preimage of {a} = {a}
        r = Relation(free2.base, chain2.base, [("a", "a"), ("b", "b")])
        v = respects_covers(r, free2, chain2)
        assert not v.passed
        assert v.witness["element"] == "a"
        assert v.witness["v"].sorted_members() == ["b"]

    def test_build_raises_on_invalid(self, chain2, free2):
        r = Relation(free2.base, chain2.base, [("a", "a"), ("b", "b")])
        with pytest.raises(MorphismValidationError):
            ValidatedMorphism.build(r, free2, chain2)

    def test_endpoint_mismatch(self, m3_cover, free2):
        r = Relation(free2.base, free2.base, [])
        with pytest.raises(BaseMismatchError):
            respects_covers(r, free2, m3_cover)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_quantification(self, seed):
        rng = random.Random(seed)
        c1 = random_cover(rng, rng.randint(0, 3))
        c2 = random_cover(rng, rng.randint(0, 3))
        for r in all_relations(c1.base, c2.base):
            fast = respects_covers(r, c1, c2)
            slow = respects_covers_full(r, c1, c2)
            assert fast.passed == slow.passed


class TestRespectsMinimalCovers:
    """Cover respect on minimal covers against the scan over every cover."""

    @given(st.integers(0, 10_000), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_random_covers(self, seed, n1, n2):
        rng = random.Random(seed)
        c1 = random_cover(rng, n1)
        c2 = random_cover(rng, n2)
        r = random_relation(rng, c1, c2)
        assert_same_verdict(respects_covers(r, c1, c2), respects_covers_every_cover(r, c1, c2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_suplattice_and_concrete_space_covers(self, seed):
        rng = random.Random(seed)
        lats = standard_suplattices()
        c1 = cover_from_suplattice(lats[rng.choice(sorted(lats))])
        c2 = random_space_cover(rng, 4, points=3)
        for src, tgt in ((c1, c2), (c2, c1)):
            r = random_relation(rng, src, tgt)
            assert_same_verdict(
                respects_covers(r, src, tgt), respects_covers_every_cover(r, src, tgt)
            )


class TestConvergentMorphism:
    def test_identity_is_convergent(self, chain2):
        assert identity(chain2).convergent.passed

    def test_non_total_relation_fails_totality(self, free2):
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r = Relation(free2.base, one.base, [("a", "x")])
        m = ValidatedMorphism.build(r, free2, one)
        v = m.convergent
        assert not v.passed
        assert v.witness["condition"] == "source covered by preimage of target"

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_quantification(self, seed):
        rng = random.Random(100 + seed)
        c1 = random_cover(rng, rng.randint(0, 3))
        c2 = random_cover(rng, rng.randint(0, 3))
        for r in all_relations(c1.base, c2.base):
            if not respects_covers(r, c1, c2).passed:
                continue
            m = ValidatedMorphism.build(r, c1, c2)
            assert m.convergent.passed == convergent_morphism_full(r, c1, c2).passed


class TestConvergenceSingletons:
    """The hoisted singleton-pair loop against the per-pair twin: the same
    verdict, witness and ``checked``, failures included."""

    @staticmethod
    def assert_twins_agree(c1, c2, relations):
        outcomes = set()
        for r in relations:
            fast = _convergence_verdict(r, c1, c2)
            assert fast == convergence_singletons_full(r, c1, c2)
            outcomes.add(fast.witness["condition"] if fast.witness else "pass")
        return outcomes

    def test_every_relation_between_covers_up_to_two_elements(self):
        # covers with the same saturation table give the same verdicts
        covers = list(
            {(len(c.base), tuple(c.saturation_table())): c for c in enumerate_covers(2)}.values()
        )
        outcomes = set()
        for c1, c2 in itertools.product(covers, repeat=2):
            outcomes |= self.assert_twins_agree(c1, c2, all_relations(c1.base, c2.base))
        assert outcomes == {"pass", "source covered by preimage of target", "down-set"}

    def test_seeded_three_element_covers(self):
        outcomes = set()
        for seed in range(8):
            rng = random.Random(500 + seed)
            c1 = random_cover(rng, 3)
            c2 = random_cover(rng, 3)
            relations = [random_relation(rng, c1, c2) for _ in range(64)]
            outcomes |= self.assert_twins_agree(c1, c2, relations)
        assert "down-set" in outcomes and "pass" in outcomes


def respects_covers_per_pair(r, c1, c2):
    """``respects_covers_full`` with one ``preimage_minus_mask`` per read."""
    n2 = len(c2.base)
    checked = 0
    for v in range(1 << n2):
        sat_v = c2.saturate_mask(v)
        pre_v_sat = c1.saturate_mask(r.preimage_minus_mask(v))
        for u in range(1 << n2):
            if u & ~sat_v:
                continue
            checked += 1
            if r.preimage_minus_mask(u) & ~pre_v_sat:
                return Verdict.fail(
                    {"u": c2.base.subset_from_mask(u), "v": c2.base.subset_from_mask(v)}, checked
                )
    return Verdict.ok(checked)


def convergent_morphism_per_pair(r, c1, c2):
    """``convergent_morphism_full`` with one ``preimage_minus_mask`` per read."""
    n1 = len(c1.base)
    n2 = len(c2.base)
    checked = 1
    if ((1 << n1) - 1) & ~c1.saturate_mask(r.preimage_minus_mask((1 << n2) - 1)):
        return Verdict.fail({"condition": "source covered by preimage of target"}, checked)
    for u in range(1 << n2):
        pre_u = r.preimage_minus_mask(u)
        for v in range(1 << n2):
            checked += 1
            pre_v = r.preimage_minus_mask(v)
            left = c1.down_mask(pre_u, pre_v)
            right = c1.saturate_mask(r.preimage_minus_mask(c2.down_mask(u, v)))
            if left & ~right:
                return Verdict.fail(
                    {
                        "condition": "down-set",
                        "u": c2.base.subset_from_mask(u),
                        "v": c2.base.subset_from_mask(v),
                    },
                    checked,
                )
    return Verdict.ok(checked)


class TestFullTwinsReadEachPreimageOnce:
    """The full-quantifier twins, reading ``Relation.preimages()``, against
    their per-pair form: the same verdict, witness and ``checked``."""

    @staticmethod
    def outcomes(c1, c2, relations):
        seen = set()
        for r in relations:
            respects = respects_covers_full(r, c1, c2)
            assert respects == respects_covers_per_pair(r, c1, c2)
            convergent = convergent_morphism_full(r, c1, c2)
            assert convergent == convergent_morphism_per_pair(r, c1, c2)
            seen.add("respects" if respects.passed else "no respect")
            seen.add(convergent.witness["condition"] if convergent.witness else "convergent")
        return seen

    def test_every_relation_between_covers_up_to_two_elements(self):
        covers = list(
            {(len(c.base), tuple(c.saturation_table())): c for c in enumerate_covers(2)}.values()
        )
        assert len(covers) == 10
        seen = set()
        for c1, c2 in itertools.product(covers, repeat=2):
            seen |= self.outcomes(c1, c2, all_relations(c1.base, c2.base))
        assert seen == {
            "respects",
            "no respect",
            "convergent",
            "source covered by preimage of target",
            "down-set",
        }

    def test_seeded_three_element_covers(self):
        seen = set()
        for seed in range(8):
            rng = random.Random(700 + seed)
            c1 = random_cover(rng, 3)
            c2 = random_cover(rng, 3)
            seen |= self.outcomes(c1, c2, [random_relation(rng, c1, c2) for _ in range(32)])
        assert {"no respect", "down-set", "convergent"} <= seen


class TestMinimalCoversOncePerCover:
    def test_shared_and_unchanged_by_respects_covers(self):
        rng = random.Random(7)
        c1 = random_cover(rng, 3)
        c = random_cover(rng, 4, 8)
        first = c.minimal_covers()
        for _ in range(50):
            respects_covers(random_relation(rng, c1, c), c1, c)
        assert c.minimal_covers() is first
        assert first == minimal_covers_full(c)


class TestEquivalence:
    def test_saturation_padding_is_invisible(self, chain2):
        # b -> b alone versus b -> b plus a -> b: the extra pair lands
        # inside the saturation of the preimage, same arrow
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r1 = Relation(chain2.base, one.base, [("b", "x")])
        r2 = Relation(chain2.base, one.base, [("a", "x"), ("b", "x")])
        m1 = ValidatedMorphism.build(r1, chain2, one)
        m2 = ValidatedMorphism.build(r2, chain2, one)
        assert equivalent(m1, m2)
        assert canonical_form(m1) == canonical_form(m2)

    def test_distinct_arrows(self, free2):
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r1 = Relation(free2.base, one.base, [("a", "x")])
        r2 = Relation(free2.base, one.base, [("b", "x")])
        m1 = ValidatedMorphism.build(r1, free2, one)
        m2 = ValidatedMorphism.build(r2, free2, one)
        assert not equivalent(m1, m2)

    def test_requires_matching_endpoints(self, chain2, free2):
        with pytest.raises(BaseMismatchError):
            equivalent(identity(chain2), identity(free2))

    def test_canonical_json_shape(self, chain2):
        m = identity(chain2)
        js = canonical_form(m).to_json()
        assert js == {"a": ["a"], "b": ["a", "b"]}

    def test_equal_forms_hash_equal_and_agree_with_equivalent(self, chain2, m3_cover):
        for c1, c2 in [(chain2, chain2), (m3_cover, chain2)]:
            arrows = [
                ValidatedMorphism.build(r, c1, c2)
                for r in all_relations(c1.base, c2.base)
                if respects_covers(r, c1, c2).passed
            ]
            forms = [canonical_form(m) for m in arrows]
            assert len(set(forms)) < len(forms)  # some classes hold several arrows
            for (m1, f1), (m2, f2) in itertools.product(zip(arrows, forms), repeat=2):
                assert equivalent(m1, m2) == (f1 == f2)
                if f1 == f2:
                    assert hash(f1) == hash(f2)


class TestCompose:
    def test_identity_left_and_right(self, chain2):
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        m = terminal_morphism(chain2, one)
        assert equivalent(compose(m, identity(chain2)), m)
        assert equivalent(compose(identity(one), m), m)

    def test_chain_mismatch(self, chain2, free2):
        with pytest.raises(BaseMismatchError):
            compose(identity(chain2), identity(free2))

    def test_relational_composite_pairs(self, free2):
        mid = BaseSet(["m", "n"])
        midc = Cover.from_axiom_names(mid, [])
        s = ValidatedMorphism.build(
            Relation(free2.base, mid, [("a", "m"), ("b", "n")]), free2, midc
        )
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        t = ValidatedMorphism.build(Relation(mid, one.base, [("m", "x")]), midc, one)
        out = compose(t, s)
        assert sorted(out.relation.pairs) == [("a", "x")]

    def test_failed_reverification_is_a_defect_with_its_witness(self, monkeypatch, chain2):
        s = t = identity(chain2)
        witness = {"element": "a", "v": chain2.base.subset_from_mask(0)}
        monkeypatch.setattr(covlat.morphism, "respects_covers", lambda r, c1, c2: Verdict.fail(witness, 1))
        message = f"composite of validated morphisms failed re-verification: {witness}"
        with pytest.raises(CompositionDefectError, match=re.escape(message)):
            compose(t, s)


class TestTerminal:
    def test_terminal_morphism_is_convergent(self, m3_cover):
        m = terminal_morphism(m3_cover)
        assert m.respects.passed and m.convergent.passed

    def test_every_convergent_arrow_to_terminal_is_the_canonical_one(self):
        term = terminal_cover()
        for seed in range(15):
            rng = random.Random(seed)
            c = random_cover(rng, rng.randint(1, 4))
            canon = terminal_morphism(c, term)
            for r in all_relations(c.base, term.base):
                if not respects_covers(r, c, term).passed:
                    continue
                m = ValidatedMorphism.build(r, c, term)
                if not m.convergent.passed:
                    continue
                assert equivalent(m, canon)


class TestComposeByDefinition:
    """`compose` against the composite by definition: (a, w) is a pair iff
    some middle element m has (a, m) in s and (m, w) in t.  Every relation
    respects free covers, so the empty and the non-left-total relations
    between bases of at most 2 elements are all composed."""

    @pytest.mark.parametrize("sizes", list(itertools.product(range(3), repeat=3)))
    def test_every_relation_on_small_bases(self, sizes):
        x, y, z = (Cover(BaseSet([f"{name}{i}" for i in range(n)])) for name, n in zip("xyz", sizes))
        second = [ValidatedMorphism.build(r, y, z) for r in all_relations(y.base, z.base)]
        for r1 in all_relations(x.base, y.base):
            s = ValidatedMorphism.build(r1, x, y)
            for t in second:
                expected = {(a, w) for a, m in r1.pairs for m2, w in t.relation.pairs if m == m2}
                composite = compose(t, s)
                assert composite.relation.pairs == expected
                assert (composite.source_cover, composite.target_cover) == (x, z)
