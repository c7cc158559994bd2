import random

import pytest

from covlat import (
    BaseSet,
    Cover,
    InputError,
    InteriorTable,
    MixedParentError,
    PartialTableError,
    Relation,
    UpperBoundFailureError,
    ValidatedMorphism,
    coreflection,
    discrete_interior,
    fixed_carriers,
    identity,
    initial_interior_corrected,
    initial_interior_paper,
    is_fixed,
    is_i_continuous,
    join_interiors,
    leq,
    meet_interiors,
    open_preimage_check,
    trivial_interior,
    verify_interior_axioms,
)
from covlat.errors import CompositionDefectError, ContinuityPreconditionError
from covlat.oracle import (
    all_relations,
    default_base,
    enumerate_interior_tables,
    random_cover,
    random_interior_table,
)
from covlat.verdict import Verdict


class TestAxioms:
    def test_discrete_and_trivial_pass(self, free2):
        assert verify_interior_axioms(discrete_interior(free2)).passed
        assert verify_interior_axioms(trivial_interior(free2)).passed

    def test_contraction_failure_witness(self, free2):
        bad = InteriorTable(free2, [0, 3, 2, 3])
        v = verify_interior_axioms(bad)
        assert not v.passed
        assert v.witness["axiom"] == "I1"
        assert v.witness["carrier"].sorted_members() == ["a"]

    def test_monotonicity_failure_witness(self, m3_cover):
        # identity except {a,b} -> empty: contractive everywhere but the
        # interior of {a} escapes the interior of {a,b}
        table = list(range(8))
        table[3] = 0
        bad = InteriorTable(m3_cover, table)
        v = verify_interior_axioms(bad)
        assert not v.passed
        assert v.witness["axiom"] == "I2"
        assert v.witness["smaller"].sorted_members() == ["a"]

    def test_top_failure_witness(self, free2):
        bad = InteriorTable(free2, [0, 0, 0, 2])
        v = verify_interior_axioms(bad)
        assert not v.passed and v.witness["axiom"] == "I3"

    def test_partial_table_rejected(self, free2):
        with pytest.raises(PartialTableError):
            InteriorTable(free2, [0])


class TestLattice:
    def test_size_two_enumeration(self, free2):
        tables = list(enumerate_interior_tables(free2))
        assert len(tables) == 4
        for t in tables:
            assert verify_interior_axioms(t).passed

    def test_join_meet_valid_and_absorb(self, free2):
        tables = list(enumerate_interior_tables(free2))
        for i in tables:
            for j in tables:
                assert verify_interior_axioms(join_interiors([i, j])).passed
                assert verify_interior_axioms(meet_interiors([i, j])).passed
                assert join_interiors([i, meet_interiors([i, j])]) == i
                assert meet_interiors([i, join_interiors([i, j])]) == i

    def test_extremes_are_dual_to_closure(self, free2):
        # discrete is the greatest interior, trivial the least
        tables = list(enumerate_interior_tables(free2))
        disc = discrete_interior(free2)
        triv = trivial_interior(free2)
        for t in tables:
            assert leq(t, disc)
            assert leq(triv, t)

    def test_mixed_parents_rejected(self, free2, m3_cover):
        with pytest.raises(MixedParentError):
            meet_interiors([discrete_interior(free2), discrete_interior(m3_cover)])


class TestContinuity:
    def test_identity_continuous_iff_geq(self, free2):
        m = identity(free2)
        tables = list(enumerate_interior_tables(free2))
        for i in tables:
            for j in tables:
                assert is_i_continuous(m, i, j).passed == leq(j, i)

    def test_witness_is_target_carrier(self, free2):
        m = identity(free2)
        v = is_i_continuous(m, trivial_interior(free2), discrete_interior(free2))
        assert not v.passed
        assert v.witness["carrier"].base == free2.base


class TestInitialInterior:
    def collapse(self, free2):
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r = Relation(free2.base, one.base, [("a", "x"), ("b", "x")])
        return ValidatedMorphism.build(r, free2, one), one

    def test_literal_pullback_breaks_contraction(self, free2):
        # both source elements map to the single target element; the
        # preimage of its interior is the whole source, escaping {a}
        m, one = self.collapse(free2)
        candidate, verdict = initial_interior_paper(m, discrete_interior(one))
        assert not verdict.passed
        assert verdict.witness["axiom"] == "I1"
        assert verdict.witness["carrier"].sorted_members() == ["a"]
        # the candidate is still returned as data
        assert candidate.table[1] == 3

    def test_identity_literal_pullback_is_fine(self, chain2):
        m = identity(chain2)
        for i in enumerate_interior_tables(chain2):
            candidate, verdict = initial_interior_paper(m, i)
            assert verdict.passed
            assert candidate.table == i.table

    def test_corestriction(self, free2):
        m, one = self.collapse(free2)
        # {x} pulls back to {a,b}; only the full source co-restricts to {x},
        # so the discrete interior pulls back to {a,b} there and to {} elsewhere
        out = initial_interior_corrected(m, discrete_interior(one))
        assert list(out.table) == [0, 0, 0, 3]

    @pytest.mark.parametrize("sizes", [(0, 2), (2, 0), (2, 2), (3, 2), (2, 3)])
    def test_corestriction_matches_definition(self, sizes):
        # {w : preimage of {w} inside t}, over every relation and carrier:
        # the corrected pullback of the discrete interior is its preimage
        src = Cover(default_base(sizes[0]))
        tgt = Cover(BaseSet([f"x{i}" for i in range(sizes[1])]))
        full_src, full_tgt = (1 << sizes[0]) - 1, (1 << sizes[1]) - 1
        for r in all_relations(src.base, tgt.base):
            m = ValidatedMorphism.build(r, src, tgt)
            if r.preimage_minus_mask(full_tgt) != full_src:
                with pytest.raises(UpperBoundFailureError):
                    initial_interior_corrected(m, discrete_interior(tgt))
                continue
            out = initial_interior_corrected(m, discrete_interior(tgt))
            for t in range(1 << sizes[0]):
                expected = sum(
                    1 << w
                    for w in range(sizes[1])
                    if r.preimage_minus_mask(1 << w) & ~t == 0
                )
                assert out.table[t] == r.preimage_minus_mask(expected)

    def test_corrected_passes_axioms_and_continuity(self, free2):
        m, one = self.collapse(free2)
        out = initial_interior_corrected(m, discrete_interior(one))
        assert verify_interior_axioms(out).passed
        assert is_i_continuous(m, out, discrete_interior(one)).passed

    def test_corrected_reverification_failure_is_a_defect_error(self, free2, monkeypatch):
        # a runtime check, not an assert: it must survive python -O
        import covlat.interior

        m, one = self.collapse(free2)
        failing = Verdict.fail({"carrier": one.base.full()}, 1)
        monkeypatch.setattr(covlat.interior, "is_i_continuous", lambda *args: failing)
        with pytest.raises(CompositionDefectError, match="not continuous"):
            initial_interior_corrected(m, discrete_interior(one))

    @pytest.mark.parametrize(
        "fixture, table, message",
        [
            ("free2", [0, 3, 2, 3], "I1 at carrier ['a']"),
            # the interior {a} of {a} escapes the empty interior of {a, b}
            ("m3_cover", [0, 1, 2, 0, 4, 5, 6, 7], "I2 at smaller ['a'], larger ['a', 'b']"),
            ("free2", [0, 0, 0, 2], "I3 at carrier ['a', 'b']"),
        ],
        ids=["I1", "I2", "I3"],
    )
    def test_corrected_target_failing_its_axioms_is_an_input_error(
        self, request, fixture, table, message
    ):
        # an input error, not a library defect
        cover = request.getfixturevalue(fixture)
        target = InteriorTable(cover, table)
        with pytest.raises(InputError) as exc:
            initial_interior_corrected(identity(cover), target)
        assert str(exc.value) == f"target interior table fails {message}"
        assert exc.value.exit_code == 2

    def test_corrected_requires_totality(self, free2):
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r = Relation(free2.base, one.base, [("a", "x")])
        m = ValidatedMorphism.build(r, free2, one)
        with pytest.raises(UpperBoundFailureError):
            initial_interior_corrected(m, discrete_interior(one))

    def test_corrected_is_least_continuous(self):
        # i' is continuous for the morphism iff i' lies above the corrected
        # pullback, for every enumerated i'
        rng = random.Random(11)
        found = 0
        for _ in range(40):
            c1 = random_cover(rng, 2)
            c2 = random_cover(rng, 2)
            pairs = [
                (s, t)
                for s in c1.base.elements
                for t in c2.base.elements
                if rng.random() < 0.6
            ]
            r = Relation(c1.base, c2.base, pairs)
            if not r.is_left_total():
                continue
            from covlat import respects_covers

            if not respects_covers(r, c1, c2).passed:
                continue
            m = ValidatedMorphism.build(r, c1, c2)
            i_tgt = random_interior_table(rng, c2)
            iinit = initial_interior_corrected(m, i_tgt)
            found += 1
            for i_prime in enumerate_interior_tables(c1):
                assert is_i_continuous(m, i_prime, i_tgt).passed == leq(
                    iinit, i_prime
                )
        assert found >= 5


class TestOpen:
    def test_predicates(self, free2):
        triv = trivial_interior(free2)
        assert is_fixed(triv, free2.base.full())
        assert is_fixed(triv, free2.base.empty())
        assert not is_fixed(triv, free2.base.subset(["a"]))

    def test_open_family_is_join_closed(self, free2):
        for i in enumerate_interior_tables(free2):
            opens = fixed_carriers(i)
            for u in opens:
                for v in opens:
                    assert is_fixed(i, u | v)

    def test_open_preimage(self, free2):
        m = identity(free2)
        i = trivial_interior(free2)
        assert open_preimage_check(m, i, i).passed

    def test_open_preimage_needs_continuity(self, free2):
        m = identity(free2)
        with pytest.raises(ContinuityPreconditionError):
            open_preimage_check(m, trivial_interior(free2), discrete_interior(free2))


class TestCoreflection:
    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent_and_galois(self, seed):
        rng = random.Random(seed)
        cover = random_cover(rng, rng.randint(1, 3))
        i = random_interior_table(rng, cover)
        core = coreflection(i)
        size = 1 << len(cover.base)
        opens = [m for m in range(size) if i.table[m] == m]
        for t in range(size):
            kt = core.table[t]
            assert core.table[kt] == kt  # idempotent
            for v in opens:
                # open v below the coreflection iff v below t
                assert (v & ~kt == 0) == (v & ~t == 0)

    def test_coreflection_is_pointwise_below(self, free2):
        for i in enumerate_interior_tables(free2):
            assert leq(coreflection(i), i)
