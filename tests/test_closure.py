import random

import pytest

from covlat import (
    BaseSet,
    ClosureTable,
    Cover,
    ExtensionFailureError,
    InitialContinuityDefectError,
    InputError,
    MixedParentError,
    PartialTableError,
    Relation,
    ValidatedMorphism,
    canonical_form,
    compare,
    discrete_closure,
    equivalent,
    fixed_carriers,
    identity,
    initial_closure,
    is_c_continuous,
    is_dense,
    is_fixed,
    join_closures,
    leq,
    meet_closures,
    preservation_checks,
    reflection,
    trivial_closure,
    verify_closure_axioms,
)
from covlat.errors import CompositionDefectError, ContinuityPreconditionError
from covlat.oracle import (
    enumerate_closure_tables,
    random_closure_table,
    random_cover,
)
from covlat.verdict import Verdict


class TestAxioms:
    def test_discrete_and_trivial_pass(self, free2):
        assert verify_closure_axioms(discrete_closure(free2)).passed
        assert verify_closure_axioms(trivial_closure(free2)).passed

    def test_extension_failure_witness(self, free2):
        bad = ClosureTable(free2, [0, 0, 2, 3])
        v = verify_closure_axioms(bad)
        assert not v.passed
        assert v.witness["axiom"] == "C1"
        assert v.witness["carrier"].sorted_members() == ["a"]

    def test_monotonicity_failure_witness(self, m3_cover):
        # identity except {a} -> {a,c}: extensive everywhere but the image
        # of {a} escapes the image of {a,b}
        table = list(range(8))
        table[1] = 5
        bad = ClosureTable(m3_cover, table)
        v = verify_closure_axioms(bad)
        assert not v.passed
        assert v.witness["axiom"] == "C2"
        assert v.witness["smaller"].sorted_members() == ["a"]
        assert v.witness["larger"].sorted_members() == ["a", "b"]

    def test_bottom_failure_witness(self, free2):
        bad = ClosureTable(free2, [1, 1, 3, 3])
        v = verify_closure_axioms(bad)
        assert not v.passed and v.witness["axiom"] == "C3"

    def test_partial_table_rejected(self, free2):
        with pytest.raises(PartialTableError):
            ClosureTable(free2, [0, 1])
        with pytest.raises(PartialTableError):
            ClosureTable.from_mapping(free2, {0: 0, 1: 1, 2: 2})

    @pytest.mark.parametrize(
        "mapping",
        [
            {0: 0, 1: 1, 2: 2, 4: 3},  # the right length, one key out of range
            {0: 0, 1: 1, 2: 2, 3: 3, 4: 3},  # every carrier and one key more
            [0, 1, None, 3],  # a list by mask, one carrier without an image
        ],
        ids=["key-out-of-range", "extra-key", "list-with-hole"],
    )
    def test_from_mapping_rejects_a_partial_mapping(self, free2, mapping):
        with pytest.raises(PartialTableError, match="^operator table must map every carrier exactly once$"):
            ClosureTable.from_mapping(free2, mapping)

    def test_from_mapping_reads_a_dict_or_a_list(self, free2):
        table = [1, 1, 3, 3]
        assert ClosureTable.from_mapping(free2, dict(zip(range(3, -1, -1), table[::-1]))).table == (1, 1, 3, 3)
        assert ClosureTable.from_mapping(free2, table).table == (1, 1, 3, 3)


class TestLattice:
    def test_size_two_enumeration(self, free2):
        tables = list(enumerate_closure_tables(free2))
        assert len(tables) == 4
        for t in tables:
            assert verify_closure_axioms(t).passed

    def test_join_meet_valid_and_absorb(self, free2):
        tables = list(enumerate_closure_tables(free2))
        for c in tables:
            for d in tables:
                j = join_closures([c, d])
                m = meet_closures([c, d])
                assert verify_closure_axioms(j).passed
                assert verify_closure_axioms(m).passed
                assert join_closures([c, meet_closures([c, d])]) == c
                assert meet_closures([c, join_closures([c, d])]) == c

    def test_extremes(self, free2):
        tables = list(enumerate_closure_tables(free2))
        disc = discrete_closure(free2)
        triv = trivial_closure(free2)
        for t in tables:
            assert leq(disc, t)
            assert leq(t, triv)

    def test_compare_witness(self, free2):
        v = compare(trivial_closure(free2), discrete_closure(free2))
        assert not v.passed
        assert v.witness["carrier"].sorted_members() == ["a"]

    def test_mixed_parents_rejected(self, free2, m3_cover):
        with pytest.raises(MixedParentError):
            join_closures([discrete_closure(free2), discrete_closure(m3_cover)])


class TestContinuity:
    def test_identity_continuous_iff_leq(self, free2):
        m = identity(free2)
        tables = list(enumerate_closure_tables(free2))
        for c in tables:
            for d in tables:
                assert is_c_continuous(m, c, d).passed == leq(c, d)

    def test_witness_is_source_carrier(self, free2):
        m = identity(free2)
        v = is_c_continuous(m, trivial_closure(free2), discrete_closure(free2))
        assert not v.passed
        assert v.witness["carrier"].base == free2.base

    def test_preimage_form_agrees_for_functions(self, free2):
        # for a function, continuity is c_src(pre(W)) inside pre(c_tgt(W))
        # for every target carrier W
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r = Relation(free2.base, one.base, [("a", "x"), ("b", "x")])
        m = ValidatedMorphism.build(r, free2, one)
        pre = r.preimages()
        for c in enumerate_closure_tables(free2):
            for d in enumerate_closure_tables(one):
                preimage_form = all(
                    c.table[pre[w]] & ~pre[d.table[w]] == 0 for w in range(len(pre))
                )
                assert is_c_continuous(m, c, d).passed == preimage_form


    def test_continuity_is_of_the_relation_not_its_ccov_class(self):
        # a is covered by the empty set, so where a goes does not change
        # the arrow; the two relations are one CCov class, yet only the
        # first is continuous
        base = BaseSet(["a", "b"])
        src = Cover.from_axiom_names(base, [("a", [])])
        tgt = Cover.from_axiom_names(base, [])
        c_src = ClosureTable(src, [0, 3, 3, 3])
        c_tgt = ClosureTable(tgt, [0, 1, 3, 3])
        m1 = ValidatedMorphism.build(Relation(base, base, [("a", "a"), ("b", "a")]), src, tgt)
        m2 = ValidatedMorphism.build(Relation(base, base, [("a", "b"), ("b", "a")]), src, tgt)
        assert canonical_form(m1).table == canonical_form(m2).table == (3, 1)
        assert equivalent(m1, m2)
        assert is_c_continuous(m1, c_src, c_tgt).passed
        split = is_c_continuous(m2, c_src, c_tgt)
        assert not split.passed
        assert split.witness == {"carrier": base.subset(["b"])}


class TestInitialClosure:
    def test_identity_returns_target_verbatim(self, chain2):
        m = identity(chain2)
        for c in enumerate_closure_tables(chain2):
            assert initial_closure(m, c).table == c.table

    def test_non_total_relation_rejected(self, free2):
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r = Relation(free2.base, one.base, [("a", "x")])
        m = ValidatedMorphism.build(r, free2, one)
        with pytest.raises(ExtensionFailureError):
            initial_closure(m, discrete_closure(one))

    def test_extension_witness_is_the_lowest_unrelated_element(self):
        # b and c are related to nothing; the least carrier escaping the
        # preimage of its image is {b}, not {c}, {b, c} or the full source
        src = Cover.from_axiom_names(BaseSet(["a", "b", "c"]), [])
        one = Cover.from_axiom_names(BaseSet(["x"]), [])
        r = Relation(src.base, one.base, [("a", "x")])
        m = ValidatedMorphism.build(r, src, one)
        with pytest.raises(ExtensionFailureError) as exc:
            initial_closure(m, discrete_closure(one))
        assert exc.value.witness.sorted_members() == ["b"]

    @pytest.mark.parametrize(
        "fixture, table, message",
        [
            # nothing is closed over itself
            ("free2", [0, 0, 0, 0], "C1 at carrier ['a']"),
            # {a} closes to {a, b}, outside the closure {a, c} of {a, c}
            ("m3_cover", [0, 3, 2, 3, 4, 5, 6, 7], "C2 at smaller ['a'], larger ['a', 'c']"),
            ("free2", [1, 1, 3, 3], "C3 at carrier []"),
        ],
        ids=["C1", "C2", "C3"],
    )
    def test_target_failing_its_axioms_is_an_input_error(self, request, fixture, table, message):
        # rejected as input, before the pullback could blame the lift
        cover = request.getfixturevalue(fixture)
        target = ClosureTable(cover, table)
        with pytest.raises(InputError) as exc:
            initial_closure(identity(cover), target)
        assert str(exc.value) == f"target closure table fails {message}"
        assert exc.value.exit_code == 2

    def test_relational_continuity_gap(self, free2):
        # a relates to both targets, b only to the first: the pulled-back
        # table is a valid closure operator yet the morphism is not
        # continuous for it, because image-after-preimage overshoots
        tgt = Cover.from_axiom_names(BaseSet(["x", "y"]), [])
        r = Relation(free2.base, tgt.base, [("a", "x"), ("a", "y"), ("b", "x")])
        m = ValidatedMorphism.build(r, free2, tgt)
        with pytest.raises(InitialContinuityDefectError):
            initial_closure(m, discrete_closure(tgt))

    def test_reverification_axiom_failure_is_a_defect_error(self, free2, monkeypatch):
        # past the left-total and target checks the pulled-back table is
        # valid by proof, so failing its re-check is a library defect, not
        # a continuity gap; a runtime check, not an assert
        import covlat.closure

        target = discrete_closure(free2)
        verify = covlat.closure.verify_closure_axioms
        failing = Verdict.fail({"axiom": "C1", "carrier": free2.base.full()}, 1)
        monkeypatch.setattr(
            covlat.closure, "verify_closure_axioms", lambda t: verify(t) if t is target else failing
        )
        with pytest.raises(CompositionDefectError, match="initial closure fails its axioms"):
            initial_closure(identity(free2), target)

    def test_maximality_when_defined(self):
        # whenever the pullback succeeds it is the largest continuous table
        rng = random.Random(7)
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
            c_tgt = random_closure_table(rng, c2)
            try:
                cinit = initial_closure(m, c_tgt)
            except InitialContinuityDefectError:
                continue
            found += 1
            for c_prime in enumerate_closure_tables(c1):
                assert is_c_continuous(m, c_prime, c_tgt).passed == leq(
                    c_prime, cinit
                )
        assert found >= 5


class TestClosedDense:
    def test_predicates(self, free2):
        triv = trivial_closure(free2)
        assert is_fixed(triv, free2.base.empty())
        assert is_fixed(triv, free2.base.full())
        assert not is_fixed(triv, free2.base.subset(["a"]))
        assert is_dense(triv, free2.base.subset(["a"]))
        assert not is_dense(triv, free2.base.empty())

    def test_closed_family_is_meet_closed(self, free2):
        for c in enumerate_closure_tables(free2):
            closed = fixed_carriers(c)
            for u in closed:
                for v in closed:
                    assert is_fixed(c, u & v)

    def test_preservation(self, free2):
        m = identity(free2)
        c = trivial_closure(free2)
        assert preservation_checks(m, c, c).passed

    def test_preservation_needs_continuity(self, free2):
        m = identity(free2)
        with pytest.raises(ContinuityPreconditionError):
            preservation_checks(m, trivial_closure(free2), discrete_closure(free2))


class TestReflection:
    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent_and_galois(self, seed):
        rng = random.Random(seed)
        cover = random_cover(rng, rng.randint(1, 3))
        c = random_closure_table(rng, cover)
        refl = reflection(c)
        size = 1 << len(cover.base)
        closed = [m for m in range(size) if c.table[m] == m]
        for t in range(size):
            rt = refl.table[t]
            assert refl.table[rt] == rt  # idempotent
            for v in closed:
                # reflection below v iff t below v
                assert (rt & ~v == 0) == (t & ~v == 0)

    def test_reflection_of_closure_is_pointwise_above(self, free2):
        for c in enumerate_closure_tables(free2):
            assert leq(c, reflection(c))
