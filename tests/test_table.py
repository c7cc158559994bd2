"""The operator-table core shared by closure and interior tables: the
complement conjugation, the coreflection derived through it, and the
structural axiom check and reflection against their full scans."""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from covlat import (
    ClosureTable,
    InteriorTable,
    InputError,
    BaseSet,
    MixedParentError,
    Cover,
    Relation,
    ValidatedMorphism,
    coreflection,
    discrete_closure,
    discrete_interior,
    initial_interior_paper,
    is_c_continuous,
    is_i_continuous,
    join_closures,
    join_interiors,
    meet_closures,
    meet_interiors,
    reflection,
    trivial_closure,
    trivial_interior,
    verify_closure_axioms,
    verify_interior_axioms,
)
from covlat.oracle import (
    coreflection_direct,
    random_closure_table,
    random_cover,
    random_interior_table,
    reflect_full,
    saturation_table_full,
    scan_axioms_full,
)
from covlat.sets import joins_below, submasks
from covlat.table import compare, conjugate, leq, lift, reflect, scan_axioms
from covlat.verdict import Verdict


def _any_table(rng, cover, cls):
    """A table that is valid, or valid but for one entry, or arbitrary."""
    size = 1 << len(cover.base)
    make = random_closure_table if cls is ClosureTable else random_interior_table
    table = list(make(rng, cover).table)
    choice = rng.randrange(3)
    if choice == 1:
        table[rng.randrange(size)] = rng.randrange(size)
    elif choice == 2:
        table = [rng.randrange(size) for _ in range(size)]
    return cls(cover, table)


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_coreflection_matches_direct_union_of_opens(seed, size):
    rng = random.Random(seed)
    i = _any_table(rng, random_cover(rng, size), InteriorTable)
    assert coreflection(i) == coreflection_direct(i)


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_conjugate_is_an_involution(seed, size):
    rng = random.Random(seed)
    cover = random_cover(rng, size)
    for cls in (ClosureTable, InteriorTable):
        t = _any_table(rng, cover, cls)
        other = conjugate(t)
        assert other.kind != t.kind
        assert conjugate(other) == t


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_conjugate_maps_valid_tables_to_valid_tables(seed, size):
    rng = random.Random(seed)
    cover = random_cover(rng, size)
    i = _any_table(rng, cover, InteriorTable)
    assert verify_closure_axioms(conjugate(i)).passed == verify_interior_axioms(i).passed
    c = _any_table(rng, cover, ClosureTable)
    assert verify_interior_axioms(conjugate(c)).passed == verify_closure_axioms(c).passed


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_conjugation_swaps_join_and_meet_and_reflections(seed, size):
    rng = random.Random(seed)
    cover = random_cover(rng, size)
    i, j = random_interior_table(rng, cover), random_interior_table(rng, cover)
    assert conjugate(join_interiors([i, j])) == meet_closures([conjugate(i), conjugate(j)])
    assert conjugate(coreflection(i)) == reflection(conjugate(i))


# -- the structural axiom check and reflection against the full scans --------


def candidate_tables(rng, cover):
    """Tables of both kinds that pass and fail the axioms in every way:
    valid, unmonotonized, discrete, trivial, saturation tables of random
    covers with their conjugates, and the perturbed ones of `_any_table`."""
    size = 1 << len(cover.base)
    full = size - 1
    sat = ClosureTable(cover, saturation_table_full(random_cover(rng, len(cover.base))))
    return [
        random_closure_table(rng, cover),
        random_interior_table(rng, cover),
        ClosureTable(cover, [m | rng.randrange(size) for m in range(size)]),
        InteriorTable(cover, [m & rng.randrange(size) for m in range(size)]),
        ClosureTable(cover, [0] + [m | rng.randrange(size) for m in range(1, size)]),
        InteriorTable(cover, [m & rng.randrange(size) for m in range(full)] + [full]),
        discrete_closure(cover),
        trivial_closure(cover),
        discrete_interior(cover),
        trivial_interior(cover),
        sat,
        conjugate(sat),
        _any_table(rng, cover, ClosureTable),
        _any_table(rng, cover, InteriorTable),
    ]


def axiom_scans(t):
    """The verdicts of the structural check and of the full scan."""
    return scan_axioms(t), scan_axioms_full(t)


def assert_same_axiom_verdict(t):
    fast, slow = axiom_scans(t)
    assert fast.passed == slow.passed
    assert fast.witness == slow.witness
    if fast.passed:
        n = len(t.parent.base)
        assert fast.checked == (1 << n) + n * (1 << n) // 2 + 1
    else:
        assert fast.checked == slow.checked


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_axiom_check_matches_full_scan(seed, size):
    rng = random.Random(seed)
    cover = random_cover(rng, size)
    for t in candidate_tables(rng, cover):
        assert_same_axiom_verdict(t)


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_reflect_matches_full_scan(seed, size):
    rng = random.Random(seed)
    cover = random_cover(rng, size)
    for t in candidate_tables(rng, cover):
        assert reflect(t) == reflect_full(t)


def late_edge_closure():
    """A closure table whose first failing one-bit edge, ({b}, {a, b}), is
    not the least failing submask pair, ({}, {a, b}): the one-bit edges
    below {a, b} all hold."""
    cover = Cover(BaseSet(["a", "b", "c"]))
    return ClosureTable(cover, [0b100, 0b101, 0b110, 0b011, 0b100, 0b101, 0b110, 0b111])


@pytest.mark.parametrize("conjugated", [False, True], ids=["closure", "interior"])
def test_failure_reports_least_submask_pair_not_first_edge(conjugated):
    c = late_edge_closure()
    t = conjugate(c) if conjugated else c
    assert_same_axiom_verdict(t)
    if not conjugated:
        v = verify_closure_axioms(t)
        assert v.witness["axiom"] == "C2"
        assert v.witness["smaller"].sorted_members() == []
        assert v.witness["larger"].sorted_members() == ["a", "b"]
        # 8 extension cases, then the submasks of 0, 1 and 2, then {} of 3
        assert v.checked == 8 + 1 + 2 + 2 + 1


def test_passing_check_counts_one_bit_edges():
    cover = Cover(BaseSet(["a", "b", "c"]))
    assert verify_closure_axioms(trivial_closure(cover)).checked == 8 + 12 + 1
    assert verify_interior_axioms(trivial_interior(cover)).checked == 8 + 12 + 1


def late_carrier_closure(n):
    """t(m) = m + {e0} if e1 is in m, else m; but the carrier without e0 is
    fixed, so its least failing submask is {e1}, late in mask order."""
    full = (1 << n) - 1
    table = [m | 1 if m & 2 else m for m in range(full + 1)]
    table[full ^ 1] = full ^ 1
    return ClosureTable(Cover(BaseSet([f"e{i}" for i in range(n)])), table)


def test_late_failing_carrier_reports_the_full_scan_count():
    t = late_carrier_closure(13)
    assert_same_axiom_verdict(t)
    v = verify_closure_axioms(t)
    assert v.witness["smaller"].sorted_members() == ["e1"]
    assert v.witness["larger"].mask == (1 << 13) - 2
    assert v.checked == 1_590_229


# -- the bulk passes against their definitions ---------------------------------


@pytest.mark.parametrize("n", [0, 1, 2])
def test_axiom_check_matches_full_scan_on_every_small_table(n):
    # every table of both kinds at n <= 2: passing ones and failures of
    # each axiom, monotonicity at either bit
    cover = Cover(BaseSet([f"e{i}" for i in range(n)]))
    size = 1 << n
    outcomes = set()
    for code in range(size**size):
        table = [code // size**m % size for m in range(size)]
        for cls in (ClosureTable, InteriorTable):
            t = cls(cover, table)
            assert_same_axiom_verdict(t)
            v = axiom_scans(t)[0]
            outcomes.add((t.kind, v.witness and v.witness["axiom"]))
    if n == 2:
        assert outcomes == {
            (kind, axiom)
            for kind, label in (("closure", "C"), ("interior", "I"))
            for axiom in (None, f"{label}1", f"{label}2", f"{label}3")
        }


@given(st.integers(0, 10_000), st.integers(0, 6), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_joins_below_unions_the_submask_entries(seed, n, breaks):
    rng = random.Random(seed)
    size = 1 << n
    table = [m | rng.randrange(size) & rng.randrange(size) for m in range(size)]
    table = monotone_hull(table, n)
    for _ in range(breaks):
        table[rng.randrange(size)] = rng.randrange(size)
    joined = joins_below(table)
    expected = [0] * size
    for m in range(size):
        for s in submasks(m):
            expected[m] |= table[s]
    assert joined == expected
    edges = all(
        table[m ^ 1 << b] & ~table[m] == 0 for m in range(size) for b in range(n) if m >> b & 1
    )
    assert (joined == table) == edges


def monotone_hull(table, n):
    """The least monotone table above ``table``: each entry joined with
    those of its submasks."""
    out = list(table)
    for m in range(1 << n):
        for b in range(n):
            if m >> b & 1:
                out[m] |= out[m ^ 1 << b]
    return out


def per_carrier_escape(carriers, inner, outer):
    """The least carrier whose inner mask escapes its outer one, by loop."""
    return next((t for t in carriers if inner(t) & ~outer(t)), None)


@given(st.integers(0, 10_000), st.integers(0, 4), st.integers(0, 4), st.sampled_from([0, 0.3, 0.7]))
@settings(max_examples=80, deadline=None)
def test_continuity_and_pull_backs_match_per_carrier_loops(seed, n1, n2, density):
    rng = random.Random(seed)
    src, tgt = Cover(BaseSet([f"s{i}" for i in range(n1)])), Cover(BaseSet([f"t{i}" for i in range(n2)]))
    pairs = [(a, b) for a in src.base.elements for b in tgt.base.elements if rng.random() < density]
    rel = Relation(src.base, tgt.base, pairs)
    m = ValidatedMorphism.build(rel, src, tgt)  # every relation respects free covers
    img, pre = rel.direct_image_mask, rel.preimage_minus_mask
    for cls in (ClosureTable, InteriorTable):
        t_src, t_tgt = _any_table(rng, src, cls), _any_table(rng, tgt, cls)
        if cls is ClosureTable:
            v = is_c_continuous(m, t_src, t_tgt)
            carriers = range(1 << n1)
            bad = per_carrier_escape(
                carriers, lambda t: img(t_src.table[t]), lambda t: t_tgt.table[img(t)]
            )
            base = src.base
        else:
            v = is_i_continuous(m, t_src, t_tgt)
            carriers = range(1 << n2)
            bad = per_carrier_escape(
                carriers, lambda t: pre(t_tgt.table[t]), lambda t: t_src.table[pre(t)]
            )
            base = tgt.base
        if bad is None:
            assert v == v.ok(len(carriers))
        else:
            assert v == v.fail({"carrier": base.subset_from_mask(bad)}, bad + 1)
        valid = (random_closure_table if cls is ClosureTable else random_interior_table)(rng, tgt)
        assert list(lift(m, valid, Relation.images).table) == [
            pre(valid.table[img(s)]) for s in range(1 << n1)
        ]
    i_tgt = random_interior_table(rng, tgt)
    assert list(initial_interior_paper(m, i_tgt)[0].table) == [
        pre(i_tgt.table[img(s)]) for s in range(1 << n1)
    ]
    # lift takes a target only once it passes its axioms
    if not scan_axioms(t_tgt).passed:
        with pytest.raises(InputError, match="^target interior table fails I[123] at "):
            lift(m, t_tgt, Relation.images)
    full_tgt = (1 << n2) - 1
    # the co-restrictions of initial_interior_corrected: {w : pre{w} inside s}
    assert [full_tgt ^ x for x in reversed(rel.images())] == [
        sum(1 << w for w in range(n2) if pre(1 << w) & ~s == 0) for s in range(1 << n1)
    ]


@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.3, 0.6, 1]))
@settings(max_examples=150, deadline=None)
def test_interior_continuity_is_the_conjugate_closure_law_along_forall_pre(seed, n1, n2, density):
    # pre(j(v)) inside i(pre(v)) at v is, through complement, the closure law
    # c_src(forall_pre(W)) inside forall_pre(c_tgt(W)) at W = full_tgt ^ v for
    # the conjugates, so the least failing v is the greatest failing W
    rng = random.Random(seed)
    src, tgt = Cover(BaseSet([f"s{i}" for i in range(n1)])), Cover(BaseSet([f"t{i}" for i in range(n2)]))
    pairs = [(a, b) for a in src.base.elements for b in tgt.base.elements if rng.random() < density]
    rel = Relation(src.base, tgt.base, pairs)
    m = ValidatedMorphism.build(rel, src, tgt)  # every relation respects free covers
    i, j = random_interior_table(rng, src), random_interior_table(rng, tgt)
    c_src, c_tgt = conjugate(i).table, conjugate(j).table
    full_src, full_tgt = (1 << n1) - 1, (1 << n2) - 1
    pre = rel.preimages()

    def forall_pre(w):
        return full_src ^ pre[full_tgt ^ w]

    failing = [w for w in range(full_tgt + 1) if c_src[forall_pre(w)] & ~forall_pre(c_tgt[w])]
    v = is_i_continuous(m, i, j)
    if not failing:
        assert v == v.ok(full_tgt + 1)
    else:
        witness = full_tgt ^ max(failing)
        assert v == v.fail({"carrier": tgt.base.subset_from_mask(witness)}, witness + 1)


def compare_by_carrier(s, t):
    """The pointwise-order verdict by one loop step per carrier."""
    checked = 0
    for m, (sm, tm) in enumerate(zip(s.table, t.table)):
        checked += 1
        if sm & ~tm:
            return Verdict.fail({"carrier": s.parent.base.subset_from_mask(m)}, checked)
    return Verdict.ok(checked)


@given(st.integers(0, 10_000), st.integers(0, 5), st.sampled_from(["random", "above", "one-below"]))
@settings(max_examples=80, deadline=None)
def test_compare_matches_per_carrier_loop(seed, n, how):
    rng = random.Random(seed)
    cover = Cover(BaseSet([f"e{i}" for i in range(n)]))
    size = 1 << n
    s = [rng.getrandbits(n) for _ in range(size)]
    t = [rng.getrandbits(n) for _ in range(size)]
    if how != "random":
        t = [a | b for a, b in zip(s, t)]  # t above s at every carrier
    if how == "one-below" and n:
        m = rng.randrange(size)
        t[m] = 0
        s[m] |= 1
    for cls in (ClosureTable, InteriorTable):
        left, right = cls(cover, s), cls(cover, t)
        assert compare(left, right) == compare_by_carrier(left, right)
        assert compare(right, left) == compare_by_carrier(right, left)


MIXED_KIND_CALLS = {
    # one closure table c and one interior table i, or a table of the
    # other kind than the call's own
    "join-closures": lambda c, i, m: join_closures([c, i]),
    "join-closures-of-interiors": lambda c, i, m: join_closures([i, i]),
    "meet-interiors-of-closures": lambda c, i, m: meet_interiors([c]),
    "leq": lambda c, i, m: leq(c, i),
    "compare": lambda c, i, m: compare(i, c),
    "c-continuity": lambda c, i, m: is_c_continuous(m, c, i),
    "i-continuity": lambda c, i, m: is_i_continuous(m, i, c),
}


@pytest.mark.parametrize("call", sorted(MIXED_KIND_CALLS))
def test_mixed_kinds_rejected(call):
    cover = Cover.from_axiom_names(BaseSet(["a", "b"]), [])
    identity = Relation(cover.base, cover.base, [("a", "a"), ("b", "b")])
    m = ValidatedMorphism.build(identity, cover, cover)
    with pytest.raises(MixedParentError, match="^cannot combine closure and interior tables$"):
        MIXED_KIND_CALLS[call](trivial_closure(cover), discrete_interior(cover), m)

