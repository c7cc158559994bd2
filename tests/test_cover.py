import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlat import (
    BaseMismatchError,
    BaseSet,
    CapExceededError,
    ConcreteSpace,
    Cover,
    FiniteSuplattice,
    FrameOfSaturated,
    InputError,
    cap_for,
    cover_from_concrete_space,
    cover_from_suplattice,
    cover_from_table,
    induced_cover,
)
from covlat.oracle import (
    cover_from_table_full,
    default_base,
    down_full,
    enumerate_covers,
    hasse_edges_full,
    is_convergent_full,
    minimal_covers_full,
    naive_saturate,
    overt_via_positive_part,
    random_closure_table,
    random_cover,
    saturation_table_full,
    standard_suplattices,
)
from conftest import assert_same_verdict, random_space_cover


def small_cover(seed, size):
    return random_cover(random.Random(seed), size)


def saturated_members(c, names):
    """The sorted member names of sat(U), U the named set."""
    return c.base.subset_from_mask(c.saturate_mask(c.base.mask_of(names))).sorted_members()


def covers(c, a, names):
    """Whether a covers U, the named set: a lies in sat(U)."""
    return bool(c.saturate_mask(c.base.mask_of(names)) >> c.base.index(a) & 1)


class TestSaturation:
    def test_empty_axioms_saturation_is_identity(self, free2):
        for m in range(4):
            assert free2.saturate_mask(m) == m

    def test_axiom_fires(self, chain2):
        assert saturated_members(chain2, ["b"]) == ["a", "b"]

    def test_chained_axioms(self):
        base = BaseSet(["a", "b", "c"])
        c = Cover.from_axiom_names(base, [("a", ["b"]), ("b", ["c"])])
        assert saturated_members(c, ["c"]) == ["a", "b", "c"]

    def test_premise_containing_own_head_does_not_fire(self):
        # (e, {d, e}) must not fire from {d} alone even after d arrives late
        base = BaseSet(["a", "d", "e"])
        c = Cover.from_axiom_names(base, [("d", ["a"]), ("e", ["d", "e"])])
        assert saturated_members(c, ["a"]) == ["a", "d"]

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_fixpoint(self, seed, size):
        c = small_cover(seed, size)
        for m in range(1 << size):
            assert c.saturate_mask(m) == naive_saturate(c.axioms, m)

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_is_closure_operator(self, seed, size):
        c = small_cover(seed, size)
        for m in range(1 << size):
            s = c.saturate_mask(m)
            assert m & ~s == 0  # extensive
            assert c.saturate_mask(s) == s  # idempotent
            for v in range(1 << size):
                if m & ~v == 0:
                    assert s & ~c.saturate_mask(v) == 0  # monotone

    def test_covers_and_covers_subset(self, chain2):
        assert covers(chain2, "a", ["b"])
        assert chain2.base.full().mask & ~chain2.saturate_mask(chain2.base.mask_of(["b"])) == 0

    def test_base_mismatch_rejected(self, chain2, m3_cover):
        with pytest.raises(BaseMismatchError):
            Cover(chain2.base, m3_cover.axioms)


class TestDownSet:
    def test_down_of_disjoint_free_sets_is_empty(self, free2):
        a = free2.base.subset(["a"])
        b = free2.base.subset(["b"])
        assert free2.down_mask(a.mask, b.mask) == 0

    def test_down_contains_common_lower_bounds(self, chain2):
        a = chain2.base.subset(["a"])
        b = chain2.base.subset(["b"])
        # a covers {b}, so a lies below both
        assert "a" in chain2.base.subset_from_mask(chain2.down_mask(a.mask, b.mask))

    @given(st.integers(0, 10_000), st.integers(0, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, seed, size, space):
        rng = random.Random(seed)
        c = random_space_cover(rng, size) if space else random_cover(rng, size, 2 * size)
        for u in range(1 << size):
            for v in range(1 << size):
                assert c.down_mask(u, v) == down_full(c, u, v)


class TestConvergence:
    def test_m3_not_convergent_with_pinned_witness(self, m3_cover):
        v = m3_cover.is_convergent()
        assert not v.passed
        assert v.witness["element"] == "a"
        assert v.witness["u"].sorted_members() == ["b", "c"]
        assert v.witness["v"].sorted_members() == ["a"]

    @pytest.mark.parametrize("size", range(1, 7))
    def test_no_axiom_cover_is_convergent(self, size):
        import string

        c = Cover.from_axiom_names(BaseSet(list(string.ascii_lowercase[:size])), [])
        assert c.is_convergent().passed

    def test_chain_is_convergent(self, chain2):
        assert chain2.is_convergent().passed


# shape -> (axioms (x, y), "x covered by {y}", on n elements; the minimal
# covers of element a)
SINGLETON_COVER_SHAPES = {
    # no axioms: a is minimally covered by {a} alone
    "free": (lambda n: [], lambda n, a: [1 << a]),
    # every element covered by every singleton
    "alleq": (
        lambda n: [(x, y) for x in range(n) for y in range(n)],
        lambda n, a: [1 << y for y in range(n)],
    ),
    # element i covered by {i + 1}
    "chain": (
        lambda n: [(i, i + 1) for i in range(n - 1)],
        lambda n, a: [1 << y for y in range(a, n)],
    ),
}


def shape_cover(shape, size):
    """The cover of a `SINGLETON_COVER_SHAPES` shape on `size` elements."""
    axioms, _ = SINGLETON_COVER_SHAPES[shape]
    names = default_base(size).elements
    return Cover.from_axiom_names(default_base(size), [(names[x], [names[y]]) for x, y in axioms(size)])


class TestMinimalCoverCuts:
    """The minimal-cover and upper-cover scans against the full scans."""

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_minimal_covers_by_definition(self, seed, size):
        c = small_cover(seed, size)
        assert c.minimal_covers() == minimal_covers_full(c)

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 6, 10])
    @pytest.mark.parametrize("shape", sorted(SINGLETON_COVER_SHAPES))
    def test_minimal_covers_that_exit_at_once(self, shape, size):
        # every candidate of a singleton cover v goes at v's first bit; no
        # element is left to the scan, so no table is built
        _, minimal = SINGLETON_COVER_SHAPES[shape]
        c = shape_cover(shape, size)
        got = c.minimal_covers()
        assert c._table is None
        assert got == [minimal(size, a) for a in range(size)]
        assert got == minimal_covers_full(c)

    @pytest.mark.parametrize("name", sorted(standard_suplattices()))
    def test_suplattice_minimal_covers(self, name):
        c = cover_from_suplattice(standard_suplattices()[name])
        assert c.minimal_covers() == minimal_covers_full(c)

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_convergence_matches_full_scan(self, seed, size):
        c = small_cover(seed, size)
        assert_same_verdict(c.is_convergent(), is_convergent_full(c))

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_hasse_edges_match_full_scan(self, seed, size):
        fr = small_cover(seed, size).saturated_sets()
        assert fr.hasse_edges() == hasse_edges_full(fr)

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_concrete_space_covers(self, seed, size):
        c = random_space_cover(random.Random(seed), size)
        assert_same_verdict(c.is_convergent(), is_convergent_full(c))
        fr = c.saturated_sets()
        assert fr.hasse_edges() == hasse_edges_full(fr)

    @pytest.mark.parametrize("name", sorted(standard_suplattices()))
    def test_suplattice_covers(self, name):
        c = cover_from_suplattice(standard_suplattices()[name])
        assert_same_verdict(c.is_convergent(), is_convergent_full(c))
        fr = c.saturated_sets()
        assert fr.hasse_edges() == hasse_edges_full(fr)

    def test_m3_checks_one_pair_per_minimal_cover_pair(self, m3_cover):
        # a is minimally covered by {a} and {b, c}; the pair ({b, c}, {a})
        # is the second one examined and fails
        assert m3_cover.minimal_covers()[0] == [0b001, 0b110]
        assert m3_cover._table is not None  # the scan reads the table
        assert m3_cover.is_convergent().checked == 2


def induced_cover_scan(cover, full, t):
    """`induced_cover` from a plain table: every mask tested for closure."""
    n = len(cover.base)
    comp = t.complement().mask
    out = []
    for a in range(n):
        if comp >> a & 1:
            for m in range(1 << n):
                pair = (cover.base.elements[a], cover.base.subset_from_mask(m | comp))
                if full[m] == m and m >> a & 1 and pair not in out:
                    out.append(pair)
    return out


def assert_table_matches_scans(c):
    """The table and every reader of it agree with one saturation per subset."""
    n = len(c.base)
    full = saturation_table_full(c)
    assert c.saturation_table() == full
    closed = [m for m in range(1 << n) if full[m] == m]
    fr = c.saturated_sets()
    assert fr.masks == closed
    assert isinstance(fr.sets, tuple)
    assert [s.mask for s in fr.sets] == closed
    assert c.minimal_covers() == minimal_covers_full(c)
    scanned = FrameOfSaturated(c, closed, None)
    assert fr.hasse_edges() == hasse_edges_full(scanned)
    for t in range(0, 1 << n, 3):
        carrier = c.base.subset_from_mask(t)
        assert induced_cover(c, carrier) == induced_cover_scan(c, full, carrier)


@st.composite
def mixed_premise_covers(draw, max_size=6, min_size=1):
    """Covers whose premises have 0, 1 or 2+ elements with comparable
    weights.  Each cover first draws the premise sizes it uses, so covers
    with only one-element premises, or none, are common; `random_cover`
    draws bodies uniformly from all subsets, mostly wide ones."""
    size = draw(st.integers(min_size, max_size))
    names = default_base(size).elements
    kinds = draw(st.sets(st.sampled_from(["empty", "one", "wide"][: 2 + (size > 1)]), min_size=1))
    pairs = []
    for _ in range(draw(st.integers(0, 2 * size))):
        kind = draw(st.sampled_from(sorted(kinds)))
        if kind == "empty":
            body = set()
        elif kind == "one":
            body = {draw(st.sampled_from(names))}
        else:
            body = draw(st.sets(st.sampled_from(names), min_size=2))
        pairs.append((draw(st.sampled_from(names)), sorted(body)))
    return Cover.from_axiom_names(default_base(size), pairs)


class TestSaturationTable:
    """`Cover.saturation_table` and its readers against plain scans."""

    @pytest.mark.parametrize("density", [1, 2, 4])
    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_covers(self, density, seed, size):
        assert_table_matches_scans(random_cover(random.Random(seed), size, density * size))

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_concrete_space_covers(self, seed, size):
        assert_table_matches_scans(random_space_cover(random.Random(seed), size))

    @pytest.mark.parametrize("name", sorted(standard_suplattices()))
    def test_suplattice_covers(self, name):
        assert_table_matches_scans(cover_from_suplattice(standard_suplattices()[name]))

    def late_premise_cover(self):
        # a cycle a -> b -> c -> d -> a; d's premise {a, c} completes only
        # when c arrives two steps after a; e needs b and d; one premise of
        # f holds f itself, the other is {c, e}
        base = BaseSet(["a", "b", "c", "d", "e", "f"])
        return Cover.from_axiom_names(
            base,
            [("b", ["a"]), ("c", ["b"]), ("d", ["a", "c"]), ("a", ["d"]),
             ("e", ["b", "d"]), ("f", ["e", "f"]), ("f", ["c", "e"])],
        )

    def test_premise_completed_late_in_a_cycle(self):
        c = self.late_premise_cover()
        assert_table_matches_scans(c)
        table = c.saturation_table()
        assert table[0b000001] == 0b111111  # {a} reaches everything
        assert table[0b000100] == 0b000100  # {c} alone is saturated
        assert table[0b001000] == 0b111111  # {d} gives a, then the cycle

    def test_full_table_cover(self):
        source = self.late_premise_cover()
        table = dict(enumerate(saturation_table_full(source)))
        c = cover_from_table(source.base, table)
        assert_table_matches_scans(c)
        assert c.saturation_table() == source.saturation_table()

    def test_chained_empty_premises(self):
        # a needs nothing, b needs a; c's premise {b, d} stays incomplete
        base = BaseSet(["a", "b", "c", "d"])
        axioms = [("a", []), ("b", ["a"]), ("c", ["b", "d"])]
        assert Cover.from_axiom_names(base, axioms).saturate_mask(0) == 0b0011
        c = Cover.from_axiom_names(base, axioms)
        assert c.saturation_table()[0] == 0b0011
        assert_table_matches_scans(c)

    def test_twin_does_not_run_the_engine(self, monkeypatch):
        expected = self.late_premise_cover().saturation_table()
        space = random_space_cover(random.Random(3), 4)
        space_table = space.saturation_table()

        def broken(self, s, added):
            raise RuntimeError("the worklist ran")

        monkeypatch.setattr(Cover, "_chain", broken)
        fresh = self.late_premise_cover()
        with pytest.raises(RuntimeError):
            fresh.saturate_mask(1)
        assert saturation_table_full(fresh) == expected
        assert saturation_table_full(space) == space_table

    def test_table_is_computed_once(self, m3_cover):
        assert m3_cover.saturation_table() is m3_cover.saturation_table()

    @given(st.integers(0, 10_000), st.integers(0, 6), st.sampled_from(["space", "table"]))
    @settings(max_examples=60, deadline=None)
    def test_function_backed_covers_have_no_inert_bits(self, seed, size, kind):
        # a cover given by its table is read, never chained: no bit is inert
        rng = random.Random(seed)
        if kind == "space":
            c = random_space_cover(rng, size)
        else:
            source = random_cover(rng, size, 2 * size)
            c = cover_from_table(source.base, dict(enumerate(saturation_table_full(source))))
        assert c._inert == 0
        assert c.saturation_table() == saturation_table_full(c)

    @pytest.mark.parametrize("name", sorted(standard_suplattices()))
    def test_suplattice_covers_have_no_inert_bits(self, name):
        c = cover_from_suplattice(standard_suplattices()[name])
        assert c._inert == 0
        assert c.saturation_table() == saturation_table_full(c)

    def test_each_chain_start_runs_once(self, monkeypatch):
        # a watches the premise {a, b}; the other 11 elements are all
        # equivalent, so the frame has 4 sets and most masks share a start
        names = [chr(ord("a") + i) for i in range(12)]
        axioms = [("a", ["a", "b"])] + [(x, [y]) for x in names[1:] for y in names[1:] if x != y]
        c = Cover.from_axiom_names(BaseSet(names), axioms)
        starts = []
        chain = Cover._chain

        def counted(self, s, added):
            starts.append((s, added))
            return chain(self, s, added)

        monkeypatch.setattr(Cover, "_chain", counted)
        table = c.saturation_table()
        assert len(starts) == len(set(starts))
        assert len(starts) <= 12 * len(set(table)) + 1  # n * |F| and sat(0)
        monkeypatch.undo()
        assert table == saturation_table_full(c)

    @given(mixed_premise_covers())
    @settings(max_examples=150, deadline=None)
    def test_mixed_premise_sizes(self, c):
        assert_table_matches_scans(c)

    @given(mixed_premise_covers())
    @settings(max_examples=150, deadline=None)
    def test_mixed_premise_chains_match_naive(self, c):
        # a fresh cover: every lookup runs the chain, no table is built
        for m in range(1 << len(c.base)):
            assert c.saturate_mask(m) == naive_saturate(c.axioms, m)
        assert c._table is None

    @pytest.mark.parametrize("order", ["abcd", "dcba"])
    def test_one_element_chain_completes_a_wide_premise(self, order):
        # b forces a through {b}; a and d then complete c's premise {a, d}.
        # In the order dcba the table adds b to sat({d}), so the wide
        # premise is met only through b's closure.
        base = BaseSet(list(order))
        axioms = [("a", ["b"]), ("c", ["a", "d"])]
        bd = base.subset(["b", "d"])
        fresh = Cover.from_axiom_names(base, axioms)
        assert saturated_members(fresh, ["b", "d"]) == ["a", "b", "c", "d"]
        c = Cover.from_axiom_names(base, axioms)
        assert c.saturation_table()[bd.mask] == 0b1111
        assert_table_matches_scans(c)

    @pytest.mark.parametrize("shape,size", [("alleq", 10), ("alleq", 11), ("chain", 12)])
    def test_one_element_premises_chain_only_the_empty_set(self, monkeypatch, shape, size):
        # every bit adds its closure in one pass: the one chain is sat(0)
        c = shape_cover(shape, size)
        starts = []
        chain = Cover._chain

        def counted(self, s, added):
            starts.append((s, added))
            return chain(self, s, added)

        monkeypatch.setattr(Cover, "_chain", counted)
        table = c.saturation_table()
        assert starts == [(0, 0)]
        monkeypatch.undo()
        assert table == saturation_table_full(c)


def assert_frame_matches_scans(c, frame=None):
    """The frame (``frame_masks()`` unless given), its Hasse edges on at
    most 64 sets and the relativized axioms of a few carriers agree with
    the fixed points of one saturation per subset; a cover that held no
    table still holds none."""
    n = len(c.base)
    fresh = c._table is None
    full = saturation_table_full(c)
    closed = [m for m in range(1 << n) if full[m] == m]
    masks = c.frame_masks() if frame is None else frame.masks
    assert masks == closed
    if len(closed) <= 64:
        fr = FrameOfSaturated(c, closed, None)
        assert fr.hasse_edges() == hasse_edges_full(fr)
    step = 3 if n <= 6 else (1 << n) // 3
    for t in range(0, 1 << n, step):
        carrier = c.base.subset_from_mask(t)
        assert induced_cover(c, carrier) == induced_cover_scan(c, full, carrier)
    assert (c._table is None) == fresh


class TestFrameWithoutTable:
    """`frame_masks`, `hasse_edges` and `induced_cover` on fresh covers,
    which double over the saturated sets and build no 2^n table."""

    @given(mixed_premise_covers())
    @settings(max_examples=150, deadline=None)
    def test_mixed_premise_covers(self, c):
        assert_frame_matches_scans(c)
        assert c._table is None

    @pytest.mark.parametrize("density", [1, 2, 4])
    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_covers(self, density, seed, size):
        c = random_cover(random.Random(seed), size, density * size)
        assert_frame_matches_scans(c)
        assert c._table is None

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_concrete_space_covers(self, seed, size):
        assert_frame_matches_scans(random_space_cover(random.Random(seed), size))

    @pytest.mark.parametrize("name", sorted(standard_suplattices()))
    def test_suplattice_covers(self, name):
        assert_frame_matches_scans(cover_from_suplattice(standard_suplattices()[name]))

    @given(mixed_premise_covers(max_size=11, min_size=9))
    @settings(max_examples=25, deadline=None)
    def test_sparse_covers_above_the_double_cap(self, c):
        # no convergence above the double cap: saturated_sets doubles itself
        fr = c.saturated_sets()
        assert fr.convergent is None
        assert_frame_matches_scans(c, fr)
        assert c._table is None

    @pytest.mark.parametrize("shape,size", [("chain", 12), ("alleq", 10), ("alleq", 11), ("free", 9)])
    def test_frame_readers_build_no_table(self, monkeypatch, shape, size):
        c = shape_cover(shape, size)
        chains = []
        chain = Cover._chain

        def counted(self, s, added):
            chains.append((s, added))
            return chain(self, s, added)

        monkeypatch.setattr(Cover, "_chain", counted)
        fr = c.saturated_sets()
        edges = fr.hasse_edges()
        carrier = c.base.subset_from_mask((1 << size // 2) - 1)
        induced = induced_cover(c, carrier)
        assert c._table is None
        assert len(chains) <= size * len(fr)
        monkeypatch.undo()
        full = saturation_table_full(c)
        assert fr.masks == [m for m, s in enumerate(full) if s == m]
        if len(fr) <= 64:
            assert edges == hasse_edges_full(fr)
        else:  # free: every set and one element more
            assert edges == sorted(
                (u, u | 1 << x) for u in range(1 << size) for x in range(size) if not u >> x & 1
            )
        assert induced == induced_cover_scan(c, full, carrier)


@st.composite
def premise_free_covers(draw, max_size=7, min_size=1):
    """Covers with elements drawn to occur in no premise, beside one-element
    axioms, wide premises and empty-premise facts among the others.  Heads
    are drawn from the whole base, so a head may occur in no premise."""
    size = draw(st.integers(min_size, max_size))
    names = default_base(size).elements
    bare = draw(st.sets(st.sampled_from(names), max_size=size))
    rest = [x for x in names if x not in bare]
    pairs = []
    for _ in range(draw(st.integers(0, 2 * len(rest)))):
        kind = draw(st.sampled_from(["empty", "one", "wide"][: 2 + (len(rest) > 1)]))
        if kind == "empty":
            body = set()
        elif kind == "one":
            body = {draw(st.sampled_from(rest))}
        else:
            body = draw(st.sets(st.sampled_from(rest), min_size=2, max_size=3))
        pairs.append((draw(st.sampled_from(names)), sorted(body)))
    return Cover.from_axiom_names(default_base(size), pairs)


def upper_covers_by_table(full, closed):
    """Hasse edges of the frame from the 2^n table: for each saturated u,
    the minimal sets among sat(u + x), x outside u, in (u, v) mask order."""
    n = len(full).bit_length() - 1
    edges = []
    for u in closed:
        ups = {full[u | 1 << x] for x in range(n) if not u >> x & 1}
        edges += [(u, v) for v in sorted(ups) if not any(w != v and w & ~v == 0 for w in ups)]
    return edges


def assert_premise_free_edges(c):
    """Every element `_premise_free` names adds itself alone to every
    saturated set, the frame is the table's fixed points, and its Hasse
    edges are the full scan's (on at most 64 sets) and the table's, each
    end one of the frame's own ints."""
    n = len(c.base)
    full = saturation_table_full(c)
    closed = [m for m in range(1 << n) if full[m] == m]
    for k in range(n):
        if c._premise_free >> k & 1:
            assert all(full[u | 1 << k] == u | 1 << k for u in closed)
    fr = c.saturated_sets()
    assert fr.masks == closed
    edges = fr.hasse_edges()
    if len(closed) <= 64:
        assert edges == hasse_edges_full(fr)
    assert edges == upper_covers_by_table(full, closed)
    own = {id(m) for m in fr.masks}
    assert all(id(u) in own and id(v) in own for u, v in edges)
    return edges


class TestPremiseFreeElements:
    """`hasse_edges` reads the edge u -> u + k of an element k in no
    premise without a column, and `frame_masks` skips its sort when the
    doubling already ordered the frame."""

    @given(premise_free_covers())
    @settings(max_examples=200, deadline=None)
    def test_mixed_covers(self, c):
        assert_premise_free_edges(c)

    @given(premise_free_covers(max_size=12, min_size=9))
    @settings(max_examples=20, deadline=None)
    def test_covers_above_the_double_cap(self, c):
        # no convergence, so no table: the columns are chains or passes
        assert_premise_free_edges(c)
        assert c._table is None

    def test_head_in_no_premise(self):
        # e0 and e3 are heads in no premise, e4 is in no axiom; e1 and e2 are premises
        base = default_base(5)
        e = base.elements
        c = Cover.from_axiom_names(base, [(e[0], [e[1], e[2]]), (e[3], [e[1]])])
        assert c._premise_free == 0b11001
        edges = assert_premise_free_edges(c)
        # sat({e1}) = {e1, e3} lies one step above {e3}, not above the empty set
        assert (0b01000, 0b01010) in edges
        assert (0b00000, 0b01010) not in edges
        # from {e1, e3}, e2 fires e0, so the edge to {e0, e1, e3} lies below
        assert (0b01010, 0b01011) in edges
        assert (0b01010, 0b01111) not in edges

    @given(premise_free_covers(max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_given_table_covers(self, c):
        # a table names no premises: every element keeps its column
        given = cover_from_table(c.base, dict(enumerate(saturation_table_full(c))))
        assert given._premise_free == 0
        fr = given.saturated_sets()
        assert fr.hasse_edges() == hasse_edges_full(fr) == c.saturated_sets().hasse_edges()
        table = given.saturation_table()
        assert all(u is table[u] and v is table[v] for u, v in fr.hasse_edges())

    @pytest.mark.parametrize(
        "axioms, frame",
        [
            # e2 <| {e0}: doubling gives [0, 5] at e0 and the inert e1 adds
            # [2, 7] below 5, so the frame must be sorted
            ([(2, 0)], [0b000, 0b010, 0b100, 0b101, 0b110, 0b111]),
            # e1 <| {e3}: e3's step adds 10 and 11 above 3, the top so far
            ([(1, 3)], [m for m in range(16) if not m >> 3 & 1 or m >> 1 & 1]),
        ],
        ids=["inert-step-below-top", "ordered"],
    )
    def test_frame_in_mask_order(self, axioms, frame):
        n = frame[-1].bit_length()
        base = default_base(n)
        c = Cover.from_axiom_names(base, [(base.elements[h], [base.elements[p]]) for h, p in axioms])
        assert c.frame_masks() == frame
        assert frame == [m for m, s in enumerate(saturation_table_full(c)) if s == m]

    @pytest.mark.parametrize("size", [6, 10])
    @pytest.mark.parametrize("axioms, calls", [([], 0), ([(0, [1])], 1)], ids=["free", "near-free"])
    def test_columns_only_for_elements_in_a_premise(self, monkeypatch, size, axioms, calls):
        # one _add_bit pass per element in a premise, none for the others
        base = default_base(size)
        e = base.elements
        c = Cover.from_axiom_names(base, [(e[h], [e[x] for x in body]) for h, body in axioms])
        fr = c.saturated_sets()
        passes = []
        add_bit = Cover._add_bit

        def counted(self, k, sets):
            passes.append(k)
            return add_bit(self, k, sets)

        monkeypatch.setattr(Cover, "_add_bit", counted)
        edges = fr.hasse_edges()
        monkeypatch.undo()
        assert passes == [1] * calls
        assert edges == upper_covers_by_table(saturation_table_full(c), fr.masks)


def hard_cap_cover(bodies):
    """The 16-element cover on e0 ... e15 with one axiom e0 ◁ B for each
    B in ``bodies`` (lists of element indices), and its saturation table
    by construction: e0 is in no body, so sat(m) is m plus e0 when m
    holds some B."""
    base = BaseSet([f"e{i}" for i in range(16)])
    names = base.elements
    c = Cover.from_axiom_names(base, [(names[0], [names[x] for x in body]) for body in bodies])
    masks = [sum(1 << x for x in body) for body in bodies]
    table = [m | any(m & b == b for b in masks) for m in range(1 << 16)]
    return c, table


class TestHardCapDoubling:
    """`frame_masks` and `saturation_table` at the hard cap of 16 elements,
    where the frame's inert doubling steps run on 16-bit words: each
    result is still a list of ints, and the expected frames and tables
    come from how each cover is made."""

    @pytest.mark.parametrize("bodies", [[], [[1]], [[1, 2]]], ids=["free", "e0-e1", "e0-e1e2"])
    def test_frame_and_edges(self, bodies):
        c, table = hard_cap_cover(bodies)
        closed = [m for m, s in enumerate(table) if s == m]
        # the sets holding the head of every axiom whose body they hold
        fr = c.saturated_sets()
        assert c._table is None  # no 2^16 table: the frame came from doubling
        assert type(fr.masks) is list
        assert all(type(m) is int for m in fr.masks)
        assert fr.masks == closed
        edges = fr.hasse_edges()
        assert edges == upper_covers_by_table(table, closed)
        own = {id(m) for m in fr.masks}
        assert all(id(u) in own and id(v) in own for u, v in edges)

    @pytest.mark.parametrize("bodies", [[], [[1]], [[1, 2]]], ids=["free", "e0-e1", "e0-e1e2"])
    def test_saturation_table(self, bodies):
        c, table = hard_cap_cover(bodies)
        got = c.saturation_table()
        assert type(got) is list
        assert all(type(s) is int for s in got)
        assert got == table
        assert c.frame_masks() == [m for m, s in enumerate(table) if s == m]

    @given(mixed_premise_covers(max_size=12, min_size=9))
    @settings(max_examples=25, deadline=None)
    def test_table_and_minimal_covers_above_six(self, c):
        # fresh covers both ways round: the scan builds the table, or reads it
        twin = Cover(c.base, c.axioms)
        assert c.minimal_covers() == minimal_covers_full(c)
        assert twin.saturation_table() == saturation_table_full(c)
        assert twin.minimal_covers() == c.minimal_covers()
        assert all(type(s) is int for s in twin.saturation_table())


class TestFrame:
    def test_free_frame_is_full_powerset(self, free2):
        fr = free2.saturated_sets()
        assert len(fr) == 4
        assert fr.convergent.passed

    def test_chain_frame(self, chain2):
        fr = chain2.saturated_sets()
        assert [s.sorted_members() for s in fr.sets] == [[], ["a"], ["a", "b"]]
        assert len(fr.hasse_edges()) == 2


class TestPosOvert:
    def test_free_cover_all_positive_and_overt(self, free2):
        assert free2.pos() == free2.base.full()
        assert free2.is_overt().passed

    def test_element_covered_by_empty_is_not_positive(self):
        base = BaseSet(["a", "b"])
        c = Cover.from_axiom_names(base, [("a", [])])
        assert c.pos().sorted_members() == ["b"]
        # still overt: a covers the empty set, hence {a} inter Pos too
        assert c.is_overt().passed

    def test_every_cover_on_at_most_two_elements_is_overt(self):
        # U lies in sat(empty) | (U & Pos), inside sat(U & Pos), on any cover
        covers = list(enumerate_covers(2))
        assert len(covers) == 1 + 4 + 256
        for c in covers:
            assert c.is_overt().passed and overt_via_positive_part(c)


class TestConcreteSpace:
    def make_space(self):
        base = BaseSet(["a", "b"])
        return ConcreteSpace(
            ["x", "y", "z"], base, [("x", "a"), ("y", "a"), ("y", "b"), ("z", "b")]
        )

    def test_induced_cover_saturation(self):
        sp = self.make_space()
        c = cover_from_concrete_space(sp)
        # ext(a) = {x,y} is not inside ext(b) = {y,z}
        assert not covers(c, "a", ["b"])
        assert covers(c, "a", c.base.elements)
        # induced saturation is a closure operator
        for m in range(4):
            s = c.saturate_mask(m)
            assert m & ~s == 0 and c.saturate_mask(s) == s


class TestSuplattice:
    def test_square(self):
        lat = FiniteSuplattice(
            ["bot", "l", "r", "top"],
            [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
        )
        assert lat.join(["l", "r"]) == "top"
        assert lat.join([]) == "bot"
        c = cover_from_suplattice(lat)
        assert covers(c, "top", ["l", "r"])
        assert saturated_members(c, []) == ["bot"]

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(InputError):
            FiniteSuplattice(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_missing_join(self):
        # two incomparable tops: {a, b} has no least upper bound
        with pytest.raises(InputError, match=r"^subset \['a', 'b'\] has no join$"):
            FiniteSuplattice(["z", "a", "b"], [("z", "a"), ("z", "b")])


class TestRelationTable:
    def test_valid_table_accepted(self, chain2):
        table = {m: chain2.saturate_mask(m) for m in range(4)}
        c = cover_from_table(chain2.base, table)
        assert all(c.saturate_mask(m) == table[m] for m in range(4))

    def test_reflexivity_violation_rejected(self):
        base = BaseSet(["a"])
        with pytest.raises(InputError):
            cover_from_table(base, {0: 0, 1: 0})

    def test_transitivity_violation_rejected(self):
        base = BaseSet(["a", "b"])
        # sat(empty) = {a} but sat({b}) misses a, so the empty set is
        # covered by {b} while its cover set escapes
        with pytest.raises(InputError):
            cover_from_table(base, {0: 1, 1: 3, 2: 2, 3: 3})

    def test_value_outside_base_rejected(self):
        with pytest.raises(InputError, match=r"^table value 0x3 is not a subset of the base$"):
            cover_from_table(BaseSet(["a"]), {0: 0, 1: 3})

    @pytest.mark.parametrize("accept", [cover_from_table, cover_from_table_full])
    def test_value_outside_base_reported_in_row_order(self, accept):
        base = BaseSet(["a"])
        with pytest.raises(InputError, match=r"^table value 0x3 is not a subset of the base$"):
            accept(base, {0: 0, 1: 3})
        # row {a} breaks reflexivity, row {} leaves the base: the earlier row wins
        with pytest.raises(InputError, match=r"^table violates reflexivity at \['a'\]$"):
            accept(base, {1: 0, 0: 2})
        with pytest.raises(InputError, match=r"^table value 0x2 is not a subset of the base$"):
            accept(base, {0: 2, 1: 0})

    def test_partial_table_rejected(self):
        base = BaseSet(["a", "b"])
        with pytest.raises(InputError):
            cover_from_table(base, {0: 0, 1: 1})

    def test_rejection_names_first_failing_pair_in_row_order(self):
        base = BaseSet(["a", "b"])
        rows = [(0, 1), (1, 3), (2, 2), (3, 3)]
        with pytest.raises(InputError, match=r"^table violates transitivity: \[\] is covered by \['b'\]"):
            cover_from_table(base, dict(rows))
        with pytest.raises(InputError, match=r"^table violates transitivity: \['a'\] is covered by \[\]"):
            cover_from_table(base, dict(reversed(rows)))


def covers_by_points(space, mask):
    """sat(mask) of the induced cover by its definition: a covers U iff
    every point forcing a forces some member of U."""
    def forces(p, a):
        return (p, space.base.elements[a]) in space.forcing

    n = len(space.base)
    return sum(
        1 << a
        for a in range(n)
        if all(any(forces(p, b) for b in range(n) if mask >> b & 1)
               for p in space.points if forces(p, a))
    )


def random_poset(rng, size):
    """Names and order pairs of a random poset on at most ``size``
    elements, acyclic by index order; often with a bottom and a top, so
    that many draws are lattices."""
    names = [f"e{i}" for i in range(size)]
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:] if rng.random() < 0.4]
    if size and rng.random() < 0.7:
        pairs += [(names[0], y) for y in names[1:]]
    if size and rng.random() < 0.7:
        pairs += [(x, names[-1]) for x in names[:-1]]
    rng.shuffle(names)
    return names, pairs


def up_sets(base, pairs):
    """For each element, the mask of the elements above it."""
    up = [1 << i for i in range(len(base))]
    for _ in range(len(base)):
        for lo, hi in pairs:
            up[base.index(lo)] |= up[base.index(hi)]
    return up


def joins_by_search(base, up):
    """The join index of every subset, by mask, from a search per mask: its
    upper bounds, then the one below all of them; or the error for the
    least subset that has none."""
    n = len(base)
    joins = []
    for mask in range(1 << n):
        bounds = [j for j in range(n) if all(up[i] >> j & 1 for i in range(n) if mask >> i & 1)]
        least = [j for j in bounds if all(up[j] >> k & 1 for k in bounds)]
        if not least:
            return f"subset {base.subset_from_mask(mask).sorted_members()} has no join"
        joins.append(least[0])
    return joins


class TestTableCovers:
    """Covers given by their saturation table."""

    def test_equal_tables_are_the_same_cover(self, chain2):
        table = dict(enumerate(chain2.saturation_table()))
        one = cover_from_table(chain2.base, table)
        other = cover_from_table(BaseSet(["a", "b"]), dict(table))
        assert one is not other and one.same_cover(other) and other.same_cover(one)
        assert Cover(chain2.base, table=chain2.saturation_table()).same_cover(one)
        assert not one.same_cover(cover_from_table(chain2.base, {m: 3 for m in range(4)}))
        # a table is not axioms, even with the same saturation
        assert not one.same_cover(chain2) and not chain2.same_cover(one)

    @pytest.mark.parametrize("name", sorted(standard_suplattices()))
    def test_rebuilt_suplattice_and_space_covers_are_the_same_cover(self, name):
        lat = standard_suplattices()[name]
        assert cover_from_suplattice(lat).same_cover(cover_from_suplattice(lat))
        space = ConcreteSpace(["x", "y"], lat.base, [("x", lat.base.elements[-1])])
        assert cover_from_concrete_space(space).same_cover(cover_from_concrete_space(space))

    def test_table_of_wrong_length_rejected(self):
        base = BaseSet(["a", "b"])
        with pytest.raises(InputError, match="^saturation table has 3 entries, expected 4$"):
            Cover(base, table=[0, 1, 2])

    def test_axioms_and_table_together_rejected(self, chain2):
        with pytest.raises(InputError, match="not both"):
            Cover(chain2.base, chain2.axioms, table=chain2.saturation_table())

    def test_saturate_mask_reads_the_table_through_the_cache(self, chain2):
        c = cover_from_table(chain2.base, dict(enumerate(chain2.saturation_table())))
        assert c.saturate_mask(2) == 3
        assert c._cache == {2: 3}

    def test_concrete_space_over_the_single_cap_rejected(self):
        base = BaseSet([f"o{i}" for i in range(cap_for("single") + 1)])
        with pytest.raises(CapExceededError, match="^cover_from_concrete_space: "):
            cover_from_concrete_space(ConcreteSpace(["x"], base, [("x", "o0")]))

    @given(st.integers(0, 10_000), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_concrete_space_table_matches_forcing(self, seed, size, points):
        rng = random.Random(seed)
        base = default_base(size)
        names = [f"p{i}" for i in range(points)]
        forcing = [(p, a) for p in names for a in base.elements if rng.random() < 0.4]
        space = ConcreteSpace(names, base, forcing)
        expected = [covers_by_points(space, m) for m in range(1 << size)]
        assert cover_from_concrete_space(space).saturation_table() == expected

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_suplattice_joins_match_per_mask_search(self, seed, size):
        names, pairs = random_poset(random.Random(seed), size)
        base = BaseSet(names)
        expected = joins_by_search(base, up_sets(base, pairs))
        try:
            lat = FiniteSuplattice(names, pairs)
        except InputError as exc:
            assert str(exc) == expected
            return
        assert lat._join == expected
        lower = [lat.lower_set_mask(j) for j in range(size)]
        assert cover_from_suplattice(lat).saturation_table() == [lower[j] for j in expected]

    def test_random_posets_give_both_outcomes(self):
        # the draws above reach lattices and posets without some join alike
        outcomes = []
        for seed in range(100):
            names, pairs = random_poset(random.Random(seed), 5)
            base = BaseSet(names)
            outcomes.append(isinstance(joins_by_search(base, up_sets(base, pairs)), list))
        assert 30 <= sum(outcomes) <= 70


def table_outcome(accept, base, table):
    """The saturation a table acceptance yields, or its rejection message."""
    try:
        c = accept(base, table)
    except InputError as exc:
        return str(exc)
    return [c.saturate_mask(m) for m in range(1 << len(base))]


class TestRelationTableCut:
    """`cover_from_table` (extensive, one-bit monotone, idempotent) against
    the scan over every pair of rows."""

    def candidate_tables(self, rng, size):
        full = (1 << size) - 1
        sat = saturation_table_full(random_cover(rng, size, rng.choice([1, 2, 4]) * size))
        bumped = list(sat)
        bumped[rng.randrange(full + 1)] |= rng.randrange(full + 1)
        closure = random_closure_table(rng, Cover(default_base(size)))
        # idempotent and extensive, but each carrier goes to any closed set above it
        closed = sorted({full} | {rng.randrange(full + 1) for _ in range(size)})
        idempotent = [
            m if m in closed else rng.choice([v for v in closed if m & ~v == 0])
            for m in range(full + 1)
        ]
        # values outside the base: past the top bit, on one row or on many
        outside = list(sat)
        outside[rng.randrange(full + 1)] |= 1 << size + rng.randrange(2)
        return [
            sat,
            bumped,
            idempotent,
            list(closure.table),
            [m | rng.randrange(full + 1) for m in range(full + 1)],
            [rng.randrange(full + 1) for _ in range(full + 1)],
            outside,
            [rng.randrange(4 << size) for _ in range(full + 1)],
        ]

    def test_idempotent_table_with_one_failing_edge_rejected(self):
        # {a} goes to {a, c} and {a, b} to itself: only the edge from {a}
        # up to {a, b} fails, and it removes b, the highest bit of {a, b}
        base = BaseSet(["a", "b", "c"])
        table = dict(enumerate([0b000, 0b101, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111]))
        message = "table violates transitivity: ['a'] is covered by ['a', 'b'] but its cover set is not"
        assert table_outcome(cover_from_table, base, table) == message
        assert table_outcome(cover_from_table_full, base, table) == message

    def test_late_failing_row_rejected_as_pair_scan(self):
        # the identity table at n=10 with one bad row, which comes late in
        # row order: the complement of {e0, e1} goes to the complement of {e1}
        size = 10
        base = BaseSet([f"e{i}" for i in range(size)])
        full = (1 << size) - 1
        table = {m: m for m in range(full + 1)}
        table[full & ~0b11] = full & ~0b10
        message = table_outcome(cover_from_table, base, table)
        assert message == table_outcome(cover_from_table_full, base, table)
        assert message.startswith("table violates transitivity: ['e2',")

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_accepts_and_rejects_as_pair_scan(self, seed, size):
        rng = random.Random(seed)
        base = default_base(size)
        for values in self.candidate_tables(rng, size):
            rows = list(enumerate(values))
            rng.shuffle(rows)  # the messages follow row order
            table = dict(rows)
            assert table_outcome(cover_from_table, base, table) == table_outcome(
                cover_from_table_full, base, table
            )


class TestCaps:
    def test_convergence_cap(self, monkeypatch):
        import string

        base = BaseSet(list(string.ascii_lowercase[:9]))
        c = Cover.from_axiom_names(base, [])
        with pytest.raises(CapExceededError):
            c.is_convergent()

    def test_env_override(self, monkeypatch):
        import string

        monkeypatch.setenv("COVLAT_MAX_BASE", "9")
        base = BaseSet(list(string.ascii_lowercase[:9]))
        c = Cover.from_axiom_names(base, [])
        assert c.is_convergent().passed

    def test_env_override_reaches_frame_convergence(self, monkeypatch):
        import string

        base = BaseSet(list(string.ascii_lowercase[:9]))
        c = Cover.from_axiom_names(base, [])
        monkeypatch.delenv("COVLAT_MAX_BASE", raising=False)
        assert c.saturated_sets().convergent is None
        monkeypatch.setenv("COVLAT_MAX_BASE", "9")
        assert c.saturated_sets().convergent.passed

    def test_unparsable_override_warns_and_keeps_defaults(self, monkeypatch):
        monkeypatch.setenv("COVLAT_MAX_BASE", "abc")
        with pytest.warns(RuntimeWarning, match="COVLAT_MAX_BASE='abc'"):
            assert cap_for("double") == 8

    def test_env_override_clamped_to_hard_cap(self, monkeypatch):
        import string

        monkeypatch.setenv("COVLAT_MAX_BASE", "99")
        base = BaseSet(list(string.ascii_lowercase[:17]))
        c = Cover.from_axiom_names(base, [])
        with pytest.raises(CapExceededError):
            c.saturated_sets()
