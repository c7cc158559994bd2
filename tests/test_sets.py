import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlat import BaseMismatchError, BaseSet, ClosureTable, Cover, cover_from_table
from covlat.oracle import (
    default_base,
    random_closure_table,
    random_cover,
    random_interior_table,
    reflect_full,
)
from covlat.sets import first_escape, fixed_points, meets_above, or_words, transitive_closure, union_over, unions

# Names whose sorted order differs from any natural base order: mixed case,
# digits, prefixes of one another, and non-ASCII letters that sort after "z".
NAMES = ["b", "a", "B", "ab", "a1", "é", "z", "ß", "Ω", "x", "日", "10", "2", "aa", "Ä", "ñ"]


def shuffled_base(seed, size):
    rng = random.Random(seed)
    return BaseSet(rng.sample(NAMES, size)), rng


class TestMaskOf:
    @given(st.integers(0, 10_000), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_subset(self, seed, size):
        base, rng = shuffled_base(seed, size)
        for _ in range(10):
            names = [rng.choice(base.elements) for _ in range(rng.randint(0, 2 * size))] if size else []
            assert base.mask_of(names) == base.subset(names).mask

    @pytest.mark.parametrize("bad", ["q", ["a"], 1, None])
    def test_unknown_name_raises_as_index(self, bad):
        base = BaseSet(["b", "a"])
        with pytest.raises(BaseMismatchError) as via_index:
            base.index(bad)
        with pytest.raises(BaseMismatchError) as via_mask:
            base.mask_of(["a", bad])
        assert str(via_mask.value) == str(via_index.value) == f"element {bad!r} is not in this base"

    def test_non_iterable_raises_type_error(self):
        with pytest.raises(TypeError, match="'int' object is not iterable"):
            BaseSet(["a"]).mask_of(5)


class TestSortedMemberTable:
    @given(st.integers(0, 10_000), st.integers(0, 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_members(self, seed, size):
        base, _ = shuffled_base(seed, size)
        table = base.sorted_member_table()
        assert len(table) == 1 << size
        for m, members in enumerate(table):
            assert members == base.subset_from_mask(m).sorted_members()

    def test_base_order_is_not_sorted_order(self):
        base = BaseSet(["日", "b", "é", "a"])
        table = base.sorted_member_table()
        assert table[0b0000] == []
        assert table[0b0101] == ["é", "日"]
        assert table[0b1111] == ["a", "b", "é", "日"]


class TestSubsetsFromMasks:
    @pytest.mark.parametrize("size", range(7))
    def test_matches_subset_from_mask(self, size):
        base, _ = shuffled_base(size, size)
        bulk = base.subsets_from_masks(range(1 << size))
        one_by_one = [base.subset_from_mask(m) for m in range(1 << size)]
        assert len(bulk) == len(one_by_one)
        for got, want in zip(bulk, one_by_one):
            assert got == want
            assert hash(got) == hash(want)
            assert got.base is base
            assert got.mask == want.mask

    def test_keeps_the_given_order(self):
        base = BaseSet(["b", "a", "c"])
        masks = [5, 0, 7, 2, 2]
        assert [s.mask for s in base.subsets_from_masks(iter(masks))] == masks

    def test_bulk_subsets_are_immutable(self):
        base = BaseSet(["a", "b"])
        other = BaseSet(["x"])
        for s in base.subsets_from_masks(range(4)):
            with pytest.raises(AttributeError, match="immutable"):
                s.mask = 1
            with pytest.raises(AttributeError, match="immutable"):
                s.base = other
            assert s.base is base

    def test_keeps_the_given_mask_objects(self):
        base = BaseSet([f"e{i}" for i in range(12)])
        # ints above the small-int cache, each a distinct object
        masks = [int(str(m)) for m in (4095, 257, 1000, 257)]
        for s, m in zip(base.subsets_from_masks(iter(masks)), masks):
            assert s.mask is m

    def test_all_subsets_in_mask_order(self):
        base = BaseSet(["b", "a", "c"])
        assert [s.mask for s in base.all_subsets()] == list(range(8))


class TestMeetsAbove:
    """`meets_above`, n bulk passes, against `oracle.reflect_full`: the
    marked masks are the carriers a table fixes."""

    @staticmethod
    def table_with_fixed(n, marked):
        # every unmarked mask is sent elsewhere: to the full mask, or to the
        # empty one if it is the full mask itself
        full = (1 << n) - 1
        table = [m if m in marked else (0 if m == full else full) for m in range(full + 1)]
        return ClosureTable(Cover(BaseSet([f"e{i}" for i in range(n)])), table)

    @given(st.integers(0, 10_000), st.integers(0, 6), st.sampled_from([0, 0.1, 0.5, 1]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reflect_full(self, seed, n, density):
        rng = random.Random(seed)
        marked = {m for m in range(1 << n) if rng.random() < density}
        if n == 0:
            marked = {0}  # the only table on an empty base fixes its carrier
        t = self.table_with_fixed(n, marked)
        assert set(fixed_points(t.table)) == marked
        assert meets_above(marked, n) == list(reflect_full(t).table)

    @pytest.mark.parametrize("n", [0, 1])
    def test_every_marking_at_n_at_most_one(self, n):
        masks = range(1 << n)
        for choice in range(1 << len(masks)):
            marked = {m for m in masks if choice >> m & 1}
            full = (1 << n) - 1
            expected = [full] * (full + 1)
            for w in masks:
                for v in marked:
                    if w & ~v == 0:
                        expected[w] &= v
            assert meets_above(marked, n) == expected
            if n == 1 and marked:
                assert meets_above(marked, n) == list(reflect_full(self.table_with_fixed(n, marked)).table)

    @pytest.mark.parametrize("n", range(7))
    def test_no_marked_masks(self, n):
        assert meets_above([], n) == [(1 << n) - 1] * (1 << n)
        if n:
            t = ClosureTable(Cover(BaseSet([f"e{i}" for i in range(n)])), [m ^ 1 for m in range(1 << n)])
            assert meets_above(fixed_points(t.table), n) == list(reflect_full(t).table)


def fixed_by_scan(table):
    """The masks a table fixes, by the enumerate scan."""
    return [m for m, out in enumerate(table) if out == m]


class TestFixedPoints:
    """`fixed_points`, the one reader of the masks a table fixes, against
    the enumerate scan, and the frames it gives."""

    @pytest.mark.parametrize("n", [9, 12])
    def test_free_frame_masks_are_the_table_entries(self, n):
        cover = Cover(default_base(n))
        table = cover.saturation_table()
        frame = cover.saturated_sets()
        assert len(frame) == 1 << n
        assert all(m is table[m] for m in frame.masks)
        assert all(s.mask is table[s.mask] for s in frame.sets)

    def test_frame_of_a_given_table_keeps_its_entries(self):
        base = default_base(9)
        axioms = [(base.elements[0], base.elements[1:3]), (base.elements[8], base.elements[7:8])]
        given = dict(enumerate(Cover.from_axiom_names(base, axioms).saturation_table()))
        cover = cover_from_table(base, given)
        frame = cover.saturated_sets()
        assert frame.masks == fixed_by_scan(given.values())
        assert max(frame.masks) > 256
        assert all(m is given[m] is cover.saturation_table()[m] for m in frame.masks)

    @pytest.mark.parametrize("n", [4, 8])
    def test_hasse_edge_ends_are_the_table_entries(self, n):
        # at n <= 8 convergence builds the table, and an edge holds its ints
        base = default_base(n)
        axioms = [(base.elements[0], base.elements[1:3]), (base.elements[-1], base.elements[-2:-1])]
        cover = Cover.from_axiom_names(base, axioms)
        frame = cover.saturated_sets()
        table = cover._table
        edges = frame.hasse_edges()
        assert table is not None and edges
        assert all(u is table[u] and v is table[v] for u, v in edges)

    @pytest.mark.parametrize("n", [9, 12])
    def test_hasse_edge_ends_are_the_frame_masks_without_a_table(self, n):
        # no table above the double cap: each upper end is still the frame's own int
        base = default_base(n)
        cover = Cover.from_axiom_names(base, [(base.elements[0], base.elements[1:3])])
        frame = cover.saturated_sets()
        edges = frame.hasse_edges()
        own = {id(m) for m in frame.masks}
        assert cover._table is None and edges
        assert all(id(u) in own and id(v) in own for u, v in edges)

    @given(st.integers(0, 10_000), st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_scan_on_saturation_tables(self, seed, n):
        table = random_cover(random.Random(seed), n).saturation_table()
        assert fixed_points(table) == fixed_by_scan(table)

    @given(st.integers(0, 10_000), st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_scan_on_any_table(self, seed, n):
        rng = random.Random(seed)
        parent = Cover(default_base(n))
        full = (1 << n) - 1
        tables = [
            random_closure_table(rng, parent),
            random_interior_table(rng, parent),
            ClosureTable(parent, [m | rng.randrange(full + 1) for m in range(full + 1)]),
            ClosureTable(parent, [rng.randrange(full + 1) for _ in range(full + 1)]),
        ]
        for t in tables:
            assert fixed_points(t.table) == fixed_by_scan(t.table)

    def test_empty_and_none_fixed(self):
        assert fixed_points([]) == []
        assert fixed_points([1, 0]) == []
        assert fixed_points([0]) == [0]


class TestFirstEscape:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=20))
    def test_least_escaping_position(self, pairs):
        inner = [a for a, _ in pairs]
        outer = tuple(b for _, b in pairs)
        expected = next((i for i, (a, b) in enumerate(pairs) if a & ~b), None)
        assert first_escape(inner, outer) == expected
        assert first_escape(iter(inner), iter(outer)) == expected


def union_by_bits(per_element, mask):
    """The union of the entries at the set bits of ``mask``, by definition."""
    out = 0
    for i, img in enumerate(per_element):
        if mask >> i & 1:
            out |= img
    return out


class TestUnions:
    """`union_over` and `unions`, built by doubling, against the union of
    the entries at the set bits of each mask."""

    @given(st.integers(0, 10_000), st.integers(0, 6), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_match_per_bit_definition(self, seed, n, width):
        rng = random.Random(seed)
        full = (1 << width) - 1
        per_element = [rng.choice([0, full, rng.getrandbits(width)]) for _ in range(n)]
        table = unions(per_element)
        assert len(table) == 1 << n
        for m in range(1 << n):
            assert union_over(per_element, m) == table[m] == union_by_bits(per_element, m)

    @pytest.mark.parametrize("n", range(7))
    def test_zero_and_full_entries(self, n):
        full = (1 << n) - 1
        singletons = [1 << i for i in range(n)]
        assert unions(singletons) == list(range(1 << n))
        assert [union_over(singletons, m) for m in range(1 << n)] == list(range(1 << n))
        assert unions([0] * n) == [0] * (1 << n)
        assert unions([full] * n) == [0] + [full] * full
        assert union_over([0] * n, full) == 0
        assert union_over([full] * n, 0) == 0

    def test_empty_list(self):
        assert unions([]) == [0]
        assert union_over([], 0) == 0


class TestOrWords:
    """`or_words`, one OR of two ints as wide as a buffer of 16-bit
    words, against one `|` per word."""

    @given(st.lists(st.integers(0, 0xFFFF), max_size=40), st.integers(0, 0xFFFF))
    @settings(max_examples=100, deadline=None)
    def test_matches_one_or_per_word(self, words, mask):
        buf = array("H", words)
        out = or_words(buf, mask)
        assert isinstance(out, array) and out.typecode == "H"
        assert out.tolist() == [w | mask for w in words]
        assert buf.tolist() == words  # the input is left as it was

    def test_bit_15_in_both(self):
        # the top bit of a word carries into no neighbour, whichever the byte order
        buf = array("H", [0x8000, 0x8001, 0x0000, 0xFFFF, 0x7FFF])
        assert or_words(buf, 0x8000).tolist() == [0x8000, 0x8001, 0x8000, 0xFFFF, 0xFFFF]
        assert or_words(buf, 0x8001).tolist() == [0x8001, 0x8001, 0x8001, 0xFFFF, 0xFFFF]

    def test_empty_and_one_word_buffers(self):
        assert or_words(array("H"), 0xFFFF).tolist() == []
        assert or_words(array("H"), 0).tolist() == []
        assert or_words(array("H", [0x1234]), 0x8421).tolist() == [0x1234 | 0x8421]
        assert or_words(array("H", [0xFFFF]), 0).tolist() == [0xFFFF]

    @pytest.mark.parametrize("mask", [1 << 16, (1 << 16) + 1, 1 << 17 | 1, -1])
    @pytest.mark.parametrize("words", [[], [0], [1, 2, 3]])
    def test_mask_outside_16_bits_raises(self, words, mask):
        # 2^16 + 1 must not wrap to 1, nor -1 to 0xFFFF
        with pytest.raises(OverflowError):
            or_words(array("H", words), mask)

    def test_doubling_gives_every_mask(self):
        words = array("H", [0])
        for k in range(16):
            words += or_words(words, 1 << k)
        assert words.tolist() == list(range(1 << 16))


def closure_by_fixpoint(rows):
    """Reflexive-transitive closure by repeated image until nothing
    changes: the reference for `transitive_closure`."""
    up = list(rows)
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = union_over(up, up[i])  # up[i] holds i, so acc holds up[i]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


class TestTransitiveClosure:
    """`transitive_closure`, Warshall's n bulk passes, against the fixpoint
    loop, on relations given by rows with row i holding bit i."""

    @given(st.integers(0, 10_000), st.integers(0, 8), st.sampled_from([0, 0.1, 0.3, 0.7]))
    @settings(max_examples=100, deadline=None)
    def test_matches_fixpoint_loop(self, seed, n, density):
        rng = random.Random(seed)
        rows = [1 << i | sum(1 << j for j in range(n) if rng.random() < density) for i in range(n)]
        before = list(rows)
        closed = transitive_closure(rows)
        assert rows == before  # the input is not mutated
        assert closed == closure_by_fixpoint(rows)
        assert transitive_closure(closed) == closed

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cycle_and_path(self, n):
        # i -> i + 1 mod n reaches everything; i -> i + 1 reaches everything above i
        full = (1 << n) - 1
        cycle = [1 << i | 1 << (i + 1) % n for i in range(n)]
        path = [1 << i | (1 << i + 1 if i + 1 < n else 0) for i in range(n)]
        assert transitive_closure(cycle) == [full] * n
        assert transitive_closure(path) == [full & ~((1 << i) - 1) for i in range(n)]

    def test_empty_and_identity(self):
        assert transitive_closure([]) == []
        assert transitive_closure(iter([1, 2, 4])) == [1, 2, 4]
