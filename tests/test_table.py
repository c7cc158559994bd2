"""The operator-table core shared by closure and interior tables: the
complement conjugation and the coreflection derived through it."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from covlat import (
    ClosureTable,
    InteriorTable,
    coreflection,
    join_interiors,
    meet_closures,
    reflection,
    verify_closure_axioms,
    verify_interior_axioms,
)
from covlat.oracle import (
    coreflection_direct,
    random_closure_table,
    random_cover,
    random_interior_table,
)
from covlat.table import conjugate


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
