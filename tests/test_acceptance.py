"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints exactly one PASS/FAIL
line, and enforces the stated runtime bound.  Sampling is seeded and
deterministic; exhaustive quantifiers are exhaustive.
"""

import json
import random
import time

import pytest

from covlat import (
    BaseSet,
    Cover,
    EnumerationBudget,
    InitialContinuityDefectError,
    Relation,
    ValidatedMorphism,
    discrete_closure,
    discrete_interior,
    dump_json,
    identity,
    initial_closure,
    initial_interior_corrected,
    initial_interior_paper,
    instance_to_json,
    is_c_continuous,
    is_i_continuous,
    join_closures,
    join_interiors,
    leq,
    load_instance,
    meet_closures,
    meet_interiors,
    parse_instance,
    coreflection,
    reflection,
    respects_covers,
    terminal_cover,
    terminal_morphism,
    trivial_closure,
    trivial_interior,
    verify_closure_axioms,
    verify_interior_axioms,
    equivalent,
)
from covlat.oracle import (
    all_relations,
    certify_morphism_shortcuts,
    certify_suplattice_roundtrip,
    convergent_morphism_full,
    enumerate_closure_tables,
    enumerate_interior_tables,
    naive_saturate,
    overt_via_positive_part,
    positive_elements_definitional,
    random_closure_table,
    random_cover,
    random_interior_table,
    respects_covers_full,
    standard_suplattices,
)
from conftest import data_path, golden, run_cli


def report(number, label, elapsed, bound):
    line = f"criterion {number:2d} {label}: PASS ({elapsed:.2f}s < {bound}s)"
    print(line)
    assert elapsed < bound, f"criterion {number} exceeded time bound: {elapsed:.2f}s"


def seeded_total_morphisms(seed, tries, size_src=2, size_tgt=2):
    """Deterministic stream of left-total validated morphisms between
    seeded covers of the given base sizes."""
    rng = random.Random(seed)
    out = []
    for _ in range(tries):
        c1 = random_cover(rng, size_src)
        c2 = random_cover(rng, size_tgt)
        pairs = [
            (s, t)
            for s in c1.base.elements
            for t in c2.base.elements
            if rng.random() < 0.6
        ]
        r = Relation(c1.base, c2.base, pairs)
        if not r.is_left_total():
            continue
        if not respects_covers(r, c1, c2).passed:
            continue
        out.append(ValidatedMorphism.build(r, c1, c2))
    return out


def test_criterion_01_saturation_closure():
    start = time.perf_counter()
    rng = random.Random(0)
    for _ in range(500):
        cover = random_cover(rng, rng.randint(0, 6))
        n = len(cover.base)
        sat = [cover.saturate_mask(m) for m in range(1 << n)]
        for m in range(1 << n):
            assert m & ~sat[m] == 0  # extensive
            assert sat[sat[m]] == sat[m]  # idempotent
            assert sat[m] == naive_saturate(cover.axioms, m)  # oracle equality
            for v in range(1 << n):
                if m & ~v == 0:
                    assert sat[m] & ~sat[v] == 0  # monotone
    report(1, "saturation is a closure operator, matches naive fixpoint",
           time.perf_counter() - start, 10)


def test_criterion_02_convergence():
    start = time.perf_counter()
    m3 = Cover.from_axiom_names(
        BaseSet(["a", "b", "c"]),
        [("a", ["b", "c"]), ("b", ["a", "c"]), ("c", ["a", "b"])],
    )
    v = m3.is_convergent()
    assert not v.passed
    assert v.witness["element"] == "a"
    assert v.witness["u"].sorted_members() == ["b", "c"]
    assert v.witness["v"].sorted_members() == ["a"]
    import string

    for size in range(1, 7):
        free = Cover.from_axiom_names(BaseSet(list(string.ascii_lowercase[:size])), [])
        assert free.is_convergent().passed
    report(2, "convergence verdicts with pinned least witness",
           time.perf_counter() - start, 5)


def test_criterion_03_morphism_shortcuts():
    start = time.perf_counter()
    cert = certify_morphism_shortcuts(EnumerationBudget(samples=50, seed=0), size=3)
    assert cert.passed, cert.witness
    assert cert.instances > 0
    report(3, "singleton reductions match full quantification",
           time.perf_counter() - start, 60)


def test_criterion_04_operator_lattices(free2):
    start = time.perf_counter()
    closures = list(enumerate_closure_tables(free2))
    interiors = list(enumerate_interior_tables(free2))
    assert len(closures) == 4 and len(interiors) == 4
    disc_c, triv_c = discrete_closure(free2), trivial_closure(free2)
    disc_i, triv_i = discrete_interior(free2), trivial_interior(free2)
    for c in closures:
        assert leq(disc_c, c) and leq(c, triv_c)
        for d in closures:
            j, m = join_closures([c, d]), meet_closures([c, d])
            assert verify_closure_axioms(j).passed
            assert verify_closure_axioms(m).passed
            assert join_closures([c, meet_closures([c, d])]) == c
            assert meet_closures([c, join_closures([c, d])]) == c
    for i in interiors:
        assert leq(i, disc_i) and leq(triv_i, i)
        for k in interiors:
            j, m = join_interiors([i, k]), meet_interiors([i, k])
            assert verify_interior_axioms(j).passed
            assert verify_interior_axioms(m).passed
            assert join_interiors([i, meet_interiors([i, k])]) == i
            assert meet_interiors([i, join_interiors([i, k])]) == i
    report(4, "size-2 operator lattices: extremes, join/meet, absorption",
           time.perf_counter() - start, 5)


def test_criterion_05_initial_closure(chain2):
    start = time.perf_counter()
    # identity case returns the target table verbatim
    m_id = identity(chain2)
    for c in enumerate_closure_tables(chain2):
        assert initial_closure(m_id, c).table == c.table
    # maximality: whenever the pullback exists it is the greatest
    # continuous table; relational morphisms where image-after-preimage
    # overshoots have no initial table and are skipped as raised defects
    defined = skipped = 0
    for m in seeded_total_morphisms(seed=0, tries=120):
        for c_tgt in enumerate_closure_tables(m.target_cover):
            try:
                cinit = initial_closure(m, c_tgt)
            except InitialContinuityDefectError:
                skipped += 1
                continue
            defined += 1
            for c_prime in enumerate_closure_tables(m.source_cover):
                assert is_c_continuous(m, c_prime, c_tgt).passed == leq(
                    c_prime, cinit
                )
    assert defined >= 100
    report(5, f"initial closure maximality ({defined} lifts, {skipped} relational defects)",
           time.perf_counter() - start, 30)


def test_criterion_06_initial_interior(free2):
    start = time.perf_counter()
    # pinned defect reproduction: both source elements onto one target
    one = Cover.from_axiom_names(BaseSet(["x"]), [])
    r = Relation(free2.base, one.base, [("a", "x"), ("b", "x")])
    m = ValidatedMorphism.build(r, free2, one)
    _, verdict = initial_interior_paper(m, discrete_interior(one))
    assert not verdict.passed
    assert verdict.witness["axiom"] == "I1"
    assert verdict.witness["carrier"].sorted_members() == ["a"]
    # corrected construction: valid, continuous, and least among the
    # continuous interior tables on every sampled total morphism
    checked = 0
    for m in seeded_total_morphisms(seed=1, tries=120):
        for i_tgt in enumerate_interior_tables(m.target_cover):
            iinit = initial_interior_corrected(m, i_tgt)
            assert verify_interior_axioms(iinit).passed
            checked += 1
            for i_prime in enumerate_interior_tables(m.source_cover):
                assert is_i_continuous(m, i_prime, i_tgt).passed == leq(
                    iinit, i_prime
                )
    assert checked >= 100
    report(6, f"initial interior: pinned I1 defect and corrected extremality ({checked} lifts)",
           time.perf_counter() - start, 30)


def test_criterion_07_reflection_coreflection():
    start = time.perf_counter()
    rng = random.Random(0)
    for size in range(1, 5):
        for _ in range(5):
            cover = random_cover(rng, size)
            n = 1 << size
            for _ in range(100):
                c = random_closure_table(rng, cover)
                refl = reflection(c)
                closed = [m for m in range(n) if c.table[m] == m]
                for u in closed:
                    for v in closed:
                        assert c.table[u & v] == u & v  # meet-closed
                for t in range(n):
                    rt = refl.table[t]
                    assert refl.table[rt] == rt
                    for v in closed:
                        assert (rt & ~v == 0) == (t & ~v == 0)  # Galois
            for _ in range(100):
                i = random_interior_table(rng, cover)
                core = coreflection(i)
                opens = [m for m in range(n) if i.table[m] == m]
                for u in opens:
                    for v in opens:
                        assert i.table[u | v] == u | v  # join-closed
                for t in range(n):
                    kt = core.table[t]
                    assert core.table[kt] == kt
                    for v in opens:
                        assert (v & ~kt == 0) == (v & ~t == 0)  # Galois
    report(7, "reflection/coreflection idempotence and Galois laws",
           time.perf_counter() - start, 30)


def test_criterion_08_positivity_overtness():
    start = time.perf_counter()
    rng = random.Random(0)
    for _ in range(200):
        cover = random_cover(rng, rng.randint(0, 5))
        assert cover.pos() == positive_elements_definitional(cover)
        assert cover.is_overt().passed == overt_via_positive_part(cover)
    report(8, "positivity shortcut and overtness quotient law",
           time.perf_counter() - start, 30)


def test_criterion_09_terminal_object():
    start = time.perf_counter()
    term = terminal_cover()
    rng = random.Random(0)
    arrows = 0
    for _ in range(60):
        cover = random_cover(rng, rng.randint(1, 4))
        canon = terminal_morphism(cover, term)
        assert canon.convergent.passed
        for r in all_relations(cover.base, term.base):
            if not respects_covers(r, cover, term).passed:
                continue
            m = ValidatedMorphism.build(r, cover, term)
            if not m.convergent.passed:
                continue
            arrows += 1
            assert equivalent(m, canon)
    assert arrows >= 60
    report(9, f"terminal object uniqueness ({arrows} arrows collapse)",
           time.perf_counter() - start, 30)


def test_criterion_10_suplattice_roundtrip():
    start = time.perf_counter()
    for name, lat in standard_suplattices().items():
        cert = certify_suplattice_roundtrip(lat, name)
        assert cert.passed, (name, cert.witness)
    report(10, "suplattice round-trip isomorphisms (chain2, square, m3)",
           time.perf_counter() - start, 10)


def test_criterion_11_cli_contract():
    start = time.perf_counter()
    # golden files on the three pinned instances
    assert run_cli("check", "m3.json").stdout == golden("check_m3.json")
    assert run_cli("check", "free2.json").stdout == golden("check_free2.json")
    assert run_cli("frame", "chain.json").stdout == golden("frame_chain.json")
    # documented exit codes; exit 1 must come with a failed check report
    assert run_cli("check", "free2.json").returncode == 0
    failed = run_cli("check", "m3.json")
    assert failed.returncode == 1 and json.loads(failed.stdout)["pass"] is False
    assert run_cli("check", "bad.json").returncode == 2
    # parse -> serialize -> parse identity
    for name in ("m3.json", "free2.json", "chain.json"):
        cover = load_instance(data_path(name))
        text = dump_json(instance_to_json(cover))
        again = parse_instance(json.loads(text))
        assert again.axioms == cover.axioms and again.base == cover.base
    report(11, "CLI golden files, exit codes, round-trip identity",
           time.perf_counter() - start, 30)
