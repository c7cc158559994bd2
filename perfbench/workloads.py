"""The benchmark's four workloads: generated instances, jobs and expectations.

Every expected value comes from how an instance is built (the saturated
sets of a cover are the sets closed under its axioms, a pairing closure is
its own reflection, ...), never from running covlat.  ``selftest.py``
re-derives these construction claims with the naive references in
``covlat.oracle`` at small sizes.

The seed picks element names, the pairings behind operator tables and the
bijection behind the operator morphism, and shuffles axioms, table rows and
morphism pairs.  Element positions in each base stay fixed and names have a
fixed length, so every seed does the same work and writes the same number
of bytes.

Library jobs call covlat through module attributes (``fileio.load_instance``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = {
    "cover-dense": {
        "why": "free and near-free covers: the frame is (nearly) the whole powerset, so time goes "
        "to the convergence quantifier and the Hasse loop, not to saturation",
        "loads": ["cli", "fileio", "cover.is_convergent", "cover.hasse_edges",
                  "cover.saturated_sets", "sets", "morphism"],
        "bypasses": ["closure", "interior", "oracle", "subobject", "saturation misses"],
    },
    "cover-sparse": {
        "why": "all-equivalent, chain, m3 and table covers: tiny frames and long forward chains, so "
        "saturation misses dominate and Hasse work is about zero",
        "loads": ["cli", "fileio", "cover.saturate_mask", "cover.is_convergent",
                  "cover.saturated_sets", "morphism", "subobject"],
        "bypasses": ["cover.hasse_edges", "closure", "interior", "oracle"],
    },
    "operator-tables": {
        "why": "closure tables with 2^(n/2) closed sets and their interior conjugates: operator "
        "compute plus parsing and printing whole tables",
        "loads": ["cli", "fileio", "closure", "interior", "morphism"],
        "bypasses": ["cover.is_convergent", "cover.hasse_edges", "cover.saturated_sets", "oracle"],
    },
    "cli-small": {
        "why": "one fresh `python -m covlat.cli` per job on tiny files: interpreter start-up, "
        "import of covlat.cli, fileio and the oracle certificates",
        "loads": ["interpreter start-up", "import covlat.cli", "fileio", "oracle", "cli exit paths"],
        "bypasses": ["every quantifier at scale"],
    },
}


@dataclass
class Job:
    """One unit of work: ``cli`` runs ``covlat.cli.main(argv)`` in-process,
    ``child`` runs ``python -m covlat.cli argv``, ``lib`` calls ``call()``.

    ``expect(code, out)`` returns None when the outcome is right, otherwise
    what was wrong.
    """

    name: str
    kind: str
    expect: Callable
    argv: list = field(default_factory=list)
    call: Callable | None = None


@dataclass
class Workload:
    files: dict  # file name -> text
    jobs: list


# -- names, masks and files ---------------------------------------------------


def labels(rng: random.Random, n: int) -> list[str]:
    """n distinct three-letter element names."""
    picks = rng.sample(range(26**3), n)
    return ["".join(chr(97 + p // 26**k % 26) for k in (2, 1, 0)) for p in picks]


def members(names, mask: int) -> list[str]:
    return sorted(names[i] for i in range(len(names)) if mask >> i & 1)


def text(obj) -> str:
    return json.dumps(obj) + "\n"


def instance(rng, names, axioms) -> str:
    """axioms: (head index, body mask) pairs, shuffled into the file."""
    rows = [[names[a], members(names, body)] for a, body in axioms]
    rng.shuffle(rows)
    return text({"base": names, "axioms": rows})


def operator(rng, cover_ref, kind, names, table) -> str:
    rows = [[members(names, m), members(names, out)] for m, out in enumerate(table)]
    rng.shuffle(rows)
    return text({"cover": cover_ref, "kind": kind, "table": rows})


def morphism(rng, source_ref, target_ref, pairs) -> str:
    rows = [list(p) for p in pairs]
    rng.shuffle(rows)
    return text({"source": source_ref, "target": target_ref, "pairs": rows})


# -- constructions and what they imply ----------------------------------------


def closed_sets(n: int, axioms) -> list[int]:
    """Saturated sets of an axiom-generated cover: the sets that contain the
    head of every axiom whose body they contain."""
    return [m for m in range(1 << n) if all(m & body != body or m >> head & 1
                                            for head, body in axioms)]


def poset_hasse(n: int, sets: list[int]) -> set:
    """Covering pairs of the saturated sets of a cover whose axioms have
    one-element bodies and no cycles (the down-sets of a partial order):
    one element apart."""
    present = set(sets)
    return {(u, u | 1 << i) for u in sets for i in range(n)
            if not u >> i & 1 and u | 1 << i in present}


def pairing(rng, n: int) -> list[int]:
    """A seeded partition of the base into pairs (one singleton if n is odd)."""
    perm = rng.sample(range(n), n)
    return [sum(1 << i for i in perm[k:k + 2]) for k in range(0, n, 2)]


def pair_closure(n: int, groups) -> list[int]:
    """Closure: the union of the groups a carrier meets (idempotent)."""
    return [sum(g for g in groups if g & m) for m in range(1 << n)]


def pair_interior(n: int, groups) -> list[int]:
    """The complement conjugate: the union of the groups inside a carrier."""
    return [sum(g for g in groups if g & ~m == 0) for m in range(1 << n)]


def image(mask: int, perm) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def alleq(n: int):
    """Every element covered by every singleton: one equivalence class."""
    return [(x, 1 << y) for x in range(n) for y in range(n)]


def chain(n: int):
    """Element i covered by {i + 1}."""
    return [(i, 1 << (i + 1)) for i in range(n - 1)]


NEAR_FREE = [(0, 0b10)]  # one axiom: element 0 covered by {1}

# m3: each of three elements covered by the other two; not convergent, and
# the least witness in mask order is element 0 with u = {1, 2}, v = {0}
M3 = [(0, 0b110), (1, 0b101), (2, 0b011)]
M3_WITNESS = (0, 0b110, 0b001)


def m3_witness(names):
    a, u, v = M3_WITNESS
    return {"element": names[a], "u": members(names, u), "v": members(names, v)}


def lattice_2x3_table():
    """The cover of the distributive lattice 2 x 3 as a full relation table:
    a set covers the elements below its join.  Element 3*i + j is (i, j)."""
    def below(k):
        return sum(1 << (3 * i + j) for i in range(2) for j in range(3)
                   if i <= k // 3 and j <= k % 3)
    table = {}
    for m in range(64):
        ks = [k for k in range(6) if m >> k & 1]
        top = 3 * max((k // 3 for k in ks), default=0) + max((k % 3 for k in ks), default=0)
        table[m] = below(top)
    return table


# -- expectations --------------------------------------------------------------


def _report(code, out, exit_code):
    if code != exit_code:
        return None, f"exit {code}, expected {exit_code}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def expect_check(passed, pos, witness=None):
    def check(code, out):
        rep, err = _report(code, out, 0 if passed else 1)
        if err:
            return err
        if rep["pass"] is not passed:
            return f"pass {rep['pass']}"
        conv = rep["convergent"]
        if conv["pass"] is not (witness is None) or conv["witness"] != witness:
            return f"convergent {conv['pass']} witness {conv['witness']}"
        if rep["overt"]["pass"] is not True or rep["pos"] != pos:
            return f"overt {rep['overt']['pass']} pos {rep['pos']}"
        return None
    return check


def expect_frame(names, sets, hasse, convergent):
    want_sets = sorted(members(names, m) for m in sets)
    want_edges = sorted([members(names, lo), members(names, hi)] for lo, hi in hasse)

    def check(code, out):
        rep, err = _report(code, out, 0)
        if err:
            return err
        if sorted(rep["saturated"]) != want_sets:
            return f"{len(rep['saturated'])} saturated sets, expected {len(want_sets)}"
        if sorted(rep["hasse"]) != want_edges:
            return f"{len(rep['hasse'])} Hasse edges, expected {len(want_edges)}"
        got = rep["convergent"] and rep["convergent"]["pass"]
        if got is not convergent:
            return f"convergent {rep['convergent']}"
        return None
    return check


def expect_morphism_verify():
    def check(code, out):
        rep, err = _report(code, out, 0)
        if err:
            return err
        if not (rep["pass"] is True and rep["respects"]["pass"] and rep["convergent"]["pass"]):
            return f"respects {rep['respects']} convergent {rep.get('convergent')}"
        return None
    return check


def expect_compose(pairs, canonical):
    def check(code, out):
        rep, err = _report(code, out, 0)
        if err:
            return err
        if rep["pairs"] != sorted(pairs) or rep["canonical"] != canonical or rep["pass"] is not True:
            return "composite differs"
        return None
    return check


def expect_table(cover_ref, kind, names, table):
    """The exact report text; on a mismatch, the parsed tables are compared."""
    want = {"cover": cover_ref, "kind": kind,
            "table": [[members(names, m), members(names, v)] for m, v in enumerate(table)]}
    want_text = json.dumps(want, indent=2, ensure_ascii=False) + "\n"

    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        if out == want_text:
            return None
        try:
            got = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return None if got == want else "operator table differs"
    return check


def expect_verdict(passed, names=None, table=None):
    want_rows = None if table is None else [
        [members(names, m), members(names, v)] for m, v in enumerate(table)]

    def check(code, out):
        rep, err = _report(code, out, 0 if passed else 1)
        if err:
            return err
        if rep["pass"] is not passed or rep["verdict"]["pass"] is not passed:
            return f"verdict {rep['verdict']}"
        if want_rows is not None and rep["table"] != want_rows:
            return "table differs"
        return None
    return check


def expect_silent(exit_code):
    def check(code, out):
        if code != exit_code or out != "":
            return f"exit {code} with {len(out)} bytes of stdout, expected {exit_code} and none"
        return None
    return check


def expect_certificates(code, out):
    rep, err = _report(code, out, 0)
    if err:
        return err
    if not rep:
        return "no certificates"
    bad = [c["claim"] for c in rep if c["pass"] is not True or c["instances"] < 1]
    return f"failed or empty certificates: {bad}" if bad else None


def expect_value(predicate, what):
    def check(code, out):
        return None if code == 0 and predicate(out) else what
    return check


# -- the workloads ---------------------------------------------------------------


def cover_dense(seed: int) -> Workload:
    from covlat import fileio

    rng = random.Random(seed)
    f7, nf7, f11, f16 = (labels(rng, n) for n in (7, 7, 11, 16))
    files = {
        "free7.json": instance(rng, f7, []),
        "near7.json": instance(rng, nf7, NEAR_FREE),
        "free11.json": instance(rng, f11, []),
        "id11.json": morphism(rng, "free11.json", "free11.json", [(a, a) for a in f11]),
        "free16.json": instance(rng, f16, []),
    }
    all7 = list(range(1 << 7))
    near = closed_sets(7, NEAR_FREE)

    def free16_frame():
        return fileio.load_instance("free16.json").saturated_sets()

    jobs = [
        Job("check-free7", "cli", expect_check(True, sorted(f7)), ["check", "free7.json"]),
        Job("frame-free7", "cli", expect_frame(f7, all7, poset_hasse(7, all7), True),
            ["frame", "free7.json"]),
        Job("frame-near7", "cli", expect_frame(nf7, near, poset_hasse(7, near), True),
            ["frame", "near7.json"]),
        Job("morphism-verify-free11", "cli", expect_morphism_verify(),
            ["morphism", "verify", "id11.json"]),
        Job("morphism-compose-free11", "cli",
            expect_compose([[a, a] for a in f11], {a: [a] for a in f11}),
            ["morphism", "compose", "id11.json", "id11.json"]),
        Job("saturated-sets-free16", "lib",
            expect_value(lambda fr: fr.convergent is None
                         and sorted(s.mask for s in fr.sets) == list(range(1 << 16)),
                         "free 16-element frame is not the powerset"),
            call=free16_frame),
    ]
    return Workload(files, jobs)


def cover_sparse(seed: int) -> Workload:
    from covlat import fileio, subobject

    rng = random.Random(seed)
    a7, c6, m3, lat, c12, a10, a11 = (labels(rng, n) for n in (7, 6, 3, 6, 12, 10, 11))

    table = lattice_2x3_table()
    lat_rows = [[members(lat, m), members(lat, s)] for m, s in table.items()]
    rng.shuffle(lat_rows)
    files = {
        "alleq7.json": instance(rng, a7, alleq(7)),
        "chain6.json": instance(rng, c6, chain(6)),
        "m3.json": instance(rng, m3, M3),
        "lattice6.json": text({"base": lat, "table": lat_rows}),
        "chain12.json": instance(rng, c12, chain(12)),
        "alleq10.json": instance(rng, a10, alleq(10)),
        "idalleq10.json": morphism(rng, "alleq10.json", "alleq10.json", [(a, a) for a in a10]),
        "alleq11.json": instance(rng, a11, alleq(11)),
    }
    chain12 = closed_sets(12, chain(12))
    full10 = (1 << 10) - 1
    half12 = (1 << 6) - 1
    half11 = (1 << 5) - 1

    def sublocale_verdict():
        base = fileio.load_instance("chain12.json").base
        return subobject.p_star(base.subset_from_mask(half12)).verify()

    def induced():
        cover = fileio.load_instance("alleq11.json")
        return subobject.induced_cover(cover, cover.base.subset_from_mask(half11))

    want_induced = [(a11[i], (1 << 11) - 1) for i in range(5, 11)]
    jobs = [
        Job("check-alleq7", "cli", expect_check(True, sorted(a7)), ["check", "alleq7.json"]),
        Job("check-chain6", "cli", expect_check(True, sorted(c6)), ["check", "chain6.json"]),
        Job("check-m3", "cli",
            expect_check(False, sorted(m3), m3_witness(m3)),
            ["check", "m3.json"]),
        Job("check-lattice6", "cli", expect_check(True, members(lat, 0b111110)),
            ["check", "lattice6.json"]),
        Job("frame-chain12", "cli", expect_frame(c12, chain12, poset_hasse(12, chain12), None),
            ["frame", "chain12.json"]),
        Job("frame-alleq10", "cli", expect_frame(a10, [0, full10], {(0, full10)}, None),
            ["frame", "alleq10.json"]),
        Job("morphism-verify-alleq10", "cli", expect_morphism_verify(),
            ["morphism", "verify", "idalleq10.json"]),
        Job("morphism-compose-alleq10", "cli",
            expect_compose([[a, a] for a in a10], {a: sorted(a10) for a in a10}),
            ["morphism", "compose", "idalleq10.json", "idalleq10.json"]),
        Job("p-star-verify-chain12", "lib",
            expect_value(lambda v: v.passed, "sublocale family failed verification"),
            call=sublocale_verdict),
        Job("induced-cover-alleq11", "lib",
            expect_value(lambda ax: [(a, s.mask) for a, s in ax] == want_induced,
                         "induced axioms differ"),
            call=induced),
    ]
    return Workload(files, jobs)


def operator_tables(seed: int) -> Workload:
    rng = random.Random(seed)
    n11, n10, s10 = labels(rng, 11), labels(rng, 10), labels(rng, 10)
    g11, ga, gb = pairing(rng, 11), pairing(rng, 10), pairing(rng, 10)
    sigma = rng.sample(range(10), 10)  # source element i -> target element sigma[i]
    inverse = [sigma.index(j) for j in range(10)]
    c11, i11 = pair_closure(11, g11), pair_interior(11, g11)
    ca, cb = pair_closure(10, ga), pair_closure(10, gb)
    ia, ib = pair_interior(10, ga), pair_interior(10, gb)
    # pulled back along the bijection: T -> sigma^-1(op(sigma(T)))
    c_src = [image(ca[image(m, sigma)], inverse) for m in range(1 << 10)]
    i_src = [image(ia[image(m, sigma)], inverse) for m in range(1 << 10)]
    files = {
        "free11.json": instance(rng, n11, []),
        "closure11.json": operator(rng, "free11.json", "closure", n11, c11),
        "interior11.json": operator(rng, "free11.json", "interior", n11, i11),
        "free10.json": instance(rng, n10, []),
        "closure_a.json": operator(rng, "free10.json", "closure", n10, ca),
        "closure_b.json": operator(rng, "free10.json", "closure", n10, cb),
        "interior_a.json": operator(rng, "free10.json", "interior", n10, ia),
        "interior_b.json": operator(rng, "free10.json", "interior", n10, ib),
        "source10.json": instance(rng, s10, []),
        "bijection.json": morphism(rng, "source10.json", "free10.json",
                                   [(s10[i], n10[sigma[i]]) for i in range(10)]),
        "closure_src.json": operator(rng, "source10.json", "closure", s10, c_src),
        "interior_src.json": operator(rng, "source10.json", "interior", s10, i_src),
    }
    join_c = [x | y for x, y in zip(ca, cb)]
    meet_i = [x & y for x, y in zip(ia, ib)]
    op = ["operator"]
    jobs = [
        Job("verify-closure11", "cli", expect_verdict(True), op + ["verify", "closure11.json"]),
        Job("verify-interior11", "cli", expect_verdict(True), op + ["verify", "interior11.json"]),
        Job("reflect10", "cli", expect_table("<derived>", "closure", n10, ca),
            op + ["reflect", "closure_a.json"]),
        Job("coreflect10", "cli", expect_table("<derived>", "interior", n10, ia),
            op + ["coreflect", "interior_a.json"]),
        Job("join-closures10", "cli", expect_table("<combined>", "closure", n10, join_c),
            op + ["join", "closure_a.json", "closure_b.json"]),
        Job("meet-interiors10", "cli", expect_table("<combined>", "interior", n10, meet_i),
            op + ["meet", "interior_a.json", "interior_b.json"]),
        Job("continuity-closure10", "cli", expect_verdict(True),
            op + ["continuity", "bijection.json", "closure_src.json", "closure_a.json"]),
        Job("continuity-interior10", "cli", expect_verdict(True),
            op + ["continuity", "bijection.json", "interior_src.json", "interior_a.json"]),
        Job("initial-closure10", "cli", expect_table("<initial>", "closure", s10, c_src),
            op + ["initial", "bijection.json", "closure_a.json"]),
        Job("initial-interior10", "cli", expect_table("<initial>", "interior", s10, i_src),
            op + ["initial", "bijection.json", "interior_a.json"]),
        Job("initial-interior-paper10", "cli", expect_verdict(True, s10, i_src),
            op + ["initial", "--initial-mode", "paper", "bijection.json", "interior_a.json"]),
    ]
    return Workload(files, jobs)


def cli_small(seed: int) -> Workload:
    rng = random.Random(seed)
    m3, ch, f2, f9 = labels(rng, 3), labels(rng, 3), labels(rng, 2), labels(rng, 9)
    chain3 = closed_sets(3, chain(3))
    closure2 = pair_closure(2, [0b11])
    files = {
        "m3.json": instance(rng, m3, M3),
        "chain3.json": instance(rng, ch, chain(3)),
        "free2.json": instance(rng, f2, []),
        "id2.json": morphism(rng, "free2.json", "free2.json", [(a, a) for a in f2]),
        "closure2.json": operator(rng, "free2.json", "closure", f2, closure2),
        "bad.json": '{"base": ["' + f2[0] + '",',
        "nine.json": instance(rng, f9, []),
    }
    jobs = [
        Job("check-m3", "child",
            expect_check(False, sorted(m3), m3_witness(m3)),
            ["check", "m3.json"]),
        Job("frame-chain3", "child", expect_frame(ch, chain3, poset_hasse(3, chain3), True),
            ["frame", "chain3.json"]),
        Job("morphism-verify-free2", "child", expect_morphism_verify(),
            ["morphism", "verify", "id2.json"]),
        Job("reflect2", "child", expect_table("<derived>", "closure", f2, closure2),
            ["operator", "reflect", "closure2.json"]),
        Job("check-malformed", "child", expect_silent(2), ["check", "bad.json"]),
        Job("check-over-cap9", "child", expect_silent(3), ["check", "nine.json"]),
        Job("certify-defaults", "child", expect_certificates, ["certify"]),
    ]
    return Workload(files, jobs)


BUILDERS = {
    "cover-dense": cover_dense,
    "cover-sparse": cover_sparse,
    "operator-tables": operator_tables,
    "cli-small": cli_small,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload for ``seed`` and write its files into workdir."""
    workload = BUILDERS[name](seed)
    os.makedirs(workdir, exist_ok=True)
    for fname, body in workload.files.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(body)
    return workload
