"""Self-tests of the benchmark itself (not collected by pytest).

    python3 perfbench/selftest.py

Checks that one seed gives byte-identical inputs, that the construction
claims behind every expected value agree with the naive references in
``covlat.oracle`` at small sizes, that every workload passes its own
expectations and fails a deliberately wrong one, and that a traced run gives
a non-zero value for every per-layer metric on the workloads it is mapped to.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import tracer as tr
import workloads as wl

CLI = run.import_covlat()

from covlat.cover import Cover, CoverAxioms  # noqa: E402  (needs the path set up above)
from covlat.morphism import Relation  # noqa: E402
from covlat.oracle import (  # noqa: E402
    convergent_morphism_full,
    default_base,
    naive_saturate,
    respects_covers_full,
)

SCRATCH = os.path.join(run.RUN_DIR, "selftest")


def naive_sat(n, axioms):
    base = default_base(n)
    ax = CoverAxioms(base, [(base.elements[h], wl.members(base.elements, b)) for h, b in axioms])
    return lambda mask: naive_saturate(ax, mask)


def naive_convergence(n, sat):
    """The least failing (a, u, v): element, then v, then u in mask order."""
    single = [sat(1 << x) for x in range(n)]

    def below(u):
        out = 0
        for x in range(n):
            if u >> x & 1:
                out |= single[x]
        return out

    for a in range(n):
        for v in range(1 << n):
            if not sat(v) >> a & 1:
                continue
            for u in range(1 << n):
                if sat(u) >> a & 1 and not sat(below(u) & below(v)) >> a & 1:
                    return a, u, v
    return None


def brute_hasse(sets):
    return {(u, v) for u in sets for v in sets if u != v and u & ~v == 0
            and not any(w not in (u, v) and u & ~w == 0 and w & ~v == 0 for w in sets)}


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in wl.BUILDERS:
            dirs = [os.path.join(SCRATCH, name, k) for k in ("a", "b")]
            for d in dirs:
                wl.build(name, 7, d)
            other = wl.BUILDERS[name](8).files
            for fname in sorted(os.listdir(dirs[0])):
                with open(os.path.join(dirs[0], fname), "rb") as fa, \
                        open(os.path.join(dirs[1], fname), "rb") as fb:
                    first = fa.read()
                    self.assertEqual(first, fb.read(), f"{name}/{fname}")
                # another seed relabels but writes the same amount
                self.assertEqual(len(first), len(other[fname].encode()), f"{name}/{fname}")


class Constructions(unittest.TestCase):
    """Each claim the expectations rest on, against covlat.oracle at small n."""

    def test_axiom_covers(self):
        families = [("free", lambda n: []), ("near-free", lambda n: wl.NEAR_FREE),
                    ("chain", wl.chain), ("all-equivalent", wl.alleq)]
        for (label, axioms), n in itertools.product(families, range(2, 6)):
            sat = naive_sat(n, axioms(n))
            fixed = [m for m in range(1 << n) if sat(m) == m]
            self.assertEqual(wl.closed_sets(n, axioms(n)), fixed, label)
            self.assertIsNone(naive_convergence(n, sat), label)
            self.assertEqual(sat(0), 0, label)  # so pos is the whole base, and overt
            want = {(0, (1 << n) - 1)} if label == "all-equivalent" else wl.poset_hasse(n, fixed)
            self.assertEqual(brute_hasse(fixed), want, label)

    def test_m3_witness(self):
        self.assertEqual(naive_convergence(3, naive_sat(3, wl.M3)), wl.M3_WITNESS)

    def test_lattice_table(self):
        table = wl.lattice_2x3_table()
        for u, v in itertools.product(range(64), repeat=2):
            self.assertEqual(u & ~table[u], 0)
            if u & ~table[v] == 0:
                self.assertEqual(table[u] & ~table[v], 0)
        self.assertIsNone(naive_convergence(6, table.__getitem__))
        self.assertEqual(table[0], 1)  # pos: every element but the bottom

    def test_identity_morphisms(self):
        for axioms in ([], wl.alleq(3)):
            base = default_base(3)
            cover = Cover(base, CoverAxioms(base, [
                (base.elements[h], wl.members(base.elements, b)) for h, b in axioms]))
            ident = Relation(base, base, [(a, a) for a in base.elements])
            self.assertTrue(respects_covers_full(ident, cover, cover).passed)
            self.assertTrue(convergent_morphism_full(ident, cover, cover).passed)

    def test_induced_axioms_of_all_equivalent(self):
        n, t = 4, 0b0011
        sat = naive_sat(n, wl.alleq(n))
        for a in range(n):
            if not t >> a & 1:
                self.assertEqual([m for m in range(1 << n) if sat(m) == m and m >> a & 1],
                                 [(1 << n) - 1])

    def test_operator_tables(self):
        import random

        for n in (4, 5):
            rng = random.Random(n)
            full = (1 << n) - 1
            groups = wl.pairing(rng, n)
            c, i = wl.pair_closure(n, groups), wl.pair_interior(n, groups)
            for m in range(1 << n):
                self.assertEqual(i[m], full & ~c[full & ~m])  # complement conjugate
                self.assertEqual(m & ~c[m], 0)
                self.assertEqual(i[m] & ~m, 0)
                for sub in range(1 << n):
                    if sub & ~m == 0:
                        self.assertEqual(c[sub] & ~c[m], 0)
                        self.assertEqual(i[sub] & ~i[m], 0)
            self.assertEqual((c[0], i[full]), (0, full))
            closed = [m for m in range(1 << n) if c[m] == m]
            opens = [m for m in range(1 << n) if i[m] == m]
            self.assertEqual(len(closed), 2 ** len(groups))
            for m in range(1 << n):  # reflection and coreflection give the table back
                refl = full
                for v in closed:
                    if m & ~v == 0:
                        refl &= v
                self.assertEqual(refl, c[m])
                core = 0
                for v in opens:
                    if v & ~m == 0:
                        core |= v
                self.assertEqual(core, i[m])
            sigma = rng.sample(range(n), n)
            inverse = [sigma.index(j) for j in range(n)]
            for m in range(1 << n):  # initial tables along the bijection, and continuity
                c_src = wl.image(c[wl.image(m, sigma)], inverse)
                self.assertEqual(wl.image(c_src, sigma), c[wl.image(m, sigma)])
                corestriction = sum(1 << j for j in range(n) if 1 << inverse[j] & ~m == 0)
                self.assertEqual(corestriction, wl.image(m, sigma))


class Rounds(unittest.TestCase):
    def _round(self, name, mutate=None):
        workdir = os.path.join(SCRATCH, "rounds", name)
        workload = wl.build(name, 3, workdir)
        if mutate is not None:
            mutate(workload.jobs)
        log = {"attempted": 0, "failed": 0, "errors": [], "job_s": {}}
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            run.run_round(workload.jobs, run.Runner(CLI, workdir), log)
        finally:
            os.chdir(cwd)
        return log

    def test_expected_verdicts_hold(self):
        for name in wl.BUILDERS:
            log = self._round(name)
            self.assertEqual(log["failed"], 0, f"{name}: {log['errors']}")

    def test_wrong_expectation_fails(self):
        def wrong(jobs):
            jobs[0].expect = wl.expect_silent(99)  # no job exits 99

        for name in wl.BUILDERS:
            log = self._round(name, wrong)
            self.assertEqual(log["failed"], 1, name)


class Tracing(unittest.TestCase):
    def test_install_replaces_every_binding(self):
        tracer = tr.Tracer()
        originals = {}
        for targets, _note in tr.SPANS.values():
            for target in targets:
                modname, qual = target.split(":")
                if "." not in qual:
                    originals[target] = getattr(sys.modules[modname], qual)
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("covlat"):
                    for key, value in vars(mod).items():
                        self.assertNotIn(value, originals.values(), f"{mod.__name__}.{key}")
            self.assertIs(sys.modules["covlat.cli"].respects_covers,
                          sys.modules["covlat.morphism"].respects_covers)
        finally:
            tracer.uninstall()
        self.assertIs(sys.modules["covlat.cli"].respects_covers,
                      originals["covlat.morphism:respects_covers"])

    def test_layers_nonzero_where_mapped(self):
        for name in wl.BUILDERS:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", "5", "--seconds", "2", "--trace", "1"],
                capture_output=True, text=True, timeout=170, cwd=run.ROOT)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            self.assertTrue(result["correct"], report["errors"])
            self.assertEqual(set(result["metrics"]), set(tr.METRICS))
            self.assertEqual(report["untraced_targets"], [])
            silent = [metric for metric, spec in tr.METRICS.items()
                      if name in spec[3]["workloads"] and not result["metrics"][metric]["value"]]
            self.assertEqual(silent, [], name)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
