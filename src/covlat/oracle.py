"""Brute-force certification of every shortcut used elsewhere.

Everything here is deliberately naive: independent fixpoint iteration for
saturation, full subset-pair quantifiers for morphism validation, plain
enumeration for operator lattices.  Agreement of these oracles with the
fast paths is what the certificates (and the acceptance suite) assert.

Randomness is the stdlib Mersenne Twister (``random.Random``) with fixed
seed defaults, so every certificate is reproducible bit for bit from
(seed, bounds).
"""

from __future__ import annotations

import itertools
import random
import string
import time
from collections import namedtuple

from .caps import require_cap
from .closure import (
    ClosureTable,
    initial_closure,
    is_c_continuous,
    verify_closure_axioms,
)
from .cover import (
    Cover,
    CoverAxioms,
    FiniteSuplattice,
    FrameOfSaturated,
    cover_from_suplattice,
)
from .errors import (
    BaseMismatchError,
    CapExceededError,
    InitialContinuityDefectError,
    InputError,
    MorphismValidationError,
)
from .interior import (
    InteriorTable,
    initial_interior_corrected,
    is_i_continuous,
    verify_interior_axioms,
)
from .morphism import (
    MorphismClass,
    Relation,
    ValidatedMorphism,
    _convergence_verdict,
    compose,
    respects_covers,
)
from .sets import BaseSet, Subset, submasks
from .subobject import Subobject, SublocaleFamily, SubobjectLattice
from .table import OperatorTable
from .verdict import Verdict, _jsonify


class EnumerationBudget(
    namedtuple("EnumerationBudget", "max_cover_size samples seed", defaults=(3, 30, 0))
):
    """Bounds and seed for certification runs; deterministic given the seed.

    An immutable named tuple rather than a frozen dataclass, because the
    ``dataclasses`` import costs every ``covlat certify`` start-up.
    """

    __slots__ = ()

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def to_json(self) -> dict:
        return self._asdict()


class Certificate:
    """The outcome of one certified claim, with its bounds and cost."""

    __slots__ = ("claim_id", "bounds", "passed", "witness", "instances", "runtime_s", "skipped")

    def __init__(
        self,
        claim_id: str,
        bounds: dict,
        passed: bool,
        witness: dict | None,
        instances: int,
        runtime_s: float = 0.0,
        skipped: int = 0,  # samples drawn but not usable as an instance
    ):
        self.claim_id = claim_id
        self.bounds = bounds
        self.passed = passed
        self.witness = witness
        self.instances = instances
        self.runtime_s = runtime_s
        self.skipped = skipped

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "bounds": _jsonify(self.bounds),
            "pass": self.passed,
            "witness": _jsonify(self.witness),
            "instances": self.instances,
            "skipped": self.skipped,
            "runtime_s": round(self.runtime_s, 6),
        }


def _timed(claim_id, bounds, fn):
    """Run a certificate body; a claim checked on no instance does not pass."""
    start = time.perf_counter()
    passed, witness, instances = fn()
    if passed and instances == 0:
        passed, witness = False, {"claim": "no instances checked"}
    return Certificate(claim_id, bounds, passed, witness, instances, time.perf_counter() - start)


# -- independent saturation oracle -------------------------------------------


def naive_saturate(axioms: CoverAxioms, mask: int) -> int:
    """Round-robin fixpoint iteration; independent of the worklist path."""
    cur = mask
    changed = True
    while changed:
        changed = False
        for head, prem in axioms.pairs:
            if prem & ~cur == 0 and not cur >> head & 1:
                cur |= 1 << head
                changed = True
    return cur


# -- deterministic and random instance generators ----------------------------


def default_base(size: int) -> BaseSet:
    return BaseSet(list(string.ascii_lowercase[:size]))


def enumerate_covers(max_size: int):
    """All axiom sets over bases up to the bound, canonical order.

    The candidate axioms for a base of size n are the n * 2^n pairs
    (element, subset) in (element index, subset mask) order; axiom sets
    are enumerated as subsets of that list in increasing mask order.
    """
    if max_size > 3:
        # n=4 already means 2^64 axiom sets; refuse outright
        raise CapExceededError("enumerate_covers", max_size, 3)
    for size in range(max_size + 1):
        base = default_base(size)
        candidates = [
            (base.elements[i], base.subset_from_mask(m).members())
            for i in range(size)
            for m in range(1 << size)
        ]
        for choice in range(1 << len(candidates)):
            picked = [candidates[i] for i in range(len(candidates)) if choice >> i & 1]
            yield Cover.from_axiom_names(base, picked)


def random_cover(rng: random.Random, size: int, max_axioms: int | None = None) -> Cover:
    base = default_base(size)
    if max_axioms is None:
        max_axioms = 2 * size
    count = rng.randint(0, max_axioms) if size else 0
    pairs = []
    for _ in range(count):
        head = base.elements[rng.randrange(size)]
        body = base.subset_from_mask(rng.randrange(1 << size)).members()
        pairs.append((head, body))
    return Cover.from_axiom_names(base, pairs)


def random_closure_table(rng: random.Random, parent: Cover) -> ClosureTable:
    """A random valid closure table: seed an extensive bottom-fixing map,
    then force monotonicity by accumulating over sub-carriers."""
    size = 1 << len(parent.base)
    raw = [0] * size
    for m in range(1, size):
        raw[m] = m | rng.randrange(size)
    for bit in range(len(parent.base)):
        for m in range(size):
            if m >> bit & 1:
                raw[m] |= raw[m ^ 1 << bit]
    return ClosureTable(parent, raw)


def random_interior_table(rng: random.Random, parent: Cover) -> InteriorTable:
    size = 1 << len(parent.base)
    full = size - 1
    raw = [0] * size
    for m in range(size):
        raw[m] = m & rng.randrange(size)
    raw[full] = full
    # intersect over all super-carriers to force monotonicity
    for bit in range(len(parent.base)):
        for m in range(size):
            if not m >> bit & 1:
                raw[m] &= raw[m | 1 << bit]
    return InteriorTable(parent, raw)


def _valid_tables(what: str, cls: type, verify, parent: Cover):
    n = len(parent.base)
    require_cap(what, n, "double")
    size = 1 << n
    for outputs in itertools.product(range(size), repeat=size):
        candidate = cls(parent, outputs)
        if verify(candidate).passed:
            yield candidate


def enumerate_closure_tables(parent: Cover):
    """All valid closure tables; feasible only for tiny bases."""
    return _valid_tables("enumerate_closure_tables", ClosureTable, verify_closure_axioms, parent)


def enumerate_interior_tables(parent: Cover):
    return _valid_tables("enumerate_interior_tables", InteriorTable, verify_interior_axioms, parent)


def coreflection_direct(i: InteriorTable) -> InteriorTable:
    """Union of the open carriers inside each carrier, computed directly;
    the reference for the conjugated reflection."""
    size = 1 << len(i.parent.base)
    opens = [m for m in range(size) if i.table[m] == m]
    table = []
    for t in range(size):
        acc = 0
        for v in opens:
            if v & ~t == 0:
                acc |= v
        table.append(acc)
    return InteriorTable(i.parent, table)


def all_relations(source: BaseSet, target: BaseSet):
    """Every relation between the bases, in canonical pair-mask order."""
    pairs = [
        (s, t) for s in source.elements for t in target.elements
    ]
    for choice in range(1 << len(pairs)):
        yield Relation(
            source, target, [pairs[i] for i in range(len(pairs)) if choice >> i & 1]
        )


# -- scans over every subset, the references for the saturation table and ---
# -- the minimal-cover cuts ---------------------------------------------------


def _naive_sat(cover: Cover):
    """Saturation by naive iteration on an axiom cover and by the given
    table otherwise, so that neither the worklist nor its cache is used."""
    if cover._given is not None:
        return cover._given.__getitem__
    return lambda m: naive_saturate(cover.axioms, m)


def saturation_table_full(cover: Cover) -> list[int]:
    """One ``_naive_sat`` per subset; the reference for
    ``Cover.saturation_table``."""
    n = len(cover.base)
    require_cap("saturation_table_full", n, "single")
    sat = _naive_sat(cover)
    return [sat(m) for m in range(1 << n)]


def minimal_covers_full(cover: Cover) -> list[list[int]]:
    """For each element a, in mask order: the covers of a (by
    ``saturation_table_full``) minus any with a smaller cover of a inside
    them; the reference for ``Cover.minimal_covers``."""
    sat = saturation_table_full(cover)
    minimal = []
    for a in range(len(cover.base)):
        covers = [v for v, s in enumerate(sat) if s >> a & 1]
        minimal.append(
            [v for v in covers if not any(w != v and sat[w] >> a & 1 for w in submasks(v))]
        )
    return minimal


def down_full(cover: Cover, u: int, v: int) -> int:
    """The elements b with b in sat({x}) for some x in U and b in sat({y})
    for some y in V, each singleton by ``_naive_sat``; the reference for
    ``Cover.down_mask``."""
    n = len(cover.base)
    sat = _naive_sat(cover)
    below = [sat(1 << x) for x in range(n)]

    def in_down(w, b):
        return any(w >> x & 1 and below[x] >> b & 1 for x in range(n))

    return sum(1 << b for b in range(n) if in_down(u, b) and in_down(v, b))


def is_convergent_full(cover: Cover) -> Verdict:
    """Convergence quantified over all pairs of covers of each element."""
    n = len(cover.base)
    require_cap("is_convergent_full", n, "double")
    checked = 0
    subsets = list(range(1 << n))
    sat = [cover.saturate_mask(m) for m in subsets]
    for a in range(n):
        bit = 1 << a
        for v in subsets:
            if not sat[v] & bit:
                continue
            for u in subsets:
                if not sat[u] & bit:
                    continue
                checked += 1
                if not sat[cover.down_mask(u, v)] & bit:
                    return Verdict.fail(
                        {
                            "element": cover.base.elements[a],
                            "u": cover.base.subset_from_mask(u),
                            "v": cover.base.subset_from_mask(v),
                        },
                        checked,
                    )
    return Verdict.ok(checked)


def hasse_edges_full(frame: FrameOfSaturated) -> list[tuple[Subset, Subset]]:
    """Covering pairs found by testing every triple of saturated sets."""
    edges = []
    for u in frame.sets:
        for v in frame.sets:
            if not u < v:
                continue
            if any(u < w < v for w in frame.sets):
                continue
            edges.append((u, v))
    return edges


def respects_covers_every_cover(r: Relation, c1: Cover, c2: Cover) -> Verdict:
    """Singleton reduction of cover respect over every cover of each
    target element, not only the minimal ones."""
    if r.source != c1.base or r.target != c2.base:
        raise BaseMismatchError("relation endpoints do not match the covers")
    n2 = len(c2.base)
    require_cap("respects_covers_every_cover", n2, "respects")
    checked = 0
    for a in range(n2):
        bit = 1 << a
        pre_a = r._preimage[a]
        for v in range(1 << n2):
            if not c2.saturate_mask(v) & bit:
                continue
            checked += 1
            pre_v = r.preimage_minus_mask(v)
            if pre_a & ~c1.saturate_mask(pre_v):
                return Verdict.fail(
                    {
                        "element": c2.base.elements[a],
                        "v": c2.base.subset_from_mask(v),
                    },
                    checked,
                )
    return Verdict.ok(checked)


# -- scans behind the structural table and family checks ---------------------
# -- (``SublocaleFamily.verify`` re-runs its scan on failure, for the witness) -


def scan_axioms_full(t: OperatorTable, label: str, extensive: bool, fixed: int) -> Verdict:
    """The operator-table axioms with monotonicity tested on every submask
    pair; the reference for ``table.scan_axioms``."""
    base = t.parent.base
    table = t.table
    checked = 0
    for mask, out in enumerate(table):
        checked += 1
        if (mask & ~out) if extensive else (out & ~mask):
            return Verdict.fail(
                {"axiom": f"{label}1", "carrier": base.subset_from_mask(mask)}, checked
            )
    for larger, out_larger in enumerate(table):
        for smaller in submasks(larger):
            checked += 1
            if table[smaller] & ~out_larger:
                return Verdict.fail(
                    {
                        "axiom": f"{label}2",
                        "smaller": base.subset_from_mask(smaller),
                        "larger": base.subset_from_mask(larger),
                    },
                    checked,
                )
    checked += 1
    if table[fixed] != fixed:
        return Verdict.fail(
            {"axiom": f"{label}3", "carrier": base.subset_from_mask(fixed)}, checked
        )
    return Verdict.ok(checked)


def reflect_full(t: OperatorTable) -> OperatorTable:
    """Each carrier sent to the intersection of the fixed carriers above
    it, testing every fixed carrier; the reference for ``table.reflect``."""
    size = 1 << len(t.parent.base)
    fixed = [m for m, out in enumerate(t.table) if out == m]
    table = []
    for m in range(size):
        acc = size - 1
        for v in fixed:
            if m & ~v == 0:
                acc &= v
        table.append(acc)
    return type(t)(t.parent, table)


def cover_from_table_full(base: BaseSet, table: dict[int, int]) -> Cover:
    """Table acceptance with transitivity tested on every pair of rows, in
    row order; the reference for ``cover.cover_from_table``."""
    n = len(base)
    if set(table) != set(range(1 << n)):
        raise InputError("relation table must list every subset of the base exactly once")
    for mask, sat in table.items():
        if sat >> n:
            raise InputError(f"table value {sat:#x} is not a subset of the base")
        if mask & ~sat:
            raise InputError(
                f"table violates reflexivity at "
                f"{base.subset_from_mask(mask).sorted_members()}"
            )
    for u, sat_u in table.items():
        for v, sat_v in table.items():
            if u & ~sat_v == 0 and sat_u & ~sat_v:
                raise InputError(
                    f"table violates transitivity: "
                    f"{base.subset_from_mask(u).sorted_members()} is covered by "
                    f"{base.subset_from_mask(v).sorted_members()} but its cover set is not"
                )
    return Cover(base, table=map(table.__getitem__, range(1 << n)))


def sublocale_verify_full(family: SublocaleFamily) -> Verdict:
    """The sublocale-family laws tested on every pair of members and every
    (subset, member) implication; the reference for
    ``SublocaleFamily.verify``."""
    base = family.carrier.base
    checked = 0
    full = (1 << len(base)) - 1
    if full not in family._masks:
        return Verdict.fail({"missing": base.subset_from_mask(full)}, checked)
    bottom = full
    for u in family.sets:
        bottom &= u.mask
        for v in family.sets:
            checked += 1
            if u.mask & v.mask not in family._masks:
                return Verdict.fail(
                    {"law": "intersection", "u": u, "v": v}, checked
                )
    if bottom != family.carrier.complement().mask:
        return Verdict.fail(
            {"law": "meet", "got": base.subset_from_mask(bottom)}, checked
        )
    for mask in range(1 << len(base)):
        impl_lhs = full & ~mask
        for w in family.sets:
            checked += 1
            if impl_lhs | w.mask not in family._masks:
                return Verdict.fail(
                    {
                        "law": "implication",
                        "u": base.subset_from_mask(mask),
                        "w": w,
                    },
                    checked,
                )
    return Verdict.ok(checked)


def subobject_hasse_edges_full(lat: SubobjectLattice) -> list[tuple[Subobject, Subobject]]:
    """Covering pairs found by testing every pair of subobjects; the
    reference for ``SubobjectLattice.hasse_edges``."""
    edges = []
    for x in lat.elements():
        for y in lat.elements():
            diff = y.carrier.mask & ~x.carrier.mask
            if x.carrier.issubset(y.carrier) and diff and diff & (diff - 1) == 0:
                edges.append((x, y))
    return edges


# -- full-quantifier references for the singleton reductions -----------------


def respects_covers_full(r: Relation, c1: Cover, c2: Cover) -> Verdict:
    """Cover respect quantified over all subset pairs of the target."""
    n2 = len(c2.base)
    require_cap("respects_covers_full", n2, "double")
    checked = 0
    pre = r.preimages()
    for v in range(1 << n2):
        sat_v = c2.saturate_mask(v)
        pre_v_sat = c1.saturate_mask(pre[v])
        for u in range(1 << n2):
            if u & ~sat_v:
                continue
            checked += 1
            if pre[u] & ~pre_v_sat:
                return Verdict.fail(
                    {
                        "u": c2.base.subset_from_mask(u),
                        "v": c2.base.subset_from_mask(v),
                    },
                    checked,
                )
    return Verdict.ok(checked)


def convergent_morphism_full(r: Relation, c1: Cover, c2: Cover) -> Verdict:
    """Convergent-morphism conditions with the down-set condition checked
    for all subset pairs of the target."""
    n1 = len(c1.base)
    n2 = len(c2.base)
    require_cap("convergent_morphism_full", n2, "double")
    checked = 1
    full1 = (1 << n1) - 1
    pre = r.preimages()
    if full1 & ~c1.saturate_mask(pre[(1 << n2) - 1]):
        return Verdict.fail({"condition": "source covered by preimage of target"}, checked)
    for u in range(1 << n2):
        pre_u = pre[u]
        for v in range(1 << n2):
            checked += 1
            left = c1.down_mask(pre_u, pre[v])
            right = c1.saturate_mask(pre[c2.down_mask(u, v)])
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


def convergence_singletons_full(r: Relation, c1: Cover, c2: Cover) -> Verdict:
    """The singleton-pair convergence conditions with one ``down_mask`` and
    one ``preimage_minus_mask`` per pair; the reference for
    ``morphism._convergence_verdict``."""
    n1 = len(c1.base)
    n2 = len(c2.base)
    checked = 1
    full1 = (1 << n1) - 1
    if full1 & ~c1.saturate_mask(r.preimage_minus_mask((1 << n2) - 1)):
        return Verdict.fail({"condition": "source covered by preimage of target"}, checked)
    for u in range(n2):
        for v in range(n2):
            checked += 1
            left = c1.down_mask(r._preimage[u], r._preimage[v])
            down_uv = c2.down_mask(1 << u, 1 << v)
            right = c1.saturate_mask(r.preimage_minus_mask(down_uv))
            if left & ~right:
                return Verdict.fail(
                    {
                        "condition": "down-set",
                        "u": c2.base.elements[u],
                        "v": c2.base.elements[v],
                    },
                    checked,
                )
    return Verdict.ok(checked)


def positive_elements_definitional(cover: Cover) -> Subset:
    """Elements all of whose covering subsets are inhabited; the reference
    for the saturated-empty shortcut."""
    n = len(cover.base)
    require_cap("positive_elements_definitional", n, "single")
    out = 0
    for a in range(n):
        if all(
            u != 0
            for u in range(1 << n)
            if cover.saturate_mask(u) >> a & 1
        ):
            out |= 1 << a
    return cover.base.subset_from_mask(out)


def overt_via_positive_part(cover: Cover) -> bool:
    """Overtness via the quotient characterization: saturating any subset
    equals saturating its positive part."""
    n = len(cover.base)
    require_cap("overt_via_positive_part", n, "single")
    pos = cover.pos().mask
    return all(
        cover.saturate_mask(u) == cover.saturate_mask(u & pos)
        for u in range(1 << n)
    )


# -- certificates ------------------------------------------------------------


def certify_saturation(budget: EnumerationBudget, size: int = 6) -> Certificate:
    """Saturation is a closure operator and agrees with naive iteration."""
    bounds = {"size": size, **budget.to_json()}

    def run():
        rng = budget.rng()
        instances = 0
        for _ in range(budget.samples):
            cover = random_cover(rng, rng.randint(0, size))
            instances += 1
            n = len(cover.base)
            sat = [cover.saturate_mask(m) for m in range(1 << n)]
            for m in range(1 << n):
                if m & ~sat[m] or sat[sat[m]] != sat[m]:
                    return False, {"cover": cover.axioms.named_pairs(), "u": m}, instances
                if sat[m] != naive_saturate(cover.axioms, m):
                    return False, {"cover": cover.axioms.named_pairs(), "u": m}, instances
                for v in range(1 << n):
                    if m & ~v == 0 and sat[m] & ~sat[v]:
                        return (
                            False,
                            {"cover": cover.axioms.named_pairs(), "u": m, "v": v},
                            instances,
                        )
        return True, None, instances

    return _timed("saturation-closure-and-oracle-agreement", bounds, run)


def certify_morphism_shortcuts(budget: EnumerationBudget, size: int = 3) -> Certificate:
    """The three singleton reductions agree with full quantification on
    every relation over seeded cover pairs."""
    bounds = {"size": size, **budget.to_json()}

    def run():
        rng = budget.rng()
        instances = 0
        for _ in range(budget.samples):
            c1 = random_cover(rng, rng.randint(0, size))
            c2 = random_cover(rng, rng.randint(0, size))
            valid = []
            for r in all_relations(c1.base, c2.base):
                fast = respects_covers(r, c1, c2)
                slow = respects_covers_full(r, c1, c2)
                instances += 1
                if fast.passed != slow.passed:
                    return False, {"claim": "respects", "pairs": sorted(r.pairs)}, instances
                if fast.passed:
                    valid.append((r, fast))
            singleton_tables = []
            full_tables = []
            for r, respects in valid:
                # what ValidatedMorphism.build does, reusing the verdict above
                m = ValidatedMorphism(r, c1, c2, respects, _convergence_verdict(r, c1, c2))
                slow = convergent_morphism_full(r, c1, c2)
                if m.convergent.passed != slow.passed:
                    return False, {"claim": "down-set", "pairs": sorted(r.pairs)}, instances
                singleton_tables.append(MorphismClass(m).table)
                full_tables.append(tuple(map(c1.saturate_mask, r.preimages())))
            # equal tables are an equivalence on each side; they agree iff both
            # have as many classes as their common refinement, and only a
            # disagreement needs the pair scan, for its least witness
            classes = len(set(zip(singleton_tables, full_tables)))
            if len(set(singleton_tables)) == len(set(full_tables)) == classes:
                continue
            for i1, (r1, _) in enumerate(valid):
                for i2, (r2, _) in enumerate(valid):
                    fast_eq = singleton_tables[i1] == singleton_tables[i2]
                    slow_eq = full_tables[i1] == full_tables[i2]
                    if fast_eq != slow_eq:
                        return (
                            False,
                            {
                                "claim": "equivalence",
                                "pairs1": sorted(r1.pairs),
                                "pairs2": sorted(r2.pairs),
                            },
                            instances,
                        )
        return True, None, instances

    return _timed("morphism-singleton-reductions", bounds, run)


def _sample_validated_morphism(rng, size_src, size_tgt):
    """A validated left-total morphism between random covers, or None."""
    c1 = random_cover(rng, size_src)
    c2 = random_cover(rng, size_tgt)
    for _ in range(200):
        pairs = [
            (s, t)
            for s in c1.base.elements
            for t in c2.base.elements
            if rng.random() < 0.5
        ]
        r = Relation(c1.base, c2.base, pairs)
        if not r.is_left_total():
            continue
        try:
            return ValidatedMorphism.build(r, c1, c2)
        except MorphismValidationError:
            continue
    return None


def certify_initial_lift(budget: EnumerationBudget) -> Certificate:
    """Factorization through initial operators: a test arrow is continuous
    into the initial structure iff its composite with the inducing
    morphism is continuous into the target structure."""
    bounds = budget.to_json()
    skipped = 0

    def run():
        nonlocal skipped
        rng = budget.rng()
        instances = 0
        for _ in range(budget.samples):
            m = _sample_validated_morphism(rng, 2, 2)
            if m is None:
                skipped += 1
                continue
            c_tgt = random_closure_table(rng, m.target_cover)
            try:
                c_init = initial_closure(m, c_tgt)
            except InitialContinuityDefectError:
                # documented relational gap; the factorization presupposes
                # a continuity-inducing initial table
                skipped += 1
                continue
            i_tgt = random_interior_table(rng, m.target_cover)
            i_init = initial_interior_corrected(m, i_tgt)
            cover_n = random_cover(rng, 2)
            for r in all_relations(cover_n.base, m.source_cover.base):
                try:
                    t = ValidatedMorphism.build(r, cover_n, m.source_cover)
                except MorphismValidationError:
                    continue
                instances += 1
                comp = compose(m, t)
                c_n = random_closure_table(rng, cover_n)
                lhs = is_c_continuous(t, c_n, c_init).passed
                rhs = is_c_continuous(comp, c_n, c_tgt).passed
                if lhs != rhs:
                    return (
                        False,
                        {"claim": "closure-lift", "pairs": sorted(r.pairs)},
                        instances,
                    )
                i_n = random_interior_table(rng, cover_n)
                lhs = is_i_continuous(t, i_n, i_init).passed
                rhs = is_i_continuous(comp, i_n, i_tgt).passed
                if lhs != rhs:
                    return (
                        False,
                        {"claim": "interior-lift", "pairs": sorted(r.pairs)},
                        instances,
                    )
        return True, None, instances

    cert = _timed("initial-operator-factorization", bounds, run)
    cert.skipped = skipped
    return cert


def standard_suplattices() -> dict[str, FiniteSuplattice]:
    """The pinned round-trip instances: a two-chain, the Boolean square,
    and the diamond with three atoms."""
    chain2 = FiniteSuplattice(["0", "1"], [("0", "1")])
    square = FiniteSuplattice(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
    )
    m3 = FiniteSuplattice(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )
    return {"chain2": chain2, "square": square, "m3": m3}


def certify_suplattice_roundtrip(lat: FiniteSuplattice, name: str = "suplattice") -> Certificate:
    """The cover induced by a finite suplattice presents the same lattice:
    lower sets of elements are exactly the saturated sets, the two maps
    are mutually inverse, and both preserve order."""
    bounds = {"elements": list(lat.base.elements)}

    def run():
        cover = cover_from_suplattice(lat)
        n = len(lat.base)
        instances = 0
        lower = [lat.lower_set_mask(i) for i in range(n)]
        saturated = {m for m in range(1 << n) if cover.saturate_mask(m) == m}
        if set(lower) != saturated or len(set(lower)) != n:
            return False, {"claim": "bijection"}, 1
        for i in range(n):
            for j in range(n):
                instances += 1
                if (lower[i] & ~lower[j] == 0) != bool(lat._up[i] >> j & 1):
                    return (
                        False,
                        {"claim": "order", "x": lat.base.elements[i], "y": lat.base.elements[j]},
                        instances,
                    )
        for m in range(1 << n):
            instances += 1
            j = lat.join_index(m)
            if cover.saturate_mask(m) != lower[j]:
                return (
                    False,
                    {"claim": "roundtrip", "u": lat.base.subset_from_mask(m)},
                    instances,
                )
        return True, None, instances

    return _timed(f"suplattice-roundtrip-{name}", bounds, run)


def default_certificates(budget: EnumerationBudget) -> list[Certificate]:
    certs = [
        certify_saturation(budget),
        certify_morphism_shortcuts(budget, size=min(3, budget.max_cover_size)),
        certify_initial_lift(budget),
    ]
    for name, lat in standard_suplattices().items():
        certs.append(certify_suplattice_roundtrip(lat, name))
    return certs
