"""Cover relations on finite bases, given by axioms or by a table.

A cover is presented by generating axioms ``(a, V)``: the relation
``a covers U`` is the least one containing the axioms that is reflexive
and transitive.  Saturation (the set of all elements covering ``U``) is
computed from two compiled forms, memoized per subset: the axioms with
one-element premises as a transitive closure, one bitmask per element,
and a forward-chaining worklist over per-element watcher lists for the
axioms with wider premises only.  The frame, its Hasse diagram and the
relativized axioms are built from saturated sets plus one element; the
table of all 2^n saturations is built once per cover, in one pass per
element whose closure meets no wide premise, only for the minimal-cover
scan and convergence.

A cover may instead be given by that table itself.  Concrete topological
spaces (points, observables and a forcing relation), finite suplattices
and user-supplied full relation tables each build their cover's table
here.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from .caps import cap_for, require_cap
from .errors import BaseMismatchError, InputError
from .sets import BaseSet, Subset, fixed_points, meets_above, or_words, transitive_closure, union_over, unions
from .verdict import Verdict


class CoverAxioms:
    """A normalized, de-duplicated list of generating axioms."""

    __slots__ = ("base", "pairs")

    def __init__(self, base: BaseSet, pairs: Iterable[tuple[str, Iterable[str]]]):
        seen = set()
        for head, body in pairs:
            seen.add((base.index(head), base.mask_of(body)))
        self.base = base
        self.pairs = tuple(sorted(seen))

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoverAxioms)
            and self.base == other.base
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.base, self.pairs))

    def named_pairs(self) -> list[tuple[str, list[str]]]:
        names, subset = self.base.elements, self.base.subset_from_mask
        return [(names[head], subset(body).sorted_members()) for head, body in self.pairs]


class Cover:
    """A finite base with a memoized saturation operator.

    Given by generating axioms (the normal case) or by its saturation
    table, sat(m) for every mask m (concrete spaces, suplattices,
    validated relation tables), not both; a given table must be a
    closure operator on the powerset of the base.  Axioms are split by
    premise size when the cover is built: ``x ◁ {y}`` goes into
    ``_up[y]``, what y forces, closed transitively (Warshall), and only
    premises of two or more elements keep watcher lists.  An element in
    no premise (``_premise_free``) adds only itself to a saturated set.
    """

    def __init__(
        self,
        base: BaseSet,
        axioms: CoverAxioms | None = None,
        table: Iterable[int] | None = None,
    ):
        if axioms is not None and axioms.base != base:
            raise BaseMismatchError("axioms refer to a different base")
        self.base = base
        self.axioms = axioms if axioms is not None else CoverAxioms(base, ())
        self._cache: dict[int, int] = {}
        self._singletons: list[int] | None = None
        self._minimal: list[list[int]] | None = None
        self._inert = self._premise_free = 0
        self._given = self._table = None
        if table is not None:
            if axioms is not None:
                raise InputError("a cover is given by axioms or by a table, not both")
            self._given = self._table = list(table)
            if len(self._table) != 1 << len(base):
                raise InputError(
                    f"saturation table has {len(self._table)} entries, expected {1 << len(base)}"
                )
            return
        # Compiled form: up[x] as in the class docstring; the wide axioms
        # as (head bit index, premise mask) and, per element, those watching it.
        n = len(base)
        up = [1 << x for x in range(n)]
        self._wide = []
        watchers: list[list[int]] = [[] for _ in range(n)]
        # heads of the empty-premise axioms: in every saturated set
        self._facts = 0
        for head, prem in self.axioms.pairs:
            if not prem:
                self._facts |= 1 << head
            elif not prem & (prem - 1):
                up[prem.bit_length() - 1] |= 1 << head
            else:
                for x in range(n):
                    if prem >> x & 1:
                        watchers[x].append(len(self._wide))
                self._wide.append((head, prem))
        self._up = up = transitive_closure(up)
        self._watchers = watchers
        watched = sum(1 << x for x, ws in enumerate(watchers) if ws)
        # elements whose closure meets no wide premise: adding one to a
        # saturated set adds its closure and fires nothing
        self._inert = sum(1 << x for x, u in enumerate(up) if not u & watched)
        # elements in no premise: adding one to a saturated set adds it alone
        self._premise_free = sum(1 << x for x, u in enumerate(up) if u == 1 << x and not watchers[x])

    @classmethod
    def from_axiom_names(
        cls, base: BaseSet, pairs: Iterable[tuple[str, Iterable[str]]]
    ) -> "Cover":
        return cls(base, CoverAxioms(base, pairs))

    def same_cover(self, other: "Cover") -> bool:
        """Equal bases, axioms and given saturation tables."""
        return self is other or (
            self.base == other.base
            and self.axioms == other.axioms
            and self._given == other._given
        )

    # -- saturation ----------------------------------------------------------

    def saturate_mask(self, mask: int) -> int:
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        table = self._table
        result = table[mask] if table is not None else self._chain(0, mask | self._facts)
        self._cache[mask] = result
        return result

    def _chain(self, s: int, added: int) -> int:
        """sat(s + added), where every axiom whose premise lies in s has
        its head in s + added: s saturated, or s = 0 with the heads of the
        empty-premise axioms in ``added``.

        Each element enters ``result`` with its whole closure ``up``, so
        the one-element premises need no worklist.  Only wide premises
        watching an element new beyond s can then fire.  Elements enter
        ``pending`` as they enter ``result``, so when the last new element
        of a premise is popped the whole premise is in and the axiom fires.
        """
        up = self._up
        wide = self._wide
        watchers = self._watchers
        live = ~self._inert  # an inert element fires nothing
        result = s | union_over(up, added)
        pending = result & ~s & live
        while pending:
            low = pending & -pending
            pending ^= low
            for ax_id in watchers[low.bit_length() - 1]:
                head, prem = wide[ax_id]
                if not result >> head & 1 and prem & ~result == 0:
                    pending |= up[head] & ~result & live
                    result |= up[head]
        return result

    def _add_bit(self, k: int, sets: list[int]) -> list[int]:
        """sat(s + {k}) for each saturated s in ``sets``, as a list of ints:
        read from the table when the cover holds one, one pass ``s | up[k]``
        when k is inert (its closure meets no wide premise, so it fires
        nothing), else a chain from s.  The inert list pass serves the
        table, the ``hasse_edges`` columns and a frame step whose new sets
        may repeat; the frame's inert doubling step ORs up[k] into every
        set so far on 16-bit words instead, by ``sets.or_words``."""
        bit = 1 << k
        table = self._table
        if table is not None:
            return [table[s | bit] for s in sets]
        if bit & self._inert:
            up = self._up[k]
            return [s | up for s in sets]
        add = self._chain
        return [s if s & bit else add(s, bit) for s in sets]

    def saturation_table(self) -> list[int]:
        """sat(m) for every mask m, in mask order: the given table, or
        computed once per axiom cover.  Only the quantifiers that read
        arbitrary masks build it: the minimal-cover scan and convergence.

        Built by doubling on the highest bit: with the table for the masks
        below 2^k in hand, bit b = 2^k gives the next 2^k entries, since
        sat(v + b) = sat(sat(v) + b) for v below 2^k, which ``_add_bit``
        gives: on the whole table for an inert bit, else once per distinct
        saturated set s, so at most n * |F| chains for a frame F of
        saturated sets, none of them through ``saturate_mask`` or its
        cache.  A cover whose premises all have at most one element (free,
        chain, all-equivalent) runs no chain but the one for sat(∅).  The
        inert bits keep the list pass, not the frame's ``sets.or_words``
        on 16-bit words: every table the perfbench workloads build has
        n <= 8, where a step of at most 128 masks is too short for the
        wide OR to win (``is_convergent`` on the free 7-element cover read
        slower with it).  The
        reference is ``oracle.saturation_table_full``.
        """
        if self._table is None:
            n = len(self.base)
            require_cap("saturation_table", n, "single")
            table = [self.saturate_mask(0)]
            for k in range(n):
                if self._inert >> k & 1:
                    table += self._add_bit(k, table)
                else:
                    distinct = list(set(table))
                    step = dict(zip(distinct, self._add_bit(k, distinct)))
                    table += list(map(step.__getitem__, table))
            self._table = table
        return self._table

    def frame_masks(self) -> list[int]:
        """The saturated sets in mask order: the fixed points of the table
        when the cover holds one, else doubling over the saturated sets.

        From F = {sat(∅)}, element k adds sat(s + k) for each s in F not
        holding k; as sat(v + k) = sat(sat(v) + k), F ends as the image of
        sat, with at most n * |F| chains.  An inert k whose closure meets
        no set found so far gives distinct new sets s | up[k], one
        ``sets.or_words`` over F, held as 16-bit words (every mask of a
        base under the hard cap fits one) and made a list of ints once, at
        the end; any other step drops repeats through a set of its new
        sets only, and sorts them.  The sets found so far all lie in
        ``top``, so a step whose new sets all exceed ``top`` puts them
        above every earlier set: an inert step does when up[k] > top, since
        s -> s | up[k] is increasing on the sets disjoint from up[k].  When
        every step that added sets did so, F is already in mask order and
        is not sorted.
        """
        if self._table is not None:
            return fixed_points(self._table)
        n = len(self.base)
        require_cap("frame_masks", n, "single")
        top = self.saturate_mask(0)  # sat of the elements so far, holding every set found
        frame = array("H", [top])
        ordered = True
        for k in range(n):
            bit = 1 << k
            up = self._up[k]
            if bit & self._inert and not up & top:
                frame += or_words(frame, up)
                ordered = ordered and up > top
                top |= up
            else:
                new = set(self._add_bit(k, [s for s in frame if not s & bit]))
                new.difference_update(frame)
                if new:
                    new = sorted(new)
                    ordered = ordered and new[0] > top
                    top |= new[-1]
                    frame.fromlist(new)
        masks = frame.tolist()
        if not ordered:
            masks.sort()
        return masks

    # -- meets via the down-set ----------------------------------------------

    def singleton_saturations(self) -> list[int]:
        """sat({x}), the down-set of {x}, for each element x by index;
        computed once per cover, so callers share it and must not mutate it."""
        if self._singletons is None:
            self._singletons = [self.saturate_mask(1 << x) for x in range(len(self.base))]
        return self._singletons

    def down_mask(self, u: int, v: int) -> int:
        """The down-set meet of U and V: the intersection of their down-sets,
        the down-set of U being the union of sat({x}) over x in U."""
        sats = self.singleton_saturations()
        return union_over(sats, u) & union_over(sats, v)

    # -- global predicates ---------------------------------------------------

    def minimal_covers(self) -> list[list[int]]:
        """For each element a, the masks covering a minimally, in mask order.

        By monotonicity of saturation, v covers a minimally iff a is in
        sat(v) and in no sat(v - b) for b in v.  Those candidates only
        shrink as bits b are tried, so the scan of v stops once none is
        left.  Let X be the elements x with a in sat({x}).  A cover of a
        meeting X holds some {x} covering a, so when a is outside
        sat(full - X) the minimal covers of a are the singletons of X:
        {a} alone when a is covered only by the sets holding it, every
        singleton on an all-equivalent cover.  Such an a leaves the scan,
        which is skipped when no element is left (a free, chain or
        all-equivalent cover); the skip test reads through ``saturate_mask``
        and the table is built only for the scan.  The reference is ``oracle.minimal_covers_full``.

        Computed once per cover, like the saturation table: every caller
        shares the same lists and must not mutate them.
        """
        if self._minimal is None:
            n = len(self.base)
            require_cap("minimal_covers", n, "single")
            full = (1 << n) - 1
            below = self.singleton_saturations()
            minimal: list[list[int]] = [[] for _ in range(n)]
            rest = full  # the elements left to the scan
            for a in range(n):
                covering = [1 << x for x in range(n) if below[x] >> a & 1]  # {a} among them
                if not self.saturate_mask(full ^ sum(covering)) >> a & 1:
                    minimal[a] = covering
                    rest ^= 1 << a
            sat = self.saturation_table() if rest else ()
            if rest != full:
                sat = [s & rest for s in sat]
            for v, fresh in enumerate(sat):
                m = v
                while m and fresh:
                    low = m & -m
                    fresh &= ~sat[v ^ low]
                    m ^= low
                while fresh:
                    low = fresh & -fresh
                    minimal[low.bit_length() - 1].append(v)
                    fresh ^= low
            self._minimal = minimal
        return self._minimal

    def is_convergent(self) -> Verdict:
        """Check that covering two subsets implies covering their down-set.

        Witness order: element, then the second subset, then the first,
        all in canonical mask order; the reported witness is ``(a, u, v)``.

        Only pairs of minimal covers of a are examined, and ``checked``
        counts those pairs.  Saturation and the down-set are monotone, so
        if ``(a, u, v)`` fails then so does every ``(a, u0, v0)`` with
        ``u0 <= u`` and ``v0 <= v`` still covering a; a submask is never
        larger in mask order, so the least failure is a minimal pair and
        the witness is the one the scan over all covers would report
        (``oracle.is_convergent_full``).

        The down-set meet of u and v is ``down(u) & down(v)``, so the
        down-set of each distinct minimal cover is taken once, and each
        pair is one intersection and one table read.
        """
        n = len(self.base)
        require_cap("is_convergent", n, "double")
        checked = 0
        sat = self.saturation_table()  # first, so minimal_covers' lookups read it
        minimal = self.minimal_covers()
        down = {m: self.down_mask(m, m) for m in set().union(*minimal)}
        for a in range(n):
            bit = 1 << a
            covers = minimal[a]
            for v in covers:
                down_v = down[v]
                for u in covers:
                    checked += 1
                    if not sat[down[u] & down_v] & bit:
                        return Verdict.fail(
                            {
                                "element": self.base.elements[a],
                                "u": self.base.subset_from_mask(u),
                                "v": self.base.subset_from_mask(v),
                            },
                            checked,
                        )
        return Verdict.ok(checked)

    def saturated_sets(self) -> "FrameOfSaturated":
        n = len(self.base)
        require_cap("saturated_sets", n, "single")
        # convergence first: at n <= 8 its table's own ints are the frame
        convergent = self.is_convergent() if n <= cap_for("double") else None
        return FrameOfSaturated(self, self.frame_masks(), convergent)

    def pos(self) -> Subset:
        """Elements not covered by the empty subset."""
        full = (1 << len(self.base)) - 1
        return self.base.subset_from_mask(full & ~self.saturate_mask(0))

    def is_overt(self) -> Verdict:
        """Each element a lies in sat({a} ∩ Pos).  This passes on every cover:
        with Pos = base - sat(∅), U ⊆ sat(∅) ∪ (U ∩ Pos) ⊆ sat(U ∩ Pos)."""
        pos = self.pos().mask
        checked = 0
        for i in range(len(self.base)):
            checked += 1
            if not self.saturate_mask((1 << i) & pos) >> i & 1:
                return Verdict.fail({"element": self.base.elements[i]}, checked)
        return Verdict.ok(checked)


class FrameOfSaturated:
    """The fixpoints of saturation, ordered by inclusion: ``masks``, the
    cover's ``frame_masks()`` in mask order, with the convergence verdict
    ``saturated_sets`` took (None above the ``double`` cap).

    The library reads masks only.  ``sets`` is the boundary view for a
    caller that wants names: one Subset per saturated set, built in one
    ``BaseSet.subsets_from_masks`` call on every read.
    """

    def __init__(self, cover: Cover, masks: list[int], convergent: Verdict | None):
        self.cover = cover
        self.masks = masks
        self.convergent = convergent

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def sets(self) -> tuple[Subset, ...]:
        return tuple(self.cover.base.subsets_from_masks(self.masks))

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (u, v) of masks, u strictly below v and nothing
        between, each end the frame's own int.

        Every saturated v strictly above u contains some x outside u, and
        so contains sat(u + x); the upper covers of u are therefore the
        minimal sets among those n saturations.  An element k in no
        premise fires nothing, so sat(u + k) = u + k for every saturated
        u, one element above u: (u, u + k) is an edge, and no other
        element's saturation equals u + k.  These edges are read without
        a column.  For every other element x, one bulk pass of
        ``Cover._add_bit`` over the frame, which builds no table, gives
        sat(u + x) for every u; such a v = sat(u + x) is minimal exactly
        when sat(u + y) = v for every y in v - u (a y giving a smaller set
        would put it between u and v), that is when (v - u).bit_count()
        of those x give v: a count, not a scan of the other saturations.
        A v holding an element in no premise fails the count, since that
        element gives its own edge.  Each part comes in (u, v) mask
        order, as in ``oracle.hasse_edges_full``, and one sort merges the
        two.  A cover given by its table has no element known to be in no
        premise: every element has a column.
        """
        cover = self.cover
        masks = self.masks
        own = dict(zip(masks, masks))  # a computed saturation -> the frame's equal int
        no_premise = cover._premise_free
        n = len(cover.base)
        free = [1 << k for k in range(n) if no_premise >> k & 1]
        edges = [(u, own[u | b]) for u in masks for b in free if not u & b]
        columns = [cover._add_bit(k, masks) for k in range(n) if not no_premise >> k & 1]
        if columns:
            edges += [
                (u, own[v])
                for u, row in zip(masks, zip(*columns))
                for v in sorted(set(row))
                if v != u and row.count(v) == (v ^ u).bit_count()  # sat(u + x) = u for x in u
            ]
            if free:
                edges.sort()  # merges the two runs, each in (u, v) order
        return edges


# -- concrete topological spaces ---------------------------------------------


class ConcreteSpace:
    """Points, observables and a forcing relation between them.

    The space axioms (every point forces something; forced intersections
    refine) are not checked: the induced cover is a cover without them,
    and its convergence is checked on the cover itself.
    """

    def __init__(
        self,
        points: Iterable[str],
        base: BaseSet,
        forcing: Iterable[tuple[str, str]],
    ):
        pts = tuple(points)
        pindex = {}
        for i, p in enumerate(pts):
            if not isinstance(p, str) or not p:
                raise ValueError(f"point identifiers must be non-empty strings: {p!r}")
            if p in pindex:
                raise ValueError(f"duplicate point identifier: {p!r}")
            pindex[p] = i
        self.points = pts
        self.base = base
        ext = [0] * len(base)
        pairs = set()
        for point, obs in forcing:
            if point not in pindex:
                raise InputError(f"forcing mentions unknown point {point!r}")
            ext[base.index(obs)] |= 1 << pindex[point]
            pairs.add((point, obs))
        self.forcing = frozenset(pairs)
        self._ext = ext


def cover_from_concrete_space(space: ConcreteSpace) -> Cover:
    """The induced cover: a covers U iff every point forcing a forces U.

    Given by its saturation table rather than by axioms, which would need
    exponentially many: sat(U) holds the a whose extent lies in the
    extent of U, computed once per distinct extent.
    """
    ext = space._ext
    n = len(space.base)
    require_cap("cover_from_concrete_space", n, "single")
    extents = unions(ext)
    below = {e: sum(1 << a for a in range(n) if ext[a] & ~e == 0) for e in set(extents)}
    return Cover(space.base, table=map(below.__getitem__, extents))


# -- finite suplattices ------------------------------------------------------


class FiniteSuplattice:
    """An explicit finite lattice in which every subset has a join.

    ``leq`` is given as pairs; reflexivity is implied.  Construction
    validates antisymmetry, transitivity and existence of all joins
    (including the empty join, i.e. a bottom element).
    """

    def __init__(self, elements: Iterable[str], leq_pairs: Iterable[tuple[str, str]]):
        self.base = BaseSet(elements)
        n = len(self.base)
        up = [1 << i for i in range(n)]  # up[i] = mask of j with i <= j
        for lo, hi in leq_pairs:
            up[self.base.index(lo)] |= 1 << self.base.index(hi)
        up = transitive_closure(up)
        for i in range(n):
            for j in range(n):
                if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                    raise InputError(
                        f"not a partial order: {self.base.elements[i]} and "
                        f"{self.base.elements[j]} are mutually below each other"
                    )
        self._up = up
        full = (1 << n) - 1
        # the upper bounds of every subset: the elements in no complemented
        # up-set of a member, from one pass over all subsets
        bounds = [full ^ out for out in unions(full ^ u for u in up)]
        # the least of each distinct set of bounds, if it has one
        least = {
            ub: next((j for j in range(n) if ub >> j & 1 and ub & ~up[j] == 0), None)
            for ub in set(bounds)
        }
        if None in least.values():
            mask = next(m for m, ub in enumerate(bounds) if least[ub] is None)
            members = self.base.subset_from_mask(mask).sorted_members()
            raise InputError(f"subset {members} has no join")
        self._join = list(map(least.__getitem__, bounds))

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self.base.index(x)] >> self.base.index(y) & 1)

    def join_index(self, mask: int) -> int:
        return self._join[mask]

    def join(self, members: Iterable[str]) -> str:
        return self.base.elements[self._join[self.base.subset(members).mask]]

    def lower_set_mask(self, idx: int) -> int:
        return sum(1 << i for i, up in enumerate(self._up) if up >> idx & 1)


def cover_from_suplattice(lat: FiniteSuplattice) -> Cover:
    """The motivating cover: a covers U iff a is below the join of U."""
    lower = [lat.lower_set_mask(j) for j in range(len(lat.base))]
    return Cover(lat.base, table=map(lower.__getitem__, lat._join))


# -- user-supplied relation tables -------------------------------------------


def check_table_rows(base: BaseSet, table: dict[int, int]) -> None:
    """The checks of ``cover_from_table`` and its twin before transitivity:
    every subset listed once, then each row's value in the base and reflexive."""
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


def cover_from_table(base: BaseSet, table: dict[int, int]) -> Cover:
    """Accept a full relation table only if it already satisfies the two
    cover conditions (reflexivity and transitivity); reject otherwise.

    A rejection names the first failing subset, or pair of subsets, in
    the table's row order, as ``oracle.cover_from_table_full`` does, in
    O(n * 2^n) steps where the twin takes 4^n.
    """
    n = len(base)
    check_table_rows(base, table)
    # Transitivity: whenever v covers u (u inside v's cover set), v also
    # covers u's cover set. So u's cover set must lie in meet[u], the
    # intersection of every cover set that contains u.
    meet = meets_above(table.values(), n)
    for u, sat_u in table.items():
        if sat_u & ~meet[u]:
            # the first failing row; name its first failing pair in row order
            v = next(v for v, sat_v in table.items() if u & ~sat_v == 0 and sat_u & ~sat_v)
            raise InputError(
                f"table violates transitivity: "
                f"{base.subset_from_mask(u).sorted_members()} is covered by "
                f"{base.subset_from_mask(v).sorted_members()} but its cover set is not"
            )
    return Cover(base, table=map(table.__getitem__, range(1 << n)))
