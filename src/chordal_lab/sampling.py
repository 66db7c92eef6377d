"""Exact uniform sampling of w-colorable labeled (connected) chordal graphs.

The sampler unranks (Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978,
ch. 13): the recurrence that counts a class splits the ranks [0, count) into
one block per term, and a term's block into the ranks of its parts and the
indices of their label subsets.  Every rank below the count thus names one
member, distinct ranks name distinct members, and a sample is the member of
one exact uniform rank.  No floating point appears anywhere on the path.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from functools import partial
from itertools import accumulate, combinations, product
from math import comb, prod
from typing import Sequence

from .counting import CountingContext, class_params
# The sampler builds its one graph with LabeledGraph; the other four names stay
# importable from here because the benchmark's tracer wraps them by name.
from .graphs import LabeledGraph, complete_graph, glue, phi_map, relabel  # noqa: F401

_MASK64 = (1 << 64) - 1

# Terms a sampler's plan cache keeps, over all its plans (the cache bound
# beside splits.CACHE_SIZE).  The largest plan at n = omega = 30 holds 956.
# A term costs its start (an int of up to a few dozen bytes) and one slot per
# term and per radix in its plan's tuples: equal terms are one object, and
# radices are ints the context already holds.  So 2**14 terms retain 1.8,
# 1.4 and 1.9 MB after 2,000 draws at (n, omega) = (20, 20) connected,
# (40, 3) and (30, 30) connected (tracemalloc after a full collection,
# 64-bit CPython 3.11), about what 2**13 terms with a tuple of radices each
# retained, and the sampler rebuilds about half as many plans.
PLAN_ENTRIES = 1 << 14


class RandomStream:
    """Deterministic stream of uniform bits behind all sampling decisions.

    A stream must be exclusively owned by one sampler at a time; create one
    stream per concurrent sampler (e.g. via :meth:`spawn`).
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
        self.seed = seed & _MASK64
        self._rng = random.Random(self.seed)

    def bits(self, k: int) -> int:
        """k independent uniform bits as an integer in [0, 2**k)."""
        if k < 0:
            raise ValueError("bit count must be nonnegative")
        if k == 0:
            return 0
        return self._rng.getrandbits(k)

    def uniform_below(self, bound: int) -> int:
        """Exact uniform integer in [0, bound) by rejection on fixed-width draws."""
        if bound < 1:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        while True:
            u = self._rng.getrandbits(width)
            if u < bound:
                return u

    def spawn(self, index: int) -> "RandomStream":
        """An independent stream derived from this stream's seed."""
        mix = (self.seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) & _MASK64
        return RandomStream(mix)


def _split(pool: list[int], size: int, r: int) -> tuple[list[int], list[int]]:
    """The size-subset of the pool with colex rank r, and the rest, both in pool order.

    In colex order the subsets of pool[:j] hold exactly the ranks below
    C(j, size), so scanning down, pool[j] is taken iff r >= C(j, size); once
    r is 0, the rest of the subset is the first size labels left.
    """
    chosen: list[int] = []
    rest: list[int] = []
    j = len(pool)
    while r:
        j -= 1
        c = comb(j, size)
        if r >= c:
            r -= c
            size -= 1
            chosen.append(pool[j])
        else:
            rest.append(pool[j])
    return pool[:size] + chosen[::-1], pool[size:j] + rest[::-1]


def categorical(weights: Sequence[int], rng: RandomStream) -> int:
    """Index i with probability weights[i] / sum(weights); zero weights never win."""
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = sum(weights)
    if total <= 0:
        raise ValueError("total weight must be positive")
    # Index i holds the draws in [sum(weights[:i]), sum(weights[:i + 1])).
    return bisect_right(list(accumulate(weights)), rng.uniform_below(total))


def sample_subset(pool: Sequence[int], k: int, rng: RandomStream) -> list[int]:
    """Uniform k-subset of the pool, by sequential inclusion with exact odds."""
    m = len(pool)
    if not 0 <= k <= m:
        raise ValueError(f"cannot draw {k} elements from {m}")
    chosen: list[int] = []
    need = k
    for i, e in enumerate(pool):
        if need == 0:
            break
        if rng.uniform_below(m - i) < need:
            chosen.append(e)
            need -= 1
    return chosen


class ChordalSampler:
    """Uniform sampler over the graph classes of a filled counting context.

    The context is only read, so any number of samplers may share one
    context.  A sampler itself is owned by one thread at a time, with its own
    :class:`RandomStream`: it keeps a cache of plans that every draw updates.

    :meth:`unrank` maps each rank below a class's count to one member; a
    sample is the member of one uniform rank.  It runs *steps* ``(key, r,
    given, free)`` depth first from one stack: the node ``key`` = (kind,
    *args) of a class ``CountingContext.count_<kind>`` counts, a rank ``r``
    below its count, the labels of its given clique (the root, or the root
    plus the layer) and its free labels.  At each step :meth:`_term` picks
    the term whose block holds r, which names the part sizes and contacts,
    and reads the remainder as mixed-radix digits: the indices of the parts'
    label subsets and the ranks of all parts but the last, which takes the
    rank left over.  The kind's handler ``_parts_<kind>`` returns the parts
    as steps with their labels, so a sample builds one graph, at the end.  A
    step with no free label is a leaf: its one member is its given clique.
    Each edge is appended once: the given clique of the class by
    :meth:`unrank`, a layer's edges where ``exact_single`` picks the layer.

    A node's *plan* holds its nonzero-weight terms, the rank at which each
    term's block starts and the terms' radices, in one flat tuple with the
    same number per term.  ``_weigh_<kind>`` states the node's recurrence
    once: the first time the node is met, it reads the table rows it needs
    once each (``CountingContext.row``, which checks their arguments) and
    yields each term with its radices and the count of its last part, and
    the plan is kept in a least-recently-used cache.  Equal terms are one
    object per sampler.  The cache holds at most ``PLAN_ENTRIES`` terms in
    all, a megabyte or two at the sizes measured; a draw that meets an
    evicted node weighs it again.  ``ops`` counts the terms the weighers have
    yielded to plan builds since construction, so a draw that meets only
    cached nodes adds none, and :meth:`plan_stats` reports the cache.
    """

    def __init__(self, ctx: CountingContext):
        self.ctx = ctx
        self.ops = 0
        self._plans: dict[tuple, tuple] = {}  # (starts, terms, radices), least recently used first
        self._interned: dict = {}  # one object per distinct term, shared by all plans
        self._entries = 0
        self._hits = 0
        self._misses = 0

    def plan_stats(self) -> dict[str, int]:
        """Plans and weight entries cached now; plan lookups that hit and missed."""
        return {"plans": len(self._plans), "entries": self._entries,
                "hits": self._hits, "misses": self._misses}

    # -- entry points --------------------------------------------------------

    def sample_chordal(self, n: int, rng: RandomStream) -> LabeledGraph:
        """Uniform w-colorable labeled chordal graph with vertex set [n]."""
        return self.sample_class("all", (n,), rng)

    def sample_connected(self, n: int, rng: RandomStream) -> LabeledGraph:
        """Uniform w-colorable labeled *connected* chordal graph on [n]."""
        return self.sample_class("connected", (n,), rng)

    def sample_class(self, kind: str, args: Sequence[int], rng: RandomStream) -> LabeledGraph:
        """Uniform member of one class :meth:`unrank` accepts, e.g.
        ("pinned", (t, x, l, k)).

        Raises if the kind is unknown, the argument count is wrong, or the
        class is empty (count zero).
        """
        return self._unrank(kind, args, None, rng)

    def unrank(self, kind: str, args: Sequence[int], r: int) -> LabeledGraph:
        """The member of rank r of one counted class, for 0 <= r < its count.

        ``kind`` is a ``CLASS_ARGS`` kind, or "all" / "connected" with
        ``args = (n,)``; ``count_<kind>(*args)`` is the class size.  Distinct
        ranks give distinct graphs.  Raises ValueError for an unknown kind, a
        wrong argument count, or a rank outside [0, count).
        """
        return self._unrank(kind, args, r, None)

    def _unrank(self, kind: str, args: Sequence[int], r: int | None,
                rng: RandomStream | None) -> LabeledGraph:
        """The member of rank r, or of a uniform rank drawn from rng if r is None."""
        count, size, hull = self._class(kind, args)
        if rng is not None:
            if count == 0:
                raise ValueError(f"class {kind}{tuple(args)} is empty at omega = {self.ctx.omega}")
            r = rng.uniform_below(count)
        elif not 0 <= r < count:
            raise ValueError(f"rank {r} outside [0, {count}) of class {kind}{tuple(args)}")
        labels = list(range(1, size + 1))
        edges = list(combinations(labels[:hull], 2))
        if kind == "pinned_proper":
            key = ("pinned_proper_z", *args, args[1])  # at z = x
        elif kind == "within":
            # Every round past the last counts as the last: start there.
            key = ("within", min(args[0], self.ctx.last_round), *args[1:])
        else:
            key = (kind, *args)
        kinds = self._KINDS
        lookup = self._term
        steps = [(key, r, labels[:hull], labels[hull:])]
        while steps:
            key, r, given, free = steps.pop()
            if free:  # else its one member is its given clique, already written
                term, digits, r = lookup(key, r)
                parts = kinds[key[0]][1](self, key, term, digits, r, given, free, edges)
                steps += parts[::-1]  # last first: parts and plan lookups run in order
        return LabeledGraph(labels, edges)

    def _class(self, kind: str, args: Sequence[int]) -> tuple[int, int, int]:
        """(count, vertex count, given clique size x + l) of a class, validating
        the kind and arguments."""
        if kind in ("all", "connected"):
            if len(args) != 1:
                raise ValueError(f"class kind {kind!r} takes the 1 argument (n), got {len(args)}")
            size, hull = args[0], 0
        else:
            _, x, l, k, _ = class_params(kind, args)
            size, hull = x + l + k, x + l
        return getattr(self.ctx, "count_" + kind)(*args), size, hull

    # -- plans ---------------------------------------------------------------

    def _term(self, key: tuple, r: int) -> tuple:
        """(term, digits, rest rank) for the term whose block of ranks holds r
        at node ``key`` = (kind, *args).

        A node's plan is three tuples over its nonzero-weight terms in order:
        ``starts``, where each term's block of ranks starts (the sum of the
        weights before it), ``terms``, and ``radices``, flat, with the same
        number a of radices for every term of the plan (term i's are
        ``radices[i*a:(i+1)*a]``).  The last start at most r begins the block
        holding r, and bisect_right finds it.  A zero-weight term has an empty
        block, so leaving it out picks the same term as scanning every weight
        in order would.  r's offset in the block is read in the term's
        radices, least significant digit first; the rest rank, below the
        count of the term's last part, is what is left.
        """
        plans = self._plans
        plan = plans.get(key)
        if plan is None:
            plan = self._build(key)
        else:
            plans[key] = plans.pop(key)  # now the most recently used
            self._hits += 1
        starts, terms, radices = plan
        i = bisect_right(starts, r) - 1
        r -= starts[i]
        a = len(radices) // len(terms)
        digits = []
        for radix in radices[i * a:i * a + a]:
            r, digit = divmod(r, radix)
            digits.append(digit)
        return terms[i], digits, r

    def _build(self, key: tuple) -> tuple[tuple[int, ...], tuple, tuple[int, ...]]:
        """Weigh a node with its kind's weigher, cache its plan and evict the
        least recently used plans until at most PLAN_ENTRIES terms are kept."""
        self._misses += 1
        kind, *args = key
        starts = []
        terms = []
        flat = []
        intern = self._interned.setdefault
        start = weighed = 0
        for term, radices, last in self._KINDS[kind][0](self, *args):
            weighed += 1
            w = prod(radices) * last
            if w:
                starts.append(start)
                terms.append(intern(term, term))
                flat += radices
                start += w
        self.ops += weighed
        if start != getattr(self.ctx, "count_" + kind)(*args):
            raise AssertionError(f"the weights of {kind}{tuple(args)} do not sum to its count")
        plan = tuple(starts), tuple(terms), tuple(flat)
        plans = self._plans
        plans[key] = plan
        self._entries += len(terms)
        while self._entries > PLAN_ENTRIES:
            self._entries -= len(plans.pop(next(iter(plans)))[1])
        return plan

    # -- one weigher and one handler per counted class -------------------------
    #
    # _weigh_<kind> states a node's recurrence once: it yields (term, radices,
    # last) for each term, in the order that fixes the blocks of ranks, and
    # the term's weight is prod(radices) * last, last counting its last part.
    # Every term of a kind has the same number of radices.  The weighers read
    # whole table rows (``CountingContext.row``) and binomials from the
    # context's Pascal rows, each fetched once per node, and skip terms they
    # can see are zero.  A term names the choices it stands for: a part size,
    # or a tuple of them where a node chooses more than one.
    #
    # _parts_<kind>(key, term, digits, r, given, free, edges) unpacks its
    # key, the term, one digit per radix and the last part's rank, as _term
    # returns them, and returns the parts' steps in the recurrence's order; it
    # calls no _term and no handler.  exact and exact_proper share a weigher
    # and a handler; _unrank reads pinned_proper as pinned_proper_z at z = x.

    def _weigh_all(self, m: int):
        ctx = self.ctx
        C = ctx.pascal[m - 1]
        for k in range(1, m + 1):
            yield k, (C[k - 1], ctx.count_connected(k)), ctx.count_all(m - k)

    def _parts_all(self, key, k, digits, r, given, free, edges):
        # The component holding the first label, as count_all splits it off,
        # then the rest.
        s, r_comp = digits
        component, rest = _split(free[1:], k - 1, s)
        return ((("connected", k), r_comp, given, [free[0]] + component),
                (("all", len(rest)), r, given, rest))

    def _weigh_connected(self, n: int):
        row = self.ctx.row
        for t in range(1, n + 1):
            yield t, (), row("exact_single", t, 0)[n]

    def _parts_connected(self, key, t, digits, r, given, free, edges):
        # One component, beside an empty root, that evaporates in round t.
        return (("exact_single", t, 0, key[1]), r, given, free),

    def _weigh_within(self, t: int, x: int, k: int, z: int):
        ctx = self.ctx
        C = ctx.pascal[k]
        exact = ctx.row("exact", t, x, z=z)
        within = ctx.row("within", t - 1, x, z=z)
        for k2 in range(k + 1):
            a = exact[k2]
            if a:
                yield k2, (C[k2], a), within[k - k2]

    def _parts_within(self, key, k2, digits, r, given, free, edges):
        # The k2 free vertices whose components finish in round t, then the
        # rest within t - 1 rounds.
        _, t, x, k, z = key
        s, r_exact = digits
        chosen, rest = _split(free, k2, s)
        return ((("exact", t, x, k2, z), r_exact, given, chosen),
                (("within", t - 1, x, k - k2, z), r, given, rest))

    def _weigh_root_components(self, t: int, x: int, k: int, z: int, *, proper: bool):
        # Term (k2, x2): a first component of k2 vertices with root contact x2,
        # one of the x2-subsets of the root that escape the first z labels.
        ctx = self.ctx
        C = ctx.pascal
        Ck1 = C[k - 1]
        top = x if proper else x + 1
        contacts = [cx - cz for cx, cz in zip(C[x][1:top], C[z][1:])]
        rest = ctx.row("exact_proper" if proper else "exact", t, x, z=z)
        # singles[k2][x2 - 1] counts a component of k2 vertices with contact x2.
        singles = list(zip(*[ctx.row("exact_single", t, x2) for x2 in range(1, top)]))
        for k2 in range(1, k + 1):
            column = singles[k2]
            if not any(column):
                continue
            r = rest[k - k2]
            if not r:
                continue
            b = Ck1[k2 - 1]
            for x2, (c, single) in enumerate(zip(contacts, column), 1):
                if single:
                    yield (k2, x2), (c, b, single), r

    def _parts_root_components(self, key, term, digits, r, given, free, edges):
        # The component holding the first free vertex, then the rest of the
        # class, of the same kind.
        kind, t, x, k, z = key
        (k2, x2), (c, s, r_comp) = term, digits
        # In colex order the subsets inside root[:z] take the ranks below C(z, x2).
        contact, _ = _split(given, x2, comb(z, x2) + c)
        component, rest = _split(free[1:], k2 - 1, s)
        return ((("exact_single", t, x2, k2), r_comp, contact, [free[0]] + component),
                ((kind, t, x, k - k2, z), r, given, rest))

    def _weigh_exact_single(self, t: int, x: int, k: int):
        # pinned(t, x, l, .) is zero once root plus layer exceed omega.
        ctx = self.ctx
        C = ctx.pascal[k]
        for l in range(1, min(k, ctx.omega - x) + 1):
            yield l, (C[l],), ctx.row("pinned", t, x, l)[k - l]

    def _parts_exact_single(self, key, l, digits, r, given, free, edges):
        # The last layer, l free vertices that see the root and each other,
        # then the rest, pinned under root plus layer.
        _, t, x, k = key
        layer, rest = _split(free, l, digits[0])
        edges.extend(product(layer, given))
        edges.extend(combinations(layer, 2))
        return (("pinned", t, x, l, k - l), r, given + layer, rest),

    def _weigh_exact_multi(self, t: int, x: int, k: int):
        # Term (k2, more): the first component has k2 vertices, then one
        # further component, or at least two if more.
        ctx = self.ctx
        C = ctx.pascal[k - 1]
        single = ctx.row("exact_single", t, x)
        multi = ctx.row("exact_multi", t, x)
        for more, rest in ((False, single), (True, multi)):
            for k2 in range(1, k):
                s = single[k2]
                if s:
                    yield (k2, more), (C[k2 - 1], s), rest[k - k2]

    def _parts_exact_multi(self, key, term, digits, r, given, free, edges):
        # The component holding the first free vertex, then one further
        # component or at least two.
        _, t, x, k = key
        (k2, more), (s, r_comp) = term, digits
        component, rest = _split(free[1:], k2 - 1, s)
        return ((("exact_single", t, x, k2), r_comp, given, [free[0]] + component),
                (("exact_multi" if more else "exact_single", t, x, k - k2), r, given, rest))

    def _weigh_pinned(self, t: int, x: int, l: int, k: int):
        # Only nodes with k >= 1 are weighed, and pinned(1, ., ., k) is zero
        # for those, so t >= 2 here.
        ctx = self.ctx
        C = ctx.pascal[k]
        exact = ctx.row("pinned_exact", t, x, l)
        within = ctx.row("within", t - 2, x + l, z=x)
        for k2 in range(1, k + 1):
            a = exact[k2]
            if a:
                yield k2, (C[k2], a), within[k - k2]

    def _parts_pinned(self, key, k2, digits, r, given, free, edges):
        # The k2 free vertices whose components finish in round t - 1, then
        # the rest within t - 2 rounds.
        _, t, x, l, k = key
        s, r_exact = digits
        chosen, rest = _split(free, k2, s)
        return ((("pinned_exact", t, x, l, k2), r_exact, given, chosen),
                (("within", t - 2, x + l, k - k2, x), r, given, rest))

    def _weigh_pinned_exact(self, t: int, x: int, l: int, k: int):
        # Term None: no component outside the hull sees all of it; its two
        # radices are 1, so their digits are 0.  Term (k2, more): k2 free
        # vertices chosen hold exactly one such component, or at least two if
        # more.
        ctx = self.ctx
        C = ctx.pascal[k]
        xl = x + l
        proper = ctx.row("pinned_proper", t, x, l)
        yield None, (1, 1), proper[k]
        single = ctx.row("exact_single", t - 1, xl)
        for k2 in range(1, k + 1):
            one = single[k2]
            if one:
                yield (k2, False), (C[k2], one), proper[k - k2]
        if t == 1:
            return  # exact_multi is zero in round 0, below exact_proper's rounds
        multi = ctx.row("exact_multi", t - 1, xl)
        rest = ctx.row("exact_proper", t - 1, xl, z=x)
        for k2 in range(1, k + 1):
            more = multi[k2]
            if more:
                yield (k2, True), (C[k2], more), rest[k - k2]

    def _parts_pinned_exact(self, key, term, digits, r, given, free, edges):
        _, t, x, l, k = key
        if term is None:
            return (("pinned_proper_z", t, x, l, k, x), r, given, free),
        xl = x + l
        (k2, more), (s, r_seeing) = term, digits
        chosen, rest = _split(free, k2, s)
        if more:
            return ((("exact_multi", t - 1, xl, k2), r_seeing, given, chosen),
                    (("exact_proper", t - 1, xl, k - k2, x), r, given, rest))
        return ((("exact_single", t - 1, xl, k2), r_seeing, given, chosen),
                (("pinned_proper_z", t, x, l, k - k2, x), r, given, rest))

    def _weigh_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int):
        # Term (k2, l2, x2): the first component has k2 vertices and touches
        # x2 root labels and l2 layer labels.  If it misses the layer, its
        # root contact must escape the first z root labels.
        if t == 1:
            return  # no component finishes in round 0, below exact_proper's rounds
        ctx = self.ctx
        C = ctx.pascal
        Cx, Cl, Ck1 = C[x], C[l], C[k - 1]
        escaping = [cx - cz for cx, cz in zip(Cx, C[z])]
        # singles[k2][m] counts a component of k2 vertices with contact m.
        singles = list(zip(*[ctx.row("exact_single", t - 1, m) for m in range(x + l)]))
        rests = [ctx.row("pinned_proper_z", t, x + l2, l - l2, z) for l2 in range(l)]
        rests.append(ctx.row("exact_proper", t - 1, x + l, z=z))
        for k2 in range(1, k + 1):
            column = singles[k2]
            if not any(column):
                continue
            b = Ck1[k2 - 1]
            for l2, rest in enumerate(rests):
                r = rest[k - k2]
                if not r:
                    continue
                layer_contacts = Cl[l2]
                root_contacts = Cx if l2 else escaping
                for x2 in range(x + 1 if l2 < l else x):
                    single = column[x2 + l2]
                    contacts = root_contacts[x2]
                    if single and contacts:
                        yield (k2, l2, x2), (contacts, layer_contacts, b, single), r

    def _parts_pinned_proper_z(self, key, term, digits, r, given, free, edges):
        # The component holding the first free vertex has k2 vertices and
        # touches x2 root labels and l2 layer labels, a proper nonempty part
        # of root-plus-layer.
        _, t, x, l, k, z = key
        (k2, l2, x2), (c, c_layer, s, r_comp) = term, digits
        # The [1, z] prefix is positional: a contact that must escape it has
        # colex rank at least C(z, x2).
        root, layer = given[:x], given[x:]
        contact, _ = _split(root, x2, c if l2 else comb(z, x2) + c)
        layer_contact, layer_rest = _split(layer, l2, c_layer)
        component, rest = _split(free[1:], k2 - 1, s)
        first = (("exact_single", t - 1, x2 + l2, k2), r_comp, contact + layer_contact,
                 [free[0]] + component)
        if l2 < l:
            # The touched layer labels join the root; the rest stay the layer.
            hull = root + layer_contact + layer_rest
            return first, (("pinned_proper_z", t, x + l2, l - l2, k - k2, z), r, hull, rest)
        return first, (("exact_proper", t - 1, x + l, k - k2, z), r, given, rest)

    # Each kind's weigher and handler, which a plan build and a step look up;
    # plain functions, as bound methods would make each sampler a reference cycle.
    _KINDS = {
        "all": (_weigh_all, _parts_all),
        "connected": (_weigh_connected, _parts_connected),
        "within": (_weigh_within, _parts_within),
        "exact": (partial(_weigh_root_components, proper=False), _parts_root_components),
        "exact_proper": (partial(_weigh_root_components, proper=True), _parts_root_components),
        "exact_single": (_weigh_exact_single, _parts_exact_single),
        "exact_multi": (_weigh_exact_multi, _parts_exact_multi),
        "pinned": (_weigh_pinned, _parts_pinned),
        "pinned_exact": (_weigh_pinned_exact, _parts_pinned_exact),
        "pinned_proper_z": (_weigh_pinned_proper_z, _parts_pinned_proper_z),
    }


# ---------------------------------------------------------------------------
# Conveniences
# ---------------------------------------------------------------------------

def _context(n: int, omega: int | None, ctx: CountingContext | None) -> CountingContext:
    """``ctx``, or a new ``CountingContext(n, omega)`` if it is None; raises
    ValueError if a given ``omega`` and ``ctx.omega`` differ once clamped to n
    (every budget of n or more allows every graph on [n])."""
    if ctx is None:
        return CountingContext(n, omega)
    if omega is not None and min(omega, n) != min(ctx.omega, n):
        raise ValueError(f"omega = {omega} differs from the given context's omega = {ctx.omega}")
    return ctx


def sample_chordal(n: int, omega: int | None = None, seed: int | None = None,
                   ctx: CountingContext | None = None) -> LabeledGraph:
    """One uniform w-colorable chordal graph on [n].

    Each call without ``ctx`` runs a full ``CountingContext(n, omega)``
    fill, and every call builds a new :class:`ChordalSampler` and weighs
    every node it meets from scratch; for many draws, hold one context and
    one sampler (``ChordalSampler(CountingContext(n, omega)).sample_chordal(n, rng)``).
    An ``omega`` given with a ``ctx`` of another color budget raises ValueError.
    """
    return ChordalSampler(_context(n, omega, ctx)).sample_chordal(n, RandomStream(seed))


def sample_connected_chordal(n: int, omega: int | None = None, seed: int | None = None,
                             ctx: CountingContext | None = None) -> LabeledGraph:
    """One uniform w-colorable connected chordal graph on [n].

    Each call without ``ctx`` runs a full ``CountingContext(n, omega)``
    fill, and every call builds a new :class:`ChordalSampler` and weighs
    every node it meets from scratch; for many draws, hold one context and
    one sampler (``ChordalSampler(CountingContext(n, omega)).sample_connected(n, rng)``).
    An ``omega`` given with a ``ctx`` of another color budget raises ValueError.
    """
    return ChordalSampler(_context(n, omega, ctx)).sample_connected(n, RandomStream(seed))
