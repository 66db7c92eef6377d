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
# 2**13 terms, each with its start and radices, retain 1.8-1.9 MB after
# 2,000 draws at (n, omega) = (20, 20), (30, 30) and (40, 3) (tracemalloc,
# 64-bit CPython 3.11) and keep most of the gain; 2**14 and 2**15 ran faster
# but raised the peak RSS of 10 s of sampling at n = 40, omega = 3 by
# 8-10 % (from 26.7 MB, when a term kept no radices).
PLAN_ENTRIES = 1 << 13


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
    sample is the member of one uniform rank.  ``_unrank_<kind>`` unranks the
    class ``CountingContext.count_<kind>`` counts.  It takes the arguments
    ``CLASS_ARGS[kind]`` names (or ``n`` for "all" and "connected"), then the
    rank ``r``, ``labels`` (``labels[i]`` is the label of canonical vertex
    i + 1) and an ``edges`` list it appends to.  At each node :meth:`_term`
    picks the term whose block holds r, which names the part sizes and
    contacts, and reads the remainder as mixed-radix digits: the indices of
    the parts' label subsets and the ranks of all parts but the last, which
    takes the rank left over.  So the parts receive their labels before they
    recurse and a sample builds one graph, at the end.  Each edge is appended
    once: the clique on the class's given labels (``labels[:x]``, or
    ``labels[:x + l]`` where the kind has a layer) by :meth:`unrank`, a
    layer's edges where the layer is picked.

    A node's *plan* holds its nonzero-weight terms, the rank at which each
    term's block starts and each term's radices.  ``_weigh_<kind>`` states
    the node's recurrence once: it yields each term with its radices and the
    count of its last part, read through the validating ``count_*``
    accessors, the first time the node is met, and the plan is kept in a
    least-recently-used cache.  The cache holds at most ``PLAN_ENTRIES``
    terms in all, a megabyte or two at the sizes measured; a draw that meets
    an evicted node weighs it again.  ``ops`` counts the terms the weighers
    have yielded to plan builds since construction, so a draw that meets
    only cached nodes adds none, and :meth:`plan_stats` reports the cache.
    """

    def __init__(self, ctx: CountingContext):
        self.ctx = ctx
        self.ops = 0
        self._plans: dict[tuple, tuple] = {}  # (starts, terms, radices), least recently used first
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
        count = self._class(kind, args)[0]
        if count == 0:
            raise ValueError(f"class {kind}{tuple(args)} is empty at omega = {self.ctx.omega}")
        return self.unrank(kind, args, rng.uniform_below(count))

    def unrank(self, kind: str, args: Sequence[int], r: int) -> LabeledGraph:
        """The member of rank r of one counted class, for 0 <= r < its count.

        ``kind`` is a ``CLASS_ARGS`` kind, or "all" / "connected" with
        ``args = (n,)``; ``count_<kind>(*args)`` is the class size.  Distinct
        ranks give distinct graphs.  Raises ValueError for an unknown kind, a
        wrong argument count, or a rank outside [0, count).
        """
        count, size, hull = self._class(kind, args)
        if not 0 <= r < count:
            raise ValueError(f"rank {r} outside [0, {count}) of class {kind}{tuple(args)}")
        labels = list(range(1, size + 1))
        edges = list(combinations(labels[:hull], 2))
        getattr(self, "_unrank_" + kind)(*args, r, labels, edges)
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

        A node's plan is three parallel tuples over its nonzero-weight terms
        in order: ``starts``, where each term's block of ranks starts (the sum
        of the weights before it), ``terms`` and ``radices``.  The last start
        at most r begins the block holding r, and bisect_right finds it.  A
        zero-weight term has an empty block, so leaving it out picks the same
        term as scanning every weight in order would.  r's offset in the block
        is read in the term's radices, least significant digit first; the rest
        rank, below the count of the term's last part, is what is left.
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
        digits = []
        for radix in radices[i]:
            r, digit = divmod(r, radix)
            digits.append(digit)
        return terms[i], digits, r

    def _build(self, key: tuple) -> tuple[tuple[int, ...], tuple, tuple]:
        """Weigh a node with ``_weigh_<kind>``, cache its plan and evict the
        least recently used plans until at most PLAN_ENTRIES terms are kept."""
        self._misses += 1
        kind, *args = key
        starts = []
        terms = []
        term_radices = []
        start = weighed = 0
        for term, radices, last in getattr(self, "_weigh_" + kind)(*args):
            weighed += 1
            w = prod(radices) * last
            if w:
                starts.append(start)
                terms.append(term)
                term_radices.append(radices)
                start += w
        self.ops += weighed
        if start != getattr(self.ctx, "count_" + kind)(*args):
            raise AssertionError(f"the weights of {kind}{tuple(args)} do not sum to its count")
        plan = tuple(starts), tuple(terms), tuple(term_radices)
        plans = self._plans
        plans[key] = plan
        self._entries += len(terms)
        while self._entries > PLAN_ENTRIES:
            self._entries -= len(plans.pop(next(iter(plans)))[1])
        return plan

    # -- one procedure per counted class --------------------------------------
    #
    # _weigh_<kind> states a node's recurrence once: it yields (term, radices,
    # last) for each term, in the order that fixes the blocks of ranks, and
    # the term's weight is prod(radices) * last, last counting its last part.
    # _unrank_<kind> unpacks the term, one digit per radix and the last
    # part's rank, as _term returns them.  A term names the choices it stands
    # for: a part size, or a tuple of them where a node chooses more than one.

    def _weigh_all(self, m: int):
        ctx = self.ctx
        for k in range(1, m + 1):
            yield k, (comb(m - 1, k - 1), ctx.count_connected(k)), ctx.count_all(m - k)

    def _unrank_all(self, n: int, r: int, labels: list[int], edges: list) -> None:
        # Split off the component holding the first remaining label, as
        # count_all does, until no label is left.
        rest = labels
        while rest:
            k, (s, r_comp), r = self._term(("all", len(rest)), r)
            first = rest[0]
            component, rest = _split(rest[1:], k - 1, s)
            self._unrank_connected(k, r_comp, [first] + component, edges)

    def _weigh_connected(self, n: int):
        ctx = self.ctx
        for t in range(1, n + 1):
            yield t, (), ctx.count_exact_single(t, 0, n)

    def _unrank_connected(self, n: int, r: int, labels: list[int], edges: list) -> None:
        t, _, r = self._term(("connected", n), r)
        self._unrank_exact_single(t, 0, n, r, labels, edges)

    def _weigh_within(self, t: int, x: int, k: int, z: int):
        ctx = self.ctx
        for k2 in range(k + 1):
            a = ctx.count_exact(t, x, k2, z)
            if a:
                yield k2, (comb(k, k2), a), ctx.count_within(t - 1, x, k - k2, z)

    def _unrank_within(self, t: int, x: int, k: int, z: int, r: int, labels: list[int],
                       edges: list) -> None:
        # The k2 free vertices whose components finish in round t, then the
        # rest within t - 1 rounds until none is left; no round past the last adds one.
        t = min(t, self.ctx.last_round)
        root, free = labels[:x], labels[x:]
        while free:
            k2, (s, r_exact), r = self._term(("within", t, x, len(free), z), r)
            chosen, free = _split(free, k2, s)
            if chosen:
                self._unrank_exact(t, x, k2, z, r_exact, root + chosen, edges)
            t -= 1

    def _weigh_root_components(self, proper: bool, t: int, x: int, k: int, z: int):
        # Term (k2, x2): a first component of k2 vertices with root contact x2,
        # one of the x2-subsets of the root that escape the first z labels.
        ctx = self.ctx
        count_rest = ctx.count_exact_proper if proper else ctx.count_exact
        contacts = [comb(x, x2) - comb(z, x2) for x2 in range(x if proper else x + 1)]
        for k2 in range(1, k + 1):
            rest = count_rest(t, x, k - k2, z)
            if not rest:
                continue
            b = comb(k - 1, k2 - 1)
            for x2 in range(1, len(contacts)):
                single = ctx.count_exact_single(t, x2, k2)
                if single:
                    yield (k2, x2), (contacts[x2], b, single), rest

    def _unrank_root_components(self, proper: bool, t: int, x: int, k: int, z: int, r: int,
                                labels: list[int], edges: list) -> None:
        """The exact and exact_proper classes: split off the component holding
        the first free vertex, with root contact x2 (below x if proper)."""
        if k == 0:
            return
        key = ("exact_proper" if proper else "exact", t, x, k, z)
        (k2, x2), (c, s, r_comp), r_rest = self._term(key, r)
        root, free = labels[:x], labels[x:]
        # In colex order the subsets inside root[:z] take the ranks below C(z, x2).
        contact, _ = _split(root, x2, comb(z, x2) + c)
        component, rest = _split(free[1:], k2 - 1, s)
        self._unrank_exact_single(t, x2, k2, r_comp, contact + [free[0]] + component, edges)
        self._unrank_root_components(proper, t, x, k - k2, z, r_rest, root + rest, edges)

    def _weigh_exact(self, t: int, x: int, k: int, z: int):
        return self._weigh_root_components(False, t, x, k, z)

    def _weigh_exact_proper(self, t: int, x: int, k: int, z: int):
        return self._weigh_root_components(True, t, x, k, z)

    def _unrank_exact(self, t: int, x: int, k: int, z: int, r: int, labels: list[int],
                      edges: list) -> None:
        self._unrank_root_components(False, t, x, k, z, r, labels, edges)

    def _unrank_exact_proper(self, t: int, x: int, k: int, z: int, r: int, labels: list[int],
                             edges: list) -> None:
        self._unrank_root_components(True, t, x, k, z, r, labels, edges)

    def _weigh_exact_single(self, t: int, x: int, k: int):
        ctx = self.ctx
        for l in range(1, k + 1):
            yield l, (comb(k, l),), ctx.count_pinned(t, x, l, k - l)

    def _unrank_exact_single(self, t: int, x: int, k: int, r: int, labels: list[int],
                             edges: list) -> None:
        l, (s,), r = self._term(("exact_single", t, x, k), r)
        root = labels[:x]
        layer, rest = _split(labels[x:], l, s)
        edges.extend(product(layer, root))
        edges.extend(combinations(layer, 2))
        self._unrank_pinned(t, x, l, k - l, r, root + layer + rest, edges)

    def _weigh_exact_multi(self, t: int, x: int, k: int):
        # Term (k2, more): the first component has k2 vertices, then one
        # further component, or at least two if more.
        ctx = self.ctx
        for more in (False, True):
            count_rest = ctx.count_exact_multi if more else ctx.count_exact_single
            for k2 in range(1, k):
                single = ctx.count_exact_single(t, x, k2)
                if single:
                    yield (k2, more), (comb(k - 1, k2 - 1), single), count_rest(t, x, k - k2)

    def _unrank_exact_multi(self, t: int, x: int, k: int, r: int, labels: list[int],
                            edges: list) -> None:
        # The component holding the first free vertex, then one further
        # component or at least two.
        (k2, more), (s, r_comp), r_rest = self._term(("exact_multi", t, x, k), r)
        root, free = labels[:x], labels[x:]
        component, rest = _split(free[1:], k2 - 1, s)
        self._unrank_exact_single(t, x, k2, r_comp, root + [free[0]] + component, edges)
        if more:
            self._unrank_exact_multi(t, x, k - k2, r_rest, root + rest, edges)
        else:
            self._unrank_exact_single(t, x, k - k2, r_rest, root + rest, edges)

    def _weigh_pinned(self, t: int, x: int, l: int, k: int):
        ctx = self.ctx
        for k2 in range(1, k + 1):
            a = ctx.count_pinned_exact(t, x, l, k2)
            if a:
                yield k2, (comb(k, k2), a), ctx.count_within(t - 2, x + l, k - k2, x)

    def _unrank_pinned(self, t: int, x: int, l: int, k: int, r: int, labels: list[int],
                       edges: list) -> None:
        if t == 1 and k == 0:
            return
        k2, (s, r_exact), r_rest = self._term(("pinned", t, x, l, k), r)
        hull = labels[:x + l]
        chosen, rest = _split(labels[x + l:], k2, s)
        self._unrank_pinned_exact(t, x, l, k2, r_exact, hull + chosen, edges)
        self._unrank_within(t - 2, x + l, k - k2, x, r_rest, hull + rest, edges)

    def _weigh_pinned_exact(self, t: int, x: int, l: int, k: int):
        # Term None: no component outside the hull sees all of it.  Term
        # (k2, more): k2 free vertices chosen hold exactly one such component,
        # or at least two if more.
        ctx = self.ctx
        xl = x + l
        yield None, (), ctx.count_pinned_proper(t, x, l, k)
        for k2 in range(1, k + 1):
            one = ctx.count_exact_single(t - 1, xl, k2)
            if one:
                yield (k2, False), (comb(k, k2), one), ctx.count_pinned_proper(t, x, l, k - k2)
        for k2 in range(1, k + 1):
            more = ctx.count_exact_multi(t - 1, xl, k2)
            # more is 0 at t = 1, below the rounds exact_proper accepts.
            if more:
                yield (k2, True), (comb(k, k2), more), ctx.count_exact_proper(t - 1, xl, k - k2, x)

    def _unrank_pinned_exact(self, t: int, x: int, l: int, k: int, r: int, labels: list[int],
                             edges: list) -> None:
        term, digits, r_rest = self._term(("pinned_exact", t, x, l, k), r)
        if term is None:
            self._unrank_pinned_proper(t, x, l, k, r_rest, labels, edges)
            return
        xl = x + l
        (k2, more), (s, r_seeing) = term, digits
        hull = labels[:xl]
        chosen, rest = _split(labels[xl:], k2, s)
        if more:
            self._unrank_exact_multi(t - 1, xl, k2, r_seeing, hull + chosen, edges)
            self._unrank_exact_proper(t - 1, xl, k - k2, x, r_rest, hull + rest, edges)
        else:
            self._unrank_exact_single(t - 1, xl, k2, r_seeing, hull + chosen, edges)
            self._unrank_pinned_proper(t, x, l, k - k2, r_rest, hull + rest, edges)

    def _unrank_pinned_proper(self, t: int, x: int, l: int, k: int, r: int,
                              labels: list[int], edges: list) -> None:
        self._unrank_pinned_proper_z(t, x, l, k, x, r, labels, edges)

    def _weigh_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int):
        # Term (k2, l2, x2): the first component has k2 vertices and touches
        # x2 root labels and l2 layer labels.  If it misses the layer, its
        # root contact must escape the first z root labels.
        ctx = self.ctx
        for k2 in range(1, k + 1):
            singles = [ctx.count_exact_single(t - 1, m, k2) for m in range(x + l)]
            if not any(singles):  # always so at t = 1, below exact_proper's rounds
                continue
            b = comb(k - 1, k2 - 1)
            for l2 in range(l + 1):
                rest = (ctx.count_pinned_proper_z(t, x + l2, l - l2, k - k2, z) if l2 < l
                        else ctx.count_exact_proper(t - 1, x + l, k - k2, z))
                if not rest:
                    continue
                layer_contacts = comb(l, l2)
                for x2 in range(x + 1 if l2 < l else x):
                    contacts = comb(x, x2) - (0 if l2 else comb(z, x2))
                    yield (k2, l2, x2), (contacts, layer_contacts, b, singles[x2 + l2]), rest

    def _unrank_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int, r: int,
                                labels: list[int], edges: list) -> None:
        # The component holding the first free vertex has k2 vertices and
        # touches x2 root labels and l2 layer labels, a proper nonempty part
        # of root-plus-layer.
        key = ("pinned_proper_z", t, x, l, k, z)
        (k2, l2, x2), (c, c_layer, s, r_comp), r_rest = self._term(key, r)

        # The [1, z] prefix is positional: a contact that must escape it has
        # colex rank at least C(z, x2).
        root, layer, free = labels[:x], labels[x:x + l], labels[x + l:]
        contact, _ = _split(root, x2, c if l2 else comb(z, x2) + c)
        layer_contact, layer_rest = _split(layer, l2, c_layer)
        component, rest = _split(free[1:], k2 - 1, s)
        self._unrank_exact_single(t - 1, x2 + l2, k2, r_comp,
                                  contact + layer_contact + [free[0]] + component, edges)
        if l2 < l:
            # The touched layer labels join the root; the rest stay the layer.
            hull = root + layer_contact + layer_rest
            self._unrank_pinned_proper_z(t, x + l2, l - l2, k - k2, z, r_rest, hull + rest,
                                         edges)
        else:
            self._unrank_exact_proper(t - 1, x + l, k - k2, z, r_rest, root + layer + rest,
                                      edges)


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
