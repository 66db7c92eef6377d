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
from itertools import combinations
from math import comb
from typing import Sequence

from .counting import CountingContext, class_params
# The sampler builds its one graph with LabeledGraph; the other four names stay
# importable from here because the benchmark's tracer wraps them by name.
from .graphs import LabeledGraph, complete_graph, glue, phi_map, relabel  # noqa: F401

_MASK64 = (1 << 64) - 1


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


def _pick(weights: Sequence[int], r: int) -> tuple[int, int]:
    """(i, r - sum(weights[:i])) for the term i whose block of ranks holds r."""
    for i, w in enumerate(weights):
        if r < w:
            return i, r
        r -= w
    raise AssertionError("rank outside the class: the weights sum below it")


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
    return _pick(weights, rng.uniform_below(total))[0]


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

    The context is only read; any number of samplers may share one context as
    long as each owns its own :class:`RandomStream`.  ``ops`` counts the
    big-integer weight terms evaluated since construction (a proxy for
    arithmetic work per sample).

    :meth:`unrank` maps each rank below a class's count to one member; a
    sample is the member of one uniform rank.  ``_unrank_<kind>`` unranks the
    class ``CountingContext.count_<kind>`` counts.  It takes the arguments
    ``CLASS_ARGS[kind]`` names (or ``n`` for "all" and "connected"), then the
    rank ``r``, ``labels`` (``labels[i]`` is the label of canonical vertex
    i + 1) and an ``edges`` list it appends to.  At each node it picks the
    term whose block holds r, then splits the remainder by divmod into the
    indices of the parts' label subsets and the parts' own ranks, so the
    parts receive their labels before they recurse and a sample builds one
    graph, at the end.
    """

    def __init__(self, ctx: CountingContext):
        self.ctx = ctx
        self.ops = 0

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
        count, _ = self._class(kind, args)
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
        count, size = self._class(kind, args)
        if not 0 <= r < count:
            raise ValueError(f"rank {r} outside [0, {count}) of class {kind}{tuple(args)}")
        labels = list(range(1, size + 1))
        edges: list[tuple[int, int]] = []
        getattr(self, "_unrank_" + kind)(*args, r, labels, edges)
        return LabeledGraph(labels, edges)

    def _class(self, kind: str, args: Sequence[int]) -> tuple[int, int]:
        """(count, vertex count) of a class, validating the kind and arguments."""
        if kind in ("all", "connected"):
            if len(args) != 1:
                raise ValueError(f"class kind {kind!r} takes the 1 argument (n), got {len(args)}")
            size = args[0]
        else:
            _, x, l, k, _ = class_params(kind, args)
            size = x + l + k
        return getattr(self.ctx, "count_" + kind)(*args), size

    # -- one procedure per counted class --------------------------------------

    def _unrank_all(self, n: int, r: int, labels: list[int], edges: list) -> None:
        # Split off the component holding the first remaining label, as
        # count_all does, until no label is left.
        ctx = self.ctx
        rest = labels
        while rest:
            m = len(rest)
            weights = [comb(m - 1, k - 1) * ctx.count_connected(k)
                       * ctx.count_all(m - k) for k in range(1, m + 1)]
            self.ops += m
            k, r = _pick(weights, r)
            k += 1
            r, s = divmod(r, comb(m - 1, k - 1))
            r, r_comp = divmod(r, ctx.count_connected(k))
            first = rest[0]
            component, rest = _split(rest[1:], k - 1, s)
            self._unrank_connected(k, r_comp, [first] + component, edges)

    def _unrank_connected(self, n: int, r: int, labels: list[int], edges: list) -> None:
        ctx = self.ctx
        weights = [ctx.count_exact_single(t, 0, n) for t in range(1, n + 1)]
        self.ops += n
        t, r = _pick(weights, r)
        self._unrank_exact_single(t + 1, 0, n, r, labels, edges)

    def _unrank_within(self, t: int, x: int, k: int, z: int, r: int, labels: list[int],
                       edges: list) -> None:
        # The k2 free vertices whose components finish in round t, then the
        # rest within t - 1 rounds, looping (t may exceed the last round by
        # far) until no free vertex is left.
        ctx = self.ctx
        root, free = labels[:x], labels[x:]
        while free:
            k = len(free)
            exact = [ctx.count_exact(t, x, k2, z) for k2 in range(k + 1)]
            weights = [comb(k, k2) * a * ctx.count_within(t - 1, x, k - k2, z) if a else 0
                       for k2, a in enumerate(exact)]
            self.ops += k + 1
            k2, r = _pick(weights, r)
            r, s = divmod(r, comb(k, k2))
            r, r_exact = divmod(r, exact[k2])
            chosen, free = _split(free, k2, s)
            if chosen:
                self._unrank_exact(t, x, k2, z, r_exact, root + chosen, edges)
            t -= 1
        edges.extend(combinations(root, 2))

    def _unrank_exact(self, t: int, x: int, k: int, z: int, r: int, labels: list[int],
                      edges: list) -> None:
        self._unrank_root_components(False, t, x, k, z, r, labels, edges)

    def _unrank_exact_proper(self, t: int, x: int, k: int, z: int, r: int,
                             labels: list[int], edges: list) -> None:
        self._unrank_root_components(True, t, x, k, z, r, labels, edges)

    def _unrank_root_components(self, proper: bool, t: int, x: int, k: int, z: int, r: int,
                                labels: list[int], edges: list) -> None:
        """The exact and exact_proper classes: split off the component holding
        the first free vertex, with root contact x2 (below x if proper)."""
        ctx = self.ctx
        if k == 0:
            edges.extend(combinations(labels, 2))
            return
        count_rest = ctx.count_exact_proper if proper else ctx.count_exact
        # Root contacts of x2 labels that escape the first z.
        contacts = [comb(x, x2) - comb(z, x2) for x2 in range(x if proper else x + 1)]
        terms = []
        weights = []
        for k2 in range(1, k + 1):
            rest = count_rest(t, x, k - k2, z)
            if not rest:
                continue
            b = comb(k - 1, k2 - 1)
            for x2 in range(1, len(contacts)):
                single = ctx.count_exact_single(t, x2, k2)
                if single:
                    terms.append((k2, x2, b, single))
                    weights.append(contacts[x2] * b * single * rest)
        self.ops += k * (len(contacts) - 1)
        i, r = _pick(weights, r)
        k2, x2, b, single = terms[i]
        r, c = divmod(r, contacts[x2])
        r, s = divmod(r, b)
        r_rest, r_comp = divmod(r, single)
        root, free = labels[:x], labels[x:]
        # In colex order the subsets inside root[:z] take the ranks below C(z, x2).
        contact, _ = _split(root, x2, comb(z, x2) + c)
        component, rest = _split(free[1:], k2 - 1, s)
        self._unrank_exact_single(t, x2, k2, r_comp, contact + [free[0]] + component, edges)
        self._unrank_root_components(proper, t, x, k - k2, z, r_rest, root + rest, edges)

    def _unrank_exact_single(self, t: int, x: int, k: int, r: int, labels: list[int],
                             edges: list) -> None:
        ctx = self.ctx
        weights = [comb(k, l) * ctx.count_pinned(t, x, l, k - l)
                   for l in range(1, k + 1)]
        self.ops += k
        l, r = _pick(weights, r)
        l += 1
        r, s = divmod(r, comb(k, l))
        layer, rest = _split(labels[x:], l, s)
        self._unrank_pinned(t, x, l, k - l, r, labels[:x] + layer + rest, edges)

    def _unrank_exact_multi(self, t: int, x: int, k: int, r: int, labels: list[int],
                            edges: list) -> None:
        # The component holding the first free vertex, then one further
        # component (the first k - 1 blocks) or at least two (the last k - 1).
        ctx = self.ctx
        w_one = []
        w_more = []
        for k2 in range(1, k):
            b = comb(k - 1, k2 - 1)
            single = ctx.count_exact_single(t, x, k2)
            w_one.append(b * single * ctx.count_exact_single(t, x, k - k2) if single else 0)
            w_more.append(b * single * ctx.count_exact_multi(t, x, k - k2) if single else 0)
        self.ops += 2 * k
        i, r = _pick(w_one + w_more, r)
        k2 = i % (k - 1) + 1
        r, s = divmod(r, comb(k - 1, k2 - 1))
        r_rest, r_comp = divmod(r, ctx.count_exact_single(t, x, k2))
        root, free = labels[:x], labels[x:]
        component, rest = _split(free[1:], k2 - 1, s)
        self._unrank_exact_single(t, x, k2, r_comp, root + [free[0]] + component, edges)
        if i < k - 1:
            self._unrank_exact_single(t, x, k - k2, r_rest, root + rest, edges)
        else:
            self._unrank_exact_multi(t, x, k - k2, r_rest, root + rest, edges)

    def _unrank_pinned(self, t: int, x: int, l: int, k: int, r: int, labels: list[int],
                       edges: list) -> None:
        ctx = self.ctx
        if t == 1 and k == 0:
            edges.extend(combinations(labels, 2))
            return
        exact = [ctx.count_pinned_exact(t, x, l, k2) for k2 in range(1, k + 1)]
        weights = [comb(k, k2) * a * ctx.count_within(t - 2, x + l, k - k2, x) if a else 0
                   for k2, a in enumerate(exact, 1)]
        self.ops += k
        i, r = _pick(weights, r)
        k2 = i + 1
        r, s = divmod(r, comb(k, k2))
        r_rest, r_exact = divmod(r, exact[i])
        hull = labels[:x + l]
        chosen, rest = _split(labels[x + l:], k2, s)
        self._unrank_pinned_exact(t, x, l, k2, r_exact, hull + chosen, edges)
        self._unrank_within(t - 2, x + l, k - k2, x, r_rest, hull + rest, edges)

    def _unrank_pinned_exact(self, t: int, x: int, l: int, k: int, r: int, labels: list[int],
                             edges: list) -> None:
        # No component outside the hull sees all of it (the pinned_proper
        # block), or the first k2 free vertices chosen hold exactly one such
        # component (the next k blocks) or at least two (the last k).
        ctx = self.ctx
        proper = ctx.count_pinned_proper(t, x, l, k)
        self.ops += 1
        if r < proper:
            self._unrank_pinned_proper(t, x, l, k, r, labels, edges)
            return
        r -= proper
        xl = x + l
        w_one = []
        w_more = []
        for k2 in range(1, k + 1):
            b = comb(k, k2)
            one = ctx.count_exact_single(t - 1, xl, k2)
            more = ctx.count_exact_multi(t - 1, xl, k2)
            w_one.append(b * one * ctx.count_pinned_proper(t, x, l, k - k2) if one else 0)
            # more is 0 at t = 1, below the rounds exact_proper accepts.
            w_more.append(b * more * ctx.count_exact_proper(t - 1, xl, k - k2, x)
                          if more else 0)
        self.ops += 2 * k
        i, r = _pick(w_one + w_more, r)
        k2 = i % k + 1
        r, s = divmod(r, comb(k, k2))
        hull = labels[:xl]
        chosen, rest = _split(labels[xl:], k2, s)
        if i < k:
            r_rest, r_seeing = divmod(r, ctx.count_exact_single(t - 1, xl, k2))
            self._unrank_exact_single(t - 1, xl, k2, r_seeing, hull + chosen, edges)
            self._unrank_pinned_proper(t, x, l, k - k2, r_rest, hull + rest, edges)
        else:
            r_rest, r_seeing = divmod(r, ctx.count_exact_multi(t - 1, xl, k2))
            self._unrank_exact_multi(t - 1, xl, k2, r_seeing, hull + chosen, edges)
            self._unrank_exact_proper(t - 1, xl, k - k2, x, r_rest, hull + rest, edges)

    def _unrank_pinned_proper(self, t: int, x: int, l: int, k: int, r: int,
                              labels: list[int], edges: list) -> None:
        self._unrank_pinned_proper_z(t, x, l, k, x, r, labels, edges)

    def _unrank_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int, r: int,
                                labels: list[int], edges: list) -> None:
        # The component holding the first free vertex has k2 vertices and
        # touches x2 root labels and l2 layer labels, a proper nonempty part
        # of root-plus-layer.  If it misses the layer, its root contact must
        # escape the first z root labels.
        ctx = self.ctx
        contacts = ([comb(x, x2) - comb(z, x2) for x2 in range(x + 1)],
                    [comb(x, x2) for x2 in range(x + 1)])
        terms = []
        weights = []
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
                share = b * comb(l, l2) * rest
                for x2 in range(x + 1 if l2 < l else x):
                    w = contacts[l2 > 0][x2] * singles[x2 + l2]
                    if w:
                        terms.append((k2, x2, l2, b, singles[x2 + l2]))
                        weights.append(w * share)
        self.ops += k * (x + 1) * (l + 1)
        i, r = _pick(weights, r)
        k2, x2, l2, b, single = terms[i]
        r, c = divmod(r, contacts[l2 > 0][x2])
        r, c_layer = divmod(r, comb(l, l2))
        r, s = divmod(r, b)
        r_rest, r_comp = divmod(r, single)

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

def sample_chordal(n: int, omega: int | None = None, seed: int | None = None,
                   ctx: CountingContext | None = None) -> LabeledGraph:
    """One uniform w-colorable chordal graph on [n]."""
    from .counting import get_context

    if ctx is None:
        ctx = get_context(n, omega)
    return ChordalSampler(ctx).sample_chordal(n, RandomStream(seed))


def sample_connected_chordal(n: int, omega: int | None = None, seed: int | None = None,
                             ctx: CountingContext | None = None) -> LabeledGraph:
    """One uniform w-colorable connected chordal graph on [n]."""
    from .counting import get_context

    if ctx is None:
        ctx = get_context(n, omega)
    return ChordalSampler(ctx).sample_connected(n, RandomStream(seed))
