"""Exact uniform sampling of w-colorable labeled (connected) chordal graphs.

Every random decision inverts one term choice of the counting recurrences, so
the output distribution is exactly uniform: all branch weights are products of
memoized counts and binomial coefficients, chosen with exact integer draws.
No floating point appears anywhere on the sampling path.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

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


def uniform_below(bound: int, rng: RandomStream) -> int:
    return rng.uniform_below(bound)


@dataclass(frozen=True)
class WeightedChoice:
    """A finite distribution with exact nonnegative integer weights."""

    weights: tuple[int, ...]
    total: int

    @staticmethod
    def of(weights: Iterable[int]) -> "WeightedChoice":
        ws = tuple(weights)
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        total = sum(ws)
        if total <= 0:
            raise ValueError("total weight must be positive")
        return WeightedChoice(ws, total)

    def draw(self, rng: RandomStream) -> int:
        u = rng.uniform_below(self.total)
        acc = 0
        for i, w in enumerate(self.weights):
            acc += w
            if u < acc:
                return i
        raise AssertionError("unreachable: weights summed below total")


def categorical(weights: Sequence[int], rng: RandomStream) -> int:
    """Index i with probability weights[i] / sum(weights); zero weights never win."""
    return WeightedChoice.of(weights).draw(rng)


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


def sample_subset_containing(pool: Sequence[int], k: int, required: int,
                             rng: RandomStream) -> list[int]:
    """Uniform k-subset of the pool conditioned on containing ``required``."""
    rest = [e for e in pool if e != required]
    if len(rest) == len(pool):
        raise ValueError(f"required element {required} not in pool")
    sub = sample_subset(rest, k - 1, rng)
    sub.append(required)
    sub.sort()
    return sub


def sample_subset_escaping_prefix(x: int, size: int, z: int, rng: RandomStream) -> list[int]:
    """Uniform size-subset of [1, x] that is not contained in [1, z].

    Draws the number of elements above z with its exact hypergeometric-style
    weight, then fills both parts uniformly; no rejection needed.
    """
    hi = x - z
    weights = [comb(hi, j) * comb(z, size - j) for j in range(1, min(hi, size) + 1)]
    j = categorical(weights, rng) + 1
    top = sample_subset(range(z + 1, x + 1), j, rng)
    low = sample_subset(range(1, z + 1), size - j, rng)
    return sorted(low + top)


def _complement(pool: Sequence[int], chosen: Sequence[int]) -> list[int]:
    """The pool without the chosen labels, in pool order."""
    taken = set(chosen)
    return [v for v in pool if v not in taken]


class ChordalSampler:
    """Uniform sampler over the graph classes of a filled counting context.

    The context is only read; any number of samplers may share one context as
    long as each owns its own :class:`RandomStream`.  ``ops`` counts the
    big-integer weight terms evaluated since construction (a proxy for
    arithmetic work per sample).

    ``_sample_<kind>`` samples the class ``CountingContext.count_<kind>``
    counts.  It takes the arguments ``CLASS_ARGS[kind]`` names, then
    ``labels`` (``labels[i]`` is the label of canonical vertex i + 1), an
    ``edges`` list it appends to, and ``rng``.  Each branch draws the labels
    of its parts before recursing, so a sample builds one graph, at the end.
    """

    def __init__(self, ctx: CountingContext):
        self.ctx = ctx
        self.ops = 0

    # -- entry points --------------------------------------------------------

    def sample_chordal(self, n: int, rng: RandomStream) -> LabeledGraph:
        """Uniform w-colorable labeled chordal graph with vertex set [n]."""
        if not 0 <= n <= self.ctx.n_max:
            raise ValueError(f"n must be in [0, {self.ctx.n_max}]")
        ctx = self.ctx
        edges: list[tuple[int, int]] = []
        rest = list(range(1, n + 1))
        # Split off the component holding the first remaining label, as
        # count_all does, until no label is left.
        while rest:
            m = len(rest)
            weights = [ctx.binomial(m - 1, k - 1) * ctx.count_connected(k)
                       * ctx.count_all(m - k) for k in range(1, m + 1)]
            self.ops += m
            k = categorical(weights, rng) + 1
            assert sum(weights) == ctx.count_all(m)
            component = sample_subset_containing(rest, k, rest[0], rng)
            self._sample_connected_on(component, edges, rng)
            rest = _complement(rest, component)
        return LabeledGraph(range(1, n + 1), edges)

    def sample_connected(self, n: int, rng: RandomStream) -> LabeledGraph:
        """Uniform w-colorable labeled *connected* chordal graph on [n]."""
        if not 1 <= n <= self.ctx.n_max:
            raise ValueError(f"n must be in [1, {self.ctx.n_max}]")
        if self.ctx.count_connected(n) == 0:
            raise ValueError(f"no connected chordal graph on [{n}] is {self.ctx.omega}-colorable")
        edges: list[tuple[int, int]] = []
        self._sample_connected_on(list(range(1, n + 1)), edges, rng)
        return LabeledGraph(range(1, n + 1), edges)

    def sample_class(self, kind: str, args: Sequence[int], rng: RandomStream) -> LabeledGraph:
        """Uniform member of one counted class, e.g. ("pinned", (t, x, l, k)).

        Raises if the kind is unknown, the argument count is wrong, or the
        class is empty (count zero).
        """
        _, x, l, k, _ = class_params(kind, args)
        if getattr(self.ctx, "count_" + kind)(*args) == 0:
            raise ValueError(f"class {kind}{tuple(args)} is empty")
        labels = list(range(1, x + l + k + 1))
        edges: list[tuple[int, int]] = []
        getattr(self, "_sample_" + kind)(*args, labels, edges, rng)
        return LabeledGraph(labels, edges)

    def _sample_connected_on(self, labels: list[int], edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        n = len(labels)
        weights = [ctx.count_exact_single(t, 0, n) for t in range(1, n + 1)]
        self.ops += n
        t = categorical(weights, rng) + 1
        self._sample_exact_single(t, 0, n, labels, edges, rng)

    # -- one procedure per counted class --------------------------------------

    def _sample_within(self, t: int, x: int, k: int, z: int, labels: list[int],
                       edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        if t == 0 and k == 0:
            edges.extend(combinations(labels, 2))
            return
        # Zero factors short-circuit left to right in fill order, so weighing
        # a filled context never writes to it.
        weights = []
        for k2 in range(k + 1):
            a = ctx.count_exact(t, x, k2, z)
            weights.append(ctx.binomial(k, k2) * a
                           * ctx.count_within(t - 1, x, k - k2, z) if a else 0)
        self.ops += k + 1
        k2 = categorical(weights, rng)
        root, free = labels[:x], labels[x:]
        chosen = sample_subset(free, k2, rng)
        self._sample_exact(t, x, k2, z, root + chosen, edges, rng)
        self._sample_within(t - 1, x, k - k2, z, root + _complement(free, chosen), edges, rng)

    def _sample_exact(self, t: int, x: int, k: int, z: int, labels: list[int],
                      edges: list, rng: RandomStream) -> None:
        self._sample_root_components(False, t, x, k, z, labels, edges, rng)

    def _sample_exact_proper(self, t: int, x: int, k: int, z: int, labels: list[int],
                             edges: list, rng: RandomStream) -> None:
        self._sample_root_components(True, t, x, k, z, labels, edges, rng)

    def _sample_root_components(self, proper: bool, t: int, x: int, k: int, z: int,
                                labels: list[int], edges: list, rng: RandomStream) -> None:
        """The exact and exact_proper classes: split off the component holding
        the first free vertex, with root contact x2 (below x if proper)."""
        ctx = self.ctx
        if k == 0:
            edges.extend(combinations(labels, 2))
            return
        count_rest = ctx.count_exact_proper if proper else ctx.count_exact
        top = x - 1 if proper else x
        pairs = []
        weights = []
        for k2 in range(1, k + 1):
            rest = count_rest(t, x, k - k2, z)
            if not rest:
                continue
            b = ctx.binomial(k - 1, k2 - 1)
            for x2 in range(1, top + 1):
                w = ((ctx.binomial(x, x2) - ctx.binomial(z, x2)) * b
                     * ctx.count_exact_single(t, x2, k2) * rest)
                if w:
                    pairs.append((k2, x2))
                    weights.append(w)
        self.ops += k * max(top, 0)
        k2, x2 = pairs[categorical(weights, rng)]
        root, free = labels[:x], labels[x:]
        contact = [root[i - 1] for i in sample_subset_escaping_prefix(x, x2, z, rng)]
        component = sample_subset_containing(free, k2, free[0], rng)
        self._sample_exact_single(t, x2, k2, contact + component, edges, rng)
        self._sample_root_components(proper, t, x, k - k2, z,
                                     root + _complement(free, component), edges, rng)

    def _sample_exact_single(self, t: int, x: int, k: int, labels: list[int],
                             edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        weights = [ctx.binomial(k, l) * ctx.count_pinned(t, x, l, k - l)
                   for l in range(1, k + 1)]
        self.ops += k
        l = categorical(weights, rng) + 1
        root, free = labels[:x], labels[x:]
        layer = sample_subset(free, l, rng)
        self._sample_pinned(t, x, l, k - l, root + layer + _complement(free, layer), edges, rng)

    def _sample_exact_multi(self, t: int, x: int, k: int, labels: list[int],
                            edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        w_one = []
        w_more = []
        for k2 in range(1, k):
            b = ctx.binomial(k - 1, k2 - 1) * ctx.count_exact_single(t, x, k2)
            w_one.append(b * ctx.count_exact_single(t, x, k - k2) if b else 0)
            w_more.append(b * ctx.count_exact_multi(t, x, k - k2) if b else 0)
        self.ops += 2 * k
        s1 = sum(w_one)
        one = rng.uniform_below(s1 + sum(w_more)) < s1
        k2 = categorical(w_one if one else w_more, rng) + 1
        root, free = labels[:x], labels[x:]
        component = sample_subset_containing(free, k2, free[0], rng)
        rest = root + _complement(free, component)
        self._sample_exact_single(t, x, k2, root + component, edges, rng)
        if one:
            self._sample_exact_single(t, x, k - k2, rest, edges, rng)
        else:
            self._sample_exact_multi(t, x, k - k2, rest, edges, rng)

    def _sample_pinned(self, t: int, x: int, l: int, k: int, labels: list[int],
                       edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        if t == 1 and k == 0:
            edges.extend(combinations(labels, 2))
            return
        weights = []
        for k2 in range(1, k + 1):
            a = ctx.count_pinned_exact(t, x, l, k2)
            weights.append(ctx.binomial(k, k2) * a
                           * ctx.count_within(t - 2, x + l, k - k2, x) if a else 0)
        self.ops += k
        k2 = categorical(weights, rng) + 1
        hull, free = labels[:x + l], labels[x + l:]
        chosen = sample_subset(free, k2, rng)
        self._sample_pinned_exact(t, x, l, k2, hull + chosen, edges, rng)
        self._sample_within(t - 2, x + l, k - k2, x, hull + _complement(free, chosen),
                            edges, rng)

    def _sample_pinned_exact(self, t: int, x: int, l: int, k: int, labels: list[int],
                             edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        xl = x + l
        s1 = ctx.count_pinned_proper(t, x, l, k)
        w_one = []
        w_more = []
        for k2 in range(1, k + 1):
            b = ctx.binomial(k, k2)
            one = ctx.count_exact_single(t - 1, xl, k2)
            w_one.append(b * one * ctx.count_pinned_proper(t, x, l, k - k2)
                         if one else 0)
            more = ctx.count_exact_multi(t - 1, xl, k2)
            w_more.append(b * more * ctx.count_exact_proper(t - 1, xl, k - k2, x)
                          if more else 0)
        self.ops += 2 * k + 1
        s2 = sum(w_one)
        s3 = sum(w_more)
        u = rng.uniform_below(s1 + s2 + s3)
        if u < s1:
            self._sample_pinned_proper(t, x, l, k, labels, edges, rng)
            return
        one = u < s1 + s2
        k2 = categorical(w_one if one else w_more, rng) + 1
        hull, free = labels[:xl], labels[xl:]
        chosen = sample_subset(free, k2, rng)
        rest = hull + _complement(free, chosen)
        if one:
            self._sample_exact_single(t - 1, xl, k2, hull + chosen, edges, rng)
            self._sample_pinned_proper(t, x, l, k - k2, rest, edges, rng)
        else:
            self._sample_exact_multi(t - 1, xl, k2, hull + chosen, edges, rng)
            self._sample_exact_proper(t - 1, xl, k - k2, x, rest, edges, rng)

    def _sample_pinned_proper(self, t: int, x: int, l: int, k: int, labels: list[int],
                              edges: list, rng: RandomStream) -> None:
        self._sample_pinned_proper_z(t, x, l, k, x, labels, edges, rng)

    def _sample_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int,
                                labels: list[int], edges: list, rng: RandomStream) -> None:
        ctx = self.ctx
        triples = []
        weights = []
        for k2 in range(1, k + 1):
            b = ctx.binomial(k - 1, k2 - 1)
            kr = k - k2
            for x2 in range(x + 1):
                for l2 in range(l + 1):
                    if not 0 < x2 + l2 < x + l:
                        continue
                    s = ctx.count_exact_single(t - 1, x2 + l2, k2)
                    if not s:
                        continue
                    if l2 > 0:
                        w_root = ctx.binomial(x, x2)
                    else:
                        w_root = ctx.binomial(x, x2) - ctx.binomial(z, x2)
                    if not w_root:
                        continue
                    rest = (ctx.count_pinned_proper_z(t, x + l2, l - l2, kr, z) if l2 < l
                            else ctx.count_exact_proper(t - 1, x + l, kr, z))
                    if not rest:
                        continue
                    triples.append((k2, x2, l2))
                    weights.append(b * ctx.binomial(l, l2) * s * w_root * rest)
        self.ops += k * (x + 1) * (l + 1)
        k2, x2, l2 = triples[categorical(weights, rng)]

        # Label choices for the component's root contact (x2 in the held root,
        # l2 in the pinned layer) and for its own vertices.  The [1, z] prefix
        # is positional, so contacts that must escape it are drawn as positions.
        root, layer, free = labels[:x], labels[x:x + l], labels[x + l:]
        if l2 > 0:
            contact = sample_subset(root, x2, rng)
        else:
            contact = [root[i - 1] for i in sample_subset_escaping_prefix(x, x2, z, rng)]
        layer_contact = sample_subset(layer, l2, rng)
        component = sample_subset_containing(free, k2, free[0], rng)
        rest = _complement(free, component)
        self._sample_exact_single(t - 1, x2 + l2, k2, contact + layer_contact + component,
                                  edges, rng)
        if l2 < l:
            # The touched layer labels join the root; the rest stay the layer.
            hull = root + layer_contact + _complement(layer, layer_contact)
            self._sample_pinned_proper_z(t, x + l2, l - l2, k - k2, z, hull + rest, edges, rng)
        else:
            self._sample_exact_proper(t - 1, x + l, k - k2, z, root + layer + rest, edges, rng)


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
