"""Property checks on the program's outputs, written apart from the program.

Nothing here imports ``chordal_lab``: every predicate works on plain
adjacency sets, and ``check_graph`` first proves that the sampled graph's
neighbour sets are exactly the edges of its edge-list text, so a fault in
the program's own graph code cannot hide a fault in its output.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from itertools import repeat


class CheckFailed(Exception):
    """An output of the program broke a property the benchmark checks."""


def parse_edge_list(text: str) -> tuple[int, list[int], list[int]]:
    """(n, us, vs) from one edge-list record: "n m", then m "u v" lines.

    Rejects anything but integers, a header whose edge count disagrees with
    the body, endpoints outside [1, n], self-loops and repeated edges.  All
    passes run at C level (the split workload's graphs have 250k edges).
    """
    try:
        vals = json.loads("[" + ",".join(text.split()) + "]")
    except ValueError:
        raise CheckFailed("edge list holds a token that is not a number") from None
    if len(vals) < 2 or len(vals) % 2 or set(map(type, vals)) != {int}:
        raise CheckFailed("edge list is not integer pairs after its header")
    n, m = vals[0], vals[1]
    us, vs = vals[2::2], vals[3::2]
    if len(us) != m:
        raise CheckFailed(f"header promises {m} edges, body has {len(us)}")
    if m and (min(min(us), min(vs)) < 1 or max(max(us), max(vs)) > n):
        raise CheckFailed(f"an edge has an endpoint outside [1, {n}]")
    if any(map(operator.eq, us, vs)):
        raise CheckFailed("edge list has a self-loop")
    # Pairs in strictly increasing (u, v) order with u < v, as the program
    # writes them, are distinct; any other order takes the slower set test.
    keys = list(map(operator.add, map(operator.mul, us, repeat(n + 1)), vs))
    ordered = all(map(operator.lt, us, vs)) and all(map(operator.lt, keys, keys[1:]))
    if not ordered and len(set(zip(map(min, us, vs), map(max, us, vs)))) != m:
        raise CheckFailed("edge list repeats an edge")
    return n, us, vs


def adjacency(n: int, edges) -> list[set[int]]:
    """Neighbour sets of vertices 1..n (index 0 unused) from (u, v) pairs."""
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def mcs_order(adj: list[set[int]]) -> list[int]:
    """Reverse maximum-cardinality-search order of vertices 1..n.

    For a chordal graph this is a perfect elimination order (Tarjan and
    Yannakakis, 1984); for any other graph no order is.
    """
    n = len(adj) - 1
    weight = [0] * (n + 1)
    buckets: list[set[int]] = [set() for _ in range(n + 1)]
    buckets[0] = set(range(1, n + 1))
    done = [False] * (n + 1)
    visit = []
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        done[v] = True
        visit.append(v)
        for u in adj[v]:
            if not done[u]:
                w = weight[u]
                buckets[w].remove(u)
                buckets[w + 1].add(u)
                weight[u] = w + 1
        top += 1
    visit.reverse()
    return visit


def elimination_clique_number(adj: list[set[int]], order: list[int]) -> int | None:
    """Largest clique if ``order`` is a perfect elimination order, else None.

    The order is perfect iff the later neighbours of every vertex form a
    clique; by the parent test it is enough that, with p the earliest later
    neighbour of v, the other later neighbours of v are adjacent to p.  Every
    maximal clique of a chordal graph is some vertex plus its later
    neighbours.
    """
    pos = [0] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    remaining = set(order)
    best = 0
    for v in order:
        remaining.discard(v)
        later = remaining & adj[v]
        size = len(later) + 1
        if size > 2:
            p = min(later, key=pos.__getitem__)
            later.discard(p)
            if not later <= adj[p]:
                return None
        best = max(best, size)
    return best


def is_chordal(adj: list[set[int]]) -> bool:
    return elimination_clique_number(adj, mcs_order(adj)) is not None


def is_connected(adj: list[set[int]]) -> bool:
    n = len(adj) - 1
    if n <= 1:
        return True
    seen = {1}
    stack = [1]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def is_split_degree_sequence(degrees: list[int]) -> bool:
    """Hammer and Simeone (1981): with d_1 >= ... >= d_n and m the largest i
    with d_i >= i - 1, the graph is split iff
    sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i."""
    d = sorted(degrees, reverse=True)
    m = max((i for i in range(1, len(d) + 1) if d[i - 1] >= i - 1), default=0)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def check_graph(g, text: str, n: int, omega: int, *, connected: bool = False,
                split: bool = False) -> int:
    """Check one sampled graph and its edge-list text; return its edge count.

    ``g`` is the program's graph object; only its vertex tuple and neighbour
    sets are read.
    """
    if tuple(g.vertices) != tuple(range(1, n + 1)):
        raise CheckFailed("vertex set is not [n]")
    n_text, us, vs = parse_edge_list(text)
    if n_text != n:
        raise CheckFailed(f"edge list header says n = {n_text}, expected {n}")
    # Each of the text's m distinct edges appears in g's neighbour sets both
    # ways, and those sets hold 2m entries, so the text parses back to g;
    # from here on g's neighbour sets stand for it.
    adj = [frozenset()] + [frozenset(g.neighbors(v)) for v in range(1, n + 1)]
    if (sum(map(len, adj)) != 2 * len(us)
            or not all(map(operator.contains, map(adj.__getitem__, us), vs))
            or not all(map(operator.contains, map(adj.__getitem__, vs), us))):
        raise CheckFailed("edge-list text does not parse back to the sampled graph")
    # Ascending degree is a perfect elimination order of every split graph
    # and cheap to find; search is the fallback that decides for any graph.
    clique = elimination_clique_number(adj, sorted(range(1, n + 1), key=lambda v: len(adj[v])))
    if clique is None:
        clique = elimination_clique_number(adj, mcs_order(adj))
    if clique is None:
        raise CheckFailed("graph is not chordal")
    if clique > omega:
        raise CheckFailed(f"graph has a clique of {clique} > omega = {omega} vertices")
    if connected and not is_connected(adj):
        raise CheckFailed("graph is not connected")
    if split and not is_split_degree_sequence([len(s) for s in adj[1:]]):
        raise CheckFailed("graph is not split")
    return len(us)


def check_count(name: str, got: int, want: int) -> None:
    if got != want:
        raise CheckFailed(f"{name}: program gives {got}, reference gives {want}")


def check_bracket(count: int, full: int, upper_rest: int, eps) -> None:
    """(1 - eps) * full <= count <= full + upper_rest, in exact arithmetic.

    ``eps`` is a ``fractions.Fraction``.
    """
    if count * eps.denominator < (eps.denominator - eps.numerator) * full:
        raise CheckFailed("approximate count falls below (1 - eps) * F")
    if count > full + upper_rest:
        raise CheckFailed("approximate count exceeds F + U")


def chi_square_upper_tail(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-square with df degrees of freedom.

    Q(a, y) for a = df/2, y = stat/2, stepped up from Q(1, y) = exp(-y) or
    Q(1/2, y) = erfc(sqrt(y)) by Q(a + 1, y) = Q(a, y) + y**a e**-y / Gamma(a + 1).
    """
    y = stat / 2
    if df % 2:
        a, q = 0.5, math.erfc(math.sqrt(y))
    else:
        a, q = 1.0, math.exp(-y)
    while a < df / 2:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1)) if y > 0 else 0.0
        a += 1
    return min(q, 1.0)


def check_uniform(keys: list, support: set, alpha: float) -> tuple[float, float]:
    """Pearson chi-square test of ``keys`` against the uniform law on ``support``.

    Raises if a key falls outside the support or the p-value is below alpha;
    returns (statistic, p-value).
    """
    counts = Counter(keys)
    outside = set(counts) - support
    if outside:
        raise CheckFailed(f"{len(outside)} sampled graphs are outside the enumerated class")
    expected = len(keys) / len(support)
    stat = sum((counts.get(s, 0) - expected) ** 2 / expected for s in support)
    p = chi_square_upper_tail(stat, len(support) - 1)
    if p < alpha:
        raise CheckFailed(f"chi-square {stat:.1f} on {len(support) - 1} df, p = {p:.2e} < {alpha}")
    return stat, p
