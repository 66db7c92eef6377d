"""Independent ground truth at tiny n: exhaustive enumeration and statistics.

Everything here works from first principles (enumerate all 2**C(n,2) labeled
graphs and test definitions directly) so it can cross-check the counting
tables, the samplers, and the split-graph formulas without sharing any code
path with them; only the names of the class arguments come from the counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

try:
    import numpy as np
    from scipy.stats import chi2
except ImportError as exc:
    raise ImportError("chordal_lab.bruteforce, the test oracle, needs numpy and scipy: "
                      "pip install -e .[test]") from exc

from .counting import class_params
from .graphs import (
    LabeledGraph,
    connected_components,
    evaporation_sequence,
    is_clique,
    is_connected,
)

MAX_ENUM_N = 7  # 2**21 graphs; anything larger is out of the oracle's envelope


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def graph_from_bitmask(n: int, mask: int) -> LabeledGraph:
    """Graph on [n] whose edge set is encoded by bits over the sorted pair list."""
    edges = [p for i, p in enumerate(_pairs(n)) if mask >> i & 1]
    return LabeledGraph(range(1, n + 1), edges)


def bitmask_of(g: LabeledGraph) -> int:
    """Canonical edge-set bitmask of a graph with vertex set [n]."""
    n = g.n
    if g.vertices != tuple(range(1, n + 1)):
        raise ValueError("bitmask form requires vertex set {1..n}")
    mask = 0
    for i, (u, v) in enumerate(_pairs(n)):
        if g.has_edge(u, v):
            mask |= 1 << i
    return mask


def enumerate_graphs(n: int) -> Iterator[LabeledGraph]:
    """All labeled graphs on [n], once each, in edge-bitmask order."""
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_ENUM_N}")
    m = n * (n - 1) // 2
    for mask in range(1 << m):
        yield graph_from_bitmask(n, mask)


# ---------------------------------------------------------------------------
# Fast bitmask predicates (pure-python ints, one graph at a time)
# ---------------------------------------------------------------------------

def _adjacency_masks(n: int, mask: int, pair_list: Sequence[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for i, (u, v) in enumerate(pair_list):
        if mask >> i & 1:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
    return adj


def _chordal_profile_one(n: int, adj: list[int]) -> tuple[bool, int]:
    """(is chordal, max clique size) by repeated simplicial peeling on bitmasks."""
    alive = (1 << n) - 1
    best = 0
    while alive:
        layer = 0
        a = alive
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            nb = adj[v] & alive
            ok = True
            b = nb
            while b:
                u = (b & -b).bit_length() - 1
                b &= b - 1
                if nb & ~(adj[u] | (1 << u)):
                    ok = False
                    break
            if ok:
                layer |= 1 << v
                size = nb.bit_count() + 1
                if size > best:
                    best = size
        if layer == 0:
            return False, 0
        alive &= ~layer
    return True, best


def _connected_mask(n: int, adj: list[int]) -> bool:
    if n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


@dataclass
class BruteCounts:
    """Exhaustive counts over all labeled graphs on [n]."""

    n: int
    chordal_all: dict[int, int]        # omega -> count of omega-colorable chordal graphs
    chordal_connected: dict[int, int]  # omega -> count, connected only
    split_total: int
    split_q0: int
    split_q1: int
    split_q_ge2: int
    chordal_graphs: tuple[tuple[int, int, bool], ...] | None = None
    # each entry: (edge bitmask, max clique size, connected)


def brute_counts(n: int, include_graphs: bool = False) -> BruteCounts:
    """Classify every labeled graph on [n] by direct testing."""
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"brute force supports 0 <= n <= {MAX_ENUM_N}")
    pair_list = _pairs(n)
    by_clique_all = [0] * (n + 2)
    by_clique_conn = [0] * (n + 2)
    graphs: list[tuple[int, int, bool]] = []
    for mask in range(1 << len(pair_list)):
        adj = _adjacency_masks(n, mask, pair_list)
        chordal, mc = _chordal_profile_one(n, adj)
        if not chordal:
            continue
        conn = _connected_mask(n, adj)
        by_clique_all[mc] += 1
        if conn:
            by_clique_conn[mc] += 1
        if include_graphs:
            graphs.append((mask, mc, conn))
    chordal_all = {}
    chordal_connected = {}
    for omega in range(1, n + 1):
        chordal_all[omega] = sum(by_clique_all[: omega + 1])
        chordal_connected[omega] = sum(by_clique_conn[: omega + 1])
    total, q0, q1, qge2 = split_class_counts(n)
    return BruteCounts(
        n=n,
        chordal_all=chordal_all,
        chordal_connected=chordal_connected,
        split_total=total,
        split_q0=q0,
        split_q1=q1,
        split_q_ge2=qge2,
        chordal_graphs=tuple(graphs) if include_graphs else None,
    )


def split_class_counts(n: int) -> tuple[int, int, int, int]:
    """(total split, |Q|=0, |Q|=1, |Q|>=2) over all labeled graphs on [n].

    Vectorized over every graph at once: a subset S is a split witness iff all
    pairs inside S are edges and all pairs outside are non-edges; a vertex is
    questioning iff some witness puts it on each side.
    """
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"brute force supports 0 <= n <= {MAX_ENUM_N}")
    pair_list = _pairs(n)
    m = len(pair_list)
    masks = np.arange(1 << m, dtype=np.uint32)
    clique_side = np.zeros(1 << m, dtype=np.uint8)
    indep_side = np.zeros(1 << m, dtype=np.uint8)
    any_split = np.zeros(1 << m, dtype=bool)
    full = (1 << n) - 1
    for s in range(1 << n):
        inside = 0
        outside = 0
        for i, (u, v) in enumerate(pair_list):
            bu, bv = 1 << (u - 1), 1 << (v - 1)
            if s & bu and s & bv:
                inside |= 1 << i
            elif not (s & bu) and not (s & bv):
                outside |= 1 << i
        ok = ((masks & inside) == inside) & ((masks & outside) == 0)
        any_split |= ok
        clique_side[ok] |= s
        indep_side[ok] |= (~s) & full
    popcount = np.array([bin(i).count("1") for i in range(1 << max(n, 1))], dtype=np.uint8)
    q_size = popcount[clique_side & indep_side]
    total = int(any_split.sum())
    q0 = int((any_split & (q_size == 0)).sum())
    q1 = int((any_split & (q_size == 1)).sum())
    qge2 = int((any_split & (q_size >= 2)).sum())
    return total, q0, q1, qge2


# ---------------------------------------------------------------------------
# Direct membership tests for the counted graph classes
# ---------------------------------------------------------------------------

def _component_round(ev, comp: frozenset[int]) -> int:
    return max(ev.round_of(v) for v in comp)


def check_class_membership(kind: str, args: Sequence[int], g: LabeledGraph,
                           omega: int) -> bool:
    """Test one graph against the definition of a counted class.

    ``args`` matches the counter signature, as ``counting.CLASS_ARGS`` names it.
    """
    from .graphs import is_chordal, max_clique_size

    t, x, l, k, z = class_params(kind, args)
    pinned = kind.startswith("pinned")
    if g.vertices != tuple(range(1, x + l + k + 1)):
        return False
    if not is_chordal(g):
        return False
    if max_clique_size(g) > omega:
        return False
    if not is_connected(g):
        return False
    root = frozenset(range(1, x + 1))
    if not is_clique(g, root):
        return False
    ev = evaporation_sequence(g, root)

    if pinned:
        layer = frozenset(range(x + 1, x + l + 1))
        if ev.evaporation_time != t or ev.last_layer != layer:
            return False
        if not is_clique(g, root | layer):
            return False
        cut = z if kind == "pinned_proper_z" else x
        outside = [v for v in g.vertices if v > cut]
        if outside and len(connected_components(g.induced(outside))) > 1:
            return False
        if kind == "pinned":
            return True
        hull = root | layer
        rest = [v for v in g.vertices if v not in hull]
        comps = connected_components(g.induced(rest)) if rest else []
        if not comps:
            return False
        if any(_component_round(ev, c) != t - 1 for c in comps):
            return False
        if kind == "pinned_exact":
            return True
        # proper kinds: no component adjacent to all of root-plus-layer
        for c in comps:
            nb = set()
            for v in c:
                nb |= g.neighbors(v)
            if hull <= nb:
                return False
        return True

    # root-only kinds
    free = [v for v in g.vertices if v > x]
    comps = connected_components(g.induced(free)) if free else []
    if kind in ("within", "exact", "exact_proper"):
        upper = frozenset(range(z + 1, x + 1))
        for c in comps:
            nb = set()
            for v in c:
                nb |= g.neighbors(v)
            if not (nb & upper):
                return False
    if kind == "within":
        return ev.evaporation_time <= t
    if any(_component_round(ev, c) != t for c in comps):
        return False
    if kind == "exact":
        return True
    sees_all = []
    for c in comps:
        nb = set()
        for v in c:
            nb |= g.neighbors(v)
        sees_all.append(root <= nb)
    if kind == "exact_proper":
        return not any(sees_all)
    if kind == "exact_single":
        return len(comps) == 1 and all(sees_all)
    if kind == "exact_multi":
        return len(comps) >= 2 and all(sees_all)
    raise AssertionError(kind)


def class_members(kind: str, args: Sequence[int], omega: int) -> list[LabeledGraph]:
    """All members of a counted class, by filtering the full enumeration."""
    _, x, l, k, _ = class_params(kind, args)
    return [g for g in enumerate_graphs(x + l + k)
            if check_class_membership(kind, args, g, omega)]


# ---------------------------------------------------------------------------
# Uniformity testing
# ---------------------------------------------------------------------------

@dataclass
class UniformityResult:
    statistic: float
    threshold: float
    df: int
    passed: bool
    message: str = ""


def uniformity_test(samples: Sequence, support: Sequence,
                    significance: float = 0.999) -> UniformityResult:
    """Pearson chi-square of observed sample frequencies against uniform.

    Fails immediately (statistic inf) if any sample falls outside the support.
    """
    if not support:
        raise ValueError("support must be nonempty")
    index = {item: i for i, item in enumerate(support)}
    if len(index) != len(support):
        raise ValueError("support contains duplicates")
    counts = [0] * len(support)
    for s in samples:
        i = index.get(s)
        if i is None:
            return UniformityResult(
                statistic=float("inf"), threshold=0.0, df=len(support) - 1,
                passed=False, message=f"sample outside support: {s!r}")
        counts[i] += 1
    total = len(samples)
    expected = total / len(support)
    stat = sum((c - expected) ** 2 for c in counts) / expected
    df = len(support) - 1
    threshold = float(chi2.ppf(significance, df)) if df > 0 else 0.0
    passed = stat <= threshold if df > 0 else True
    return UniformityResult(statistic=stat, threshold=threshold, df=df, passed=passed)
