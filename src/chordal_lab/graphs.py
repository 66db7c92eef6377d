"""Labeled graphs and the structural primitives behind the counting machinery.

Vertices are positive integers and the labels *are* the vertex identities, so
a graph on ``{2, 5, 9}`` is a different object from its relabeling onto
``{1, 2, 3}``.  Everything in this module is a pure function of its inputs;
``LabeledGraph`` instances are immutable and hashable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence


class NotChordalError(ValueError):
    """Raised when an operation that needs a chordal input detects a stall."""


class LabeledGraph:
    """An undirected graph whose vertex set is a finite set of positive ints.

    Edges are unordered pairs of distinct vertices.  Instances are immutable;
    operations such as :func:`relabel` and :func:`glue` return new graphs.
    """

    __slots__ = ("_vertices", "_adj", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex labels must be positive integers, got {v!r}")
            vset.add(v)
        adj: dict[int, set[int]] = {v: set() for v in vset}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            adj[u].add(v)
            adj[v].add(u)
        self._vertices: tuple[int, ...] = tuple(sorted(vset))
        self._adj: dict[int, frozenset[int]] = {v: frozenset(nb) for v, nb in adj.items()}
        self._hash: int | None = None

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in lexicographic order."""
        out: list[tuple[int, int]] = []
        for v in self._vertices:
            nb = sorted(self._adj[v])
            out += zip(repeat(v), nb[bisect_right(nb, v):])
        return out

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def induced(self, keep: Iterable[int]) -> "LabeledGraph":
        """The induced subgraph on the given vertex subset."""
        ks = set(keep)
        missing = ks - set(self._adj)
        if missing:
            raise ValueError(f"vertices {sorted(missing)} not in graph")
        return _from_adjacency({v: self._adj[v] & ks for v in sorted(ks)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, frozenset(self._adj.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LabeledGraph(vertices={list(self._vertices)}, edges={self.edges()})"


def _from_adjacency(adj: dict[int, frozenset[int]]) -> LabeledGraph:
    """A graph with the given neighbour sets, keyed in ascending order; unchecked."""
    g = LabeledGraph.__new__(LabeledGraph)
    g._vertices = tuple(adj)
    g._adj = adj
    g._hash = None
    return g


def graph_from_biadjacency(vertices: Iterable[int], clique: Iterable[int],
                           rows: Sequence[int], cols: Sequence[int],
                           matrix: bytes) -> LabeledGraph:
    """The graph on ``vertices`` with a clique on ``clique``, plus the edge
    ``rows[i]``--``cols[j]`` wherever byte ``i * len(cols) + j`` of ``matrix``
    is 1.

    Both sides' neighbours are read from the one matrix, along its rows and
    down its strided columns, so the input cannot describe an asymmetric
    graph.  Raises ValueError for a label that is not a positive int; for
    ``clique``, ``rows`` or ``cols`` reaching outside the vertex set; for a
    vertex repeated in ``rows`` or in ``cols``, or found in both; and for a
    matrix whose length is not ``len(rows) * len(cols)`` or that holds a byte
    other than 0 and 1.  Every check runs at C level per vertex, with no
    Python step per edge.
    """
    labels = list(vertices)
    if not all(map(isinstance, labels, repeat(int))) or (labels and min(labels) < 1):
        bad = next(v for v in labels if not isinstance(v, int) or v < 1)
        raise ValueError(f"vertex labels must be positive integers, got {bad!r}")
    vset = set(labels)
    clique = frozenset(clique)
    row_set, col_set = set(rows), set(cols)
    for name, part in (("clique", clique), ("rows", row_set), ("cols", col_set)):
        if not part <= vset:
            raise ValueError(f"{name} holds {next(iter(part - vset))!r}, which is not a vertex")
    if len(row_set) < len(rows) or len(col_set) < len(cols):
        raise ValueError("rows and cols must not repeat a vertex")
    if not row_set.isdisjoint(col_set):
        raise ValueError(f"vertex {next(iter(row_set & col_set))!r} is in both rows and cols")
    w = len(cols)
    if len(matrix) != len(rows) * w:
        raise ValueError(f"matrix has {len(matrix)} bytes, not {len(rows)} * {w}")
    if matrix.translate(None, b"\x00\x01"):
        raise ValueError("matrix bytes must be 0 or 1")
    # Lazy neighbour iterators first, each turned into its vertex's frozenset
    # by the last pass, so each row and column slice lives only until then.
    adj = dict.fromkeys(sorted(vset), ())
    for i, u in enumerate(rows):
        adj[u] = compress(cols, matrix[i * w:i * w + w])
    for j, v in enumerate(cols):
        adj[v] = compress(rows, matrix[j::w])
    for v, nb in adj.items():
        adj[v] = clique.union(nb).difference((v,)) if v in clique else frozenset(nb)
    return _from_adjacency(adj)


def complete_graph(labels: Iterable[int]) -> LabeledGraph:
    labs = list(labels)
    return graph_from_biadjacency(labs, labs, (), (), b"")


def complement(g: LabeledGraph) -> LabeledGraph:
    verts = frozenset(g.vertices)
    return _from_adjacency({v: verts.difference(g._adj[v], (v,)) for v in g.vertices})


def phi_map(a: Iterable[int], b: Iterable[int]) -> dict[int, int]:
    """The order-preserving bijection from one label set onto another.

    Maps the i-th smallest element of ``a`` to the i-th smallest of ``b``.
    """
    sa, sb = sorted(set(a)), sorted(set(b))
    if len(sa) != len(sb):
        raise ValueError(f"label sets differ in size: {len(sa)} vs {len(sb)}")
    return dict(zip(sa, sb))


def relabel(g: LabeledGraph, mapping: Mapping[int, int]) -> LabeledGraph:
    """Apply a partial injective relabeling; labels outside the domain stay put.

    The combined map (mapping on its domain, identity elsewhere) must be
    injective on V(g), so permuting a subset of the labels is allowed but a
    collision with an untouched label is an error.
    """
    vset = set(g.vertices)
    extra = set(mapping) - vset
    if extra:
        raise ValueError(f"mapping domain contains non-vertices {sorted(extra)}")
    full = {v: mapping.get(v, v) for v in vset}
    if len(set(full.values())) != len(full):
        raise ValueError("relabeling collides with untouched labels")
    new_edges = [(full[u], full[v]) for u, v in g.edges()]
    return LabeledGraph(full.values(), new_edges)


def glue(g1: LabeledGraph, g2: LabeledGraph, shared: Iterable[int]) -> LabeledGraph:
    """Union of two graphs that overlap in exactly the clique ``shared``.

    If both inputs are chordal the result is chordal again (a clique-sum of
    chordal graphs is chordal).
    """
    y = frozenset(shared)
    overlap = frozenset(g1.vertices) & frozenset(g2.vertices)
    if overlap != y:
        raise ValueError(f"vertex overlap {sorted(overlap)} differs from glue set {sorted(y)}")
    for g in (g1, g2):
        if not is_clique(g, y):
            raise ValueError("glue set is not a clique in both inputs")
    verts = set(g1.vertices) | set(g2.vertices)
    edges = set(g1.edges()) | set(g2.edges())
    return LabeledGraph(verts, edges)


def is_clique(g: LabeledGraph, vs: Iterable[int]) -> bool:
    s = frozenset(vs)
    return all(s <= g.neighbors(v) | {v} for v in s)


def is_independent_set(g: LabeledGraph, vs: Iterable[int]) -> bool:
    s = frozenset(vs)
    return all(not (g.neighbors(v) & s) for v in s)


def is_simplicial(g: LabeledGraph, v: int) -> bool:
    """True iff the neighborhood of ``v`` is a clique."""
    return is_clique(g, g.neighbors(v))


@dataclass(frozen=True)
class EvaporationSequence:
    """Layers of simultaneously removable simplicial vertices.

    ``layers[i]`` holds the vertices deleted in round ``i + 1`` when, starting
    from the full graph, every simplicial vertex outside ``exception_set`` is
    removed at once, round after round, until only the exception set remains.
    """

    exception_set: frozenset[int]
    layers: tuple[frozenset[int], ...]

    @property
    def evaporation_time(self) -> int:
        return len(self.layers)

    @property
    def last_layer(self) -> frozenset[int]:
        return self.layers[-1] if self.layers else frozenset()

    def round_of(self, v: int) -> int:
        """1-based round in which ``v`` disappears (0 if it never does)."""
        for i, layer in enumerate(self.layers):
            if v in layer:
                return i + 1
        return 0


def _evaporate(g: LabeledGraph, exception_set: frozenset[int]) -> list[frozenset[int]] | None:
    """Core peeling loop; returns the layers, or None on a stall."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    alive = set(g.vertices)
    layers: list[frozenset[int]] = []
    while len(alive) > len(exception_set):
        layer = set()
        for v in alive:
            if v in exception_set:
                continue
            nb = adj[v]
            if all(nb <= adj[u] | {u} for u in nb):
                layer.add(v)
        if not layer:
            return None
        for v in layer:
            for u in adj[v]:
                if u not in layer:
                    adj[u].discard(v)
            del adj[v]
        alive -= layer
        layers.append(frozenset(layer))
    return layers


def evaporation_sequence(g: LabeledGraph, exception_set: Iterable[int] = ()) -> EvaporationSequence:
    """Peel off all simplicial vertices round by round, sparing the exception set.

    The exception set must be a clique of g; the input must be chordal (a
    round that removes nothing while non-exception vertices remain raises
    :class:`NotChordalError` instead of looping forever).
    """
    xs = frozenset(exception_set)
    missing = xs - set(g.vertices)
    if missing:
        raise ValueError(f"exception set contains non-vertices {sorted(missing)}")
    if not is_clique(g, xs):
        raise ValueError("exception set must be a clique")
    layers = _evaporate(g, xs)
    if layers is None:
        raise NotChordalError("no simplicial vertex outside the exception set; graph is not chordal")
    return EvaporationSequence(exception_set=xs, layers=tuple(layers))


def is_chordal(g: LabeledGraph) -> bool:
    """True iff repeatedly deleting all simplicial vertices empties the graph."""
    return _evaporate(g, frozenset()) is not None


def max_clique_size(g: LabeledGraph) -> int:
    """Largest clique of a chordal graph, found along the peeling order.

    Equals the chromatic number; the graph is w-colorable iff the result
    is at most w.  Raises :class:`NotChordalError` on non-chordal input.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    alive = set(g.vertices)
    best = 0
    while alive:
        layer = set()
        for v in alive:
            nb = adj[v]
            if all(nb <= adj[u] | {u} for u in nb):
                layer.add(v)
        if not layer:
            raise NotChordalError("graph is not chordal")
        for v in layer:
            best = max(best, len(adj[v]) + 1)
        for v in layer:
            for u in adj[v]:
                if u not in layer:
                    adj[u].discard(v)
            del adj[v]
        alive -= layer
    return best


def connected_components(g: LabeledGraph) -> list[frozenset[int]]:
    """Components ordered by their smallest contained label."""
    seen: set[int] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in g.neighbors(v):
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: LabeledGraph) -> bool:
    return len(connected_components(g)) <= 1


@dataclass(frozen=True)
class SplitPartition:
    """The canonical three-way decomposition of a split graph.

    ``always_clique`` / ``always_independent`` hold the vertices that land on
    the clique / independent side in *every* split partition; ``questioning``
    holds the vertices that can go either way.
    """

    always_clique: frozenset[int]
    always_independent: frozenset[int]
    questioning: frozenset[int]


def _find_one_split_partition(g: LabeledGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Degree-sequence test; returns one (clique side, independent side) or None."""
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    n = len(order)
    m = 0
    for i in range(1, n + 1):
        if degs[i - 1] >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(min(d, m) for d in degs[m:])
    if lhs != rhs:
        return None
    cset, iset = frozenset(order[:m]), frozenset(order[m:])
    if not (is_clique(g, cset) and is_independent_set(g, iset)):
        raise AssertionError("degree-threshold partition failed verification")
    return cset, iset


def split_partition(g: LabeledGraph) -> SplitPartition | None:
    """Classify each vertex across all split partitions; None if not split.

    Walks the (small) space of split partitions by single-vertex moves from
    one witness partition, then reads off which vertices ever appear on each
    side.
    """
    first = _find_one_split_partition(g)
    if first is None:
        return None
    seen = {first}
    stack = [first]
    clique_ever: set[int] = set()
    indep_ever: set[int] = set()
    while stack:
        cset, iset = stack.pop()
        clique_ever |= cset
        indep_ever |= iset
        for v in cset:
            if not (g.neighbors(v) & iset):
                nxt = (cset - {v}, iset | {v})
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for u in iset:
            if cset <= g.neighbors(u):
                nxt = (cset | {u}, iset - {u})
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    verts = set(g.vertices)
    q = frozenset(clique_ever & indep_ever)
    return SplitPartition(
        always_clique=frozenset(verts - indep_ever),
        always_independent=frozenset(verts - clique_ever),
        questioning=q,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Edges per vertex from which one join per vertex writes the edge list faster
# than one f-string per edge after one sort of all edges (CPython 3.11 on
# x86-64, random graphs at n = 30, 100 and 300: the two cross between 4 and
# 5).  Samples of the bounded class average 1.7 edges per vertex and those of
# the exact class at n = 20 about 4.2; split samples at n = 1000 have 250.
_JOIN_DENSITY = 5


def to_edge_list_text(g: LabeledGraph) -> str:
    """Edge-list form: first line "n m", then one "u v" line per edge.

    Only defined for graphs whose vertex set is {1, ..., n}.
    """
    n = g.n
    if g.vertices != tuple(range(1, n + 1)):
        raise ValueError("edge-list form requires vertex set {1..n}")
    m = g.edge_count()
    adj = g._adj
    lines = [f"{n} {m}"]
    if m < _JOIN_DENSITY * n:
        pairs = sorted([(v, u) for v in g.vertices for u in adj[v] if u > v])
        lines += [f"{v} {u}" for v, u in pairs]
    else:
        # Label strings made once and shared by every line that uses them.
        names = list(map(str, range(n + 1)))
        for v in g.vertices:
            nb = sorted(adj[v])
            if nb and nb[-1] > v:
                above = map(names.__getitem__, nb[bisect_right(nb, v):])
                lines.append(f"{v} " + f"\n{v} ".join(above))
    lines.append("")
    return "\n".join(lines)


def from_edge_list_text(text: str) -> LabeledGraph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty edge-list input")
    n, m = (int(tok) for tok in rows[0].split())
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        u, v = (int(tok) for tok in ln.split())
        edges.append((u, v))
    return LabeledGraph(range(1, n + 1), edges)


def to_json_dict(g: LabeledGraph) -> dict:
    return {
        "n": g.n,
        "vertices": list(g.vertices),
        "edges": list(map(list, g.edges())),
    }


def from_json_dict(d: Mapping) -> LabeledGraph:
    return LabeledGraph(d["vertices"], [tuple(e) for e in d["edges"]])
