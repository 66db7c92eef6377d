"""Labeled graphs and the structural primitives behind the counting machinery.

Vertices are positive integers and the labels *are* the vertex identities, so
a graph on ``{2, 5, 9}`` is a different object from its relabeling onto
``{1, 2, 3}``.  Everything in this module is a pure function of its inputs;
``LabeledGraph`` instances are immutable and hashable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, filterfalse, islice, repeat
from operator import itemgetter, lt
from typing import Iterable, Mapping, Sequence


class NotChordalError(ValueError):
    """Raised when an operation that needs a chordal input detects a stall."""


class LabeledGraph:
    """An undirected graph whose vertex set is a finite set of positive ints.

    Edges are unordered pairs of distinct vertices.  Instances are immutable;
    operations such as :func:`relabel` and :func:`glue` return new graphs.

    Each vertex maps to one ascending tuple of its neighbours, keyed in
    ascending vertex order: the order in which :meth:`edges` and the writers
    list them, so reading a graph out sorts nothing.  :meth:`neighbors`
    builds a frozenset from that tuple on each call.
    """

    __slots__ = ("_vertices", "_adj", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        nbs: dict[int, set[int]] = {v: set() for v in _sorted_labels(vertices)}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            try:
                nbs[u].add(v)
                nbs[v].add(u)
            except KeyError:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set") from None
        self._vertices: tuple[int, ...] = tuple(nbs)
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(sorted(nb)) for v, nb in nbs.items()}
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
        for v, nb in self._adj.items():
            out += zip(repeat(v), nb[bisect_right(nb, v):])
        return out

    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nb = self._adj.get(u, ())
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._neighbor_tuple(v))

    def degree(self, v: int) -> int:
        return len(self._neighbor_tuple(v))

    def _neighbor_tuple(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in graph") from None

    def induced(self, keep: Iterable[int]) -> "LabeledGraph":
        """The induced subgraph on the given vertex subset."""
        ks = set(keep)
        missing = ks - set(self._adj)
        if missing:
            raise ValueError(f"vertices {sorted(missing)} not in graph")
        return _from_adjacency({v: tuple(filter(ks.__contains__, self._adj[v]))
                                for v in sorted(ks)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._adj.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"LabeledGraph(vertices={list(self._vertices)}, edges={self.edges()})"


def _sorted_labels(vertices: Iterable[int]) -> list[int]:
    """The distinct labels in ascending order; raises ValueError, naming the
    first offender, for a label that is not a positive int.  The check runs
    at C level."""
    labels = list(vertices)
    if not all(map(isinstance, labels, repeat(int))) or (labels and min(labels) < 1):
        bad = next(v for v in labels if not isinstance(v, int) or v < 1)
        raise ValueError(f"vertex labels must be positive integers, got {bad!r}")
    return sorted(set(labels))


def _from_adjacency(adj: dict[int, tuple[int, ...]]) -> LabeledGraph:
    """A graph with the given ascending neighbour tuples, keyed in ascending
    order; unchecked."""
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

    Each vertex's neighbour tuple is built straight from ``compress`` over
    the other side's labels, which is ascending when that side is.  A clique
    vertex's matrix neighbours are merged with the clique's sorted run
    without it, by one sort of the two ascending runs.  Only when both
    ``rows`` and ``cols`` meet the clique can an edge come from both, and
    only then is a set used to drop the repeats.
    """
    verts = _sorted_labels(vertices)
    vset = set(verts)
    clique_set, row_set, col_set = set(clique), set(rows), set(cols)
    for name, part in (("clique", clique_set), ("rows", row_set), ("cols", col_set)):
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
    # Lazy neighbour iterators first, each turned into its vertex's tuple by
    # the last pass, so each row and column slice lives only until then.
    # compress keeps the order of the side it reads, so a side given out of
    # order is sorted per vertex.
    rows_up, cols_up = _ascending(rows), _ascending(cols)
    adj = dict.fromkeys(verts, ())
    for i, u in enumerate(rows):
        nb = compress(cols, matrix[i * w:i * w + w])
        adj[u] = nb if cols_up else sorted(nb)
    for j, v in enumerate(cols):
        nb = compress(rows, matrix[j::w])
        adj[v] = nb if rows_up else sorted(nb)
    # A matrix edge can repeat a clique edge only when both sides meet the clique.
    repeats = not (row_set.isdisjoint(clique_set) or col_set.isdisjoint(clique_set))
    clique = sorted(clique_set)
    for i, v in enumerate(clique):
        nb = clique[:i] + clique[i + 1:]
        nb += adj[v]
        if repeats:
            nb = list(set(nb))
        nb.sort()
        adj[v] = nb
    for v, nb in adj.items():
        adj[v] = tuple(nb)
    return _from_adjacency(adj)


def _ascending(side: Sequence[int]) -> bool:
    return all(map(lt, side, islice(side, 1, None)))


def complete_graph(labels: Iterable[int]) -> LabeledGraph:
    labs = list(labels)
    return graph_from_biadjacency(labs, labs, (), (), b"")


def complement(g: LabeledGraph) -> LabeledGraph:
    verts = g.vertices
    return _from_adjacency({v: tuple(filterfalse({v, *nb}.__contains__, verts))
                            for v, nb in g._adj.items()})


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
    return LabeledGraph(g1.vertices + g2.vertices, g1.edges() + g2.edges())


def is_clique(g: LabeledGraph, vs: Iterable[int]) -> bool:
    s = frozenset(vs)
    return not any(s.difference(g._neighbor_tuple(v), (v,)) for v in s)


def is_independent_set(g: LabeledGraph, vs: Iterable[int]) -> bool:
    s = frozenset(vs)
    return all(s.isdisjoint(g._neighbor_tuple(v)) for v in s)


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


def _evaporate(g: LabeledGraph,
               exception_set: frozenset[int]) -> tuple[list[frozenset[int]], int] | None:
    """Core peeling loop; returns the layers and the largest closed
    neighbourhood a vertex has when it is peeled (0 if none is), or None on
    a stall."""
    adj = {v: set(nb) for v, nb in g._adj.items()}
    alive = set(g.vertices)
    layers: list[frozenset[int]] = []
    widest = 0
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
        widest = max(widest, 1 + max(len(adj[v]) for v in layer))
        for v in layer:
            for u in adj[v]:
                if u not in layer:
                    adj[u].discard(v)
            del adj[v]
        alive -= layer
        layers.append(frozenset(layer))
    return layers, widest


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
    peeled = _evaporate(g, xs)
    if peeled is None:
        raise NotChordalError("no simplicial vertex outside the exception set; graph is not chordal")
    return EvaporationSequence(exception_set=xs, layers=tuple(peeled[0]))


def is_chordal(g: LabeledGraph) -> bool:
    """True iff repeatedly deleting all simplicial vertices empties the graph."""
    return _evaporate(g, frozenset()) is not None


def max_clique_size(g: LabeledGraph) -> int:
    """Largest clique of a chordal graph, found along the peeling order.

    Equals the chromatic number; the graph is w-colorable iff the result
    is at most w.  Raises :class:`NotChordalError` on non-chordal input.
    """
    peeled = _evaporate(g, frozenset())
    if peeled is None:
        raise NotChordalError("graph is not chordal")
    return peeled[1]


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
            for u in g._adj[v]:
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
    adj = g._adj
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    degs = [len(adj[v]) for v in order]
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
    nbs = {v: frozenset(nb) for v, nb in g._adj.items()}
    seen = {first}
    stack = [first]
    clique_ever: set[int] = set()
    indep_ever: set[int] = set()
    while stack:
        cset, iset = stack.pop()
        clique_ever |= cset
        indep_ever |= iset
        for v in cset:
            if nbs[v].isdisjoint(iset):
                nxt = (cset - {v}, iset | {v})
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for u in iset:
            if cset <= nbs[u]:
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

def to_edge_list_text(g: LabeledGraph) -> str:
    """Edge-list form: first line "n m", then one "u v" line per edge.

    Only defined for graphs whose vertex set is {1, ..., n}.  Each vertex's
    lines are the part of its neighbour tuple above it, already in order,
    written with one join.
    """
    n = g.n
    if g.vertices != tuple(range(1, n + 1)):
        raise ValueError("edge-list form requires vertex set {1..n}")
    # Label strings made once and shared by every line that uses them.
    names = list(map(str, range(n + 1)))
    lines = [f"{n} {g.edge_count()}"]
    for v, nb in g._adj.items():
        if nb and nb[-1] > v:
            above = nb[bisect_right(nb, v):]
            head = names[v] + " "
            if len(above) > 1:
                lines.append(head + ("\n" + head).join(itemgetter(*above)(names)))
            else:
                # itemgetter of one index returns the string, not a 1-tuple.
                lines.append(head + names[above[0]])
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
