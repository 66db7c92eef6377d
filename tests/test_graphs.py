import json
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordal_lab.graphs import (
    LabeledGraph,
    NotChordalError,
    complement,
    complete_graph,
    connected_components,
    evaporation_sequence,
    from_edge_list_text,
    from_json_dict,
    glue,
    graph_from_biadjacency,
    is_chordal,
    is_clique,
    is_connected,
    is_independent_set,
    is_simplicial,
    max_clique_size,
    phi_map,
    relabel,
    split_partition,
    to_edge_list_text,
    to_json_dict,
)
from chordal_lab.bruteforce import enumerate_graphs
from chordal_lab.sampling import RandomStream
from chordal_lab.splits import _build_low_q, approx_sample_chordal
from conftest import adjacency_masks_of, has_long_induced_cycle, random_chordal_graph


def path(*labels):
    return LabeledGraph(labels, list(zip(labels, labels[1:])))


def random_labeled_graph(seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Labels and edges of a seeded G(n, p) graph, with gapped labels on odd seeds."""
    rnd = random.Random(seed)
    n = rnd.randrange(0, 40)
    labels = rnd.sample(range(1, 4 * n + 2), n) if seed % 2 else list(range(1, n + 1))
    p = rnd.choice([0.0, 0.05, 0.2, 0.5, 0.9, 1.0])
    edges = [(u, v) if rnd.random() < 0.5 else (v, u)
             for u, v in combinations(labels, 2) if rnd.random() < p]
    return labels, edges


def random_biadjacency(seed: int):
    """A seeded input of ``graph_from_biadjacency``: labels, clique, rows,
    cols and matrix.

    Odd seeds gap the labels.  The clique is the rows or the cols (the split
    sampler's two orientations), on some seeds plus a witness vertex in
    neither; rows or cols are empty on some seeds, and the vertices left over
    are isolated.
    """
    rnd = random.Random(seed)
    n = rnd.randrange(0, 30)
    labels = rnd.sample(range(1, 4 * n + 2), n) if seed % 2 else list(range(1, n + 1))
    pool = rnd.sample(labels, n)
    k = rnd.randrange(0, n + 1)
    h = rnd.randrange(0, n - k + 1)
    rows, cols, rest = pool[:k], pool[k:k + h], pool[k + h:]
    clique = list(rows if rnd.random() < 0.5 else cols)
    if rest and rnd.random() < 0.5:
        clique.append(rest[0])
    p = rnd.choice([0.0, 0.3, 0.7, 1.0])
    matrix = bytes(rnd.random() < p for _ in range(len(rows) * len(cols)))
    return labels, clique, rows, cols, matrix


def biadjacency_edges(clique, rows, cols, matrix) -> list[tuple[int, int]]:
    """Every edge a ``graph_from_biadjacency`` input describes, pair by pair."""
    w = len(cols)
    return list(combinations(clique, 2)) + [
        (u, cols[j]) for i, u in enumerate(rows) for j in range(w) if matrix[i * w + j]]


def seed_edges(g: LabeledGraph) -> list[tuple[int, int]]:
    """``LabeledGraph.edges`` as first written: collect (min, max) pairs, sort."""
    return sorted((v, u) for v in g.vertices for u in g.neighbors(v) if v < u)


def seed_edge_list_text(g: LabeledGraph) -> str:
    """``to_edge_list_text`` as first written: one line per sorted edge."""
    lines = [f"{g.n} {g.edge_count()}"] + [f"{u} {v}" for u, v in seed_edges(g)]
    return "\n".join(lines) + "\n"


class TestLabeledGraph:
    def test_basic_construction(self):
        g = LabeledGraph([3, 1, 2], [(1, 2), (2, 3)])
        assert g.vertices == (1, 2, 3)
        assert g.edges() == [(1, 2), (2, 3)]
        assert g.neighbors(2) == {1, 3}
        assert g.degree(2) == 2 and g.degree(1) == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LabeledGraph([1, 2], [(1, 1)])

    def test_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            LabeledGraph([1, 2], [(1, 3)])

    def test_rejects_nonpositive_labels(self):
        with pytest.raises(ValueError):
            LabeledGraph([0, 1])

    def test_vertex_set_need_not_be_prefix(self):
        g = LabeledGraph([7, 42])
        assert g.vertices == (7, 42)

    def test_duplicate_edges_collapse(self):
        g = LabeledGraph([1, 2], [(1, 2), (2, 1)])
        assert g.edge_count() == 1

    def test_equality_and_hash(self):
        g1 = LabeledGraph([1, 2, 3], [(1, 2)])
        g2 = LabeledGraph([3, 2, 1], [(2, 1)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != LabeledGraph([1, 2, 3], [(1, 3)])

    def test_induced(self):
        g = path(1, 2, 3)
        h = g.induced([1, 2])
        assert h.vertices == (1, 2) and h.edges() == [(1, 2)]

    @pytest.mark.parametrize("seed", range(40))
    def test_edges_match_sorted_pairs(self, seed):
        g = LabeledGraph(*random_labeled_graph(seed))
        assert g.edges() == seed_edges(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_hash_agrees_across_constructions(self, seed):
        labels, clique, rows, cols, matrix = random_biadjacency(seed)
        edges = biadjacency_edges(clique, rows, cols, matrix)
        g1 = LabeledGraph(labels, edges)
        g2 = graph_from_biadjacency(reversed(labels), clique, rows, cols, matrix)
        g3 = LabeledGraph(labels, [(v, u) for u, v in reversed(edges)])
        assert g1 == g2 == g3 and hash(g1) == hash(g2) == hash(g3)


class TestGraphFromNeighbors:
    """``graph_from_biadjacency``: every vertex's neighbours read from one
    clique and one biadjacency matrix."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_edge_constructor(self, seed):
        labels, clique, rows, cols, matrix = random_biadjacency(seed)
        g = graph_from_biadjacency(labels, clique, rows, cols, matrix)
        want = LabeledGraph(labels, biadjacency_edges(clique, rows, cols, matrix))
        assert g == want
        assert g.vertices == want.vertices and g.edges() == want.edges()
        assert all(type(g.neighbors(v)) is frozenset for v in g.vertices)

    def test_random_inputs_cover_every_shape(self):
        shapes = set()
        for seed in range(40):
            labels, clique, rows, cols, matrix = random_biadjacency(seed)
            if labels != list(range(1, len(labels) + 1)):
                shapes.add("gapped")
            if rows and set(rows) <= set(clique):
                shapes.add("clique rows")
            if cols and set(cols) <= set(clique):
                shapes.add("clique cols")
            if set(clique) - set(rows) - set(cols):
                shapes.add("witness")
            if cols and not rows:
                shapes.add("no rows")
            if rows and not cols:
                shapes.add("no cols")
            if 0 < matrix.count(1) < len(matrix):
                shapes.add("mixed matrix")
        assert shapes >= {"gapped", "clique rows", "clique cols", "witness",
                          "no rows", "no cols", "mixed matrix"}

    def test_unnamed_vertices_are_isolated(self):
        g = graph_from_biadjacency([5, 2, 9, 4], [], [2], [9], b"\x01")
        assert g == LabeledGraph([2, 4, 5, 9], [(2, 9)])

    def test_witness_joins_the_clique(self):
        g = graph_from_biadjacency(range(1, 6), [1, 2, 5], [3, 4], [1, 2],
                                   b"\x00\x01\x01\x00")
        assert g.edges() == [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5)]

    @pytest.mark.parametrize("label", ["3", 2.0, None])
    def test_rejects_non_int_label(self, label):
        with pytest.raises(ValueError, match="positive integers"):
            graph_from_biadjacency([1, label], [], [], [], b"")

    def test_rejects_label_zero(self):
        with pytest.raises(ValueError, match="positive integers"):
            graph_from_biadjacency([0, 1], [1], [], [], b"")

    def test_rejects_clique_outside_vertex_set(self):
        with pytest.raises(ValueError, match="clique holds 3, which is not a vertex"):
            graph_from_biadjacency([1, 2], [1, 3], [], [], b"")

    def test_rejects_neighbour_outside_vertex_set(self):
        with pytest.raises(ValueError, match="rows holds 3, which is not a vertex"):
            graph_from_biadjacency([1, 2], [], [3], [1], b"\x01")
        with pytest.raises(ValueError, match="cols holds 3, which is not a vertex"):
            graph_from_biadjacency([1, 2], [], [1], [2, 3], b"\x01\x00")

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="must not repeat"):
            graph_from_biadjacency([1, 2, 3], [], [1, 1], [2], b"\x01\x01")
        with pytest.raises(ValueError, match="must not repeat"):
            graph_from_biadjacency([1, 2, 3], [], [1], [2, 3, 2], b"\x00\x01\x00")

    def test_rejects_self_loop(self):
        # A vertex in both rows and cols could be joined to itself.
        with pytest.raises(ValueError, match="vertex 2 is in both rows and cols"):
            graph_from_biadjacency([1, 2, 3], [], [1, 2], [2, 3], b"\x00\x00\x01\x00")

    @pytest.mark.parametrize("matrix", [b"", b"\x01", b"\x01\x00\x01"])
    def test_rejects_matrix_of_wrong_length(self, matrix):
        with pytest.raises(ValueError, match="not 1 \\* 2"):
            graph_from_biadjacency([1, 2, 3], [], [1], [2, 3], matrix)

    @pytest.mark.parametrize("matrix", [b"\x01\x02", b"01", b"\x00\xff"])
    def test_rejects_matrix_bytes_other_than_0_and_1(self, matrix):
        with pytest.raises(ValueError, match="0 or 1"):
            graph_from_biadjacency([1, 2, 3], [], [1], [2, 3], matrix)


def route_edges(seed):
    """Edge constructor, each edge given in both orientations and some twice."""
    labels, edges = random_labeled_graph(seed)
    given = edges + [(v, u) for u, v in reversed(edges)] + edges[::3]
    return LabeledGraph(labels, given), labels, edges


def route_biadjacency(seed):
    """Rows and cols in the random order of ``random_biadjacency``."""
    labels, clique, rows, cols, matrix = random_biadjacency(seed)
    g = graph_from_biadjacency(reversed(labels), clique, rows, cols, matrix)
    return g, labels, biadjacency_edges(clique, rows, cols, matrix)


def route_biadjacency_clique_across(seed):
    """The clique meets both rows and cols, so a matrix edge can repeat a
    clique edge."""
    labels, _, rows, cols, matrix = random_biadjacency(seed)
    clique = rows[::2] + cols[::2]
    g = graph_from_biadjacency(labels, clique, rows, cols, matrix)
    return g, labels, biadjacency_edges(clique, rows, cols, matrix)


def route_induced(seed):
    labels, edges = random_labeled_graph(seed)
    if seed % 2:
        keep = random.Random(seed).sample(labels, len(labels) // 2)
    else:
        keep = labels[:len(labels) // 2]
    ks = set(keep)
    want = [(u, v) for u, v in edges if u in ks and v in ks]
    return LabeledGraph(labels, edges).induced(keep), keep, want


def route_complement(seed):
    labels, edges = random_labeled_graph(seed)
    present = set(map(frozenset, edges))
    want = [p for p in combinations(labels, 2) if frozenset(p) not in present]
    return complement(LabeledGraph(labels, edges)), labels, want


def route_complete_graph(seed):
    labels, _ = random_labeled_graph(seed)
    shuffled = random.Random(seed).sample(labels, len(labels))
    return complete_graph(shuffled), labels, list(combinations(labels, 2))


def route_edge_list_text(seed):
    """Lines shuffled, each edge in a random orientation."""
    labels, edges = random_labeled_graph(seed)
    n = max(labels, default=0)
    rnd = random.Random(seed)
    lines = [f"{v} {u}" if rnd.random() < 0.5 else f"{u} {v}" for u, v in edges]
    rnd.shuffle(lines)
    text = "\n".join([f"{n} {len(edges)}"] + lines) + "\n"
    return from_edge_list_text(text), range(1, n + 1), edges


def route_split_sample(seed):
    """A split sampler draw at n = 200: |Q| = 0 or 1, with the cyan side as
    rows or as cols."""
    n, c, with_witness = 200, (90, 110)[seed % 2], seed % 4 >= 2
    rng = RandomStream(seed)
    draw = None
    while draw is None:
        draw = _build_low_q(n, c, with_witness, rng)
    g = draw.graph
    clique = sorted(draw.cyan | draw.swing)
    want = list(combinations(clique, 2)) + [
        (u, v) for u in draw.indigo for v in draw.cyan if g.has_edge(u, v)]
    return g, range(1, n + 1), want


GRAPH_ROUTES = [route_edges, route_biadjacency, route_biadjacency_clique_across,
                route_induced, route_complement, route_complete_graph,
                route_edge_list_text, route_split_sample]


class TestNeighbourTuples:
    """Every route that builds a graph stores each vertex's neighbours as one
    strictly increasing tuple, and every reader agrees with the definition."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("route", GRAPH_ROUTES, ids=lambda r: r.__name__[6:])
    def test_route_stores_sorted_symmetric_tuples(self, route, seed):
        g, vertices, edges = route(seed)
        want = sorted({(min(e), max(e)) for e in edges})
        adj = g._adj
        assert list(adj) == sorted(set(vertices)) == list(g.vertices)
        for v, nb in adj.items():
            assert type(nb) is tuple
            assert all(a < b for a, b in zip(nb, nb[1:]))
            assert v not in nb and all(v in adj[u] for u in nb)
            assert type(g.neighbors(v)) is frozenset and g.neighbors(v) == set(nb)
            assert g.degree(v) == len(nb)
        assert g.edges() == seed_edges(g) == want
        if g.vertices == tuple(range(1, g.n + 1)):
            assert to_edge_list_text(g) == seed_edge_list_text(g)
        other = LabeledGraph(sorted(vertices, reverse=True), [(v, u) for u, v in want])
        assert g == other and hash(g) == hash(other)

    def test_routes_reach_canonical_and_gapped_labels(self):
        canonical = {r.__name__ for r in GRAPH_ROUTES for seed in range(8)
                     if (g := r(seed)[0]).n > 1 and g.vertices == tuple(range(1, g.n + 1))}
        gapped = {r.__name__ for r in GRAPH_ROUTES for seed in range(8)
                  if (g := r(seed)[0]).vertices != tuple(range(1, g.n + 1))}
        names = {r.__name__ for r in GRAPH_ROUTES}
        assert canonical == names
        assert gapped == names - {"route_edge_list_text", "route_split_sample"}

    def test_has_edge_bisects_the_tuple(self):
        g = LabeledGraph([2, 5, 9, 12], [(2, 9), (9, 12)])
        assert [g.has_edge(9, u) for u in (1, 2, 5, 9, 12, 13)] == [
            False, True, False, False, True, False]
        assert not g.has_edge(7, 9) and not g.has_edge(9, 7)

    def test_split_sample_retains_at_most_8_mb(self):
        # About 250k edges: ascending tuples hold them in about 4 MB, where a
        # frozenset per vertex held about 20 MB.
        rng = RandomStream(2025)
        approx_sample_chordal(1000, "1e-3", rng)  # builds the plan
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = approx_sample_chordal(1000, "1e-3", rng)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.edge_count() > 200_000
        assert kept <= 8_000_000


class TestPhiMap:
    def test_increasing_order_pairing(self):
        assert phi_map({2, 5, 9}, {1, 3, 4}) == {2: 1, 5: 3, 9: 4}

    def test_identity_singleton(self):
        assert phi_map({7}, {7}) == {7: 7}

    def test_empty(self):
        assert phi_map(set(), set()) == {}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            phi_map({1, 2}, {5})

    @given(st.sets(st.integers(1, 100), max_size=8), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_is_identity(self, labels, seed):
        g = random_chordal_graph(seed, max(len(labels), 1))
        pool = sorted(labels | {101, 102, 103, 104, 105, 106, 107, 108})[: g.n]
        fwd = phi_map(g.vertices, pool)
        back = phi_map(pool, g.vertices)
        assert relabel(relabel(g, fwd), back) == g


class TestRelabel:
    def test_simple_move(self):
        assert relabel(path(1, 2, 3), {1: 4}) == path(4, 2, 3)

    def test_identity(self):
        g = complete_graph([1, 2])
        assert relabel(g, {1: 1, 2: 2}) == g

    def test_collision_rejected(self):
        with pytest.raises(ValueError):
            relabel(path(1, 2, 3), {2: 3})

    def test_permutation_of_domain_allowed(self):
        g = path(1, 2, 3)
        assert relabel(g, {1: 3, 3: 1}) == path(3, 2, 1)

    def test_domain_outside_graph_rejected(self):
        with pytest.raises(ValueError):
            relabel(path(1, 2, 3), {9: 10})


class TestGlue:
    def test_triangles_at_edge(self):
        g1 = complete_graph([1, 2, 3])
        g2 = complete_graph([2, 3, 4])
        g = glue(g1, g2, {2, 3})
        assert g.n == 4 and g.edge_count() == 5
        assert is_chordal(g)

    def test_disjoint_union(self):
        g = glue(path(1, 2), LabeledGraph([5]), set())
        assert g.vertices == (1, 2, 5) and g.edge_count() == 1

    def test_full_overlap_is_idempotent(self):
        k2 = complete_graph([1, 2])
        assert glue(k2, k2, {1, 2}) == k2

    def test_overlap_mismatch_rejected(self):
        with pytest.raises(ValueError):
            glue(complete_graph([1, 2, 3]), complete_graph([3, 4]), {2, 3})

    def test_nonclique_interface_rejected(self):
        g1 = path(1, 2, 3)  # {1,3} not a clique here
        g2 = LabeledGraph([1, 3, 5], [(1, 5), (3, 5), (1, 3)])
        with pytest.raises(ValueError):
            glue(g1, g2, {1, 3})

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_preserves_chordality(self, seed):
        import random

        rnd = random.Random(seed)
        g1 = random_chordal_graph(seed, rnd.randint(2, 7))
        adj = {v: set(g1.neighbors(v)) for v in g1.vertices}
        from conftest import grow_clique

        shared = grow_clique(rnd, adj, rnd.choice(g1.vertices))
        extra = rnd.randint(1, 4)
        g2 = complete_graph(shared)
        label = max(g1.vertices) + 1
        for _ in range(extra):
            adj2 = {v: set(g2.neighbors(v)) for v in g2.vertices}
            att = grow_clique(rnd, adj2, rnd.choice(g2.vertices))
            g2 = LabeledGraph(list(g2.vertices) + [label],
                              g2.edges() + [(u, label) for u in att])
            label += 1
        glued = glue(g1, g2, shared)
        assert is_chordal(glued)


class TestSimplicial:
    def test_path_endpoints(self):
        g = path(1, 2, 3)
        assert is_simplicial(g, 1) and is_simplicial(g, 3)
        assert not is_simplicial(g, 2)

    def test_complete_graph_all_simplicial(self):
        g = complete_graph([1, 2, 3, 4])
        assert all(is_simplicial(g, v) for v in g.vertices)

    def test_missing_vertex(self):
        with pytest.raises(ValueError):
            is_simplicial(path(1, 2), 9)


class TestEvaporation:
    def test_path_layers(self):
        ev = evaporation_sequence(path(1, 2, 3))
        assert ev.layers == (frozenset({1, 3}), frozenset({2}))
        assert ev.evaporation_time == 2
        assert ev.last_layer == {2}
        assert ev.round_of(1) == 1 and ev.round_of(2) == 2

    def test_complete_graph_single_layer(self):
        for n in (1, 3, 5):
            ev = evaporation_sequence(complete_graph(range(1, n + 1)))
            assert ev.layers == (frozenset(range(1, n + 1)),)

    def test_full_exception_set_is_empty_sequence(self):
        g = complete_graph([1, 2, 3])
        ev = evaporation_sequence(g, {1, 2, 3})
        assert ev.layers == () and ev.last_layer == frozenset()

    def test_exception_set_shapes_layers(self):
        # holding the center of a path keeps it out of every layer
        ev = evaporation_sequence(path(1, 2, 3), {2})
        assert ev.layers == (frozenset({1, 3}),)

    def test_non_chordal_raises(self):
        c4 = LabeledGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(NotChordalError):
            evaporation_sequence(c4)

    def test_nonclique_exception_rejected(self):
        with pytest.raises(ValueError):
            evaporation_sequence(path(1, 2, 3), {1, 3})

    def test_exception_outside_graph_rejected(self):
        with pytest.raises(ValueError):
            evaporation_sequence(path(1, 2), {5})

    @given(st.integers(0, 10 ** 6), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_layers_partition_and_are_nonempty(self, seed, n):
        g = random_chordal_graph(seed, n)
        ev = evaporation_sequence(g)
        assert all(ev.layers), "every layer must be nonempty"
        union = set()
        for layer in ev.layers:
            assert not (layer & union), "layers must be disjoint"
            union |= layer
        assert union == set(g.vertices)

    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_layer_components_are_cliques(self, seed, n):
        g = random_chordal_graph(seed, n)
        ev = evaporation_sequence(g)
        for layer in ev.layers:
            for comp in connected_components(g.induced(layer)):
                assert is_clique(g, comp)

    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_root_plus_last_layer_clique(self, seed, n):
        import random

        rnd = random.Random(seed ^ 0x5EED)
        g = random_chordal_graph(seed, n)
        adj = {v: set(g.neighbors(v)) for v in g.vertices}
        from conftest import grow_clique

        x = frozenset(grow_clique(rnd, adj, rnd.choice(g.vertices)))
        if x == set(g.vertices):
            return
        rest = [v for v in g.vertices if v not in x]
        if not is_connected(g.induced(rest)):
            return
        ev = evaporation_sequence(g, x)
        nb_last = set()
        for v in ev.last_layer:
            nb_last |= g.neighbors(v)
        if x <= nb_last:
            assert is_clique(g, x | ev.last_layer)


class TestChordality:
    def test_c4_not_chordal(self):
        assert not is_chordal(LabeledGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)]))

    def test_trees_chordal(self):
        assert is_chordal(path(1, 2, 3, 4, 5))
        star = LabeledGraph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
        assert is_chordal(star)

    def test_k5_minus_edge(self):
        g = complete_graph([1, 2, 3, 4, 5])
        edges = [e for e in g.edges() if e != (1, 2)]
        assert is_chordal(LabeledGraph(range(1, 6), edges))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_induced_cycle_search(self, n):
        for g in enumerate_graphs(n):
            masks = adjacency_masks_of(g)
            assert is_chordal(g) == (not has_long_induced_cycle(n, masks))


class TestMaxClique:
    def test_tree(self):
        assert max_clique_size(path(1, 2, 3, 4)) == 2

    def test_complete(self):
        assert max_clique_size(complete_graph(range(1, 5))) == 4

    def test_two_triangles_sharing_edge(self):
        g = glue(complete_graph([1, 2, 3]), complete_graph([2, 3, 4]), {2, 3})
        # brute force over all vertex subsets agrees
        best = 0
        verts = g.vertices
        for mask in range(1 << len(verts)):
            s = [verts[i] for i in range(len(verts)) if mask >> i & 1]
            if is_clique(g, s):
                best = max(best, len(s))
        assert max_clique_size(g) == best == 3

    @pytest.mark.parametrize("seed", range(24))
    def test_random_chordal_graphs_match_brute_force(self, seed):
        g = random_chordal_graph(seed, 1 + seed % 10)
        best = max(k for k in range(g.n + 1) for s in combinations(g.vertices, k)
                   if is_clique(g, s))
        assert max_clique_size(g) == best

    def test_single_vertex_and_empty(self):
        assert max_clique_size(LabeledGraph([4])) == 1
        assert max_clique_size(LabeledGraph([])) == 0

    def test_non_chordal_raises(self):
        with pytest.raises(NotChordalError):
            max_clique_size(LabeledGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)]))


def brute_split_classification(g):
    """Classify vertices via every split partition, straight from the definition."""
    verts = list(g.vertices)
    n = len(verts)
    clique_ever, indep_ever = set(), set()
    found = False
    for mask in range(1 << n):
        side = {verts[i] for i in range(n) if mask >> i & 1}
        rest = set(verts) - side
        if is_clique(g, side) and is_independent_set(g, rest):
            found = True
            clique_ever |= side
            indep_ever |= rest
    if not found:
        return None
    return (frozenset(set(verts) - indep_ever), frozenset(set(verts) - clique_ever),
            frozenset(clique_ever & indep_ever))


class TestSplitPartition:
    def test_edge_plus_isolated(self):
        g = LabeledGraph([1, 2, 3], [(1, 2)])
        sp = split_partition(g)
        assert sp.always_clique == frozenset()
        assert sp.always_independent == {3}
        assert sp.questioning == {1, 2}

    def test_complete_graph_all_questioning(self):
        sp = split_partition(complete_graph(range(1, 5)))
        assert sp.questioning == {1, 2, 3, 4}
        assert sp.always_clique == sp.always_independent == frozenset()

    def test_c4_not_split(self):
        assert split_partition(LabeledGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])) is None

    def test_path3(self):
        sp = split_partition(path(1, 2, 3))
        assert sp.always_clique == {2}
        assert sp.questioning == {1, 3}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_definition_by_enumeration(self, n):
        for g in enumerate_graphs(n):
            expected = brute_split_classification(g)
            got = split_partition(g)
            if expected is None:
                assert got is None
            else:
                assert (got.always_clique, got.always_independent, got.questioning) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_structure_invariants(self, n):
        for g in enumerate_graphs(n):
            sp = split_partition(g)
            if sp is None:
                continue
            q = sp.questioning
            assert is_clique(g, q) or is_independent_set(g, q)
            for v in q:
                assert sp.always_clique <= g.neighbors(v)
                assert not (g.neighbors(v) & sp.always_independent)
            if q and is_clique(g, q) and len(q) >= 2:
                for v in sp.always_clique:
                    assert g.neighbors(v) & sp.always_independent


class TestComponents:
    def test_single_component(self):
        assert connected_components(path(1, 2, 3)) == [frozenset({1, 2, 3})]
        assert is_connected(path(1, 2, 3))

    def test_ordering_by_lowest_label(self):
        g = LabeledGraph([4, 2, 9, 1], [(4, 9)])
        assert connected_components(g) == [frozenset({1}), frozenset({2}), frozenset({4, 9})]

    def test_empty_graph(self):
        assert connected_components(LabeledGraph([])) == []
        assert is_connected(LabeledGraph([]))


class TestComplement:
    def test_complement_of_path(self):
        g = complement(path(1, 2, 3))
        assert g.edges() == [(1, 3)]

    def test_involution(self):
        g = random_chordal_graph(5, 6)
        assert complement(complement(g)) == g

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_definition(self, seed):
        labels, edges = random_labeled_graph(seed)
        g = LabeledGraph(labels, edges)
        want = LabeledGraph(labels, [(u, v) for u, v in combinations(sorted(labels), 2)
                                     if not g.has_edge(u, v)])
        assert complement(g) == want

    @pytest.mark.parametrize("labels", [[], [4], [3, 1, 2], [9, 2, 40, 7]])
    def test_complete_graph_has_every_pair(self, labels):
        g = complete_graph(labels)
        assert g == LabeledGraph(labels, combinations(labels, 2))
        assert g.edges() == list(combinations(sorted(labels), 2))


class TestSerialization:
    def test_edge_list_roundtrip(self):
        g = LabeledGraph(range(1, 5), [(1, 2), (2, 3), (2, 4)])
        text = to_edge_list_text(g)
        assert text.splitlines()[0] == "4 3"
        assert from_edge_list_text(text) == g

    def test_edge_list_requires_canonical_labels(self):
        with pytest.raises(ValueError):
            to_edge_list_text(LabeledGraph([2, 3]))

    def test_edge_list_header_mismatch(self):
        with pytest.raises(ValueError):
            from_edge_list_text("2 1\n")

    @pytest.mark.parametrize("seed", range(0, 80, 2))
    def test_edge_list_text_matches_one_line_per_sorted_edge(self, seed):
        # Even seeds give labels 1..n; densities run from empty to complete.
        g = LabeledGraph(*random_labeled_graph(seed))
        assert to_edge_list_text(g) == seed_edge_list_text(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 40])
    def test_edge_list_text_of_complete_and_empty_graphs(self, n):
        for g in (complete_graph(range(1, n + 1)), LabeledGraph(range(1, n + 1))):
            assert to_edge_list_text(g) == seed_edge_list_text(g)

    def test_edge_list_text_of_one_neighbour_above(self):
        # Vertices 1 and 10 each have one neighbour above them, with a
        # two-digit label that a join over its characters would split.
        g = LabeledGraph(range(1, 13), [(12, 1), (3, 10), (3, 11), (10, 12)])
        assert to_edge_list_text(g) == "12 4\n1 12\n3 10\n3 11\n10 12\n"

    def test_json_roundtrip(self):
        g = LabeledGraph([2, 5, 9], [(2, 5), (5, 9)])
        d = json.loads(json.dumps(to_json_dict(g)))
        assert from_json_dict(d) == g
        assert d["edges"] == [[2, 5], [5, 9]]
