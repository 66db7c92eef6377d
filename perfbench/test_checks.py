"""Each check of the benchmark rejects a known-bad input.

    python3 -m pytest -q perfbench/test_checks.py

Runs in seconds and uses none of the workload sizes.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import references  # noqa: E402

C4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
TWO_K2 = [(1, 2), (3, 4)]
TRIANGLE_PLUS_PENDANT = [(1, 2), (1, 3), (2, 3), (3, 4)]


def text_of(n: int, edges) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


class FakeGraph:
    """The two things check_graph reads from the program's graph object."""

    def __init__(self, n, edges):
        self.vertices = tuple(range(1, n + 1))
        self._adj = checks.adjacency(n, edges)

    def neighbors(self, v):
        return frozenset(self._adj[v])


def test_chordality_rejects_c4_and_accepts_chords():
    assert not checks.is_chordal(checks.adjacency(4, C4))
    assert checks.is_chordal(checks.adjacency(4, C4 + [(1, 3)]))
    with pytest.raises(checks.CheckFailed, match="not chordal"):
        checks.check_graph(FakeGraph(4, C4), text_of(4, C4), 4, 4)


def test_clique_number_and_omega():
    adj = checks.adjacency(4, TRIANGLE_PLUS_PENDANT)
    assert checks.elimination_clique_number(adj, checks.mcs_order(adj)) == 3
    g = FakeGraph(4, TRIANGLE_PLUS_PENDANT)
    assert checks.check_graph(g, text_of(4, TRIANGLE_PLUS_PENDANT), 4, 3) == 4
    with pytest.raises(checks.CheckFailed, match="clique"):
        checks.check_graph(g, text_of(4, TRIANGLE_PLUS_PENDANT), 4, 2)


def test_split_test_rejects_2k2_and_c4():
    for edges in (TWO_K2, C4):
        degrees = [len(s) for s in checks.adjacency(4, edges)[1:]]
        assert not checks.is_split_degree_sequence(degrees)
    assert checks.is_split_degree_sequence([3, 2, 2, 1])  # triangle plus pendant
    with pytest.raises(checks.CheckFailed, match="not split"):
        checks.check_graph(FakeGraph(4, TWO_K2), text_of(4, TWO_K2), 4, 4, split=True)


def test_connectivity_and_vertex_set():
    with pytest.raises(checks.CheckFailed, match="not connected"):
        checks.check_graph(FakeGraph(4, TWO_K2), text_of(4, TWO_K2), 4, 4, connected=True)
    with pytest.raises(checks.CheckFailed, match="vertex set"):
        checks.check_graph(FakeGraph(3, [(1, 2)]), text_of(3, [(1, 2)]), 4, 4)


@pytest.mark.parametrize("text, reason", [
    ("3 2\n1 2\n", "header promises"),
    ("3 1\n1 4\n", "outside"),
    ("3 1\n2 2\n", "self-loop"),
    ("3 2\n1 2\n2 1\n", "repeats"),
    ("3 1\n1 x\n", "not a number"),
    ("3 1\n1 2.0\n", "integer pairs"),
])
def test_parser_rejects_malformed_text(text, reason):
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.parse_edge_list(text)


def test_parser_accepts_any_order_and_spacing():
    n, us, vs = checks.parse_edge_list("4 3\n3  4\n2 1\n\n1 3\n")
    assert (n, sorted(zip(map(min, us, vs), map(max, us, vs)))) == (4, [(1, 2), (1, 3), (3, 4)])


def test_text_must_parse_back_to_the_graph():
    g = FakeGraph(4, TRIANGLE_PLUS_PENDANT)
    other = [(1, 2), (1, 3), (2, 3), (2, 4)]
    with pytest.raises(checks.CheckFailed, match="parse back"):
        checks.check_graph(g, text_of(4, other), 4, 4)


def test_references_match_enumeration_and_reject_off_by_one():
    conn = references.treewidth2_connected(6)
    every = references.sets_of(conn)
    for n in range(1, 6):
        by_omega = references.enumerate_counts(n)
        assert by_omega[min(3, n)] == (conn[n], every[n])
        assert by_omega[n][0] == references.PUBLISHED_CONNECTED[n]
    checks.check_count("n = 6", conn[6], 9831)
    with pytest.raises(checks.CheckFailed):
        checks.check_count("n = 6", conn[6] + 1, conn[6])
    with pytest.raises(checks.CheckFailed):
        checks.check_count("n = 20", references.PUBLISHED_CONNECTED[20] - 1,
                           references.PUBLISHED_CONNECTED[20])


def direct_two_sided_sums(n: int) -> int:
    """The |Q| = 0 and |Q| = 1 sums written side by side, as defined."""
    q0 = sum(comb(n, c) * (2 ** c - 1) ** (n - c) for c in range(2, n // 2 + 1))
    q0 += sum(comb(n, c) * (2 ** (n - c) - 1) ** c for c in range(n // 2 + 1, n - 1))
    half = (n - 1) // 2
    q1 = sum(n * comb(n - 1, c) * (2 ** c - 1) ** (n - c - 1) for c in range(2, half + 1))
    q1 += sum(n * comb(n - 1, c) * (2 ** (n - c - 1) - 1) ** c for c in range(half + 1, n - 1))
    return q0 + q1 + 2


@pytest.mark.parametrize("n", [30, 31])
def test_bracket_sums_equal_their_definition(n):
    assert references.split_bracket(n)[0] == direct_two_sided_sums(n)


def test_bracket_accepts_the_program_and_rejects_an_inflated_count():
    from chordal_lab.splits import approx_count_chordal

    n, eps = 100, Fraction(1, 1000)
    full, upper = references.split_bracket(n)
    count = approx_count_chordal(n, eps)
    checks.check_bracket(count, full, upper, eps)
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_bracket(count * (1 + 2 * eps), full, upper, eps)
    with pytest.raises(checks.CheckFailed, match="below"):
        checks.check_bracket(count * (1 - 2 * eps), full, upper, eps)


def test_uniformity_check_rejects_a_biased_sampler():
    support = set(range(10))
    fair = [i % 10 for i in range(1000)]
    assert checks.check_uniform(fair, support, 1e-3)[1] > 0.99
    biased = fair[:900] + [0] * 100
    with pytest.raises(checks.CheckFailed, match="chi-square"):
        checks.check_uniform(biased, support, 1e-3)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_uniform(fair + [10], support, 1e-3)


def test_chi_square_tail_matches_known_values():
    # Upper 5% points: 3.841 (1 df), 5.991 (2 df), 18.307 (10 df), 79.082 (60 df).
    for stat, df in ((3.841, 1), (5.991, 2), (18.307, 10), (79.082, 60)):
        assert checks.chi_square_upper_tail(stat, df) == pytest.approx(0.05, abs=2e-4)
