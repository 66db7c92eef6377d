"""Reference values the benchmark checks the program against.

None of these come from the program: they are published values, or they are
computed here by other methods (the block decomposition of graphs of
treewidth at most 2, closed-form split-graph sums and bounds, exhaustive
enumeration).

Recompute any of them from the root of the repository:

    python3 perfbench/references.py two-trees 40     # omega = 3 counts, n <= 40
    python3 perfbench/references.py enumerate 6      # every count for n <= 6
    python3 perfbench/references.py bracket 1000     # bit lengths of F and U
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import checks

# Labeled connected chordal graphs on n vertices: OEIS A058865, whose terms
# for n <= 15 come from Wormald's generating functions (Graphs and
# Combinatorics 1, 1985); n = 20 is the value in the table of
# Hebert-Johnson, Lokshtanov and Vigoda (arXiv 2308.09703).
PUBLISHED_CONNECTED = {
    1: 1,
    2: 1,
    3: 4,
    4: 35,
    5: 541,
    6: 13302,
    7: 489287,
    8: 25864897,
    9: 1910753782,
    10: 193328835393,
    11: 26404671468121,
    12: 4818917841228328,
    20: 149881423568752945444616261913109046421,
}


def sets_of(connected: list[int]) -> list[int]:
    """All-graph counts a_0..a_N from connected counts c_0..c_N (c_0 unused).

    a_n = sum_k C(n-1, k-1) c_k a_(n-k): split off the component of vertex 1.
    """
    a = [1]
    for n in range(1, len(connected)):
        a.append(sum(comb(n - 1, k - 1) * connected[k] * a[n - k] for k in range(1, n + 1)))
    return a


def two_tree_blocks(k: int) -> int:
    """Labeled 2-trees on k >= 2 vertices, C(k,2) (2k-3)^(k-4) (Beineke and
    Pippert, 1969); k = 2 is the single edge K2."""
    value = comb(k, 2) * Fraction(2 * k - 3) ** (k - 4)
    assert value.denominator == 1
    return int(value)


def treewidth2_connected(n_max: int) -> list[int]:
    """Connected 3-colorable labeled chordal graphs c_0..c_(n_max), c_0 = 0.

    A connected chordal graph with no K4 has blocks that are single edges or
    2-trees.  With B the exponential generating function of the blocks, the
    vertex-rooted graphs satisfy R(x) = x exp(B'(R(x))).  Every series is
    kept as n! [x^n] (integer counts of labeled structures):

      r_n = n e_(n-1)                    R = x E
      p_j = (p_(j-1) * r) / j            R^j / j!, binomial convolution
      f_n = sum_j b_(j+1) p_j[n]         F = B'(R)
      e_n = sum_k C(n-1, k-1) f_k e_(n-k)   E = exp(F)

    and c_n = r_n / n.  Each r_n needs only terms of lower index, so one
    pass in increasing n fills all of them.
    """
    N = n_max
    blocks = [0, 0] + [two_tree_blocks(k) for k in range(2, N + 2)]
    r = [0] * (N + 1)
    e = [1] + [0] * N
    f = [0] * (N + 1)
    p = [[1] + [0] * N] + [[0] * (N + 1) for _ in range(N)]
    for n in range(1, N + 1):
        r[n] = n * e[n - 1]
        for j in range(1, n + 1):
            prev = p[j - 1]
            s = sum(comb(n, k) * prev[k] * r[n - k] for k in range(j - 1, n))
            assert s % j == 0
            p[j][n] = s // j
        f[n] = sum(blocks[j + 1] * p[j][n] for j in range(1, n + 1))
        e[n] = sum(comb(n - 1, k - 1) * f[k] * e[n - k] for k in range(1, n + 1))
    return [0] + [r[n] // n for n in range(1, N + 1)]


def split_bracket(n: int) -> tuple[int, int]:
    """(F, U) for the approximate chordal count at n vertices.

    F is the untruncated two-sided |Q| = 0 and |Q| = 1 sums plus the two
    |Q| = n graphs (complete and edgeless):

      |Q| = 0: sum_{c=2}^{n-2} C(n, c) (2^m - 1)^(n-m),      m = min(c, n-c)
      |Q| = 1: sum_{c=2}^{n-2} n C(n-1, c) (2^m - 1)^(n-1-m), m = min(c, n-1-c)

    (the two sides of each sum are the terms with c below and above n/2).
    U bounds the whole |Q| >= 2 stratum: with s = n - q vertices outside Q,
    the per-q sum over clique sizes c of C(s, c) (2^(s-c) - 1)^c is at most
    2^s 2^floor(s^2/4), and complementation doubles the family.
    """
    @cache
    def low(m: int) -> int:
        return (2 ** m - 1) ** (n - 1 - m)

    q0 = sum(comb(n, c) * low(min(c, n - c)) * (2 ** min(c, n - c) - 1)
             for c in range(2, n - 1))
    q1 = n * sum(comb(n - 1, c) * low(min(c, n - 1 - c)) for c in range(2, n - 1))
    upper = 2 * sum(comb(n, q) << (n - q + (n - q) ** 2 // 4) for q in range(2, n + 1))
    return q0 + q1 + 2, upper


def enumerate_counts(n: int) -> dict[int, tuple[int, int]]:
    """{omega: (connected, all)} counts of labeled chordal graphs on [n] with
    clique number at most omega, by testing all 2^C(n,2) graphs."""
    pairs = list(combinations(range(1, n + 1), 2))
    by_clique: dict[int, list[int]] = {}
    for mask in range(1 << len(pairs)):
        adj = checks.adjacency(n, (pair for i, pair in enumerate(pairs) if mask >> i & 1))
        clique = checks.elimination_clique_number(adj, checks.mcs_order(adj))
        if clique is not None:
            tally = by_clique.setdefault(clique, [0, 0])
            tally[0] += checks.is_connected(adj)
            tally[1] += 1
    out = {}
    for omega in range(1, n + 1):
        out[omega] = tuple(sum(t[i] for w, t in by_clique.items() if w <= omega)
                           for i in (0, 1))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("two-trees").add_argument("n", type=int)
    sub.add_parser("enumerate").add_argument("n", type=int)
    sub.add_parser("bracket").add_argument("n", type=int)
    args = parser.parse_args()
    if args.what == "two-trees":
        c = treewidth2_connected(args.n)
        a = sets_of(c)
        for n in range(1, args.n + 1):
            print(n, c[n], a[n])
    elif args.what == "enumerate":
        for n in range(1, args.n + 1):
            for omega, (conn, every) in enumerate_counts(n).items():
                print(n, omega, conn, every)
    else:
        full, upper = split_bracket(args.n)
        print(f"F: {full.bit_length()} bits, U: {upper.bit_length()} bits, "
              f"F - U: {full.bit_length() - upper.bit_length()} bits")


if __name__ == "__main__":
    main()
