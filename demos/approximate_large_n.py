"""Approximate counting and sampling far beyond the exact algorithm's range.

Almost every large labeled chordal graph is a split graph, so truncated
split-graph sums give certified (1 +- eps)-approximations where the exact
dynamic program would take days.  The windows are narrow: the demo prints how
few terms survive truncation and how little accuracy costs.

Measured on a 2-core x86-64 machine with CPython 3.11, one
`chordal-lab approx-count --epsilon 1e-3` process end to end, printing the
exact decimal count included: 0.17 s at n = 1000 (75k digits; import alone
is 0.12 s) and 1.7 s at n = 3000 (678k digits).  The cost follows the size
of the count, about n**2 / 4 bits, so it grows much faster than n.  A warm
`chordal-lab approx-sample --n 1000 --epsilon 1e-3` sample, drawn and written
as edge-list text, takes about 84 ms on that machine (benchmark median): the
sampler builds each graph from one bipartite 0/1 byte matrix, whose rows and
columns give every vertex's neighbours without a symmetry check (0.16 s
before that, and 0.43 s when it listed every edge pair).

Run: python demos/approximate_large_n.py
"""

import time
from fractions import Fraction

from chordal_lab import (
    RandomStream,
    approx_count_chordal,
    decimal_string,
    sample_split_draw,
    split_partition,
    threshold_g,
)
from chordal_lab.splits import split_count_q0_full, split_windows

print("== Approximate counts of labeled chordal graphs (eps = 1e-6) ==")
print("   (below the dispatch boundary the exact algorithm would run instead)")
for n in (150, 200, 400, 800):
    t0 = time.time()
    text = decimal_string(approx_count_chordal(n, "1e-6"))
    dt = time.time() - t0
    print(f"  n={n:>4}: {len(text):>6} decimal digits, {dt * 1000:7.1f} ms "
          f"(leading digits {text[:12]}...)")

print()
print("== What truncation keeps ==")
n = 200
full = split_count_q0_full(n)
for eps_str in ("1e-2", "1e-6", "1e-12"):
    windows = split_windows(n, eps_str)
    lost = Fraction(full - windows.w0, full)
    print(f"  eps={eps_str:>6}: {len(windows.cells)} of {n - 3} terms kept "
          f"(c = {windows.cells[0]}..{windows.cells[-1]}), "
          f"kept fraction 1 - {float(lost):.3e} of the full sum")

print()
print("== Dispatch boundary ==")
for eps_str in ("1e-2", "1e-6", "1e-12"):
    from chordal_lab import as_epsilon

    print(f"  eps={eps_str:>6}: exact algorithm below n = {threshold_g(as_epsilon(eps_str))}, "
          "split windows at or above")

print()
print("== Approximate sampling at n = 300 ==")
rng = RandomStream(7)
t0 = time.time()
draws = [sample_split_draw(300, "1e-3", rng) for _ in range(20)]
dt = time.time() - t0
assert all(split_partition(d.graph) is not None for d in draws)
mean_iter = sum(d.iterations for d in draws) / len(draws)
branches = sorted({d.branch for d in draws})
print(f"  20 samples in {dt:.2f}s, all recognized as split graphs")
print(f"  mean rejection iterations {mean_iter:.2f} (expected <= 2), "
      f"branches seen: {branches}")
