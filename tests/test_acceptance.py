"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance and runtime ceiling is pinned here; nothing is deferred.
"""

import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from chordal_lab.counting import CountingContext, exact_counts
from chordal_lab.graphs import is_chordal, max_clique_size, split_partition
from chordal_lab.bruteforce import (
    bitmask_of,
    brute_counts,
    split_class_counts,
    uniformity_test,
)
from chordal_lab.sampling import ChordalSampler, RandomStream
from chordal_lab.splits import (
    approx_count_chordal,
    sample_split_draw,
    split_count_q0_full,
    split_count_q0_truncated,
    split_count_q1_full,
    split_count_q1_truncated,
    split_count_q_ge2_exact,
    split_count_q_ge2_truncated,
    split_count_q_mid_full,
)

CONNECTED_COUNTS = {
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
}

CONNECTED_COUNT_20 = 149881423568752945444616261913109046421
CONNECTED_COUNT_30 = (
    1318363800739595427128835554231270770209426196402736248743162258824492158995254)

# (n, omega) -> number of omega-colorable labeled connected chordal graphs
COUNTS_BY_OMEGA = {
    (2, 2): 1, (3, 2): 3, (4, 2): 16, (5, 2): 125, (6, 2): 1296,
    (7, 2): 16807, (8, 2): 262144, (9, 2): 4782969, (10, 2): 100000000,
    (11, 2): 2357947691, (12, 2): 61917364224,
    (3, 3): 4, (4, 3): 34, (5, 3): 480, (6, 3): 9831, (7, 3): 268093,
    (8, 3): 9185436, (9, 3): 379623492, (10, 3): 18376225525,
    (11, 3): 1019282908941, (12, 3): 63707908718994,
    (4, 4): 35, (5, 4): 540, (6, 4): 13136, (7, 4): 466683,
    (8, 4): 22732032, (9, 4): 1437072780, (10, 4): 112588153700,
    (11, 4): 10535042533301, (12, 4): 1144261607209084,
    (5, 5): 541, (6, 5): 13301, (7, 5): 488873, (8, 5): 25736782,
    (9, 5): 1873146621, (10, 5): 181962472490, (11, 5): 22726623077466,
    (12, 5): 3513611793935959,
    (6, 6): 13302, (7, 6): 489286, (8, 6): 25863916, (9, 6): 1910084529,
    (10, 6): 192919501307, (11, 6): 26158547399061, (12, 6): 4666697716137194,
    (7, 7): 489287, (8, 7): 25864896, (9, 7): 1910751531,
    (10, 7): 193325509217, (11, 7): 26400465973728, (12, 7): 4813890013657154,
    (8, 8): 25864897, (9, 8): 1910753781, (10, 8): 193328830337,
    (11, 8): 26404655450778, (12, 8): 4818876084111431,
    (9, 9): 1910753782, (10, 9): 193328835392, (11, 9): 26404671456933,
    (12, 9): 4818917765689886,
    (10, 10): 193328835393, (11, 10): 26404671468120, (12, 10): 4818917841203841,
    (11, 11): 26404671468121, (12, 11): 4818917841228327,
    (12, 12): 4818917841228328,
}


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_01_connected_counts_through_12():
    start = time.time()
    ctx = CountingContext(12, 12)
    values = {n: ctx.count_connected(n) for n in range(1, 13)}
    elapsed = time.time() - start
    assert values == CONNECTED_COUNTS
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(1, f"connected counts n=1..12 exact in {elapsed:.2f}s")


def test_criterion_02_connected_count_20():
    start = time.time()
    value = CountingContext(20, 20).count_connected(20)
    elapsed = time.time() - start
    assert value == CONNECTED_COUNT_20
    assert elapsed < 180.0, f"took {elapsed:.1f}s, budget 180s"
    report(2, f"connected count n=20 exact in {elapsed:.1f}s")


@pytest.mark.skipif(os.environ.get("CHORDAL_LAB_STRETCH") != "1",
                    reason="stretch target; set CHORDAL_LAB_STRETCH=1 to run")
def test_criterion_02_stretch_connected_count_30():
    start = time.time()
    value = CountingContext(30, 30).count_connected(30)
    elapsed = time.time() - start
    assert value == CONNECTED_COUNT_30
    assert elapsed < 900.0, f"took {elapsed:.1f}s, budget 900s"
    report(2, f"stretch: connected count n=30 exact in {elapsed:.1f}s")


def test_criterion_02_count_only_connected_count_30():
    start = time.time()
    value = exact_counts(30)[0][30]
    elapsed = time.time() - start
    assert value == CONNECTED_COUNT_30
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(2, f"connected count n=30 exact (count-only fill) in {elapsed:.1f}s")


def test_criterion_03_omega_grid_through_12():
    by_omega: dict[int, CountingContext] = {}
    for (n, omega), expected in sorted(COUNTS_BY_OMEGA.items()):
        ctx = by_omega.get(omega)
        if ctx is None:
            ctx = by_omega[omega] = CountingContext(12, omega)
        assert ctx.count_connected(n) == expected, (n, omega)
    for n in range(2, 13):
        assert COUNTS_BY_OMEGA[(n, 2)] == n ** (n - 2)
    report(3, f"all {len(COUNTS_BY_OMEGA)} color-budget grid entries exact, "
              "tree column equals n^(n-2)")


def test_criterion_04_enumeration_gate_through_6():
    start = time.time()
    checked = 0
    for n in range(1, 7):
        bc = brute_counts(n)
        for omega in range(1, n + 1):
            ctx = CountingContext(n, omega)
            assert ctx.count_all(n) == bc.chordal_all[omega], (n, omega)
            assert ctx.count_connected(n) == bc.chordal_connected[omega], (n, omega)
            checked += 2
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(4, f"{checked} counts equal exhaustive enumeration (n<=6, all budgets) "
              f"in {elapsed:.1f}s")


def test_criterion_05_factored_equals_direct_exhaustively():
    n_max = 8
    fact = CountingContext(n_max, n_max, factored=True)
    direct = CountingContext(n_max, n_max, factored=False)
    keys = 0
    for t in range(1, n_max + 1):
        for x in range(0, n_max):
            for l in range(1, n_max - x + 1):
                for k in range(0, n_max - x - l + 1):
                    for z in range(0, x + 1):
                        a = fact.count("pinned_proper_z", (t, x, l, k, z))
                        b = direct.count("pinned_proper_z", (t, x, l, k, z))
                        assert a == b, (t, x, l, k, z)
                        keys += 1
    report(5, f"factored and direct five-argument tables agree on all {keys} keys "
              f"at n_max={n_max}")


def test_criterion_06_sampler_validity_and_uniformity():
    start = time.time()
    n_samples = 100_000
    ctx = CountingContext(4, 4)
    ctx.count_all(4)
    sampler = ChordalSampler(ctx)
    rng = RandomStream(2024)
    hist = Counter()
    for _ in range(n_samples):
        g = sampler.sample_chordal(4, rng)
        assert g.vertices == (1, 2, 3, 4)
        assert is_chordal(g)
        assert max_clique_size(g) <= 4
        hist[bitmask_of(g)] += 1
    bc = brute_counts(4, include_graphs=True)
    support = [m for m, _, _ in bc.chordal_graphs]
    assert len(support) == 61
    samples_flat = [m for m, c in hist.items() for _ in range(c)]
    res = uniformity_test(samples_flat, support, significance=0.999)
    elapsed = time.time() - start
    assert res.passed, f"chi-square {res.statistic:.1f} above {res.threshold:.1f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(6, f"10^5 samples at (4,4) all valid; chi-square {res.statistic:.1f} "
              f"below 99.9% critical {res.threshold:.1f} in {elapsed:.1f}s")


def test_criterion_07_sampler_support_n3():
    n_samples = 100_000
    ctx = CountingContext(3, 3)
    ctx.count_all(3)
    sampler = ChordalSampler(ctx)
    rng = RandomStream(777)
    seen = {bitmask_of(sampler.sample_chordal(3, rng)) for _ in range(n_samples)}
    bc = brute_counts(3, include_graphs=True)
    expected = {m for m, _, _ in bc.chordal_graphs}
    assert seen == expected and len(expected) == 8
    report(7, "distinct outputs over 10^5 samples at n=3 equal the 8 enumerated graphs")


def test_criterion_08_split_stratum_exactness():
    for n in range(2, 8):
        _, _, _, qge2 = split_class_counts(n)
        assert split_count_q_ge2_exact(n) == qge2, n
    report(8, "closed-form |Q|>=2 split counts equal enumeration for n=2..7")


def test_criterion_09_truncation_guarantee():
    start = time.time()
    for n in (70, 100, 200):
        fulls = (split_count_q_mid_full(n), split_count_q0_full(n),
                 split_count_q1_full(n))
        for eps in (Fraction(1, 2 ** 7), Fraction(1, 2 ** 20)):
            truncs = (split_count_q_ge2_truncated(n, eps),
                      split_count_q0_truncated(n, eps),
                      split_count_q1_truncated(n, eps))
            for trunc, full in zip(truncs, fulls):
                assert trunc <= full, (n, eps)
                assert Fraction(trunc) >= (1 - eps) * full, (n, eps)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(9, f"window sums within [(1-eps)*full, full] for n in {{70,100,200}}, "
              f"eps in {{2^-7, 2^-20}} in {elapsed:.1f}s")


def test_criterion_10_approx_dispatch_and_rejection_rate():
    for n in range(0, 13):
        expected = CountingContext(max(n, 1), max(n, 1)).count_all(n) if n else 1
        assert approx_count_chordal(n, "1e-3") == expected, n
    # the n=200 sampling path: all outputs split, and the rejection loop
    # accepts essentially immediately
    eps = Fraction(1, 1000)
    rng = RandomStream(31415)
    iters = []
    for _ in range(1000):
        draw = sample_split_draw(200, eps / 2, rng)
        assert split_partition(draw.graph) is not None
        iters.append(draw.iterations)
    mean_iters = sum(iters) / len(iters)
    assert mean_iters <= 2.0, mean_iters
    from chordal_lab.splits import approx_sample_chordal

    for _ in range(5):
        g = approx_sample_chordal(200, eps, rng)
        assert split_partition(g) is not None
    report(10, f"approx count delegates exactly for n<=12; n=200 draws all split, "
               f"mean rejection iterations {mean_iters:.3f} <= 2")


def test_criterion_11_cli_byte_determinism():
    cmd = [sys.executable, "-m", "chordal_lab.cli", "sample",
           "--n", "6", "--omega", "3", "--count", "5", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout and first.stdout
    cmd_json = [sys.executable, "-m", "chordal_lab.cli", "approx-sample",
                "--n", "120", "--epsilon", "1e-2", "--count", "2",
                "--seed", "42", "--format", "json"]
    third = subprocess.run(cmd_json, capture_output=True, check=True)
    fourth = subprocess.run(cmd_json, capture_output=True, check=True)
    assert third.stdout == fourth.stdout and third.stdout
    report(11, "identical seeds give byte-identical CLI sample output")
