from collections import Counter
from fractions import Fraction

import pytest

from chordal_lab.counting import CountingContext
from chordal_lab.graphs import (
    is_clique,
    is_independent_set,
    split_partition,
)
from chordal_lab.bruteforce import split_class_counts
from chordal_lab.sampling import RandomStream
from chordal_lab.splits import (
    EXACT_LIMIT,
    SplitThresholds,
    approx_count_chordal,
    approx_count_split,
    approx_sample_chordal,
    as_epsilon,
    ceil_log2_inverse,
    sample_split_approx,
    sample_split_draw,
    split_count_q0_full,
    split_count_q0_truncated,
    split_count_q1_full,
    split_count_q1_truncated,
    split_count_q_ge2_bound,
    split_count_q_ge2_exact,
    split_count_q_ge2_truncated,
    split_count_q_mid_full,
    threshold_f,
    threshold_g,
)
from chordal_lab.splits import _build_q_mid

# Frozen brute-force stratification of split graphs: n -> (total, q0, q1, qge2)
BRUTE_SPLIT_CLASSES = {
    2: (2, 0, 0, 2),
    3: (8, 0, 0, 8),
    4: (58, 12, 0, 46),
    5: (632, 240, 60, 332),
    6: (9654, 4980, 1440, 3234),
    7: (202484, 125160, 34860, 42464),
}


class TestEpsilonParsing:
    def test_decimal_strings(self):
        assert as_epsilon("1e-6") == Fraction(1, 10 ** 6)
        assert as_epsilon("0.25") == Fraction(1, 4)
        assert as_epsilon(Fraction(1, 3)) == Fraction(1, 3)

    @pytest.mark.parametrize("bad", ["0", "1", "1.5", "-0.1"])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            as_epsilon(bad)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_epsilon(0.1)

    def test_exact_log(self):
        assert ceil_log2_inverse(Fraction(1, 2)) == 1
        assert ceil_log2_inverse(Fraction(1, 2 ** 20)) == 20
        assert ceil_log2_inverse(Fraction(1, 3)) == 2


class TestThresholds:
    def test_floor_at_mild_epsilon(self):
        assert threshold_f(Fraction(999, 1000)) == 65

    def test_f_non_increasing_in_epsilon(self):
        eps = [Fraction(1, 2 ** e) for e in (1, 4, 10, 20, 40)]
        values = [threshold_f(e) for e in eps]
        assert values == sorted(values)

    def test_g_dominates_f_of_half(self):
        for e in (Fraction(1, 2 ** 10), Fraction(1, 1000), Fraction(1, 7)):
            assert threshold_g(e) >= threshold_f(e / 2)

    def test_custom_thresholds(self):
        th = SplitThresholds(n1=10, n2=10, n3=10)
        assert threshold_f(Fraction(1, 2), th) == max(10, 3)
        assert threshold_g(Fraction(999, 1000), th) >= 10


class TestExactStratumCounts:
    @pytest.mark.parametrize("n", sorted(BRUTE_SPLIT_CLASSES))
    def test_q_ge2_formula_matches_frozen_brute(self, n):
        assert split_count_q_ge2_exact(n) == BRUTE_SPLIT_CLASSES[n][3]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_live_enumeration(self, n):
        total, q0, q1, qge2 = split_class_counts(n)
        assert (total, q0, q1, qge2) == BRUTE_SPLIT_CLASSES[n]
        assert split_count_q_ge2_exact(n) == qge2
        # the three strata partition the split graphs exactly
        assert qge2 + q0 + q1 == total

    def test_mid_plus_extremes_identity(self):
        for n in range(2, 9):
            assert split_count_q_ge2_exact(n) == split_count_q_mid_full(n) + 2

    def test_small_n_zero(self):
        assert split_count_q_ge2_exact(0) == 0
        assert split_count_q_ge2_exact(1) == 0


class TestLowQSums:
    def test_q0_single_term_expansion(self):
        # only c = 2 contributes at n = 4
        assert split_count_q0_full(4) == 6 * (2 ** 2 - 1) ** 2 == 54

    def test_q1_empty_ranges(self):
        assert split_count_q1_full(3) == 0

    def test_truncated_never_exceeds_full(self):
        for n in (10, 40, 70, 100):
            for eps in ("0.5", "1e-2", "1e-6"):
                assert split_count_q0_truncated(n, eps) <= split_count_q0_full(n)
                assert split_count_q1_truncated(n, eps) <= split_count_q1_full(n)
                assert split_count_q_ge2_truncated(n, eps) <= split_count_q_mid_full(n)

    def test_truncated_keeps_promised_fraction(self):
        n = 70
        for eps in (Fraction(1, 2 ** 7), Fraction(1, 2 ** 16)):
            for trunc, full in (
                (split_count_q0_truncated(n, eps), split_count_q0_full(n)),
                (split_count_q1_truncated(n, eps), split_count_q1_full(n)),
                (split_count_q_ge2_truncated(n, eps), split_count_q_mid_full(n)),
            ):
                assert Fraction(trunc) >= (1 - eps) * full

    def test_wide_epsilon_still_valid(self):
        n = 80
        eps = Fraction(1, 2)
        assert 0 < split_count_q_ge2_truncated(n, eps) <= split_count_q_mid_full(n)


class TestApproxCountSplit:
    def test_definitional_identity(self):
        # windows at eps_w = eps - eps/1024; the |Q| >= 2 window joins only
        # when its stratum bound exceeds eps/1024 of the rest
        def rest(n, eps_w):
            return (split_count_q0_truncated(n, eps_w)
                    + split_count_q1_truncated(n, eps_w) + 2)

        n, eps = 70, Fraction(1, 100)
        eps_w = eps - eps / 1024
        assert split_count_q_ge2_bound(n) <= eps / 1024 * rest(n, eps_w)
        assert approx_count_split(n, eps) == rest(n, eps_w)

        n, eps, th = 10, Fraction(1, 2), SplitThresholds(10, 10, 10)
        eps_w = eps - eps / 1024
        assert split_count_q_ge2_bound(n) > eps / 1024 * rest(n, eps_w)
        assert approx_count_split(n, eps, th) == (
            rest(n, eps_w) + split_count_q_ge2_truncated(n, eps_w))

    @pytest.mark.parametrize("n, eps", [
        (70, Fraction(1, 2 ** 7)),
        (100, Fraction(1, 2 ** 7)),
        (200, Fraction(1, 2 ** 7)),
        (200, Fraction(1, 2 ** 20)),
    ])
    def test_within_budget_of_full_sum(self, n, eps):
        full = (split_count_q_mid_full(n) + split_count_q0_full(n)
                + split_count_q1_full(n) + 2)
        value = approx_count_split(n, eps)
        assert (1 - eps) * full <= value <= full

    def test_q_ge2_bound_dominates_exact(self):
        for n in range(2, 41):
            assert split_count_q_ge2_bound(n) >= split_count_q_ge2_exact(n), n

    def test_large_n_skips_q_ge2_window(self, monkeypatch):
        import chordal_lab.splits as splits

        def refuse(n, eps):
            raise AssertionError("the |Q| >= 2 window was evaluated")

        monkeypatch.setattr(splits, "split_count_q_ge2_truncated", refuse)
        assert approx_count_chordal(1000, "1e-3") > 0

    def test_tighter_epsilon_widens_windows(self):
        n = 100
        assert approx_count_split(n, "1e-4") >= approx_count_split(n, "1e-2")

    def test_floor_rises_as_epsilon_shrinks(self):
        # 1e-6 needs n >= 103, so n = 100 is refused rather than mis-served
        assert threshold_f(Fraction(1, 10 ** 6)) == 103
        with pytest.raises(ValueError):
            approx_count_split(100, "1e-6")

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            approx_count_split(40, "0.5")


class TestApproxCountChordal:
    def test_delegates_to_exact_below_floor(self):
        for n in (0, 1, 5, 10, 12):
            expected = CountingContext(max(n, 1), max(n, 1)).count_all(n) if n else 1
            assert approx_count_chordal(n, "1e-3") == expected

    def test_large_n_uses_split_windows(self):
        n = 120
        eps = Fraction(1, 100)
        assert approx_count_chordal(n, eps) == approx_count_split(n, eps / 2)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            approx_count_chordal(50, "2.0")

    def test_fails_fast_between_exact_limit_and_floor(self, monkeypatch):
        import chordal_lab.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fill was started")

        monkeypatch.setattr(counting, "get_context", refuse)
        assert EXACT_LIMIT < 40 < threshold_g("1e-2") == 65
        with pytest.raises(ValueError, match=r"floor 65 .*count_all\(40\)"):
            approx_count_chordal(40, "1e-2")


class TestSplitSampler:
    def test_outputs_are_split(self):
        rng = RandomStream(321)
        for _ in range(40):
            g = sample_split_approx(70, "0.25", rng)
            assert g.vertices == tuple(range(1, 71))
            assert split_partition(g) is not None

    def test_draw_bookkeeping_consistent(self):
        rng = RandomStream(654)
        branch_seen = Counter()
        for _ in range(60):
            d = sample_split_draw(70, "0.25", rng)
            branch_seen[d.branch] += 1
            g = d.graph
            assert is_clique(g, d.cyan)
            assert is_independent_set(g, d.indigo)
            for w in d.swing:
                if d.branch in ("q0", "q1"):
                    assert d.cyan <= g.neighbors(w)
                    assert not (g.neighbors(w) & d.indigo)
            if d.branch == "q0":
                half = 70 // 2
                if d.c <= half:
                    assert all(g.neighbors(v) & d.indigo for v in d.cyan)
                else:
                    assert all(d.cyan - g.neighbors(u) for u in d.indigo)
            if d.branch == "q_mid":
                sp = split_partition(g)
                assert sp.questioning == d.swing
        assert branch_seen  # at least one branch exercised

    def test_mid_builder_matches_recognition(self):
        # the |Q| >= 2 stratum is exponentially rare against |Q| <= 1, so
        # exercise its cell builder directly: the recognized classification
        # of every built graph equals the drawn label sets
        rng = RandomStream(11)
        for q, c in ((2, 0), (2, 3), (3, 2), (4, 0)):
            for _ in range(25):
                d = _build_q_mid(10, q, c, rng)
                sp = split_partition(d.graph)
                assert sp.questioning == d.swing
                assert sp.always_clique == d.cyan
                assert sp.always_independent == d.indigo

    def test_expected_iterations_small(self):
        rng = RandomStream(987)
        iters = [sample_split_draw(70, "0.5", rng).iterations for _ in range(300)]
        assert sum(iters) / len(iters) <= 2.0

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            sample_split_approx(30, "0.5", RandomStream(0))

    def test_determinism(self):
        a = [sample_split_approx(70, "0.25", RandomStream(5)) for _ in range(3)]
        b = [sample_split_approx(70, "0.25", RandomStream(5)) for _ in range(3)]
        assert a == b

    def test_full_q_branch_fair_coin(self):
        # the |Q| = n stratum carries weight 2 against astronomically larger
        # strata, so force it through an injected plan: the branch must flip
        # a fair coin between the complete graph and the edgeless graph
        from collections import Counter

        from chordal_lab.graphs import complete_graph, LabeledGraph
        from chordal_lab.splits import _SplitPlan, _plan_cache, as_epsilon

        n = 70
        eps = as_epsilon("0.25")
        eps_work = min(eps / 2, Fraction(1, 3))
        _plan_cache[(n, eps_work)] = _SplitPlan(
            n=n, w0=0, w1=0, ge2_bound=0, mid_cells=(), q01_cells=(),
            q0_weights=(), q1_weights=(), cap=4)
        try:
            rng = RandomStream(1234)
            outcomes = Counter()
            for _ in range(400):
                d = sample_split_draw(n, eps, rng)
                assert d.branch == "q_full" and d.swing == frozenset(range(1, n + 1))
                full = d.graph == complete_graph(range(1, n + 1))
                empty = d.graph == LabeledGraph(range(1, n + 1))
                assert full != empty
                outcomes["full" if full else "empty"] += 1
        finally:
            del _plan_cache[(n, eps_work)]
        assert abs(outcomes["full"] - 200) < 4 * (400 * 0.25) ** 0.5

    def test_q_ge2_proposal_kept_in_proportion(self):
        # the |Q| >= 2 branch is proposed with its stratum bound U and kept
        # with probability w_mid / U; inject a plan with U well above w_mid
        # and check the kept branches split as w_mid : 2, the same as a
        # proposal with weight w_mid itself would give
        from chordal_lab.splits import _SplitPlan, _plan_cache, as_epsilon

        n = 70
        eps = as_epsilon("0.25")
        eps_work = min(eps / 2, Fraction(1, 3))
        w_mid = 2 * 3
        _plan_cache[(n, eps_work)] = _SplitPlan(
            n=n, w0=0, w1=0, ge2_bound=16, mid_cells=((2, 3),), q01_cells=(),
            q0_weights=(), q1_weights=(), cap=64, mid_weights=(3,))
        try:
            rng = RandomStream(4321)
            branches = Counter()
            iterations = 0
            for _ in range(800):
                d = sample_split_draw(n, eps, rng)
                branches[d.branch] += 1
                iterations += d.iterations
                if d.branch == "q_mid":
                    assert (d.q, d.c) == (2, 3)
        finally:
            del _plan_cache[(n, eps_work)]
        assert set(branches) <= {"q_mid", "q_full"}
        p = w_mid / (w_mid + 2)
        assert abs(branches["q_mid"] - 800 * p) < 4 * (800 * p * (1 - p)) ** 0.5
        # each iteration keeps a draw with probability (w_mid + 2) / (U + 2)
        keep = (w_mid + 2) / (16 + 2)
        sigma = (800 * (1 - keep)) ** 0.5 / keep
        assert abs(iterations - 800 / keep) < 4 * sigma


class TestCellNeighborhoodLaw:
    def test_mid_cell_neighborhoods_uniform_nonempty(self):
        # inside one (q, c) cell, clique-side vertices get i.i.d. uniform
        # nonempty neighborhoods in the independent side; pool by position
        import math
        from itertools import combinations

        rng = RandomStream(246)
        n, q, c = 8, 2, 2
        counts = Counter()
        for _ in range(6000):
            d = _build_q_mid(n, q, c, rng)
            if len(d.cyan) != c:
                continue  # complemented mirror shape obeys the dual law
            pos = {v: i for i, v in enumerate(sorted(d.indigo))}
            for v in d.cyan:
                nb = frozenset(pos[u] for u in d.graph.neighbors(v) & d.indigo)
                assert nb, "clique-side neighborhoods must be nonempty"
                counts[nb] += 1
        m = n - q - c
        support = [frozenset(s) for size in range(1, m + 1)
                   for s in combinations(range(m), size)]
        assert set(counts) <= set(support)
        total = sum(counts.values())
        p = 1 / len(support)
        sigma = math.sqrt(total * p * (1 - p))
        for s in support:
            assert abs(counts[s] - total * p) < 4 * sigma, sorted(s)


class TestApproxSampleChordal:
    def test_small_n_exact_path(self):
        g = approx_sample_chordal(6, "1e-3", RandomStream(44))
        assert g.vertices == tuple(range(1, 7))
        from chordal_lab.graphs import is_chordal

        assert is_chordal(g)

    def test_zero_vertices(self):
        assert approx_sample_chordal(0, "0.5", RandomStream(1)).vertices == ()

    def test_fails_fast_between_exact_limit_and_floor(self, monkeypatch):
        import chordal_lab.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fill was started")

        monkeypatch.setattr(counting, "get_context", refuse)
        assert EXACT_LIMIT < 40 < threshold_g(Fraction(1, 200)) == 65
        with pytest.raises(ValueError, match="floor 65 "):
            approx_sample_chordal(40, "1e-2", RandomStream(1))

    def test_large_n_split_path(self):
        g = approx_sample_chordal(200, "1e-3", RandomStream(45))
        assert split_partition(g) is not None

    def test_seed_determinism_both_paths(self):
        for n in (6, 200):
            a = approx_sample_chordal(n, "1e-3", RandomStream(9))
            b = approx_sample_chordal(n, "1e-3", RandomStream(9))
            assert a == b


class TestPlanCache:
    def test_a_fifth_plan_drops_the_oldest(self, monkeypatch):
        import chordal_lab.splits as splits

        monkeypatch.setattr(splits, "_plan_cache", {})
        rng = RandomStream(3)
        keys = []
        for n in range(70, 75):
            sample_split_draw(n, "1e-2", rng)
            keys.append((n, Fraction(1, 200)))
        assert list(splits._plan_cache) == keys[1:]

    def test_exact_limit_is_the_counting_limit(self):
        import chordal_lab.counting as counting

        assert EXACT_LIMIT is counting.EXACT_LIMIT
