import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import chordal_lab.splits as splits
from chordal_lab.counting import CountingContext
from chordal_lab.graphs import (
    LabeledGraph,
    is_clique,
    is_independent_set,
    split_partition,
)
from chordal_lab.bruteforce import split_class_counts
from chordal_lab.sampling import RandomStream, sample_subset
from chordal_lab.splits import (
    EXACT_LIMIT,
    SPLIT_FLOOR,
    approx_count_chordal,
    approx_count_split,
    _build_low_q,
    _ceil_log,
    _q_window,
    approx_sample_chordal,
    approx_sampler,
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
    split_windows,
    threshold_f,
    threshold_g,
)

# Frozen brute-force stratification of split graphs: n -> (total, q0, q1, qge2)
BRUTE_SPLIT_CLASSES = {
    2: (2, 0, 0, 2),
    3: (8, 0, 0, 8),
    4: (58, 12, 0, 46),
    5: (632, 240, 60, 332),
    6: (9654, 4980, 1440, 3234),
    7: (202484, 125160, 34860, 42464),
}


@pytest.fixture(autouse=True)
def fresh_window_cache():
    # A plan built under a patched guard or bound must not serve another test.
    splits._split_plan.cache_clear()
    yield
    splits._split_plan.cache_clear()


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

    def test_integer_log_matches_fraction_powers(self):
        def fraction_ceil_log(base, value):
            m, p = 0, Fraction(1)
            while p < value:
                p *= base
                m += 1
            return m

        rnd = random.Random(15)
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000), Fraction(3, 10 ** 7)):
            top = (1 / eps) ** 10
            values = [Fraction(1, 3), Fraction(999, 1000), Fraction(1), Fraction(10, 9),
                      Fraction(3, 2), 1 / eps, 2 / eps, (2 / eps) ** 3, top]
            values += [Fraction(rnd.randrange(1, top.numerator + 1), top.denominator)
                       for _ in range(20)]
            for base in (Fraction(10, 9), Fraction(3, 2), Fraction(2)):
                for value in values:
                    for v in (value, value * (1 + Fraction(1, 10 ** 9))):
                        assert _ceil_log(base, v) == fraction_ceil_log(base, v)
                # exact powers of the base sit on the boundary
                for m in (0, 1, 7, 40):
                    assert _ceil_log(base, base ** m) == m


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

    def test_ceilings_equal_the_multiplication_loop(self):
        def loop_ceil_log(base, value):
            # the reference: one exact multiplication per unit of the answer
            lhs, rhs = value.denominator, value.numerator
            m = 0
            while lhs < rhs:
                lhs *= base.numerator
                rhs *= base.denominator
                m += 1
            return m

        def loop_threshold_f(eps):
            return max(SPLIT_FLOOR, loop_ceil_log(Fraction(3, 2), (1 / eps) ** 3))

        rnd = random.Random(26)
        sweep = [Fraction(k, 10 ** e) for e in range(1, 301, 13) for k in (1, 3, 7)]
        sweep += [Fraction(1, 2 ** e) for e in (1, 2, 3, 10, 64, 333)]
        # values on the boundaries of the 3/2 and 10/9 ceilings
        sweep += [Fraction(2, 3) ** j for j in (1, 2, 5, 40)]
        sweep += [2 * Fraction(9, 10) ** m for m in (7, 8, 50, 700)]
        sweep += [Fraction(rnd.randrange(1, 10 ** 40), 10 ** 40) for _ in range(30)]
        for eps in sweep:
            assert ceil_log2_inverse(eps) == loop_ceil_log(Fraction(2), 1 / eps), eps
            assert _q_window(eps) == loop_ceil_log(Fraction(2), (1 / eps) ** 10) + 47, eps
            assert threshold_f(eps) == loop_threshold_f(eps), eps
            assert threshold_g(eps) == max(loop_threshold_f(eps / 2),
                                           loop_ceil_log(Fraction(10, 9), 2 / eps)), eps


    def test_floors_at_a_million_digit_epsilon_take_milliseconds(self):
        # The values the multiplication loop's powers give; forming (1/eps)**3
        # and (1/eps)**10 as Fractions took 1.4 and 11 s.
        eps = Fraction(1, 10 ** 1000000)
        for floor, want in ((threshold_g, 21854352), (_q_window, 33219328)):
            start = time.perf_counter()
            assert floor(eps) == want
            assert time.perf_counter() - start < 0.5, floor.__name__


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

    def test_full_sums_match_direct_formula(self):
        # the sums share one power per base; check them term by term against
        # the textbook form C(N, c) * (2^m - 1)^(N - m), m = min(c, N - c)
        def term(N, c):
            m = min(c, N - c)
            return comb(N, c) * (2 ** m - 1) ** (N - m)

        for n in range(0, 61):
            assert split_count_q0_full(n) == sum(term(n, c) for c in range(2, n - 1)), n
            assert split_count_q1_full(n) == n * sum(term(n - 1, c) for c in range(2, n - 1)), n

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


CERTIFIED_GRID = [(n, Fraction(1, 2 ** e)) for n in (70, 100, 200) for e in (7, 20, 60)]


class TestCertifiedWindows:
    """``split_windows`` widens each window until an exact tail bound proves
    it keeps (1 - eps) of its two-sided sum; these check the outcome against
    the full sums in exact rationals, and the two lemmas the bound rests on.
    ``TestApproxCountSplit::test_within_budget_of_full_sum`` checks the count
    against F at every point of the grid that the split floor accepts."""

    @pytest.mark.parametrize("n, eps", CERTIFIED_GRID)
    def test_windows_keep_promised_fraction(self, n, eps):
        windows = split_windows(n, eps)
        for window, full in ((windows.w0, split_count_q0_full(n)),
                             (windows.w1, split_count_q1_full(n))):
            assert (1 - eps) * full <= window <= full
        assert windows.w0 == split_count_q0_truncated(n, eps)
        assert windows.w1 == split_count_q1_truncated(n, eps)
        assert (sum(windows.q0_terms), sum(windows.q1_terms)) == (windows.w0, windows.w1)

    @pytest.mark.parametrize("n, eps", CERTIFIED_GRID)
    def test_fresh_plan_uses_the_windows(self, n, eps, monkeypatch):
        # the |Q| >= 2 guard has its own tests and refuses n below its floor;
        # this one is about the windows the plan draws from
        monkeypatch.setattr(splits, "_check_q_ge2_negligible", lambda n, delta, rest: None)
        plan = splits._split_plan(n, eps)
        assert plan.w0 == split_count_q0_truncated(n, eps)
        assert plan.w1 == split_count_q1_truncated(n, eps)
        assert plan == split_windows(n, eps)

    def test_term_bound_lemmas(self):
        # b_c = C(N, c) * 2^(m(N - m)), m = min(c, N - c), lies above the
        # |Q| = 0 term at c and does not decrease for c <= N/2
        from chordal_lab.splits import _term_bound

        for N in range(201):
            bounds = [_term_bound(N, c) for c in range(N + 1)]
            for c in range(N + 1):
                m = min(c, N - c)
                assert comb(N, c) * (2 ** m - 1) ** (N - m) <= bounds[c], (N, c)
            for c in range(N // 2):
                assert bounds[c] <= bounds[c + 1], (N, c)

    def test_tail_bounds_cover_every_left_out_term(self):
        # each stratum's actual range: c = 2..n-2 on N = n vertices for
        # |Q| = 0, and on N = n - 1 (c = N - 1 in, c = 1 out) for |Q| = 1
        from chordal_lab.splits import _tail_bound

        def term(N, c):
            m = min(c, N - c)
            return comb(N, c) * (2 ** m - 1) ** (N - m)

        for n in range(4, 41):
            for lo in range(2, n // 2 + 1):
                for hi in range((n + 1) // 2, n - 1):
                    outside = [c for c in range(2, n - 1) if not lo <= c <= hi]
                    tail0 = sum(term(n, c) for c in outside)
                    tail1 = sum(n * term(n - 1, c) for c in outside)
                    assert tail0 <= _tail_bound(n, lo, hi, n - 2), (n, lo, hi)
                    assert tail1 <= n * _tail_bound(n - 1, lo, hi, n - 2), (n, lo, hi)

    def test_windows_are_narrow(self):
        # ceil(sqrt(log2(1/eps))) = 4 either side of n/2 at the eps_w that
        # approx-count --epsilon 1e-3 uses, against 13 before certification
        eps = Fraction(1, 2000) * Fraction(1023, 1024)
        assert split_windows(1000, eps).cells == range(496, 505)
        for n in (70, 100, 200):
            cells = split_windows(n, Fraction(1, 2 ** 60)).cells
            assert len(cells) < 2 * (60 + 2), n

    def test_tiny_n_windows_are_the_whole_range(self):
        for n in range(10):
            windows = split_windows(n, "1e-3")
            assert windows.cells == range(2, max(2, n - 1))
            assert (windows.w0, windows.w1) == (split_count_q0_full(n),
                                                split_count_q1_full(n))

    def test_certificate_is_live(self, monkeypatch):
        n, eps = 70, Fraction(1, 2 ** 7)
        assert len(split_windows(n, eps).cells) < n - 3
        monkeypatch.setattr(splits, "_term_bound", lambda N, c: 1 << (N * N))
        windows = split_windows(n, eps)
        assert windows.cells == range(2, n - 1)
        assert windows.w0 == split_count_q0_full(n)
        assert windows.w1 == split_count_q1_full(n)

    def test_one_pow_per_distinct_base_and_no_cache(self, monkeypatch):
        # every big power goes through the module-level name ``pow``
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        n = 1000
        cells = split_windows(n, Fraction(1, 2000) * Fraction(1023, 1024)).cells
        distinct_m = {min(c, n - c) for c in cells} | {min(c, n - 1 - c) for c in cells}
        monkeypatch.setattr(splits, "pow", counting_pow, raising=False)
        first = approx_count_chordal(n, "1e-3")
        assert len(calls) == len(distinct_m) == 6
        assert len({args[0] for args in calls}) == len(calls)
        calls.clear()
        assert approx_count_chordal(n, "1e-3") == first
        assert len(calls) == 6


class TestApproxCountSplit:
    def test_definitional_identity(self):
        # windows at eps_w = eps - eps/1024; the |Q| >= 2 stratum is left
        # out because its bound is at most eps/1024 of the rest
        def rest(n, eps_w):
            return (split_count_q0_truncated(n, eps_w)
                    + split_count_q1_truncated(n, eps_w) + 2)

        n, eps = 70, Fraction(1, 100)
        eps_w = eps - eps / 1024
        assert split_count_q_ge2_bound(n) <= eps / 1024 * rest(n, eps_w)
        assert approx_count_split(n, eps) == rest(n, eps_w)

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


GUARD_EPSILONS = ([Fraction(999, 1000)] + [Fraction(1, 2 ** e) for e in range(1, 61)]
                  + [Fraction(1, 10 ** e) for e in range(1, 13)])


class TestQGe2Guard:
    """The |Q| >= 2 stratum is left out of both the count and the sampler
    under U(n) <= (eps/1024) * window total, proven for every n the split
    path accepts and checked on every call."""

    def test_guard_passes_at_every_floor(self, monkeypatch):
        checked = []
        guard = splits._check_q_ge2_negligible

        def counting_guard(n, delta, rest):
            checked.append(n)
            guard(n, delta, rest)

        monkeypatch.setattr(splits, "_check_q_ge2_negligible", counting_guard)
        calls = 0
        for eps in GUARD_EPSILONS:
            floor = threshold_f(eps)
            for n in (floor, floor + 1):
                assert approx_count_split(n, eps) > 0
                splits._split_plan.cache_clear()
                splits._split_plan(n, min(eps, Fraction(1, 3)))
                calls += 2
        assert len(checked) == calls

    def test_guard_is_live(self, monkeypatch):
        monkeypatch.setattr(splits, "split_count_q_ge2_bound", lambda n: 1 << (n * n))
        with pytest.raises(AssertionError, match=r"\|Q\| >= 2 bound at n = 70"):
            approx_count_split(70, "1e-2")
        with pytest.raises(AssertionError, match=r"\|Q\| >= 2 bound at n = 70"):
            sample_split_draw(70, "1e-2", RandomStream(1))
        assert splits._split_plan.cache_info().currsize == 0


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

        monkeypatch.setattr(counting.CountingContext, "_fill", refuse)
        assert EXACT_LIMIT < 40 < threshold_g("1e-2") == 65
        with pytest.raises(ValueError, match=r"floor 65 .*count_all\(40\)"):
            approx_count_chordal(40, "1e-2")

    def test_negative_n_rejected_at_entry(self, monkeypatch):
        import chordal_lab.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fill was started")

        monkeypatch.setattr(counting.CountingContext, "_fill", refuse)
        for n in (-1, -3, -1000):
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                approx_count_chordal(n, "1e-2")


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
        assert branch_seen  # at least one branch exercised

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

    def test_full_q_branch_fair_coin(self, monkeypatch):
        # the |Q| = n stratum carries weight 2 against astronomically larger
        # strata, so force it through an injected plan: the branch must flip
        # a fair coin between the complete graph and the edgeless graph
        from collections import Counter

        from chordal_lab.graphs import complete_graph, LabeledGraph
        from chordal_lab.splits import SplitWindows

        n = 70
        plan = SplitWindows(cells=range(0), q0_terms=(), q1_terms=(), w0=0, w1=0)
        monkeypatch.setattr(splits, "_split_plan", lambda n, eps_work: plan)
        rng = RandomStream(1234)
        outcomes = Counter()
        for _ in range(400):
            d = sample_split_draw(n, "0.25", rng)
            assert d.branch == "q_full" and d.swing == frozenset(range(1, n + 1))
            full = d.graph == complete_graph(range(1, n + 1))
            empty = d.graph == LabeledGraph(range(1, n + 1))
            assert full != empty
            outcomes["full" if full else "empty"] += 1
        assert abs(outcomes["full"] - 200) < 4 * (400 * 0.25) ** 0.5

    def test_witness_branch(self, monkeypatch):
        # the |Q| = 1 stratum is about n * 2^(-n/2) of the total, so no real
        # draw takes it: empty the |Q| = 0 window in an injected plan
        from dataclasses import replace

        n, eps_work = 70, Fraction(1, 8)
        plan = replace(split_windows(n, eps_work), w0=0)
        monkeypatch.setattr(splits, "_split_plan", lambda n, eps_work: plan)
        rng = RandomStream(42)
        for _ in range(20):
            d = sample_split_draw(n, "0.25", rng)
            assert (d.branch, d.q, len(d.swing)) == ("q1", 1, 1)
            part = split_partition(d.graph)
            assert part.questioning == d.swing
            assert (part.always_clique, part.always_independent) == (d.cyan, d.indigo)

    def test_rejection_cap(self, monkeypatch):
        # one cell, c = 1 with no witness: every mask is 0, so no cyan vertex
        # is ever covered; w0 = 10^30 keeps the |Q| = n branch out of reach
        from chordal_lab.splits import RejectionCapError, SplitWindows

        plan = SplitWindows(
            cells=range(1, 2), q0_terms=(10 ** 30,), q1_terms=(0,), w0=10 ** 30, w1=0)
        monkeypatch.setattr(splits, "_split_plan", lambda n, eps_work: plan)
        attempts = []

        def counted(*args, **kwargs):
            attempts.append(args)
            return _build_low_q(*args, **kwargs)

        monkeypatch.setattr(splits, "_build_low_q", counted)
        with pytest.raises(RejectionCapError, match="within 128 iterations at n = 70"):
            sample_split_draw(70, "1e-2", RandomStream(5))
        assert len(attempts) == 128


def edge_list_build_low_q(n, c, with_witness, rng):
    """``_build_low_q`` as first written, listing every edge pair: the reference
    for the per-vertex assembly.  Returns (graph, cyan, indigo, swing) or None."""
    labels = list(range(1, n + 1))
    if with_witness:
        white = sample_subset(labels, 1, rng)
        pool = [v for v in labels if v != white[0]]
        half = (n - 1) // 2
    else:
        white = []
        pool = labels
        half = n // 2
    cyan = sample_subset(pool, c, rng)
    indigo = [v for v in pool if v not in set(cyan)]
    edges = []
    for i, u in enumerate(cyan):
        edges.extend((u, v) for v in cyan[i + 1:])
    if white:
        edges.extend((white[0], v) for v in cyan)
    if c <= half:
        cyan_hit = set()
        for u in indigo:
            mask = rng.uniform_below(2 ** c - 1)
            nbrs = [e for i, e in enumerate(cyan) if mask >> i & 1]
            cyan_hit.update(nbrs)
            edges.extend((u, v) for v in nbrs)
        ok = len(cyan_hit) == c
    else:
        m = len(indigo)
        hit_by_all = (1 << m) - 1
        for u in cyan:
            mask = 1 + rng.uniform_below(2 ** m - 1)
            hit_by_all &= mask
            edges.extend((u, v) for i, v in enumerate(indigo) if mask >> i & 1)
        ok = hit_by_all == 0
    if not ok:
        return None
    return LabeledGraph(labels, edges), frozenset(cyan), frozenset(indigo), frozenset(white)


class TestBuildLowQ:
    @pytest.mark.parametrize("n", range(8, 17))
    def test_matches_edge_list_reference(self, n):
        accepted = rejected = 0
        for c in range(2, n - 1):
            for with_witness in (False, True):
                for seed in range(20):
                    rng_ref, rng = RandomStream(seed), RandomStream(seed)
                    want = edge_list_build_low_q(n, c, with_witness, rng_ref)
                    draw = _build_low_q(n, c, with_witness, rng)
                    if want is None:
                        assert draw is None
                        rejected += 1
                    else:
                        assert (draw.graph, draw.cyan, draw.indigo, draw.swing) == want
                        accepted += 1
                    # the same draws, in the same order, were taken
                    assert rng.bits(64) == rng_ref.bits(64)
        assert accepted and rejected


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

        monkeypatch.setattr(counting.CountingContext, "_fill", refuse)
        assert EXACT_LIMIT < 40 < threshold_g(Fraction(1, 200)) == 65
        with pytest.raises(ValueError, match="floor 65 "):
            approx_sample_chordal(40, "1e-2", RandomStream(1))
        with pytest.raises(ValueError, match="floor 65 "):
            approx_sampler(40, "1e-2")

    def test_negative_n_rejected_at_entry(self, monkeypatch):
        import chordal_lab.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fill was started")

        monkeypatch.setattr(counting.CountingContext, "_fill", refuse)
        for n in (-1, -3, -1000):
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                approx_sampler(n, "1e-2")
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                approx_sample_chordal(n, "1e-2", RandomStream(1))

    def test_large_n_split_path(self):
        g = approx_sample_chordal(200, "1e-3", RandomStream(45))
        assert split_partition(g) is not None

    def test_one_draw_function_draws_as_the_calls_do(self):
        for n in (0, 6, 200):
            draw = approx_sampler(n, "1e-3")
            rng_a, rng_b = RandomStream(9), RandomStream(9)
            assert ([draw(rng_a) for _ in range(3)]
                    == [approx_sample_chordal(n, "1e-3", rng_b) for _ in range(3)])

    def test_seed_determinism_both_paths(self):
        for n in (6, 200):
            a = approx_sample_chordal(n, "1e-3", RandomStream(9))
            b = approx_sample_chordal(n, "1e-3", RandomStream(9))
            assert a == b


class TestPlanCache:
    def test_a_fifth_plan_drops_the_oldest(self):
        rng = RandomStream(3)
        for n in (70, 71, 72, 73, 70, 74):
            sample_split_draw(n, "1e-2", rng)
        info = splits._split_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 5, splits.CACHE_SIZE)
        for n in (70, 72, 73, 74):  # 71 was the least recently drawn
            sample_split_draw(n, "1e-2", rng)
        assert splits._split_plan.cache_info().misses == 5
        sample_split_draw(71, "1e-2", rng)
        assert splits._split_plan.cache_info().misses == 6

    def test_exact_limit_is_the_counting_limit(self):
        import chordal_lab.counting as counting

        assert EXACT_LIMIT is counting.EXACT_LIMIT
