import gc
import hashlib
import inspect
import math
import sys
import time
import tracemalloc
import zlib
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordal_lab.sampling as sampling
from chordal_lab.counting import CLASS_ARGS, CountingContext, class_params
from chordal_lab.graphs import (
    evaporation_sequence,
    is_chordal,
    is_connected,
    max_clique_size,
    to_edge_list_text,
)
from chordal_lab.bruteforce import (
    bitmask_of,
    brute_counts,
    check_class_membership,
    class_members,
    uniformity_test,
)
from chordal_lab.sampling import (
    ChordalSampler,
    RandomStream,
    categorical,
    sample_chordal,
    sample_connected_chordal,
    sample_subset,
)


class TestRandomStream:
    def test_deterministic_given_seed(self):
        a, b = RandomStream(42), RandomStream(42)
        assert [a.bits(13) for _ in range(50)] == [b.bits(13) for _ in range(50)]

    def test_entropy_seed_recorded(self):
        rng = RandomStream()
        assert RandomStream(rng.seed).bits(8) == RandomStream(rng.seed).bits(8)

    def test_spawn_differs(self):
        rng = RandomStream(7)
        assert rng.spawn(0).seed != rng.spawn(1).seed

    def test_zero_bits(self):
        assert RandomStream(1).bits(0) == 0
        with pytest.raises(ValueError, match="^bit count must be nonnegative$"):
            RandomStream(1).bits(-1)


class TestUniformBelow:
    def test_bound_one(self):
        rng = RandomStream(0)
        assert all(rng.uniform_below(1) == 0 for _ in range(10))

    def test_bound_zero_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(0).uniform_below(0)

    def test_fair_coin(self):
        rng = RandomStream(123)
        n = 40000
        ones = sum(rng.uniform_below(2) for _ in range(n))
        assert abs(ones - n / 2) < 4 * math.sqrt(n * 0.25)

    @given(st.integers(1, 10 ** 30), st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_always_in_range(self, bound, seed):
        assert 0 <= RandomStream(seed).uniform_below(bound) < bound

    def test_61_bins_within_four_sigma(self):
        # empirical frequencies over a million draws stay within 4 sigma
        rng = RandomStream(2718281828)
        n = 10 ** 6
        w = 61
        counts = Counter(rng.uniform_below(w) for _ in range(n))
        assert set(counts) <= set(range(w))
        p = 1 / w
        sigma = math.sqrt(n * p * (1 - p))
        for i in range(w):
            assert abs(counts[i] - n * p) < 4 * sigma, i


class TestCategorical:
    def test_zero_weight_never_selected(self):
        rng = RandomStream(5)
        assert all(categorical([0, 5], rng) == 1 for _ in range(50))

    def test_uniform_three(self):
        rng = RandomStream(6)
        n = 30000
        counts = Counter(categorical([1, 1, 1], rng) for _ in range(n))
        for i in range(3):
            assert abs(counts[i] - n / 3) < 4 * math.sqrt(n * (1 / 3) * (2 / 3))

    def test_three_to_one_ratio(self):
        rng = RandomStream(7)
        n = 40000
        zeros = sum(1 for _ in range(n) if categorical([3, 1], rng) == 0)
        assert abs(zeros - 0.75 * n) < 4 * math.sqrt(n * 0.75 * 0.25)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            categorical([0, 0], RandomStream(1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            categorical([1, -1], RandomStream(1))


class TestSubsetSampling:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_subset([1, 2], 3, RandomStream(0))

    def test_uniform_over_pairs(self):
        rng = RandomStream(11)
        n = 30000
        counts = Counter(tuple(sample_subset(range(1, 6), 2, rng)) for _ in range(n))
        assert len(counts) == 10
        exp = n / 10
        for c in counts.values():
            assert abs(c - exp) < 4 * math.sqrt(n * 0.1 * 0.9)


@pytest.fixture(scope="module")
def ctx5():
    ctx = CountingContext(5, 5)
    ctx.count_all(5)
    return ctx


class TestSampleChordal:
    def test_empty_graph(self, ctx5):
        g = ChordalSampler(ctx5).sample_chordal(0, RandomStream(1))
        assert g.vertices == () and g.edges() == []

    def test_single_vertex(self, ctx5):
        g = ChordalSampler(ctx5).sample_chordal(1, RandomStream(1))
        assert g.vertices == (1,) and g.edges() == []

    def test_validity_bundle(self):
        ctx = CountingContext(5, 3)
        ctx.count_all(5)
        s = ChordalSampler(ctx)
        rng = RandomStream(99)
        for _ in range(300):
            g = s.sample_chordal(5, rng)
            assert g.vertices == (1, 2, 3, 4, 5)
            assert is_chordal(g)
            assert max_clique_size(g) <= 3

    def test_connected_validity(self):
        ctx = CountingContext(6, 4)
        s = ChordalSampler(ctx)
        rng = RandomStream(100)
        for _ in range(200):
            g = s.sample_connected(6, rng)
            assert is_connected(g) and is_chordal(g) and max_clique_size(g) <= 4

    def test_connected_n2_always_edge(self, ctx5):
        s = ChordalSampler(ctx5)
        rng = RandomStream(4)
        for _ in range(20):
            assert s.sample_connected(2, rng).edges() == [(1, 2)]

    def test_impossible_class_raises(self):
        ctx = CountingContext(3, 1)
        with pytest.raises(ValueError):
            ChordalSampler(ctx).sample_connected(2, RandomStream(0))

    def test_seed_determinism(self, ctx5):
        s = ChordalSampler(ctx5)
        rng1, rng2 = RandomStream(77), RandomStream(77)
        a = [s.sample_chordal(5, rng1) for _ in range(10)]
        b = [s.sample_chordal(5, rng2) for _ in range(10)]
        assert a == b

    def test_convenience_wrappers(self):
        g = sample_chordal(4, seed=5)
        assert g.vertices == (1, 2, 3, 4)
        h = sample_connected_chordal(4, omega=2, seed=5)
        assert is_connected(h) and max_clique_size(h) <= 2

    @pytest.mark.parametrize("wrapper", [sample_chordal, sample_connected_chordal])
    def test_convenience_wrappers_check_omega_against_ctx(self, wrapper):
        ctx = CountingContext(10)
        with pytest.raises(ValueError, match="omega"):
            wrapper(10, omega=2, seed=0, ctx=ctx)
        # on [10], budgets of 10 and more are the same class
        for omega in (None, 10, 12):
            assert wrapper(10, omega=omega, seed=0, ctx=ctx) == wrapper(10, seed=0, ctx=ctx)
        g = wrapper(10, omega=10, seed=0, ctx=CountingContext(12))
        assert g.vertices == tuple(range(1, 11))
        g = wrapper(10, omega=2, seed=0, ctx=CountingContext(10, 2))
        assert max_clique_size(g) <= 2


class TestSampleClass:
    CASES = [
        ("within", (2, 2, 2, 1)),
        ("exact", (1, 1, 2, 0)),
        ("exact", (2, 1, 3, 0)),
        ("exact_proper", (1, 2, 2, 1)),
        ("exact_single", (2, 0, 3)),
        ("exact_single", (2, 1, 3)),
        ("exact_multi", (1, 1, 2)),
        ("exact_multi", (2, 1, 4)),
        ("pinned", (2, 0, 1, 2)),
        ("pinned", (2, 1, 1, 2)),
        ("pinned_exact", (2, 1, 1, 3)),
        ("pinned_proper_z", (2, 1, 1, 1, 1)),
        ("pinned_proper_z", (2, 1, 1, 1, 0)),
        ("pinned_proper_z", (2, 1, 2, 2, 1)),
        ("pinned_proper_z", (3, 1, 1, 3, 0)),
    ]

    @pytest.mark.parametrize("kind,args", CASES)
    def test_membership_and_support(self, ctx5, kind, args):
        members = class_members(kind, args, omega=5)
        count = ctx5.count(kind, args)
        assert count == len(members)
        if count == 0:
            with pytest.raises(ValueError):
                ChordalSampler(ctx5).sample_class(kind, args, RandomStream(0))
            return
        s = ChordalSampler(ctx5)
        rng = RandomStream(zlib.crc32(repr((kind, args)).encode()) & 0xFFFF)
        seen = set()
        for _ in range(min(40 * count, 400)):
            g = s.sample_class(kind, args, rng)
            assert check_class_membership(kind, args, g, 5), (kind, args, g)
            seen.add(g)
        assert seen == set(members)

    def test_complete_graph_base_cases(self, ctx5):
        s = ChordalSampler(ctx5)
        rng = RandomStream(8)
        from chordal_lab.graphs import complete_graph

        for _ in range(5):
            assert s.sample_class("pinned", (1, 0, 3, 0), rng) == complete_graph([1, 2, 3])
            assert s.sample_class("within", (0, 2, 0, 1), rng) == complete_graph([1, 2])

    def test_unknown_kind(self, ctx5):
        with pytest.raises(ValueError):
            ChordalSampler(ctx5).sample_class("nope", (1, 2), RandomStream(0))

    def test_empty_class_raises(self, ctx5):
        # two free vertices cannot take three rounds to evaporate
        assert ctx5.count("exact_single", (3, 0, 2)) == 0
        with pytest.raises(ValueError):
            ChordalSampler(ctx5).sample_class("exact_single", (3, 0, 2), RandomStream(0))


class TestOneGraphPerSample:
    """Parts receive their labels before they are sampled, so a sample builds
    its graph once, at the end, instead of building and merging every part,
    from an edge list that names each edge once."""

    @pytest.mark.parametrize("call", [
        lambda s, rng: s.sample_chordal(5, rng),
        lambda s, rng: s.sample_connected(5, rng),
        lambda s, rng: s.sample_class("within", (3, 1, 3, 0), rng),
        lambda s, rng: s.sample_class("pinned_exact", (2, 0, 2, 3), rng),
        lambda s, rng: s.sample_class("pinned_proper_z", (3, 1, 1, 3, 0), rng),
    ], ids=["chordal", "connected", "within", "pinned_exact", "pinned_proper_z"])
    def test_one_labeled_graph_per_call(self, ctx5, monkeypatch, call):
        import chordal_lab.sampling as sampling

        built = []
        init = sampling.LabeledGraph.__init__

        def counting_init(self, vertices, edges=()):
            built.append([frozenset(e) for e in edges])
            init(self, vertices, edges)

        monkeypatch.setattr(sampling.LabeledGraph, "__init__", counting_init)
        s = ChordalSampler(ctx5)
        rng = RandomStream(21)
        for _ in range(20):
            built.clear()
            g = call(s, rng)
            assert len(built) == 1 and is_chordal(g)
            assert len(set(built[0])) == len(built[0]) == g.edge_count()


class TestUniformity:
    def test_uniform_over_all_chordal_n3(self):
        ctx = CountingContext(3, 3)
        ctx.count_all(3)
        s = ChordalSampler(ctx)
        rng = RandomStream(31337)
        bc = brute_counts(3, include_graphs=True)
        support = [m for m, mc, _ in bc.chordal_graphs]
        samples = [bitmask_of(s.sample_chordal(3, rng)) for _ in range(20000)]
        res = uniformity_test(samples, support)
        assert res.passed, (res.statistic, res.threshold)

    def test_uniform_over_connected_n4_trees(self):
        ctx = CountingContext(4, 2)
        s = ChordalSampler(ctx)
        rng = RandomStream(808)
        samples = [bitmask_of(s.sample_connected(4, rng)) for _ in range(16000)]
        bc = brute_counts(4, include_graphs=True)
        support = [m for m, mc, conn in bc.chordal_graphs if conn and mc <= 2]
        assert len(support) == 16
        res = uniformity_test(samples, support)
        assert res.passed, (res.statistic, res.threshold)

    def test_class_support_three_paths(self):
        ctx = CountingContext(3, 3)
        s = ChordalSampler(ctx)
        rng = RandomStream(55)
        seen = {bitmask_of(s.sample_class("exact_single", (2, 0, 3), rng))
                for _ in range(200)}
        paths = {bitmask_of(g) for g in class_members("exact_single", (2, 0, 3), 3)}
        assert seen == paths and len(paths) == 3

    @pytest.mark.parametrize("kind,args,seed", [
        ("within", (3, 1, 3, 0), 41),       # mixes finish-time splits and recursion
        ("exact", (1, 2, 3, 1), 42),        # nontrivial prefix-exclusion weights
        ("pinned_exact", (2, 0, 2, 3), 43), # all three all-seeing-component cases
    ])
    def test_uniform_within_class(self, ctx5, kind, args, seed):
        members = class_members(kind, args, omega=5)
        assert 15 <= len(members) <= 40
        s = ChordalSampler(ctx5)
        rng = RandomStream(seed)
        samples = [s.sample_class(kind, args, rng) for _ in range(8000)]
        res = uniformity_test(samples, members)
        assert res.passed, (kind, args, res.statistic, res.threshold)

    def test_uniform_over_connected_n3(self):
        # four graphs: the triangle and the three labeled paths
        ctx = CountingContext(3, 3)
        s = ChordalSampler(ctx)
        rng = RandomStream(606)
        samples = [bitmask_of(s.sample_connected(3, rng)) for _ in range(12000)]
        bc = brute_counts(3, include_graphs=True)
        support = [m for m, _, conn in bc.chordal_graphs if conn]
        assert len(support) == 4
        res = uniformity_test(samples, support)
        assert res.passed, (res.statistic, res.threshold)


BIJECTION_N = 5


def _class_tuples(ctx: CountingContext, n: int):
    """(kind, args) of every class ``count`` accepts on at most n vertices,
    with t <= n + 1."""
    for kind, names in CLASS_ARGS.items():
        ranges = [range(n + 2) if c == "t" else range(n + 1) for c in names]
        for args in product(*ranges):
            _, x, l, k, _ = class_params(kind, args)
            if x + l + k > n:
                continue
            try:
                ctx.count(kind, args)
            except ValueError:
                continue
            yield kind, args


class TestUnrankBijection:
    """Unranking every rank below a class's count gives that many distinct
    members, so a uniform rank gives an exactly uniform member."""

    @pytest.mark.parametrize("omega", range(1, BIJECTION_N + 1))
    def test_every_class_at_n_max_5(self, omega):
        ctx = CountingContext(BIJECTION_N, omega)
        s = ChordalSampler(ctx)
        nonempty = set()
        for kind, args in _class_tuples(ctx, BIJECTION_N):
            count = ctx.count(kind, args)
            graphs = {s.unrank(kind, args, r) for r in range(count)}
            assert len(graphs) == count, (kind, args)
            for g in graphs:
                assert check_class_membership(kind, args, g, omega), (kind, args, g)
            if count:
                nonempty.add(kind)
        # At omega = 1 the members are single vertices and bare roots, so the
        # classes that need two components, or a component beside a pinned
        # layer, are empty.
        empty = {"exact_multi", "pinned_exact", "pinned_proper_z"}
        assert set(CLASS_ARGS) - nonempty == (empty if omega == 1 else set())

    def test_pinned_nodes_are_weighed_past_round_1(self):
        # The weighers of pinned_exact and pinned_proper_z read round t - 1
        # tables with no guard at t = 1: no node they weigh has t = 1.
        ctx = CountingContext(BIJECTION_N)
        s = ChordalSampler(ctx)
        for kind, args in _class_tuples(ctx, BIJECTION_N):
            if kind in ("pinned_exact", "pinned_proper_z"):
                for r in range(ctx.count(kind, args)):
                    s.unrank(kind, args, r)
        assert s.plan_stats()["plans"] == s.plan_stats()["misses"]  # none evicted
        rounds = {key[1] for key in s._plans if key[0] in ("pinned_exact", "pinned_proper_z")}
        assert rounds and min(rounds) >= 2

    @staticmethod
    def _check_top_level(kinds: tuple, n: int, omega: int) -> None:
        ctx = CountingContext(BIJECTION_N + 1, omega)
        s = ChordalSampler(ctx)
        chordal = brute_counts(n, include_graphs=True).chordal_graphs
        for kind in kinds:
            count = ctx.count(kind, (n,))
            got = [bitmask_of(s.unrank(kind, (n,), r)) for r in range(count)]
            want = {m for m, mc, conn in chordal
                    if mc <= omega and (conn or kind == "all")}
            assert len(got) == len(want) and set(got) == want, (kind, n, omega)

    @pytest.mark.parametrize("n", range(BIJECTION_N + 1))
    def test_all_and_connected_match_enumeration(self, n):
        kinds = ("all", "connected") if n else ("all",)
        for omega in range(1, BIJECTION_N + 1):
            self._check_top_level(kinds, n, omega)

    def test_all_at_n_6(self):
        # 18,154 chordal graphs on [6]; the block of those with one component
        # unranks every connected graph on [6] as well.
        self._check_top_level(("all",), BIJECTION_N + 1, BIJECTION_N + 1)


class TestUnrankDomain:
    def test_rank_outside_the_class(self, ctx5):
        s = ChordalSampler(ctx5)
        for kind, args in [("exact", (1, 2, 3, 1)), ("all", (5,)), ("connected", (4,))]:
            count = ctx5.count(kind, args)
            assert s.unrank(kind, args, count - 1) != s.unrank(kind, args, 0)
            for r in (-1, count):
                with pytest.raises(ValueError, match="rank"):
                    s.unrank(kind, args, r)

    def test_empty_class_has_no_rank(self, ctx5):
        assert ctx5.count("exact_single", (3, 0, 2)) == 0
        with pytest.raises(ValueError, match="rank"):
            ChordalSampler(ctx5).unrank("exact_single", (3, 0, 2), 0)

    def test_unknown_kind(self, ctx5):
        with pytest.raises(ValueError, match="unknown class kind"):
            ChordalSampler(ctx5).unrank("nope", (1, 2), 0)

    def test_rounds_far_past_the_last(self, ctx5):
        # within keeps its last round's count for every later t, and unranking
        # starts its walk down the rounds at the context's last round
        args = (2000, 2, 3, 1)
        count = ctx5.count("within", args)
        assert count == ctx5.count("within", (5, 2, 3, 1))
        s = ChordalSampler(ctx5)
        graphs = {s.unrank("within", args, r) for r in range(count)}
        assert len(graphs) == count
        assert all(check_class_membership("within", args, g, 5) for g in graphs)

    def test_a_huge_round_unranks_as_the_last(self, ctx5):
        last = ctx5.last_round
        count = ctx5.count("within", (last, 2, 3, 1))
        assert ctx5.count("within", (10 ** 9, 2, 3, 1)) == count
        s = ChordalSampler(ctx5)
        start = time.perf_counter()
        for r in range(count):
            assert s.unrank("within", (10 ** 9, 2, 3, 1), r) == \
                s.unrank("within", (last, 2, 3, 1), r)
        assert time.perf_counter() - start < 1
        assert max(key[1] for key in s._plans if key[0] == "within") == last

    @pytest.mark.parametrize("kind,args", [
        ("pinned", (2, 0, 1)), ("exact", (1, 2, 3, 1, 0)), ("all", (3, 1)), ("connected", ()),
    ])
    def test_wrong_arity(self, ctx5, kind, args):
        with pytest.raises(ValueError, match="argument"):
            ChordalSampler(ctx5).unrank(kind, args, 0)


class TestOneDrawPerSample:
    @pytest.mark.parametrize("kind", ["all", "connected"])
    def test_one_uniform_draw(self, monkeypatch, kind):
        ctx = CountingContext(12)
        sampler = ChordalSampler(ctx)
        draw = sampler.sample_chordal if kind == "all" else sampler.sample_connected
        bounds = []
        below = RandomStream.uniform_below

        def counted(self, bound):
            bounds.append(bound)
            return below(self, bound)

        monkeypatch.setattr(RandomStream, "uniform_below", counted)
        rng = RandomStream(12)
        for _ in range(5):
            bounds.clear()
            g = draw(12, rng)
            assert bounds == [ctx.count(kind, (12,))]
            assert is_chordal(g)


class TestOneClassReadPerSample:
    """A draw validates its class and reads its count once, for the rank it
    draws and the walk it starts."""

    @pytest.mark.parametrize("draw", [
        lambda s, rng: s.sample_chordal(5, rng),
        lambda s, rng: s.sample_class("pinned", (2, 1, 1, 2), rng),
    ], ids=["sample_chordal", "sample_class"])
    def test_one_class_call(self, ctx5, monkeypatch, draw):
        calls = []
        read = ChordalSampler._class

        def counted(self, kind, args):
            calls.append((kind, tuple(args)))
            return read(self, kind, args)

        monkeypatch.setattr(ChordalSampler, "_class", counted)
        s = ChordalSampler(ctx5)
        rng = RandomStream(6)
        for _ in range(5):
            calls.clear()
            draw(s, rng)
            assert len(calls) == 1


class TestUnrankStack:
    """Unranking runs its steps in one loop, so the interpreter's stack does
    not grow with the evaporation rounds or the components of a member."""

    def test_the_star_and_the_path_at_n_60(self):
        ctx = CountingContext(60, 2)
        s = ChordalSampler(ctx)
        count = ctx.count_connected(60)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            star = s.unrank("connected", (60,), 0)
            path = s.unrank("connected", (60,), count - 1)
        finally:
            sys.setrecursionlimit(limit)
        assert len(evaporation_sequence(star).layers) == 2
        assert len(evaporation_sequence(path).layers) == 30


class TestOperationBudget:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_per_sample_ceiling(self, n):
        ctx = CountingContext(n, n)
        ctx.count_all(n)
        s = ChordalSampler(ctx)
        rng = RandomStream(1)
        for _ in range(10):
            s.ops = 0
            s.sample_chordal(n, rng)
            # generous constant over the quartic growth of weight-term counts
            assert s.ops <= 50 * n ** 4 + 500


class TestPlanCache:
    def test_a_repeated_rank_weighs_nothing(self):
        ctx = CountingContext(12)
        s = ChordalSampler(ctx)
        r = ctx.count_all(12) // 3
        g = s.unrank("all", (12,), r)
        assert s.ops > 0
        ops, stats = s.ops, s.plan_stats()
        assert s.unrank("all", (12,), r) == g
        assert s.ops == ops
        assert s.plan_stats()["misses"] == stats["misses"]

    @pytest.mark.parametrize("n,omega", [(12, 12), (16, 3)])
    def test_eviction_keeps_the_draws(self, monkeypatch, n, omega):
        ctx = CountingContext(n, omega)
        rng = RandomStream(n)
        want = [ChordalSampler(ctx).sample_chordal(n, rng) for _ in range(300)]
        monkeypatch.setattr(sampling, "PLAN_ENTRIES", 40)
        s = ChordalSampler(ctx)
        rng = RandomStream(n)
        for g in want:
            assert s.sample_chordal(n, rng) == g
            assert s.plan_stats()["entries"] <= 40
        assert s.plan_stats()["misses"] > s.plan_stats()["plans"]  # plans were evicted

    def test_least_recently_used_goes_first(self, monkeypatch):
        s = ChordalSampler(CountingContext(8, 8))
        old, mid, new = [("connected", n) for n in (3, 4, 5)]
        for key in (old, mid, new, old):
            s._term(key, 0)
        assert list(s._plans) == [mid, new, old]
        monkeypatch.setattr(sampling, "PLAN_ENTRIES", s.plan_stats()["entries"])
        s._term(("connected", 2), 0)  # one entry, fewer than mid holds
        assert list(s._plans) == [new, old, ("connected", 2)]

    def test_stats_count_every_lookup(self, monkeypatch):
        monkeypatch.setattr(sampling, "PLAN_ENTRIES", 200)
        lookups = []
        term = ChordalSampler._term

        def counted(self, key, r):
            lookups.append(key)
            return term(self, key, r)

        monkeypatch.setattr(ChordalSampler, "_term", counted)
        s = ChordalSampler(CountingContext(12))
        rng = RandomStream(4)
        for _ in range(100):
            s.sample_chordal(12, rng)
            stats = s.plan_stats()
            assert stats["hits"] + stats["misses"] == len(lookups)
            assert stats["entries"] == sum(len(terms) for _, terms, _ in s._plans.values()) <= 200
            assert stats["plans"] == len(s._plans)
        assert stats["hits"] > stats["misses"] > 0


class TestTermDecoders:
    """Every term of every plan a few draws build at n = 10 decodes to members
    of its class, and distinct blocks of ranks to distinct members; the
    bijection tests above reach the decoders at n <= 6 only.  At a block's
    first rank every mixed-radix digit ``_term`` reads is 0, and at its last
    rank every digit is its radix - 1, so the radices tile the block."""

    @pytest.mark.parametrize("omega", [3, 10])
    def test_first_and_last_rank_of_every_block(self, omega):
        n = 10
        ctx = CountingContext(n, omega)
        s = ChordalSampler(ctx)
        rng = RandomStream(omega)
        for _ in range(40):
            s.sample_chordal(n, rng)
            s.sample_connected(n, rng)
        plans = dict(s._plans)  # unranking below reorders and evicts the cache
        assert {key[0] for key in plans} == set(CLASS_ARGS) | {"all", "connected"}
        for (kind, *args), (starts, terms, radices) in plans.items():
            count = ctx.count(kind, args)
            ends = starts[1:] + (count,)
            key = (kind, *args)
            a = len(radices) // len(terms)  # radices per term, flat
            assert len(radices) == a * len(terms), key
            for i, (start, end, term) in enumerate(zip(starts, ends, terms)):
                term_radices = radices[i * a:(i + 1) * a]
                assert s._term(key, start) == (term, [0] * len(term_radices), 0)
                width = end - start
                assert width % math.prod(term_radices) == 0, (key, term)
                last = (term, [radix - 1 for radix in term_radices],
                        width // math.prod(term_radices) - 1)
                assert s._term(key, end - 1) == last, (key, term)
            ranks = {r for start, end in zip(starts, ends) for r in (start, end - 1)}
            graphs = {s.unrank(kind, args, r) for r in ranks}
            assert len(graphs) == len(ranks), (kind, args)
            for g in graphs:
                if kind in CLASS_ARGS:
                    assert check_class_membership(kind, args, g, omega), (kind, args, g)
                else:
                    assert g.vertices == tuple(range(1, args[0] + 1))
                    assert is_chordal(g) and max_clique_size(g) <= omega
                    assert kind == "all" or is_connected(g)


def _draw_1000(n, omega, connected):
    """The sampler after 1,000 draws at seed 11, and the sha1 of the edge-list
    texts of the draws, concatenated."""
    s = ChordalSampler(CountingContext(n, omega))
    rng = RandomStream(11)
    digest = hashlib.sha1()
    for _ in range(1000):
        g = s.sample_connected(n, rng) if connected else s.sample_chordal(n, rng)
        digest.update(to_edge_list_text(g).encode())
    return s, digest.hexdigest()


class TestPinnedWork:
    """The plan misses and weighed terms of 1,000 seeded draws on the two
    benchmarked samplers, and the bytes they print.  The digests are those of
    the sampler before plans were read from whole table rows; a change that
    moves a count here moves the sampler's work, and says so."""

    @pytest.mark.parametrize("n,omega,connected,misses,ops,sha1", [
        (20, 20, True, 2591, 48117, "ab593792947561ed44079ae8e41e33f1814fd65e"),
        (40, 3, False, 3099, 33705, "268bcfe36c605de07ef4aea8c2a239271340e676"),
    ])
    def test_misses_ops_and_output(self, n, omega, connected, misses, ops, sha1):
        s, digest = _draw_1000(n, omega, connected)
        assert digest == sha1
        assert (s.plan_stats()["misses"], s.ops) == (misses, ops)


class TestPlanMemory:
    @pytest.mark.parametrize("n,omega,connected", [(40, 3, False), (20, 20, True)])
    def test_sampler_retains_at_most_2_3_mb(self, n, omega, connected):
        # A full cache of PLAN_ENTRIES terms held about 1.4 and 1.8 MB here;
        # the full collection frees what the interpreter's free lists keep.
        ctx = CountingContext(n, omega)
        rng = RandomStream(11)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = ChordalSampler(ctx)
            for _ in range(2000):
                s.sample_connected(n, rng) if connected else s.sample_chordal(n, rng)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The cache is full: no plan holds 1,000 terms.
        assert s.plan_stats()["entries"] > sampling.PLAN_ENTRIES - 1000
        assert kept <= 2_300_000, kept


class TestConcurrentReads:
    def test_filled_context_is_read_only_under_sampling(self):
        # weight evaluation short-circuits exactly like the fill did, so a
        # filled context serves samplers without creating any new entries
        n = 8
        ctx = CountingContext(n, n)
        ctx.count_all(n)
        before = ctx.table_sizes()
        s = ChordalSampler(ctx)
        rng = RandomStream(3)
        for _ in range(50):
            s.sample_chordal(n, rng)
        assert ctx.table_sizes() == before

    def test_parallel_samplers_share_one_context(self):
        import threading

        n = 8
        ctx = CountingContext(n, n)
        ctx.count_all(n)
        before = ctx.table_sizes()
        base = RandomStream(99)
        streams = [base.spawn(i) for i in range(4)]
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(idx, stream):
            try:
                sampler = ChordalSampler(ctx)
                results[idx] = [sampler.sample_chordal(n, stream) for _ in range(40)]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i, st))
                   for i, st in enumerate(streams)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert ctx.table_sizes() == before
        # each stream replays identically when run sequentially
        for i in range(4):
            replay_stream = base.spawn(i)
            sampler = ChordalSampler(ctx)
            replay = [sampler.sample_chordal(n, replay_stream) for _ in range(40)]
            assert replay == results[i]
            for g in replay:
                assert is_chordal(g) and g.vertices == tuple(range(1, n + 1))
