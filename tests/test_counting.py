import inspect

import pytest

from chordal_lab.counting import (
    CLASS_ARGS,
    CountingContext,
    count_all,
    count_connected,
    get_context,
)
from chordal_lab.bruteforce import brute_counts, check_class_membership, class_members
from chordal_lab.graphs import LabeledGraph
from chordal_lab.sampling import ChordalSampler, RandomStream

# Oracle-frozen class sizes, from exhaustive enumeration of every labeled
# graph on the class's vertex set with the class definition applied directly.
ORACLE_CLASS_SIZES = [
    ("within", (1, 1, 1, 0), 1),
    ("exact", (1, 1, 1, 0), 1),
    ("exact", (1, 1, 2, 0), 2),
    ("exact_proper", (1, 1, 1, 0), 0),
    ("exact_proper", (2, 2, 1, 0), 0),
    ("exact_single", (1, 0, 1), 1),
    ("exact_single", (1, 0, 2), 1),
    ("exact_single", (1, 0, 3), 1),
    ("exact_single", (2, 0, 3), 3),
    ("exact_multi", (1, 1, 2), 1),
    ("pinned", (2, 0, 1, 2), 1),
    ("pinned_exact", (2, 0, 1, 2), 1),
    ("pinned_proper_z", (2, 0, 2, 1, 0), 0),
    ("pinned_proper_z", (2, 1, 1, 1, 0), 1),
    ("pinned_proper_z", (3, 0, 1, 3, 0), 0),
]


@pytest.fixture(scope="module")
def ctx5():
    return CountingContext(5, 5)


@pytest.fixture(scope="module")
def ctx8():
    return CountingContext(8, 8)


class TestBinomial:
    def test_values(self, ctx8):
        assert ctx8.binomial(5, 2) == 10
        assert ctx8.binomial(8, 0) == 1
        assert ctx8.binomial(4, 5) == 0
        assert ctx8.binomial(4, -1) == 0

    def test_row_out_of_range(self, ctx8):
        with pytest.raises(ValueError):
            ctx8.binomial(9, 1)
        with pytest.raises(ValueError):
            ctx8.binomial(-1, 0)


class TestBaseCases:
    def test_within_time_zero(self, ctx5):
        assert ctx5.count_within(0, 2, 0, 1) == 1
        assert ctx5.count_within(0, 2, 3, 1) == 0

    def test_within_bare_root_any_time(self, ctx5):
        for t in range(4):
            assert ctx5.count_within(t, 3, 0, 2) == 1

    def test_exact_bare_root(self, ctx5):
        assert ctx5.count_exact(2, 2, 0, 1) == 1
        assert ctx5.count_exact_proper(2, 2, 0, 1) == 1

    def test_single_and_multi_zero_cases(self, ctx5):
        assert ctx5.count_exact_single(0, 1, 2) == 0
        assert ctx5.count_exact_single(2, 1, 0) == 0
        assert ctx5.count_exact_multi(0, 1, 2) == 0
        assert ctx5.count_exact_multi(2, 1, 0) == 0
        assert ctx5.count_exact_multi(1, 1, 1) == 0  # two components need two vertices

    def test_pinned_color_budget_gate(self):
        ctx = CountingContext(5, 2)
        assert ctx.count_pinned(1, 1, 2, 0) == 0  # root + layer exceed the budget
        assert ctx.count_pinned(1, 1, 1, 0) == 1
        assert ctx.count_pinned(1, 0, 3, 0) == 0  # bare triangle needs 3 colors
        assert CountingContext(5, 3).count_pinned(1, 0, 3, 0) == 1

    def test_pinned_time_one(self, ctx5):
        assert ctx5.count_pinned(1, 0, 3, 0) == 1
        assert ctx5.count_pinned(1, 0, 3, 2) == 0

    def test_pinned_no_free_vertices_needs_time_one(self, ctx5):
        assert ctx5.count_pinned(2, 1, 1, 0) == 0

    def test_pinned_exact_zeros(self, ctx5):
        assert ctx5.count_pinned_exact(1, 0, 2, 3) == 0
        assert ctx5.count_pinned_exact(3, 0, 2, 0) == 0

    def test_pinned_proper_zeros(self, ctx5):
        assert ctx5.count_pinned_proper_z(1, 1, 1, 3, 0) == 0
        assert ctx5.count_pinned_proper_z(3, 1, 1, 0, 0) == 0

    def test_domain_violations_raise(self, ctx5):
        with pytest.raises(ValueError):
            ctx5.count_within(1, 0, 1, 0)  # root must be nonempty
        with pytest.raises(ValueError):
            ctx5.count_within(1, 2, 1, 2)  # z < x required
        with pytest.raises(ValueError):
            ctx5.count_pinned(1, 2, 0, 1)  # layer must be nonempty
        with pytest.raises(ValueError):
            ctx5.count_pinned_proper_z(2, 1, 1, 1, 2)  # z <= x required
        with pytest.raises(ValueError):
            ctx5.count_within(1, 3, 4, 0)  # 7 vertices exceed n_max=5
        with pytest.raises(ValueError):
            ctx5.inner_sum(2, 1, 1, 0, 2, 1)  # r < x + l required


class TestOracleFrozenValues:
    @pytest.mark.parametrize("kind,args,expected", ORACLE_CLASS_SIZES)
    def test_frozen_value(self, ctx5, kind, args, expected):
        assert getattr(ctx5, "count_" + kind)(*args) == expected

    @pytest.mark.parametrize("kind,args,expected", ORACLE_CLASS_SIZES)
    def test_frozen_value_still_matches_enumeration(self, kind, args, expected):
        assert len(class_members(kind, args, omega=5)) == expected

    def test_single_component_blocked_by_color_budget(self):
        # only the complete graph finishes in one round, and K3 needs 3 colors
        assert CountingContext(4, 2).count_exact_single(1, 0, 3) == 0

    def test_inner_sum_spot_value_and_hand_expansion(self, ctx8):
        # single term: layer share l2=1, weight C(2,1)*C(0,0), tail has no
        # free vertices so the recursive factor is zero
        assert ctx8.inner_sum(2, 0, 2, 0, 1, 0) == 0
        expansion = (ctx8.binomial(2, 1) * ctx8.binomial(0, 0)
                     * ctx8.count_pinned_proper_z(2, 1, 1, 0, 0))
        assert expansion == 0

    def test_inner_sum_range_validation(self, ctx8):
        with pytest.raises(ValueError):
            ctx8.inner_sum(2, 0, 1, 0, 1, 1)  # r must stay below x + l
        with pytest.raises(ValueError):
            ctx8.inner_sum(2, 2, 1, 0, 0, 1)  # r must be positive


class TestClassRegistry:
    """One table names the arguments of every counted kind; the counter, the
    sampler and the membership oracle all follow it."""

    @pytest.mark.parametrize("kind", sorted(CLASS_ARGS))
    def test_counter_and_sampler_take_the_named_arguments(self, ctx5, kind):
        names = list(CLASS_ARGS[kind])
        count = inspect.signature(getattr(ctx5, "count_" + kind))
        assert list(count.parameters) == names
        sample = inspect.signature(getattr(ChordalSampler(ctx5), "_sample_" + kind))
        assert list(sample.parameters) == names + ["labels", "edges", "rng"]

    def test_wrong_arity_rejected(self, ctx5):
        g = LabeledGraph([1, 2], [(1, 2)])
        with pytest.raises(ValueError, match="arguments"):
            check_class_membership("within", (1, 1, 1), g, 5)
        with pytest.raises(ValueError, match="arguments"):
            check_class_membership("exact_single", (1, 1, 1, 0), g, 5)
        with pytest.raises(ValueError, match="arguments"):
            ChordalSampler(ctx5).sample_class("pinned", (2, 0, 1), RandomStream(0))


class TestClassSizesAgainstEnumeration:
    """Counter values equal direct class enumeration on every small key."""

    @pytest.mark.parametrize("kind", ["within", "exact", "exact_proper"])
    def test_root_family(self, ctx5, kind):
        fn = getattr(ctx5, "count_" + kind)
        lo_t = 0 if kind == "within" else 1
        for t in range(lo_t, 4):
            for x in range(1, 4):
                for k in range(0, 5 - x):
                    for z in range(0, x):
                        assert fn(t, x, k, z) == len(class_members(kind, (t, x, k, z), 5)), \
                            (kind, t, x, k, z)

    @pytest.mark.parametrize("kind", ["exact_single", "exact_multi"])
    def test_component_family(self, ctx5, kind):
        fn = getattr(ctx5, "count_" + kind)
        lo_x = 0 if kind == "exact_single" else 1
        for t in range(1, 4):
            for x in range(lo_x, 3):
                for k in range(0, 5 - x):
                    assert fn(t, x, k) == len(class_members(kind, (t, x, k), 5)), (kind, t, x, k)

    @pytest.mark.parametrize("kind", ["pinned", "pinned_exact"])
    def test_pinned_family(self, ctx5, kind):
        fn = getattr(ctx5, "count_" + kind)
        for t in range(1, 4):
            for x in range(0, 3):
                for l in range(1, 4 - x):
                    for k in range(0, 5 - x - l):
                        assert fn(t, x, l, k) == len(class_members(kind, (t, x, l, k), 5)), \
                            (kind, t, x, l, k)

    def test_pinned_proper_z_family(self, ctx5):
        for t in range(1, 4):
            for x in range(0, 3):
                for l in range(1, 4 - x):
                    for k in range(0, 5 - x - l):
                        for z in range(0, x + 1):
                            args = (t, x, l, k, z)
                            assert ctx5.count_pinned_proper_z(*args) == \
                                len(class_members("pinned_proper_z", args, 5)), args


class TestTopLevelCounts:
    def test_connected_small_values(self):
        ctx = CountingContext(7, 7)
        assert [ctx.count_connected(n) for n in range(1, 8)] == \
            [1, 1, 4, 35, 541, 13302, 489287]

    def test_connected_is_sum_over_finish_times(self):
        ctx = CountingContext(5, 5)
        assert ctx.count_connected(3) == sum(
            ctx.count_exact_single(t, 0, 3) for t in range(1, 4))

    def test_trees(self):
        ctx = CountingContext(7, 2)
        assert ctx.count_connected(7) == 7 ** 5

    def test_all_graphs_recurrence(self):
        ctx = CountingContext(4, 4)
        assert ctx.count_all(0) == 1
        assert ctx.count_all(3) == 8
        assert ctx.count_all(4) == 61

    def test_one_colorable(self):
        # only the edgeless graph is 1-colorable; it is connected only at n=1
        ctx = CountingContext(4, 1)
        assert ctx.count_connected(1) == 1
        assert ctx.count_connected(2) == 0
        assert ctx.count_all(4) == 1

    def test_color_budget_monotone_and_stabilizes(self):
        n = 6
        values = [CountingContext(n, w).count_connected(n) for w in range(1, n + 1)]
        assert values == sorted(values)
        assert values[-1] == values[-2] + 1  # only K_n needs the last color
        assert CountingContext(n, n).count_connected(n) == values[-1]

    def test_out_of_range(self):
        ctx = CountingContext(4, 4)
        with pytest.raises(ValueError):
            ctx.count_connected(0)
        with pytest.raises(ValueError):
            ctx.count_connected(5)
        with pytest.raises(ValueError):
            ctx.count_all(5)

    def test_omega_clamped(self):
        assert CountingContext(4, 99).omega == 4

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            CountingContext(4, 0)


class TestOracleGateSmall:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_enumeration(self, n):
        bc = brute_counts(n)
        for omega in range(1, n + 1):
            ctx = CountingContext(n, omega)
            assert ctx.count_all(n) == bc.chordal_all[omega], (n, omega)
            assert ctx.count_connected(n) == bc.chordal_connected[omega], (n, omega)


class TestEvaluationStrategies:
    def test_factored_matches_direct_small(self):
        ca = CountingContext(6, 6, factored=True)
        cb = CountingContext(6, 6, factored=False)
        for n in range(1, 7):
            assert ca.count_connected(n) == cb.count_connected(n)

    def test_four_arg_pinned_proper_equals_z_form(self, ctx5):
        for t in range(1, 4):
            for x in range(0, 3):
                for l in range(1, 3):
                    for k in range(0, 5 - x - l):
                        assert ctx5.count_pinned_proper(t, x, l, k) == \
                            ctx5.count_pinned_proper_z(t, x, l, k, x)

    def test_subclass_inequalities(self, ctx5):
        for t in range(1, 4):
            for x in range(1, 4):
                for k in range(0, 5 - x):
                    for z in range(0, x):
                        e = ctx5.count_exact(t, x, k, z)
                        assert ctx5.count_exact_proper(t, x, k, z) <= e
                        assert e <= ctx5.count_within(t, x, k, z)

    def test_repeated_reads_are_stable(self):
        ctx = CountingContext(6, 6)
        first = ctx.count_connected(6)
        sizes = ctx.table_sizes()
        assert ctx.count_connected(6) == first
        assert ctx.table_sizes() == sizes  # pure re-read, no table growth


class TestModuleConveniences:
    def test_count_functions(self):
        assert count_connected(5) == 541
        assert count_connected(6, omega=3) == 9831
        assert count_all(3) == 8
        assert count_all(0) == 1

    def test_context_cache_reuse(self):
        a = get_context(6, 3)
        b = get_context(6, 3)
        assert a is b
        assert get_context(6, 99) is get_context(6, 6)  # clamped key
