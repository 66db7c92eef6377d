import gc
import hashlib
import inspect
import os
import sys
import time
import timeit
import tracemalloc
from functools import lru_cache
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordal_lab.counting as counting
from chordal_lab.counting import (
    CLASS_ARGS,
    EXACT_LIMIT,
    CountingContext,
    class_params,
    count_all,
    count_connected,
    exact_counts,
    fill_cells,
)
from chordal_lab.bruteforce import brute_counts, check_class_membership, class_members
from chordal_lab.graphs import LabeledGraph
from chordal_lab.sampling import (
    ChordalSampler,
    RandomStream,
    sample_chordal,
    sample_connected_chordal,
)
from chordal_lab.splits import approx_count_chordal, approx_sample_chordal

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import references  # noqa: E402

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


class TestBaseCases:
    def test_within_time_zero(self, ctx5):
        assert ctx5.count("within", (0, 2, 0, 1)) == 1
        assert ctx5.count("within", (0, 2, 3, 1)) == 0

    def test_within_bare_root_any_time(self, ctx5):
        for t in range(4):
            assert ctx5.count("within", (t, 3, 0, 2)) == 1

    def test_exact_bare_root(self, ctx5):
        assert ctx5.count("exact", (2, 2, 0, 1)) == 1
        assert ctx5.count("exact_proper", (2, 2, 0, 1)) == 1

    def test_single_and_multi_zero_cases(self, ctx5):
        assert ctx5.count("exact_single", (0, 1, 2)) == 0
        assert ctx5.count("exact_single", (2, 1, 0)) == 0
        assert ctx5.count("exact_multi", (0, 1, 2)) == 0
        assert ctx5.count("exact_multi", (2, 1, 0)) == 0
        assert ctx5.count("exact_multi", (1, 1, 1)) == 0  # two components need two vertices

    def test_pinned_color_budget_gate(self):
        ctx = CountingContext(5, 2)
        assert ctx.count("pinned", (1, 1, 2, 0)) == 0  # root + layer exceed the budget
        assert ctx.count("pinned", (1, 1, 1, 0)) == 1
        assert ctx.count("pinned", (1, 0, 3, 0)) == 0  # bare triangle needs 3 colors
        assert CountingContext(5, 3).count("pinned", (1, 0, 3, 0)) == 1

    def test_pinned_time_one(self, ctx5):
        assert ctx5.count("pinned", (1, 0, 3, 0)) == 1
        assert ctx5.count("pinned", (1, 0, 3, 2)) == 0

    def test_pinned_no_free_vertices_needs_time_one(self, ctx5):
        assert ctx5.count("pinned", (2, 1, 1, 0)) == 0

    def test_pinned_exact_zeros(self, ctx5):
        assert ctx5.count("pinned_exact", (1, 0, 2, 3)) == 0
        assert ctx5.count("pinned_exact", (3, 0, 2, 0)) == 0

    def test_pinned_proper_zeros(self, ctx5):
        assert ctx5.count("pinned_proper_z", (1, 1, 1, 3, 0)) == 0
        assert ctx5.count("pinned_proper_z", (3, 1, 1, 0, 0)) == 0

    def test_domain_violations_raise(self, ctx5):
        with pytest.raises(ValueError):
            ctx5.count("within", (1, 0, 1, 0))  # root must be nonempty
        with pytest.raises(ValueError):
            ctx5.count("within", (1, 2, 1, 2))  # z < x required
        with pytest.raises(ValueError):
            ctx5.count("pinned", (1, 2, 0, 1))  # layer must be nonempty
        with pytest.raises(ValueError):
            ctx5.count("pinned_proper_z", (2, 1, 1, 1, 2))  # z <= x required
        with pytest.raises(ValueError):
            ctx5.count("within", (1, 3, 4, 0))  # 7 vertices exceed n_max=5


class TestOracleFrozenValues:
    @pytest.mark.parametrize("kind,args,expected", ORACLE_CLASS_SIZES)
    def test_frozen_value(self, ctx5, kind, args, expected):
        assert ctx5.count(kind, args) == expected

    @pytest.mark.parametrize("kind,args,expected", ORACLE_CLASS_SIZES)
    def test_frozen_value_still_matches_enumeration(self, kind, args, expected):
        assert len(class_members(kind, args, omega=5)) == expected

    def test_single_component_blocked_by_color_budget(self):
        # only the complete graph finishes in one round, and K3 needs 3 colors
        assert CountingContext(4, 2).count("exact_single", (1, 0, 3)) == 0


class TestClassRegistry:
    """One table names the arguments of every counted kind; the counter, the
    sampler and the membership oracle all follow it."""

    @pytest.mark.parametrize("kind", sorted(ChordalSampler._KINDS))
    def test_counter_and_sampler_take_the_named_arguments(self, ctx5, kind):
        names = CLASS_ARGS.get(kind, "n")  # "all" and "connected" take n
        args = tuple(int(name != "z") for name in names)  # a class of ctx5: z = 0, the rest 1
        assert isinstance(ctx5.count(kind, args), int)
        for wrong in (args + (1,), args[:-1]):
            with pytest.raises(ValueError, match=r"takes the \d+ arguments? \("):
                ctx5.count(kind, wrong)
        weigh, _ = ChordalSampler._KINDS[kind]
        params = [p.name for p in inspect.signature(weigh).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert len(params) == 1 + len(names)
        if kind in CLASS_ARGS:
            assert params == ["self", *names]

    def test_the_sampler_has_a_handler_for_every_node_kind(self):
        assert set(ChordalSampler._KINDS) == set(CLASS_ARGS) | {"all", "connected"}

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
        lo_t = 0 if kind == "within" else 1
        for t in range(lo_t, 4):
            for x in range(1, 4):
                for k in range(0, 5 - x):
                    for z in range(0, x):
                        args = (t, x, k, z)
                        assert ctx5.count(kind, args) == len(class_members(kind, args, 5)), \
                            (kind, args)

    @pytest.mark.parametrize("kind", ["exact_single", "exact_multi"])
    def test_component_family(self, ctx5, kind):
        lo_x = 0 if kind == "exact_single" else 1
        for t in range(1, 4):
            for x in range(lo_x, 3):
                for k in range(0, 5 - x):
                    args = (t, x, k)
                    assert ctx5.count(kind, args) == len(class_members(kind, args, 5)), (kind, args)

    @pytest.mark.parametrize("kind", ["pinned", "pinned_exact"])
    def test_pinned_family(self, ctx5, kind):
        for t in range(1, 4):
            for x in range(0, 3):
                for l in range(1, 4 - x):
                    for k in range(0, 5 - x - l):
                        args = (t, x, l, k)
                        assert ctx5.count(kind, args) == len(class_members(kind, args, 5)), \
                            (kind, args)

    def test_pinned_proper_z_family(self, ctx5):
        for t in range(1, 4):
            for x in range(0, 3):
                for l in range(1, 4 - x):
                    for k in range(0, 5 - x - l):
                        for z in range(0, x + 1):
                            args = (t, x, l, k, z)
                            assert ctx5.count("pinned_proper_z", args) == \
                                len(class_members("pinned_proper_z", args, 5)), args


class TestTopLevelCounts:
    def test_connected_small_values(self):
        ctx = CountingContext(7, 7)
        assert [ctx.count_connected(n) for n in range(1, 8)] == \
            [1, 1, 4, 35, 541, 13302, 489287]

    def test_connected_is_sum_over_finish_times(self):
        ctx = CountingContext(5, 5)
        assert ctx.count_connected(3) == sum(
            ctx.count("exact_single", (t, 0, 3)) for t in range(1, 4))

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

    def test_negative_n_max(self):
        for run in (CountingContext, exact_counts):
            with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
                run(-1)


class TestOracleGateSmall:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_enumeration(self, n):
        bc = brute_counts(n)
        for omega in range(1, n + 1):
            ctx = CountingContext(n, omega)
            assert ctx.count_all(n) == bc.chordal_all[omega], (n, omega)
            assert ctx.count_connected(n) == bc.chordal_connected[omega], (n, omega)


def table_digest(ctx: CountingContext) -> str:
    """sha256 over the lines "<kind> <args> <value>" of every class count.

    Kinds run in CLASS_ARGS order and arguments in ``product`` order, t over
    range(n_max + 2) and every other argument over range(n_max + 1); tuples
    with x + l + k > n_max, or that ``count`` rejects, are left out.
    """
    n = ctx.n_max
    h = hashlib.sha256()
    for kind, names in CLASS_ARGS.items():
        for args in product(*(range(n + 2 if name == "t" else n + 1) for name in names)):
            _, x, l, k, _ = class_params(kind, args)
            if x + l + k > n:
                continue
            try:
                value = ctx.count(kind, args)
            except ValueError:
                continue
            h.update(f"{kind} {' '.join(map(str, args))} {value}\n".encode())
    return h.hexdigest()


class TestEvaluationStrategies:
    # Digests of every table cell, computed with row kernels that multiplied
    # every entry of every row; banded kernels must store the same values,
    # and the direct (unfactored) pinned sums must agree with the factored.
    @pytest.mark.parametrize("n_max, omega, factored, digest", [
        pytest.param(12, 12, True, "d4caf92ccc5e043221c229d5254f8408e59035dcc8d53d83d11dcd3f7e77a53c",
                     id="n12-w12"),
        pytest.param(12, 2, True, "23362865757138b14044b30a6f6d36f9689ddcda074601c403628cb8f3d01839",
                     id="n12-w2"),
        pytest.param(10, 1, True, "7d4fe0db5b25d82b24d34e5aa249fa1660ad406e617db04549895ee62399319a",
                     id="n10-w1"),
        pytest.param(10, 10, True, "74163dcaae2726565d6a8c321baeb2a37b976f6efbf0758dede849a8f27a6a2b",
                     id="n10-w10"),
        pytest.param(10, 10, False, "74163dcaae2726565d6a8c321baeb2a37b976f6efbf0758dede849a8f27a6a2b",
                     id="n10-w10-direct"),
    ])
    def test_every_cell_pinned(self, n_max, omega, factored, digest):
        assert table_digest(CountingContext(n_max, omega, factored=factored)) == digest

    def test_subclass_inequalities(self, ctx5):
        for t in range(1, 4):
            for x in range(1, 4):
                for k in range(0, 5 - x):
                    for z in range(0, x):
                        e = ctx5.count("exact", (t, x, k, z))
                        assert ctx5.count("exact_proper", (t, x, k, z)) <= e
                        assert e <= ctx5.count("within", (t, x, k, z))

    def test_repeated_reads_are_stable(self):
        ctx = CountingContext(6, 6)
        first = ctx.count_connected(6)
        sizes = ctx.table_sizes()
        assert ctx.count_connected(6) == first
        assert ctx.table_sizes() == sizes  # pure re-read, no table growth


def naive_conv(C, a, b, K, lo):
    """The binomial convolution from k2 = lo, term by term; at lo = 0 it is
    the formula of ``CountingContext._conv``."""
    return [sum(C[k][k2] * a[k2] * b[k - k2] for k2 in range(lo, k + 1)) for k in range(K + 1)]


def naive_first_component_row(C, first, own, terms, K, lo):
    """The formula of ``CountingContext._first_component_row``, term by term."""
    row = [first] + [0] * K
    pairs = list(terms) if own is None else [(own, row)] + list(terms)
    for k in range(lo, K + 1):
        row[k] = sum(C[k - 1][k2 - 1] * g[k2] * r[k - k2]
                     for g, r in pairs for k2 in range(lo, k + 1))
    return row


# Entries of either sign, one in four of them zero.
entries = st.tuples(st.integers(0, 3), st.integers(-99, 99)).map(
    lambda pair: pair[1] if pair[0] else 0)


@st.composite
def table_rows(draw, size):
    """Rows shaped like the tables': a head entry, a zero gap, then any
    entries (zeros included); one in five is all zero."""
    if draw(st.integers(0, 4)) == 0:
        return [0] * size
    head = draw(st.sampled_from([0, 1, -1, 3]))
    gap = draw(st.integers(0, size))
    rest = draw(st.lists(entries, min_size=size, max_size=size))
    return ([head] + [0] * gap + rest)[:size]


@st.composite
def weight_rows(draw, size):
    """Rows g of at least ``size`` entries, shaped like the tables' rows, whose
    nonzero band may stop early (the rest zeros); at least one in five is
    all zero."""
    row = draw(table_rows(size + draw(st.integers(0, 3))))
    end = draw(st.integers(0, len(row)))
    return row[:end] + [0] * (len(row) - end)


@st.composite
def component_cases(draw):
    """Arguments of ``_first_component_row``: a self weight that is a weight
    row or None, and (g, r) pairs of a weight row and a rest row."""
    K = draw(st.integers(0, 9))
    lo = draw(st.integers(1, K + 2))
    first = draw(st.sampled_from([0, 1, -2]))
    own = draw(st.one_of(st.none(), weight_rows(K + 1)))
    term = st.tuples(weight_rows(K + 1), table_rows(K + 1))
    return first, own, draw(st.lists(term, max_size=5)), K, lo


class TestBandedKernels:
    """The row kernels skip zero bands; they must equal their formulas."""

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_conv_matches_formula(self, ctx8, data):
        K = data.draw(st.integers(0, ctx8.n_max))
        a = data.draw(table_rows(K + 1))
        b = data.draw(table_rows(K + 1))
        assert ctx8._conv(a, b, K) == naive_conv(ctx8._C, a, b, K, 0)

    @given(component_cases())
    @settings(max_examples=500, deadline=None)
    def test_first_component_row_matches_formula(self, ctx8, case):
        assert ctx8._first_component_row(*case) == naive_first_component_row(ctx8._C, *case)

    @staticmethod
    def _dots_of(ctx, *cases):
        """The rows of ``_first_component_row`` at each case, and the dot
        products each one made."""
        rows, dots = [], []

        def counted(*a):
            dots[-1] += 1
            return sum(*a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counting, "sum", counted, raising=False)
            for case in cases:
                dots.append(0)
                rows.append(ctx._first_component_row(*case))
        return rows, dots

    @given(component_cases(), st.data())
    @settings(max_examples=500, deadline=None)
    def test_first_component_row_skips_all_zero_weights(self, ctx8, case, data):
        """Terms with an all-zero g change no entry and make no dot product."""
        first, own, terms, K, lo = case
        zero = st.tuples(st.just([0] * (K + 1)), table_rows(K + 1))
        padded = terms + data.draw(st.lists(zero, min_size=1, max_size=3))
        rows, dots = self._dots_of(ctx8, case, (first, own, padded, K, lo))
        assert rows[0] == rows[1] and dots[0] == dots[1]

    @given(component_cases())
    @settings(max_examples=500, deadline=None)
    def test_an_all_zero_self_weight_is_none(self, ctx8, case):
        """An all-zero ``own`` equals ``own = None`` and makes no dot product."""
        first, _, terms, K, lo = case
        rows, dots = self._dots_of(ctx8, (first, None, terms, K, lo),
                                   (first, [0] * (K + 1), terms, K, lo))
        assert rows[0] == rows[1] and dots[0] == dots[1]


class TestRootContactIdentity:
    """The rows of pinned_proper_z at z >= 1 are the z = 0 rows divided by
    exact(t - 1, z, ., 0) as exponential generating functions:
    exact(t - 1, z, ., 0) convolved with the row at z gives the row at 0.
    The fill derives the z >= 1 rows from this identity, so it is checked
    here through ``count`` only."""

    @pytest.mark.parametrize("n, omega", [(12, 12), (13, 5), (12, 3)])
    def test_z_rows_times_exact_give_the_z0_row(self, n, omega):
        ctx = CountingContext(n, omega)
        checked = nonzero = 0
        for t in range(1, n + 1):
            for hull in range(1, omega + 1):
                K = n - hull
                for x in range(hull):
                    l = hull - x
                    p0 = [ctx.count("pinned_proper_z", (t, x, l, k, 0)) for k in range(K + 1)]
                    for z in range(1, x + 1):
                        pz = [ctx.count("pinned_proper_z", (t, x, l, k, z)) for k in range(K + 1)]
                        # Round 0 finishes no component: exact(0, z, ., 0) is the bare root.
                        e = [ctx.count("exact", (t - 1, z, k, 0)) if t > 1 else int(k == 0)
                             for k in range(K + 1)]
                        assert naive_conv(ctx._C, e, pz, K, 0) == p0, (t, x, l, z)
                        checked += 1
                        nonzero += any(pz)
        # Every stored row with z >= 1: sum over hulls of C(hull, 2) per round,
        # 3,740 rows over the three cases.
        assert checked == n * comb(omega + 1, 3)
        assert nonzero > checked // 10  # not vacuous: 715, 175 and 37 rows are nonzero


class TestModuleConveniences:
    def test_count_functions(self):
        assert count_connected(5) == 541
        assert count_connected(6, omega=3) == 9831
        assert count_all(3) == 8
        assert count_all(0) == 1

    def test_connected_needs_a_vertex(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be at least 1$"):
                count_connected(n)


# Rows of CountingContext(12, 4) whose root (or root plus layer) exceeds
# omega, some at a round past the last nonzero one, with the values the
# class reads returned before such rows were made empty.  Those values counted
# graphs whose root clique was exempt from the color bound; the oracle
# (TestExhaustiveOracle.test_rows_past_omega) finds no member in these rows.
PAST_OMEGA_VALUES = [
    ("within", (4, 6, 4, 1), 8555910),
    ("within", (14, 6, 4, 1), 8555910),
    ("exact", (3, 8, 4, 6), 306780),
    ("exact", (13, 8, 4, 6), 0),
    ("exact_proper", (3, 8, 4, 6), 306780),
    ("pinned_exact", (4, 2, 3, 5), 294170),
    ("pinned_proper_z", (4, 2, 3, 5, 2), 294170),
    ("pinned_proper_z", (4, 6, 1, 4, 3), 128712),
    ("pinned_proper_z", (2, 3, 2, 1, 0), 4),
]


class TestPastOmegaRows:
    @pytest.mark.parametrize("kind,args,former", PAST_OMEGA_VALUES)
    def test_value_kept(self, kind, args, former):
        assert CountingContext(12, 4).count(kind, args) == 0


ORACLE_N = 4


@lru_cache(maxsize=None)
def _oracle_rows(omega: int) -> tuple:
    """(kind, args, hull, counted, enumerated) for every tuple ``count``
    accepts at n_max = ORACLE_N with t <= n_max + 1, where hull = x + l."""
    ctx = CountingContext(ORACLE_N, omega)
    rows = []
    for kind, names in CLASS_ARGS.items():
        ranges = [range(ORACLE_N + 2) if c == "t" else range(ORACLE_N + 1) for c in names]
        for args in product(*ranges):
            _, x, l, k, _ = class_params(kind, args)
            if x + l + k > ORACLE_N:
                continue
            try:
                counted = ctx.count(kind, args)
            except ValueError:
                continue
            rows.append((kind, args, x + l, counted, len(class_members(kind, args, omega))))
    return tuple(rows)


class TestExhaustiveOracle:
    """Every class kind, over its whole domain at n_max = 4, against enumeration."""

    @pytest.mark.parametrize("omega", range(1, ORACLE_N + 1))
    def test_rows_within_omega(self, omega):
        rows = [r for r in _oracle_rows(omega) if r[2] <= omega]
        assert len({r[0] for r in rows}) == len(CLASS_ARGS)
        assert [r for r in rows if r[3] != r[4]] == []

    # Rows whose root (or root plus layer) is a clique larger than omega hold
    # no omega-colorable graph, and ``count`` returns 0 there.
    @pytest.mark.parametrize("omega", range(1, ORACLE_N))
    def test_rows_past_omega(self, omega):
        rows = [r for r in _oracle_rows(omega) if r[2] > omega]
        assert [r for r in rows if r[3] != r[4]] == []


class TestFillBudget:
    def test_cell_count_matches_the_fill(self):
        for n in range(9):
            for omega in range(1, n + 2):
                ctx = CountingContext(n, omega)
                assert sum(ctx.table_sizes().values()) == fill_cells(n, omega), (n, omega)

    def test_cell_count_is_instant(self):
        timings = timeit.repeat(lambda: fill_cells(10 ** 6, 10 ** 6), number=1, repeat=5)
        assert min(timings) < 1e-3

    def test_limit_admits_the_bounded_workload_and_n_30(self):
        limit = fill_cells(EXACT_LIMIT, EXACT_LIMIT)
        assert fill_cells(40, 3) < limit < fill_cells(EXACT_LIMIT + 1, EXACT_LIMIT + 1)

    def test_refuses_a_large_fill_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="allow_large=True"):
            CountingContext(40, 40)
        with pytest.raises(ValueError, match="allow_large=True"):
            count_all(40)
        assert time.perf_counter() - start < 1.0

    def test_override_runs_the_fill(self, monkeypatch):
        monkeypatch.setattr(counting, "_CELL_LIMIT", fill_cells(5, 5))
        with pytest.raises(ValueError):
            CountingContext(6, 6)
        assert CountingContext(6, 6, allow_large=True).count_connected(6) == 13302


class TestTableStore:
    def test_one_table_per_stored_kind(self):
        ctx = CountingContext(10, 10)
        sizes = ctx.table_sizes()
        assert set(sizes) == set(CLASS_ARGS)
        assert sum(sizes.values()) == fill_cells(10, 10)
        # A row two tables share is stored once: at t = 1 no component sees
        # the whole hull, so pinned_exact is pinned_proper_z at z = x.
        for x in range(10):
            for l in range(1, 11 - x):
                assert ctx.row("pinned_exact", 1, x, l) is ctx.row("pinned_proper_z", 1, x, l, x)


class TestCountOnlyFill:
    @pytest.mark.parametrize("n", range(23))
    def test_equals_the_full_fill(self, n):
        for omega in sorted({1, 2, 3, n} - {0}):
            ctx = CountingContext(n, omega)
            connected, total = exact_counts(n, omega)
            assert connected == [0] + [ctx.count_connected(m) for m in range(1, n + 1)], omega
            assert total == [ctx.count_all(m) for m in range(n + 1)], omega

    def test_peak_is_a_fraction_of_a_full_context(self):
        # Earlier tests' cyclic garbage, freed by a collection inside the
        # measured window, would be subtracted from the context's size.
        gc.collect()
        tracemalloc.start()
        try:
            exact_counts(16)
            count_peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            ctx = CountingContext(16)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ctx.count_all(16) > 0
        assert 3 * count_peak <= retained, (count_peak, retained)

    def test_same_admission_as_a_context(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="allow_large=True"):
            exact_counts(40)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError, match="omega must be at least 1"):
            exact_counts(3, 0)
        assert exact_counts(40, 3)[1][40] == CountingContext(40, 3).count_all(40)


class TestFillWork:
    """The work of a count-only fill, counted by wrapping the kernels,
    ``counting.mul`` and ``counting.sum`` from outside.  The counts repeat
    exactly; a change that moves one states old -> new and why in CHANGES.md."""

    @pytest.mark.parametrize("args, muls, dots, convs, components", [
        ((20,), 413_244, 63_348, 6_460, 4_541),
        ((40, 3), 499_888, 25_326, 794, 759),
    ])
    def test_pinned_counts(self, monkeypatch, args, muls, dots, convs, components):
        calls = dict.fromkeys(["mul", "sum", "_conv", "_first_component_row"], 0)

        def counted(name, f):
            def g(*a):
                calls[name] += 1
                return f(*a)
            return g

        monkeypatch.setattr(counting, "mul", counted("mul", counting.mul))
        # A dot product is one call of sum, which the module reads as a global.
        monkeypatch.setattr(counting, "sum", counted("sum", sum), raising=False)
        for name in ("_conv", "_first_component_row"):
            kernel = getattr(CountingContext, name)
            monkeypatch.setattr(CountingContext, name, counted(name, kernel))
        exact_counts(*args)
        assert calls == {"mul": muls, "sum": dots, "_conv": convs,
                         "_first_component_row": components}


def _stored_rows(ctx: CountingContext) -> list[tuple[int, ...]]:
    """Every row the context's tables hold, once per place that holds it."""
    rows = []

    def walk(node):
        if isinstance(node, tuple):
            rows.append(node)
        elif node is not None:
            for child in node:
                walk(child)

    walk(list(ctx._tables.values()))
    return rows


class TestStationaryHulls:
    """A hull whose K = n - hull free vertices hold no component of the
    round is stationary: its rows are shared, not recomputed."""

    @pytest.mark.parametrize("factored", [True, False])
    def test_rows_are_shared(self, factored):
        n = 16
        ctx = CountingContext(n, factored=factored)
        # lo(t): the fewest free vertices of a component finishing in round t.
        lo = [None] + [min((k for x in range(n) for k in range(1, n - x + 1)
                            if ctx.count("exact_single", (t, x, k))), default=None)
                       for t in range(1, ctx.last_round + 1)]
        moved = within = pinned = 0
        for t in range(2, ctx.last_round + 1):
            for hull in range(1, n + 1):
                K = n - hull
                if lo[t] is None or K < lo[t]:
                    for z in range(hull):
                        row = ctx.row("within", t, hull, z=z)
                        assert row is ctx.row("within", t - 1, hull, z=z), (t, hull, z)
                        assert ctx.row("exact", t, hull, z=z) is ctx._roots[K]
                        assert ctx.row("exact_proper", t, hull, z=z) is ctx._roots[K]
                        within += 1
                else:
                    moved += 1
                if K < lo[t - 1]:
                    for x in range(hull):
                        l = hull - x
                        assert ctx.row("pinned", t, x, l) is ctx._zeros[K], (t, x, l)
                        assert ctx.row("pinned_exact", t, x, l) is ctx._zeros[K], (t, x, l)
                        for z in range(x + 1):
                            assert ctx.row("pinned_proper_z", t, x, l, z) is ctx._zeros[K]
                        pinned += 1
        assert (moved, within, pinned) == (105, 1_480, 1_360)
        rows = _stored_rows(ctx)
        assert (len(rows), len({id(row) for row in rows})) == (24_616, 6_989)


def _live_contexts() -> list[CountingContext]:
    """Every CountingContext alive now, after a full collection."""
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, CountingContext)]


def _new_contexts(before: list[CountingContext]) -> list[CountingContext]:
    """The contexts alive now that are not in ``before`` (which keeps those alive)."""
    kept = {id(c) for c in before}
    return [c for c in _live_contexts() if id(c) not in kept]


# One call of each module-level entry point that runs an exact fill, each
# below the split floor where it has one.
FILLING_CALLS = {
    "count_all": lambda: count_all(9),
    "count_connected": lambda: count_connected(9, 3),
    "approx_count_chordal": lambda: [approx_count_chordal(n, "1e-9") for n in (10, 11)],
    "sample_chordal": lambda: sample_chordal(9, seed=1),
    "sample_connected_chordal": lambda: sample_connected_chordal(9, omega=3, seed=2),
    "approx_sample_chordal": lambda: approx_sample_chordal(9, "1e-3", RandomStream(3)),
}


class TestNoFillOutlivesItsCall:
    @pytest.mark.parametrize("name", sorted(FILLING_CALLS))
    def test_no_context_alive_afterwards(self, name):
        before = _live_contexts()
        FILLING_CALLS[name]()
        assert _new_contexts(before) == []

    def test_approx_count_fallback_peaks_at_a_fraction_of_a_full_context(self):
        gc.collect()  # as in TestCountOnlyFill.test_peak_is_a_fraction_of_a_full_context
        tracemalloc.start()
        try:
            approx_count_chordal(16, "1e-9")
            count_peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            ctx = CountingContext(16)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ctx.count_all(16) > 0
        assert 3 * count_peak <= retained, (count_peak, retained)


class TestNoProcessWideState:
    def test_recursion_limit_unchanged(self):
        before = sys.getrecursionlimit()
        CountingContext(20)
        assert sys.getrecursionlimit() == before

    def test_a_failed_fill_leaves_no_context(self, monkeypatch):
        fill_root = CountingContext._fill_root

        def fail_in_round_3(self, t):
            if t == 3:
                raise MemoryError("injected")
            return fill_root(self, t)

        monkeypatch.setattr(CountingContext, "_fill_root", fail_in_round_3)
        before = _live_contexts()
        with pytest.raises(MemoryError):
            count_all(7)
        assert _new_contexts(before) == []
        monkeypatch.undo()
        assert count_connected(7) == 489287


def _keys_at(ctx: CountingContext, kind: str) -> list[tuple[int, ...]]:
    """The arguments after t of every key ``count`` accepts for ``kind``."""
    n = ctx.n_max
    keys = []
    for rest in product(range(n + 1), repeat=len(CLASS_ARGS[kind]) - 1):
        _, x, l, k, _ = class_params(kind, (1, *rest))
        if x + l + k > n:
            continue
        try:
            ctx.count(kind, (ctx.last_round, *rest))
        except ValueError:
            continue
        keys.append(rest)
    return keys


class TestPastTheLastRound:
    """The stored last round holds every table's value at every later t."""

    @pytest.mark.parametrize("n,omega", [(5, 1), (6, 6), (8, 3), (10, 10), (12, 4)])
    def test_later_rounds_read_the_last(self, n, omega):
        ctx = CountingContext(n, omega)
        last = ctx.last_round
        for kind in CLASS_ARGS:
            keys = _keys_at(ctx, kind)
            assert keys, kind
            for key in keys:
                at_last = ctx.count(kind, (last, *key))
                assert ctx.count(kind, (last + 1, *key)) == at_last, (kind, key)
                assert ctx.count(kind, (last + 100, *key)) == at_last, (kind, key)

    @pytest.mark.parametrize("n,omega", [(1, 1), (2, 2), (5, 1), (6, 6), (8, 3), (9, 2)])
    def test_the_last_round_is_the_limit(self, n, omega):
        # No component finishes in the last round: only the bare root is
        # exact there, nothing is single, multi or pinned, and within keeps
        # the value of the round before.
        ctx = CountingContext(n, omega)
        last = ctx.last_round
        for kind in CLASS_ARGS:
            for key in _keys_at(ctx, kind):
                _, x, l, k, _ = class_params(kind, (last, *key))
                if kind == "within":
                    want = ctx.count(kind, (last - 1, *key))
                elif kind in ("exact", "exact_proper"):
                    want = int(k == 0 and x <= ctx.omega)
                else:
                    want = 0
                assert ctx.count(kind, (last, *key)) == want, (kind, key)

    def test_last_round_is_read_only(self, ctx5):
        assert ctx5.last_round == 5
        with pytest.raises(AttributeError):
            ctx5.last_round = 6


class TestRows:
    """``row`` is each class's whole row over k: its values at every k,
    at rounds up to and past the last, and its empty rows above omega."""

    @pytest.mark.parametrize("n,omega", [(8, 3), (10, 10), (12, 4)])
    def test_row_equals_the_counts(self, n, omega):
        ctx = CountingContext(n, omega)
        last = ctx.last_round
        for kind, names in CLASS_ARGS.items():
            layers = range(n + 2) if "l" in names else (0,)
            contacts = range(-1, n + 2) if "z" in names else (0,)
            rows = 0
            for t, x, l, z in product((0, 1, 2, last, last + 1, last + 50), range(-1, n + 2),
                                      layers, contacts):
                args = dict(t=t, x=x, l=l, z=z)
                try:
                    row = ctx.row(kind, t, x, l, z)
                except ValueError:
                    with pytest.raises(ValueError):
                        ctx.count(kind, [args.get(name, 0) for name in names])
                    continue
                rows += 1
                assert isinstance(row, tuple) and len(row) == n - x - l + 1, (kind, args)
                for k in range(-1, len(row) + 1):
                    args["k"] = k
                    call = [args[name] for name in names]
                    if 0 <= k < len(row):
                        assert ctx.count(kind, call) == row[k], (kind, args)
                    else:
                        with pytest.raises(ValueError):
                            ctx.count(kind, call)
                if t > last:
                    assert row == ctx.row(kind, last, x, l, z), (kind, args)
                # A single or multi class has a free component beside its root.
                hull = x + l + (kind in ("exact_single", "exact_multi"))
                if hull > ctx.omega:
                    assert not any(row), (kind, args)
            assert rows, kind

    def test_rows_are_the_stored_ones(self):
        ctx = CountingContext(8, 3)
        assert ctx.row("pinned", 3, 1, 2) is ctx.row("pinned", 3, 1, 2)
        assert ctx.row("exact", ctx.last_round + 9, 2, 0, 1) is ctx.row("exact", ctx.last_round, 2, 0, 1)
        assert ctx.pascal[8][3] == 56 and ctx.pascal[3][5] == 0
        assert all(isinstance(row, tuple) for row in ctx.pascal)

    def test_outside_the_domain(self, ctx5):
        for kind, args in [
            ("single", (1, 0)),  # not a kind
            ("exact", (0, 2, 0, 1)),  # rounds start at 1
            ("within", (1, 0)),  # root must be nonempty
            ("within", (1, 2, 0, 2)),  # z < x
            ("within", (1, 2, 1, 0)),  # no layer
            ("exact_single", (1, 1, 0, 1)),  # no contact
            ("exact_multi", (1, 0)),  # root must be nonempty
            ("pinned", (1, 2, 0)),  # layer must be nonempty
            ("pinned", (1, 3, 3)),  # 6 vertices exceed n_max = 5
            ("pinned_proper_z", (2, 1, 1, 2)),  # z <= x
            ("pinned_proper_z", (2, -1, 1, 0)),
        ]:
            with pytest.raises(ValueError):
                ctx5.row(kind, *args)


class TestIndependentCertificates:
    """Closed forms the counting engine does not use."""

    def test_omega_2_counts_cayley_trees(self):
        connected, _ = exact_counts(100, 2)
        assert all(connected[n] == n ** (n - 2) for n in range(1, 101))

    def test_omega_n_minus_2_excludes_the_big_cliques(self):
        # A chordal graph with an (n - 1)-clique is that clique plus one vertex
        # joined to a proper subset of it: n * (2**(n - 1) - 1) choices, where
        # the C(n, 2) graphs K_n minus an edge are counted twice.  With K_n,
        # those are the graphs omega = n - 2 leaves out.
        _, total = exact_counts(25)
        for n in range(3, 26):
            want = total[n] - 1 - n * (2 ** (n - 1) - 1) + comb(n, 2)
            assert exact_counts(n, n - 2)[1][n] == want, n
            if n <= 12:
                assert CountingContext(n, n - 2).count_all(n) == want, n

    @pytest.mark.skipif(os.environ.get("CHORDAL_LAB_STRETCH") != "1",
                        reason="stretch target; set CHORDAL_LAB_STRETCH=1 to run")
    def test_stretch_omega_n_minus_2_at_65(self):
        # The check above, past EXACT_LIMIT: two count-only fills, about 90 s
        # in all on a 2-core x86-64.
        n = 65
        total = exact_counts(n, allow_large=True)[1][n]
        want = total - 1 - n * (2 ** (n - 1) - 1) + comb(n, 2)
        assert exact_counts(n, n - 2, allow_large=True)[1][n] == want

    def test_omega_3_counts_block_graphs_of_2_trees(self):
        # A connected chordal graph with no K4 has blocks that are single
        # edges or 2-trees; the reference counts them by block decomposition.
        want = references.treewidth2_connected(100)
        connected, total = exact_counts(100, 3)
        assert connected == want
        assert total == references.sets_of(want)
        ctx = CountingContext(40, 3)
        assert [0] + [ctx.count_connected(n) for n in range(1, 41)] == want[:41]
        assert [ctx.count_all(n) for n in range(41)] == total[:41]
