"""Approximate counting and sampling of labeled chordal graphs via split graphs.

Almost every large labeled chordal graph is a split graph, so counting split
graphs well enough approximates counting chordal graphs.  Split graphs are
organized by their questioning set Q (the vertices that can sit on either side
of a split partition): the |Q| >= 2 stratum has a closed-form exact count, the
|Q| in {0, 1} strata have two-sided sums that are themselves sharp
approximations, and each sum concentrates on a narrow window of terms around
its peak, which is all the fast path evaluates.  At large n even that window
is skipped for |Q| >= 2: an exact-integer bound shows the whole stratum below
a fixed 1/1024 slice of the epsilon budget.

Every quantity here is exact integer or rational arithmetic; accuracy targets
(epsilon) enter only through exactly-computed integer truncation bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb

from .counting import CACHE_SIZE, EXACT_LIMIT
from .graphs import LabeledGraph, complement, complete_graph
from .sampling import RandomStream, categorical, sample_subset

# The |Q| in {0,1} stratum sums and the window-truncation bound are proven for
# all sufficiently large n; these floors are where the proofs are known to
# hold.  The dispatch floor (n3) covers the "almost every chordal graph is
# split" tail bound.  All three are engineering defaults and configurable.
@dataclass(frozen=True)
class SplitThresholds:
    n1: int = 65
    n2: int = 65
    n3: int = 65


DEFAULT_THRESHOLDS = SplitThresholds()

REJECTION_CAP_FACTOR = 64


class RejectionCapError(RuntimeError):
    """The rejection loop ran far past its expected iteration count."""


def as_epsilon(value) -> Fraction:
    """Exact rational epsilon in (0, 1) from a decimal string or Fraction.

    Floats are rejected: binary floats silently misrepresent decimal inputs,
    and every bound here is computed exactly.
    """
    if isinstance(value, float):
        raise TypeError("epsilon must be a decimal string or Fraction, not float")
    eps = value if isinstance(value, Fraction) else Fraction(str(value))
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    return eps


def _ceil_log(base: Fraction, value: Fraction) -> int:
    """Smallest integer m >= 0 with base**m >= value, exactly."""
    m = 0
    p = Fraction(1)
    while p < value:
        p *= base
        m += 1
    return m


def ceil_log2_inverse(eps: Fraction) -> int:
    """ceil(log2(1/eps)) via exact powering."""
    return _ceil_log(Fraction(2), 1 / eps)


def threshold_f(eps, thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> int:
    """Smallest n for which the truncated split count carries its guarantee."""
    eps = as_epsilon(eps)
    log_term = _ceil_log(Fraction(3, 2), (1 / eps) ** 3)  # ceil(3*log_{3/2}(1/eps))
    return max(thresholds.n1, thresholds.n2, log_term)


def threshold_g(eps, thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> int:
    """Smallest n for which split counting stands in for chordal counting."""
    eps = as_epsilon(eps)
    two = 2 / eps
    return max(
        thresholds.n1,
        thresholds.n2,
        thresholds.n3,
        _ceil_log(Fraction(10, 9), two),
        _ceil_log(Fraction(3, 2), two ** 3),
    )


# ---------------------------------------------------------------------------
# Exact and full sums
# ---------------------------------------------------------------------------

def _q_mid_term(n: int, q: int, c: int) -> int:
    # 0**0 == 1 covers the q = n, c = 0 corner.
    return comb(n, q) * comb(n - q, c) * (2 ** (n - c - q) - 1) ** c


def _q_mid_sum(n: int, cells) -> int:
    """Sum of the |Q| >= 2 stratum terms over the given (q, c) cells.

    Cells sharing the same exponent base 2**(n-q-c) - 1 lie on one diagonal;
    walking each diagonal in increasing c lets every power be one cheap
    multiply away from its neighbor instead of a fresh exponentiation.
    """
    by_base: dict[int, list[tuple[int, int]]] = {}
    for q, c in cells:
        by_base.setdefault(n - q - c, []).append((c, q))
    total = 0
    for d, group in sorted(by_base.items()):
        group.sort()
        if d == 0:
            total += sum(comb(n, q) for c, q in group if c == 0)
            continue
        base = (1 << d) - 1
        power = None
        prev_c = 0
        for c, q in group:
            if power is None:
                power = pow(base, c)
            else:
                for _ in range(c - prev_c):
                    power *= base
            prev_c = c
            total += comb(n, q) * comb(n - q, c) * power
    return total


def split_count_q_ge2_exact(n: int) -> int:
    """Exact number of n-vertex labeled split graphs with |Q| >= 2.

    Counts the Q-is-a-clique family cell by cell and doubles it; taking
    complements swaps the two Q shapes one-for-one.
    """
    return 2 * _q_mid_sum(
        n, ((q, c) for q in range(2, n + 1) for c in range(n - q + 1)))


def split_count_q_mid_full(n: int) -> int:
    """Exact number of split graphs with 2 <= |Q| < n (all window terms)."""
    return 2 * _q_mid_sum(
        n, ((q, c) for q in range(2, n) for c in range(n - q + 1)))


def split_count_q_ge2_bound(n: int) -> int:
    """Exact-integer upper bound U(n) on the whole |Q| >= 2 stratum.

    U(n) = 3 * C(n, 2) * 2^(s + floor(s^2/4)) with s = n - 2, for n >= 2.

    Proof: with |Q| = q and s = n - q, the Q-is-a-clique family has
    C(n, q) * sum_c C(s, c) * (2^(s-c) - 1)^c members (the cells summed by
    ``split_count_q_ge2_exact``).  Each power is below 2^(c(s-c)), and
    c(s-c) <= s^2/4 is an integer, so it is at most 2^floor(s^2/4); with
    sum_c C(s, c) = 2^s the family has at most t_q = C(n, q) * 2^(s +
    floor(s^2/4)) members.  From q to q + 1, t_q is multiplied by
    s / (q + 1) * 2^(-1 - floor(s/2)) <= (3/4) / (q + 1) <= 1/4, because
    s * 2^(-1 - floor(s/2)) <= 3/4 for every s >= 1.  So the families over
    all q >= 2 (|Q| = n included) have at most (4/3) * t_2 members, and
    complements double that: at most (8/3) * t_2 <= U(n).
    """
    if n < 2:
        return 0
    s = n - 2
    return 3 * comb(n, 2) << (s + s * s // 4)


def _q0_term(n: int, c: int) -> int:
    """Term c of the two-sided |Q| = 0 sum: C(n, c) * (2^m - 1)^(n - m).

    m = min(c, n - c): the smaller side's size sets the base, the larger
    side's size the exponent.
    """
    m = min(c, n - c)
    return comb(n, c) * (2 ** m - 1) ** (n - m)


def _q1_term(n: int, c: int) -> int:
    """Term c of the two-sided |Q| = 1 sum: n choices of the witness times
    the |Q| = 0 term on the other n - 1 vertices."""
    return n * _q0_term(n - 1, c)


def _low_q_window(n: int, eps: Fraction) -> range:
    """Clique sizes c kept by both the |Q| = 0 and the |Q| = 1 window:
    ceil(log2(1/eps)) + 2 either side of n/2, inside the full range 2..n-2."""
    pad = ceil_log2_inverse(eps) + 2
    return range(max(2, n // 2 - pad), min((n + 1) // 2 + pad, n - 2) + 1)


def split_count_q0_full(n: int) -> int:
    """Two-sided sum for the Q-empty stratum, untruncated.

    For n past the proof floor this overshoots the true |Q| = 0 count by at
    most a factor 1 + (2/3)**(n/3)-ish; the truncated variant keeps a
    (1 - eps) fraction of it.
    """
    return sum(_q0_term(n, c) for c in range(2, n - 1))


def split_count_q1_full(n: int) -> int:
    """Two-sided sum for the |Q| = 1 stratum, untruncated."""
    return sum(_q1_term(n, c) for c in range(2, n - 1))


# ---------------------------------------------------------------------------
# Truncated sums
# ---------------------------------------------------------------------------

def _q_window(eps: Fraction) -> int:
    """Upper bound for q in the |Q| >= 2 stratum: ceil(10*log2(1/eps)) + 47."""
    return _ceil_log(Fraction(2), (1 / eps) ** 10) + 47


def _q_mid_window_cells(n: int, eps: Fraction):
    s = _q_window(eps)
    pad = ceil_log2_inverse(eps) + 3
    for q in range(2, min(s, n - 1) + 1):
        lo = max(0, (n - q) // 2 - pad)
        hi = min((n - q + 1) // 2 + pad, n - q)
        for c in range(lo, hi + 1):
            yield q, c


def split_count_q_ge2_truncated(n: int, eps) -> int:
    """Window sum for 2 <= |Q| < n; at least (1-eps) of the full sum."""
    eps = as_epsilon(eps)
    return 2 * _q_mid_sum(n, _q_mid_window_cells(n, eps))


def split_count_q0_truncated(n: int, eps) -> int:
    return sum(_q0_term(n, c) for c in _low_q_window(n, as_epsilon(eps)))


def split_count_q1_truncated(n: int, eps) -> int:
    return sum(_q1_term(n, c) for c in _low_q_window(n, as_epsilon(eps)))


# Share of the epsilon budget that leaving out the |Q| >= 2 stratum may use.
SKIP_SHARE = Fraction(1, 1024)


def approx_count_split(n: int, eps, thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> int:
    """(1 - eps)-approximation from below of the two-sided split-graph sum.

    The result R satisfies (1 - eps) * F <= R <= F, where
    F = split_count_q_mid_full(n) + split_count_q0_full(n)
        + split_count_q1_full(n) + 2.

    Budget split: delta = eps * SKIP_SHARE (eps / 1024) and eps_w = eps - delta.
    The |Q| = 0 and |Q| = 1 windows are taken at eps_w, so each keeps at least
    (1 - eps_w) of its full sum.  The |Q| >= 2 window (at eps_w too) is added
    only when U = split_count_q_ge2_bound(n) exceeds delta * (q0 + q1 + 2);
    otherwise the whole stratum is left out, and F - R <= eps_w * F + U
    <= (eps_w + delta) * F = eps * F.  The two |Q| = n graphs are always
    counted.  At the eps = 5e-4 that approx-count at 1e-3 uses, eps_w gives
    the same window widths as eps.

    Requires n >= threshold_f(eps).  The window bounds hold from the
    eps-independent floors n1 and n2 on; the eps-dependent part of the floor
    is where the two-sided sums approximate the true stratum counts to eps.
    """
    eps = as_epsilon(eps)
    floor = threshold_f(eps, thresholds)
    if n < floor:
        raise ValueError(f"approx split counting needs n >= {floor} at this epsilon")
    delta = eps * SKIP_SHARE
    eps_w = eps - delta
    total = split_count_q0_truncated(n, eps_w) + split_count_q1_truncated(n, eps_w) + 2
    if split_count_q_ge2_bound(n) * delta.denominator > delta.numerator * total:
        total += split_count_q_ge2_truncated(n, eps_w)
    return total


def _check_exact_limit(n: int, floor: int, exact_call: str) -> None:
    if n > EXACT_LIMIT:
        raise ValueError(
            f"n = {n} is below the split-graph floor {floor} at this epsilon and above "
            f"the exact engine's limit {EXACT_LIMIT}; call {exact_call} to run the exact "
            "engine anyway (its fill may take hours)")


def approx_count_chordal(n: int, eps, thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> int:
    """(1 +- eps)-approximation of the number of n-vertex labeled chordal graphs.

    Below the dispatch floor the answer is computed exactly (unconditionally
    correct); above it, split graphs stand in for chordal graphs.  Between
    EXACT_LIMIT and the floor it raises ValueError instead of starting an
    exact fill that could take hours.
    """
    eps = as_epsilon(eps)
    floor = threshold_g(eps, thresholds)
    if n < floor:
        if n == 0:
            return 1
        _check_exact_limit(n, floor, f"CountingContext({n}, allow_large=True).count_all({n})")
        from .counting import get_context

        return get_context(n, n).count_all(n)
    return approx_count_split(n, eps / 2, thresholds)


# ---------------------------------------------------------------------------
# Approximate sampling
# ---------------------------------------------------------------------------

@dataclass
class SplitDraw:
    """One accepted draw of the split sampler, with its construction colors.

    ``cyan`` is the constructed clique side, ``indigo`` the independent side,
    ``swing`` the questioning/witness set of the branch, all describing
    ``graph`` as returned.
    """

    graph: LabeledGraph
    branch: str  # "q0" | "q1" | "q_mid" | "q_full"
    q: int
    c: int
    iterations: int
    cyan: frozenset[int]
    indigo: frozenset[int]
    swing: frozenset[int]


def _subset_from_mask(pool: list[int], mask: int) -> list[int]:
    return [e for i, e in enumerate(pool) if mask >> i & 1]


def _build_q_mid(n: int, q: int, c: int, rng: RandomStream) -> SplitDraw:
    # Q-is-a-clique shape: clique on Q u C, each C vertex wired to a nonempty
    # subset of I; flipping a fair coin to complement covers the mirror shape.
    labels = list(range(1, n + 1))
    q_labels = sample_subset(labels, q, rng)
    rest = [v for v in labels if v not in set(q_labels)]
    c_labels = sample_subset(rest, c, rng)
    i_labels = [v for v in rest if v not in set(c_labels)]
    edges = []
    hub = sorted(q_labels + c_labels)
    for i, u in enumerate(hub):
        for v in hub[i + 1:]:
            edges.append((u, v))
    if c_labels:
        m = len(i_labels)
        for v in c_labels:
            mask = 1 + rng.uniform_below(2 ** m - 1)
            edges.extend((v, u) for u in _subset_from_mask(i_labels, mask))
    g = LabeledGraph(labels, edges)
    cyan, indigo = frozenset(c_labels), frozenset(i_labels)
    if rng.bits(1):
        g = complement(g)
        cyan, indigo = indigo, cyan
    return SplitDraw(graph=g, branch="q_mid", q=q, c=c, iterations=0,
                     cyan=cyan, indigo=indigo, swing=frozenset(q_labels))


def _build_low_q(n: int, c: int, with_witness: bool, rng: RandomStream) -> SplitDraw | None:
    """One attempt at a |Q| = 0 or |Q| = 1 draw; None if the cover check fails."""
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
        # Indigo vertices reach proper subsets of cyan; accept only if every
        # cyan vertex still got an indigo neighbor.
        cyan_hit = set()
        for u in indigo:
            mask = rng.uniform_below(2 ** c - 1)  # all-ones excluded
            nbrs = _subset_from_mask(cyan, mask)
            cyan_hit.update(nbrs)
            edges.extend((u, v) for v in nbrs)
        ok = len(cyan_hit) == c
    else:
        # Cyan vertices reach nonempty subsets of indigo; accept only if no
        # indigo vertex ends up adjacent to all of cyan.
        m = len(indigo)
        hit_by_all = (1 << m) - 1
        for u in cyan:
            mask = 1 + rng.uniform_below(2 ** m - 1)
            hit_by_all &= mask
            edges.extend((u, v) for v in _subset_from_mask(indigo, mask))
        ok = hit_by_all == 0
    if not ok:
        return None
    g = LabeledGraph(labels, edges)
    return SplitDraw(graph=g, branch="q1" if with_witness else "q0",
                     q=1 if with_witness else 0, c=c, iterations=0,
                     cyan=frozenset(cyan), indigo=frozenset(indigo),
                     swing=frozenset(white))


@dataclass
class _SplitPlan:
    """Precomputed stratum weights for one (n, working epsilon).

    The |Q| >= 2 branch is proposed with weight ``ge2_bound`` = U(n), an
    upper bound on its window's total w_mid, and a proposal is kept with
    probability w_mid / U.  Each loop iteration therefore returns that branch
    with probability w_mid / (w0 + w1 + U + 2), in the same proportion to the
    other branches as a proposal with weight w_mid, so the output
    distribution is unchanged.  w_mid and the per-cell weights are
    only computed if the branch is ever proposed; U is about 2^-976 of the
    total at n = 1000, so at realistic sizes that never happens.
    """

    n: int
    w0: int
    w1: int
    ge2_bound: int
    mid_cells: tuple[tuple[int, int], ...]
    q01_cells: tuple[int, ...]
    q0_weights: tuple[int, ...]
    q1_weights: tuple[int, ...]
    cap: int
    mid_weights: tuple[int, ...] | None = None
    mid_bounds: tuple[int, ...] | None = None

    def mid_cell_weights(self) -> tuple[int, ...]:
        if self.mid_weights is None:
            self.mid_weights = tuple(_q_mid_term(self.n, q, c) for q, c in self.mid_cells)
        return self.mid_weights

    def mid_cell_at(self, r: int) -> int | None:
        """Index of the |Q| >= 2 cell that r in [0, U) falls in, each cell
        covering twice its weight (both Q shapes); None past w_mid."""
        if self.mid_bounds is None:
            self.mid_bounds = tuple(accumulate(2 * w for w in self.mid_cell_weights()))
        i = bisect_right(self.mid_bounds, r)
        return i if i < len(self.mid_bounds) else None


_plan_cache: dict[tuple[int, Fraction], _SplitPlan] = {}


def _split_plan(n: int, eps_work: Fraction) -> _SplitPlan:
    plan = _plan_cache.get((n, eps_work))
    if plan is not None:
        return plan
    q01_cells = tuple(_low_q_window(n, eps_work))
    q0_weights = tuple(_q0_term(n, c) for c in q01_cells)
    q1_weights = tuple(_q1_term(n, c) for c in q01_cells)
    plan = _SplitPlan(
        n=n,
        w0=sum(q0_weights),
        w1=sum(q1_weights),
        ge2_bound=split_count_q_ge2_bound(n),
        mid_cells=tuple(_q_mid_window_cells(n, eps_work)),
        q01_cells=q01_cells,
        q0_weights=q0_weights,
        q1_weights=q1_weights,
        cap=REJECTION_CAP_FACTOR * ceil(1 / (1 - eps_work)),
    )
    if len(_plan_cache) >= CACHE_SIZE:
        del _plan_cache[next(iter(_plan_cache))]
    _plan_cache[(n, eps_work)] = plan
    return plan


def sample_split_draw(n: int, eps, rng: RandomStream,
                      thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> SplitDraw:
    """Approximately uniform n-vertex labeled split graph, with bookkeeping.

    Output distribution is within total variation eps of uniform over split
    graphs; expected number of build-and-check iterations is at most 2.  The
    stratum weights of the last CACHE_SIZE (n, eps) pairs built are cached.
    """
    eps = as_epsilon(eps)
    floor = threshold_f(eps / 2, thresholds)
    if n < floor:
        raise ValueError(f"approx split sampling needs n >= {floor} at this epsilon")
    eps_work = min(eps / 2, Fraction(1, 3))
    plan = _split_plan(n, eps_work)
    for iteration in range(1, plan.cap + 1):
        case = categorical([plan.w0, plan.w1, plan.ge2_bound, 2], rng)
        if case == 3:
            labels = range(1, n + 1)
            g = complete_graph(labels) if rng.bits(1) else LabeledGraph(labels)
            return SplitDraw(graph=g, branch="q_full", q=n, c=0, iterations=iteration,
                             cyan=frozenset(), indigo=frozenset(),
                             swing=frozenset(labels))
        if case == 2:
            cell = plan.mid_cell_at(rng.uniform_below(plan.ge2_bound))
            if cell is None:
                continue
            q, c = plan.mid_cells[cell]
            draw = _build_q_mid(n, q, c, rng)
        elif case == 0:
            c = plan.q01_cells[categorical(plan.q0_weights, rng)]
            draw = _build_low_q(n, c, with_witness=False, rng=rng)
        else:
            c = plan.q01_cells[categorical(plan.q1_weights, rng)]
            draw = _build_low_q(n, c, with_witness=True, rng=rng)
        if draw is not None:
            draw.iterations = iteration
            return draw
    raise RejectionCapError(
        f"no draw accepted within {plan.cap} iterations; thresholds are misconfigured")


def sample_split_approx(n: int, eps, rng: RandomStream,
                        thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> LabeledGraph:
    """Approximately uniform n-vertex labeled split graph."""
    return sample_split_draw(n, eps, rng, thresholds).graph


def approx_sample_chordal(n: int, eps, rng: RandomStream,
                          thresholds: SplitThresholds = DEFAULT_THRESHOLDS) -> LabeledGraph:
    """Random n-vertex labeled chordal graph within total variation eps of uniform.

    Below the dispatch floor this is the exact uniform sampler; above it, a
    random split graph (always chordal) is drawn instead.  Between
    EXACT_LIMIT and the floor it raises ValueError instead of starting an
    exact fill that could take hours.
    """
    eps = as_epsilon(eps)
    floor = threshold_g(eps / 2, thresholds)
    if n < floor:
        from .counting import get_context
        from .sampling import ChordalSampler

        if n == 0:
            return LabeledGraph(())
        _check_exact_limit(n, floor,
                           f"sample_chordal({n}, ctx=CountingContext({n}, allow_large=True))")
        return ChordalSampler(get_context(n, n)).sample_chordal(n, rng)
    return sample_split_approx(n, eps / 2, rng, thresholds)
