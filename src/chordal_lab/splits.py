"""Approximate counting and sampling of labeled chordal graphs via split graphs.

Almost every large labeled chordal graph is a split graph, so counting split
graphs well enough approximates counting chordal graphs.  Split graphs are
organized by their questioning set Q (the vertices that can sit on either side
of a split partition): the |Q| >= 2 stratum has a closed-form exact count, the
|Q| in {0, 1} strata have two-sided sums that are themselves sharp
approximations, and each sum concentrates on a narrow window of terms around
its peak, which is all the fast path evaluates: an exact tail bound, checked
on every call by ``split_windows``, certifies that each window keeps (1 - eps)
of its sum.  How the approximate count and the split sampler spend their
epsilon is stated once, in ``_split_slice``.

Every quantity here is exact integer or rational arithmetic; accuracy targets
(epsilon) enter only through exactly-computed integer truncation bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from math import ceil, comb, isqrt, log
from operator import and_, or_
from typing import Callable

from .counting import EXACT_LIMIT, CountingContext, count_all
# Nothing here calls ``complement``; it stays importable from here because
# the benchmark's tracer wraps it by name.
from .graphs import LabeledGraph, complement, complete_graph, graph_from_biadjacency  # noqa: F401
from .sampling import ChordalSampler, RandomStream, categorical, sample_subset

# Smallest n the split path serves, at any epsilon.  Assumed, not proven:
# the two-sided |Q| in {0, 1} sums stand in for the true stratum counts, and
# the non-split share of chordal graphs is at most (9/10)^n, the model behind
# the base 10/9 of ``threshold_g``.  That model is false near the floor (an
# open defect): the exact engine puts the share at 13.7 % for n = 65, against
# (9/10)^65 = 1.1e-3, so approx_count_chordal(65, eps) is 13.7 % low at every
# eps it accepts, which breaks eps = 0.1 and 1e-2.
SPLIT_FLOOR = 65

# Build-and-check iterations one split draw may take; it expects at most 2.
REJECTION_CAP = 128


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


def _ceil_log(base: Fraction, value: Fraction, power: int = 1) -> int:
    """Smallest integer m >= 0 with base**m >= value**power, exactly, for
    base > 1 and power >= 1.

    With base = p/q and value = a/b, base**m >= value**power is
    p**m * b**power >= a**power * q**m.  A float estimate of
    power * log(value) / log(base) starts m within one of the answer, and
    exact comparisons settle it without multiplying out powers of millions of
    bits: each power is bracketed (``_bracket``) to 128 bits, then to 16
    times as many until the brackets decide, as they must once exact.
    """
    p, q, a, b = base.numerator, base.denominator, value.numerator, value.denominator

    def reaches(m: int) -> bool:
        bits = 128
        while True:
            xlo, xhi, xe = _bracket((p, m), (b, power), bits=bits)
            ylo, yhi, ye = _bracket((q, m), (a, power), bits=bits)
            e = min(xe, ye)
            if xlo << xe - e >= yhi << ye - e:
                return True
            if xhi << xe - e < ylo << ye - e:
                return False
            bits *= 16

    m = max(0, ceil(power * (log(a) - log(b)) / log(base)))
    while m and reaches(m - 1):
        m -= 1
    while not reaches(m):
        m += 1
    return m


def _bracket(*powers: tuple[int, int], bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= the product of c**k over (c, k) in
    powers <= hi * 2**e.  Each power is taken by binary powering that keeps
    the top ``bits`` bits, rounding lo down and hi up."""
    lo, hi, e = 1, 1, 0
    for c, k in powers:
        plo, phi, pe = 1, 1, 0
        for digit in bin(k)[2:]:
            f = c if digit == "1" else 1
            plo, phi = plo * plo * f, phi * phi * f
            s = max(0, phi.bit_length() - bits)
            plo, phi, pe = plo >> s, -(-phi >> s), 2 * pe + s
        lo, hi, e = lo * plo, hi * phi, e + pe
    return lo, hi, e


def ceil_log2_inverse(eps: Fraction) -> int:
    """ceil(log2(1/eps)) via exact powering."""
    return _ceil_log(Fraction(2), 1 / eps)


def threshold_f(eps) -> int:
    """Smallest n for which the truncated split count carries its guarantee."""
    eps = as_epsilon(eps)
    log_term = _ceil_log(Fraction(3, 2), 1 / eps, 3)  # ceil(3*log_{3/2}(1/eps))
    return max(SPLIT_FLOOR, log_term)


def threshold_g(eps) -> int:
    """Smallest n at which approx-count and approx-sample take the split path,
    from the two slices of eps (see ``_split_slice``)."""
    non_split, split = _budget(as_epsilon(eps))
    return max(threshold_f(split), _ceil_log(Fraction(10, 9), 1 / non_split))


# ---------------------------------------------------------------------------
# Exact and full sums
# ---------------------------------------------------------------------------

def _q_mid_sum(n: int, cells) -> int:
    """Sum of the |Q| >= 2 stratum terms C(n, q) * C(n - q, c) *
    (2^(n-q-c) - 1)^c over the given (q, c) cells."""
    # ``**``, not ``_mersenne_power``: most cells have a narrow base (small
    # n - q - c) and a long exponent, where the binomial expansion's
    # coefficients overlap and cost more than the power: at
    # split_count_q_ge2_exact(200) the expansion took 450 ms against 140 ms
    # (2-core Intel Xeon, CPython 3.11.7).  Neither approx-count nor
    # approx-sample evaluates these sums.
    return sum(comb(n, q) * comb(n - q, c) * ((1 << (n - q - c)) - 1) ** c for q, c in cells)


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


def _mersenne_power(m: int, e: int) -> int:
    """(2^m - 1)^e exactly, with shifts and additions only.

    By the binomial theorem (X - 1)^e = sum_j (-1)^(e-j) * C(e, j) * X^j at
    X = 2^m.  The signed coefficients are built each from the one before, then
    summed as a polynomial in X by halving: each round joins neighbours as
    lo + (hi << shift) and doubles the shift, so no big multiplication
    happens.  At the window shapes (m and e near n/2) this beats ``pow``,
    whose Karatsuba squarings dominate: one power at m = n // 2 took about
    0.3 against 3.4 ms at n = 1000, and 2 against 110 ms at n = 3000 (2-core
    Intel Xeon, CPython 3.11.7).
    """
    coeffs, c = [], -1 if e & 1 else 1
    for j in range(e + 1):
        coeffs.append(c)
        c = -c * (e - j) // (j + 1)
    shift = m
    while len(coeffs) > 1:
        if len(coeffs) & 1:
            coeffs.append(0)
        coeffs = [lo + (hi << shift) for lo, hi in zip(coeffs[::2], coeffs[1::2])]
        shift <<= 1
    return coeffs[0]


def _low_q_terms(n: int):
    """Term functions (q0, q1) of the two-sided |Q| = 0 and |Q| = 1 sums at
    n vertices, each taking the clique size c.

    Term c of the |Q| = 0 sum is C(n, c) * (2^m - 1)^(n - m) with m = min(c,
    n - c): the smaller side's size sets the base, the larger side's size the
    exponent.  Term c of the |Q| = 1 sum is n choices of the witness times
    the |Q| = 0 term at c on the other n - 1 vertices, n * C(n - 1, c) *
    (2^m - 1)^(n - 1 - m) with m = min(c, n - 1 - c).  A term depends on c
    only through m, so mirror terms (c <-> n - c, c <-> n - 1 - c) are equal.
    Both strata rest on the power P(m) = (2^m - 1)^(n - 1 - m), and the
    |Q| = 0 term is C(n, m) * (P * 2^m - P).  So one pair of functions
    computes each term once and calls ``_mersenne_power`` once per distinct
    m; their memos live as long as the functions do.
    """
    @cache
    def power(m: int) -> int:
        return _mersenne_power(m, n - 1 - m)

    @cache
    def q0_at(m: int) -> int:
        p = power(m)
        return comb(n, m) * ((p << m) - p)

    @cache
    def q1_at(m: int) -> int:
        return n * comb(n - 1, m) * power(m)

    return (lambda c: q0_at(min(c, n - c))), (lambda c: q1_at(min(c, n - 1 - c)))


def split_count_q0_full(n: int) -> int:
    """Two-sided sum for the |Q| = 0 stratum, untruncated; SPLIT_FLOOR states
    what it is assumed to stand in for."""
    q0, _ = _low_q_terms(n)
    return sum(q0(c) for c in range(2, n - 1))


def split_count_q1_full(n: int) -> int:
    """Two-sided sum for the |Q| = 1 stratum, untruncated."""
    _, q1 = _low_q_terms(n)
    return sum(q1(c) for c in range(2, n - 1))


# ---------------------------------------------------------------------------
# Truncated sums
# ---------------------------------------------------------------------------

def _q_window(eps: Fraction) -> int:
    """Upper bound for q in the |Q| >= 2 stratum: ceil(10*log2(1/eps)) + 47."""
    return _ceil_log(Fraction(2), 1 / eps, 10) + 47


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


def _term_bound(N: int, c: int) -> int:
    """b_c = C(N, c) * 2^(m(N - m)), m = min(c, N - c): at least the |Q| = 0
    term at c on N vertices, because 2^m - 1 < 2^m."""
    m = min(c, N - c)
    return comb(N, c) << m * (N - m)


def _tail_bound(N: int, lo: int, hi: int, last: int) -> int:
    """Upper bound on the |Q| = 0 terms on N vertices at c = 2..last outside
    lo..hi, for lo - 1 <= N/2 <= hi + 1: (terms left out) * b at the first
    left-out index, on each side (see ``split_windows``)."""
    bound = 0
    if lo > 2:
        bound += (lo - 2) * _term_bound(N, lo - 1)
    if hi < last:
        bound += (last - hi) * _term_bound(N, hi + 1)
    return bound


@dataclass(frozen=True)
class SplitWindows:
    """The certified |Q| = 0 and |Q| = 1 windows at one (n, eps): the clique
    sizes c kept by both, the terms of each stratum at those c, and the two
    window sums."""

    cells: range
    q0_terms: tuple[int, ...]
    q1_terms: tuple[int, ...]
    w0: int
    w1: int


def split_windows(n: int, eps) -> SplitWindows:
    """The |Q| = 0 and |Q| = 1 windows around n/2, each certified to keep at
    least (1 - eps) of its two-sided sum.

    Both sums run over c = 2..n-2, and both windows keep the same clique
    sizes lo..hi.  The pad either side of n/2 starts at
    ceil(sqrt(log2(1/eps))), because terms fall by about d^2 bits at distance
    d from the middle, and grows by one until both tail bounds below are at
    most eps times their window sums, compared in exact integers.  At
    lo = 2 and hi = n - 2 both tails are empty, so the loop ends.

    Proof of the tail bounds.  On N vertices let b_c = C(N, c) * 2^(m(N-m)),
    m = min(c, N - c).
    - b_c bounds the |Q| = 0 term at c, since (2^m - 1)^(N-m) < 2^(m(N-m)).
    - b_c = b_(N-c), and for c + 1 <= N/2 the ratio b_(c+1)/b_c =
      (N - c)/(c + 1) * 2^(N-2c-1) is at least 1.  So b does not decrease
      up to N/2 and does not increase after it.
    - The |Q| = 0 terms live on N = n vertices; the |Q| = 1 terms are n times
      the |Q| = 0 terms on N = n - 1, over c = 2..N-1, which holds c = N - 1
      but not c = 1.  When terms below lo are left out, lo <= floor(n/2),
      so every such c is at most (n - 1)/2 and its term is at most b_(lo-1)
      for either N; when terms above hi are left out, hi >= ceil(n/2), so
      every such c is at least n/2 and its term is at most b_(hi+1).  Hence each stratum's tail is at most
      (lo - 2) * b_(lo-1) + (n - 2 - hi) * b_(hi+1), times n for |Q| = 1.
    - Full sum = window + tail <= (1 + eps) * window, so the window keeps at
      least 1/(1 + eps) >= 1 - eps of the full sum.

    Each call builds its windows from scratch and caches nothing, and
    evaluates one power ``_mersenne_power(m, n - 1 - m)`` per distinct
    m = min(c, n - c) or min(c, n - 1 - c) of the kept cells (see
    ``_low_q_terms``).
    """
    eps = as_epsilon(eps)
    q0, q1 = _low_q_terms(n)
    pad = isqrt(ceil_log2_inverse(eps) - 1) + 1  # ceil(sqrt(log2(1/eps)))
    lo, hi = max(2, n // 2 - pad), min((n + 1) // 2 + pad, n - 2)
    while True:
        cells = range(lo, hi + 1)
        q0_terms = tuple(q0(c) for c in cells)
        q1_terms = tuple(q1(c) for c in cells)
        w0, w1 = sum(q0_terms), sum(q1_terms)
        tail0 = _tail_bound(n, lo, hi, n - 2)
        tail1 = n * _tail_bound(n - 1, lo, hi, n - 2)
        if (tail0 * eps.denominator <= eps.numerator * w0
                and tail1 * eps.denominator <= eps.numerator * w1):
            return SplitWindows(cells, q0_terms, q1_terms, w0, w1)
        lo, hi = max(2, lo - 1), min(hi + 1, n - 2)


def split_count_q0_truncated(n: int, eps) -> int:
    """|Q| = 0 window sum; at least (1 - eps) of the full sum, certified."""
    return split_windows(n, eps).w0


def split_count_q1_truncated(n: int, eps) -> int:
    """|Q| = 1 window sum; at least (1 - eps) of the full sum, certified."""
    return split_windows(n, eps).w1


# Share of the split slice that leaving out the |Q| >= 2 stratum may use.
SKIP_SHARE = Fraction(1, 1024)


def _check_q_ge2_negligible(n: int, delta: Fraction, rest: int) -> None:
    """Raise AssertionError unless U(n) <= delta * rest, exactly.

    U(n) = split_count_q_ge2_bound(n) bounds the whole |Q| >= 2 stratum, and
    ``rest`` is a window total that includes the |Q| = 0 window.  The split
    path calls this with delta = eps * SKIP_SHARE (eps / 1024) at some n >=
    threshold_f(eps), and there the check always passes:

    - U(n) = 3 * C(n, 2) * 2^(floor(n^2/4) - 1), since s + floor(s^2/4) =
      floor(n^2/4) - 1 for s = n - 2.
    - The |Q| = 0 window always holds c = m = floor(n/2).  That term is
      C(n, m) * (2^m - 1)^(n - m) >= 2^n/(n + 1) * 2^floor(n^2/4) / 2:
      C(n, m) is the largest of n + 1 binomials summing to 2^n, m * (n - m)
      = floor(n^2/4), and (1 - 2^-m)^(n - m) >= 1 - (n - m) * 2^-m >= 1/2
      for n >= 6.
    - So U <= 3 * C(n, 2) * (n + 1) * 2^-n * rest < 1.5 * n^3 * 2^-n * rest.
    - n >= threshold_f(eps) = max(65, ceil(3 * log_{3/2}(1/eps))) gives
      eps >= (3/2)^(-n/3) >= 2^(-0.2 * n), and 1536 * n^3 <= 2^(0.8 * n)
      for every n >= 65 (2^52 against 2^28.7 at n = 65, and the ratio grows).
      Hence 1536 * n^3 <= eps * 2^n, that is 1.5 * n^3 * 2^-n <= eps/1024,
      and U <= (eps/1024) * rest.

    The check is exact integer arithmetic and costs one shift and a few
    multiplies, so it runs on every call instead of trusting the proof.
    """
    if split_count_q_ge2_bound(n) * delta.denominator > delta.numerator * rest:
        raise AssertionError(
            f"the |Q| >= 2 bound at n = {n} exceeds {delta} of the window total")


def _certified_windows(n: int, eps: Fraction) -> SplitWindows:
    """The windows at (n, eps) that leave out the |Q| >= 2 stratum, certified
    to miss at most eps of the total F defined in ``approx_count_split``.

    eps is the split slice of the budget (``_split_slice``), divided here
    once more: delta = eps * SKIP_SHARE (eps / 1024).  The windows come
    from ``split_windows(n, eps - delta)``, which certifies that each keeps
    at least (1 - eps + delta) of its full sum, and the two |Q| = n graphs
    are counted with them, for a total R = w0 + w1 + 2.  The |Q| >= 2
    stratum is left out: ``_check_q_ge2_negligible`` proves, and checks,
    U <= delta * R, so F - R <= (eps - delta) * F + U <= eps * F.  Both
    steps are checked here, before a caller uses or caches the windows.
    """
    delta = eps * SKIP_SHARE
    windows = split_windows(n, eps - delta)
    _check_q_ge2_negligible(n, delta, windows.w0 + windows.w1 + 2)
    return windows


def approx_count_split(n: int, eps) -> int:
    """(1 - eps)-approximation from below of the two-sided split-graph sum.

    The result R satisfies (1 - eps) * F <= R <= F, where
    F = split_count_q_mid_full(n) + split_count_q0_full(n)
        + split_count_q1_full(n) + 2.

    R is the window total of ``_certified_windows(n, eps)``, which proves
    and checks F - R <= eps * F on every call, so this bound on F holds
    unconditionally.  Requires n >= threshold_f(eps).  ``approx_count_chordal``
    passes the split slice of its budget as eps (see ``_split_slice``).
    """
    eps = as_epsilon(eps)
    floor = threshold_f(eps)
    if n < floor:
        raise ValueError(f"approx split counting needs n >= {floor} at this epsilon")
    windows = _certified_windows(n, eps)
    return windows.w0 + windows.w1 + 2


def _budget(eps: Fraction) -> tuple[Fraction, Fraction]:
    """The (non-split, split) slices of eps; see ``_split_slice``."""
    return eps / 2, eps / 2


def _split_slice(n: int, eps, exact_call: str) -> Fraction | None:
    """The dispatch of approx-count and approx-sample: None below the floor
    threshold_g(eps), where the exact path runs, else the split slice of eps.
    Rejects a negative n before it parses eps.  Between EXACT_LIMIT and the
    floor it raises ValueError naming ``exact_call`` instead of starting an
    exact fill that could take hours.

    The budget.  The count is promised within a factor 1 +- eps, and a draw
    within total variation eps of uniform.  Both spend eps in the same two
    slices (``_budget``):
    - eps/2 for the non-split chordal graphs, which the split path leaves
      out; the floor's 10/9 term assumes their share is at most (9/10)^n;
    - eps/2 for the split path, returned here as the eps of
      ``approx_count_split`` and ``sample_split_draw``.  ``_certified_windows``
      divides it into the windows and the left-out |Q| >= 2 stratum, and
      checks both on every call.
    Granted SPLIT_FLOOR's two assumptions, the count's relative error and the
    sampler's total variation are each at most the sum of the slices, eps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    eps = as_epsilon(eps)
    floor = threshold_g(eps)
    if n >= floor:
        return _budget(eps)[1]
    if n > EXACT_LIMIT:
        raise ValueError(
            f"n = {n} is below the split-graph floor {floor} at this epsilon and above "
            f"the exact engine's limit {EXACT_LIMIT}; call {exact_call} to run the exact "
            "engine anyway (its fill may take hours)")
    return None


def approx_count_chordal(n: int, eps) -> int:
    """(1 +- eps)-approximation of the number of n-vertex labeled chordal graphs.

    Below the dispatch floor the answer is computed exactly (unconditionally
    correct) by the count-only fill of ``counting.count_all``; above it,
    split graphs stand in for chordal graphs.  ``_split_slice`` states the
    dispatch, its refusals and the budget.
    """
    split = _split_slice(n, eps, f"CountingContext({n}, allow_large=True).count_all({n})")
    if split is None:
        return count_all(n)
    return approx_count_split(n, split)


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
    branch: str  # "q0" | "q1" | "q_full"
    q: int
    c: int
    iterations: int
    cyan: frozenset[int]
    indigo: frozenset[int]
    swing: frozenset[int]


# bin() digits to the 0/1 bytes of a biadjacency matrix row.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _build_low_q(n: int, c: int, with_witness: bool, rng: RandomStream) -> SplitDraw | None:
    """One attempt at a |Q| = 0 or |Q| = 1 draw; None if the cover check fails.

    Each row vertex draws a mask over the w column vertices; bit j of a mask
    is the edge to ``cols[j]``.  The cover check folds the masks: every
    column needs a 1 (their OR is all ones) when the rows are indigo, and a
    0 (their AND is 0) when the rows are cyan.  Accepted masks become the
    0/1 byte rows of one matrix, from which ``graph_from_biadjacency`` reads
    both sides' neighbours; no edge pair is listed.
    """
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
    cyan_set = frozenset(cyan)
    indigo = [v for v in pool if v not in cyan_set]
    if c <= half:
        # Indigo vertices reach proper subsets of cyan; accept only if every
        # cyan vertex still got an indigo neighbor.
        rows, cols, w = indigo, cyan, c
        masks = [rng.uniform_below(2 ** c - 1) for _ in indigo]  # all-ones excluded
        covered = reduce(or_, masks, 0) == (1 << w) - 1
    else:
        # Cyan vertices reach nonempty subsets of indigo; accept only if no
        # indigo vertex ends up adjacent to all of cyan.
        rows, cols, w = cyan, indigo, len(indigo)
        masks = [1 + rng.uniform_below(2 ** w - 1) for _ in cyan]
        covered = reduce(and_, masks, (1 << w) - 1) == 0
    if not covered:
        return None
    mat = b"".join(bin(mask)[2:].zfill(w)[::-1].encode().translate(_BIT_BYTES)
                   for mask in masks)
    g = graph_from_biadjacency(labels, cyan_set.union(white), rows, cols, mat)
    return SplitDraw(graph=g, branch="q1" if with_witness else "q0",
                     q=1 if with_witness else 0, c=c, iterations=0,
                     cyan=cyan_set, indigo=frozenset(indigo),
                     swing=frozenset(white))


# The certified windows of the CACHE_SIZE (n, eps) pairs the sampler drew
# from most recently, least recently used dropped first: the library's one
# cache kept between calls.
CACHE_SIZE = 4
_split_plan = lru_cache(maxsize=CACHE_SIZE)(_certified_windows)


def sample_split_draw(n: int, eps, rng: RandomStream) -> SplitDraw:
    """Approximately uniform n-vertex labeled split graph, with bookkeeping.

    Each iteration picks |Q| = 0, |Q| = 1 or |Q| = n in proportion to the
    window totals w0, w1 and 2 of ``_certified_windows(n, eps)``, so the
    output is within total variation eps of uniform over the graphs the
    two-sided sums count; ``approx_sampler`` passes its split slice as eps
    (see ``_split_slice``).  The expected number of build-and-check
    iterations is at most 2.  The plans of the CACHE_SIZE (n, eps) pairs
    drawn at most recently are cached.
    """
    eps = as_epsilon(eps)
    floor = threshold_f(eps)
    if n < floor:
        raise ValueError(f"approx split sampling needs n >= {floor} at this epsilon")
    plan = _split_plan(n, eps)
    for iteration in range(1, REJECTION_CAP + 1):
        case = categorical([plan.w0, plan.w1, 2], rng)
        if case == 2:
            labels = range(1, n + 1)
            g = complete_graph(labels) if rng.bits(1) else LabeledGraph(labels)
            return SplitDraw(graph=g, branch="q_full", q=n, c=0, iterations=iteration,
                             cyan=frozenset(), indigo=frozenset(),
                             swing=frozenset(labels))
        c = plan.cells[categorical(plan.q1_terms if case else plan.q0_terms, rng)]
        draw = _build_low_q(n, c, with_witness=case == 1, rng=rng)
        if draw is not None:
            draw.iterations = iteration
            return draw
    raise RejectionCapError(
        f"no draw accepted within {REJECTION_CAP} iterations at n = {n}; the cover checks "
        "reject far more often than the split floor assumes")


def sample_split_approx(n: int, eps, rng: RandomStream) -> LabeledGraph:
    """Approximately uniform n-vertex labeled split graph."""
    return sample_split_draw(n, eps, rng).graph


def approx_sampler(n: int, eps) -> Callable[[RandomStream], LabeledGraph]:
    """The draw function of ``approx_sample_chordal(n, eps, .)``, with the
    path decided once.

    Below the dispatch floor every draw goes to one exact ``ChordalSampler``
    over a ``CountingContext(n)`` built here, so draws share its fill and its
    weighed plans; above it, each draw is a random split graph drawn at the
    split slice of the budget (see ``_split_slice``).  Raises ValueError at
    once where ``approx_sample_chordal`` would.
    """
    split = _split_slice(
        n, eps, f"sample_chordal({n}, ctx=CountingContext({n}, allow_large=True))")
    if split is None:
        return partial(ChordalSampler(CountingContext(n)).sample_chordal, n)
    return partial(sample_split_approx, n, split)


def approx_sample_chordal(n: int, eps, rng: RandomStream) -> LabeledGraph:
    """Random n-vertex labeled chordal graph within total variation eps of uniform.

    Below the dispatch floor this is the exact uniform sampler; above it, a
    random split graph (always chordal) is drawn instead (see
    :func:`approx_sampler`).  Each call builds its own sampler (and, below the
    floor, its own fill); for many draws, call :func:`approx_sampler` once.
    """
    return approx_sampler(n, eps)(rng)
