"""Exact counting of w-colorable labeled (connected) chordal graphs.

The counts come from a family of memoized tables over arbitrary-precision
integers.  Each table counts connected chordal graphs classified by how they
dissolve under "evaporation": repeated simultaneous deletion of all simplicial
vertices, while a clique of *root* vertices (labels ``1..x``) is held back and
never deleted.  The classifying data are

    t  -- bound on, or exact value of, the number of evaporation rounds
    x  -- size of the held root clique (always the labels ``[1, x]``)
    l  -- size of the last evaporation layer when it is pinned to the labels
          ``[x+1, x+l]`` (the "pinned" tables)
    k  -- number of remaining free vertices
    z  -- components must keep at least one neighbor outside the first z root
          labels (ties the pieces of a decomposition back together)

All arithmetic is exact; values grow to roughly 2**(n*n).  A filled context is
immutable in practice (every memo entry is write-once) and may be read from
any number of threads; filling is single-writer.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

# The counted class kinds and the names of their arguments, in order.
# ``CountingContext.count_<kind>`` counts a class and
# ``ChordalSampler._sample_<kind>`` samples it.
CLASS_ARGS = {
    "within": "txkz", "exact": "txkz", "exact_proper": "txkz",
    "exact_single": "txk", "exact_multi": "txk",
    "pinned": "txlk", "pinned_exact": "txlk", "pinned_proper": "txlk",
    "pinned_proper_z": "txlkz",
}


def class_params(kind: str, args: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(t, x, l, k, z) of one counted class, with l = z = 0 where the kind has none.

    The class lives on the vertex set [x + l + k].  Raises ValueError for an
    unknown kind or a wrong number of arguments.
    """
    names = CLASS_ARGS.get(kind)
    if names is None:
        raise ValueError(f"unknown class kind {kind!r}; expected one of {tuple(CLASS_ARGS)}")
    if len(args) != len(names):
        raise ValueError(f"class kind {kind!r} takes the {len(names)} arguments "
                         f"({', '.join(names)}), got {len(args)}")
    given = dict(zip(names, args))
    return tuple(given.get(name, 0) for name in "txlkz")


class DepthGuardError(RuntimeError):
    """Raised if the evaluation recursion exceeds its defensive depth bound."""


def _put(memo: dict, key: int, value: int) -> int:
    # Memo entries are write-once; a second write means a logic error.
    if key in memo:
        raise AssertionError(f"memo entry {key} written twice")
    memo[key] = value
    return value


class CountingContext:
    """Memoized tables for counting w-colorable chordal graphs up to n_max.

    One context serves every vertex count ``n <= n_max`` at a fixed color
    budget ``omega``; ``omega`` larger than ``n_max`` is clamped since it
    imposes no constraint.

    ``factored=True`` (the default) evaluates the five-argument pinned table
    through a memoized inner sum, turning its triple summation into two
    nested double summations; ``factored=False`` keeps the direct triple sum.
    Both produce identical values.
    """

    def __init__(self, n_max: int, omega: int | None = None, factored: bool = True):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if omega is None:
            omega = max(n_max, 1)
        if omega < 1:
            raise ValueError("omega must be at least 1")
        self.n_max = n_max
        self.omega = min(omega, n_max) if n_max >= 1 else omega
        self.factored = factored

        size = n_max + 1
        self._stride = size
        # Pascal triangle, rows zero-padded to full width so that C[a][b] is 0
        # for b > a without bounds checks.
        rows = [[0] * size for _ in range(size)]
        for a in range(size):
            rows[a][0] = 1
            for b in range(1, a + 1):
                rows[a][b] = rows[a - 1][b - 1] + rows[a - 1][b]
        self._C = rows

        self._within: dict[int, int] = {}
        self._exact: dict[int, int] = {}
        self._exact_proper: dict[int, int] = {}
        self._single: dict[int, int] = {}
        self._multi: dict[int, int] = {}
        self._pinned: dict[int, int] = {}
        self._pinned_exact: dict[int, int] = {}
        self._pinned_proper_z: dict[int, int] = {}
        self._inner: dict[int, int] = {}

        self._conn: dict[int, int] = {}
        self._all: list[int] = [1]  # empty vertex set: exactly one graph

        self._depth = 0
        self._depth_limit = 8 * max(n_max, 1) + 64
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * self._depth_limit + 1000))

    # -- public arithmetic ---------------------------------------------------

    def binomial(self, a: int, b: int) -> int:
        """C(a, b), with value 0 outside 0 <= b <= a."""
        if not 0 <= a <= self.n_max:
            raise ValueError(f"binomial row {a} outside [0, {self.n_max}]")
        if b < 0 or b > a:
            return 0
        return self._C[a][b]

    # -- public counter accessors (validate, then defer to the hot internals)

    def count_within(self, t: int, x: int, k: int, z: int) -> int:
        """Rooted graphs on [x+k] that fully evaporate within t rounds.

        The root [x] is a clique held in place; every component of the free
        part must keep a neighbor among root labels z+1..x.
        """
        self._check(t >= 0, x >= 1, 0 <= z < x, k >= 0, x + k <= self.n_max)
        return self._within_(t, x, k, z)

    def count_exact(self, t: int, x: int, k: int, z: int) -> int:
        """Like :meth:`count_within`, but every free component finishes in
        exactly round t.  A bare root (k = 0) counts once."""
        self._check(t >= 1, x >= 1, 0 <= z < x, k >= 0, x + k <= self.n_max)
        return self._exact_(t, x, k, z)

    def count_exact_proper(self, t: int, x: int, k: int, z: int) -> int:
        """Like :meth:`count_exact`, with no component adjacent to the whole root."""
        self._check(t >= 1, x >= 1, 0 <= z < x, k >= 0, x + k <= self.n_max)
        return self._exact_proper_(t, x, k, z)

    def count_exact_single(self, t: int, x: int, k: int) -> int:
        """One free component, adjacent to the whole root, finishing exactly at t."""
        self._check(t >= 0, x >= 0, k >= 0, x + k <= self.n_max)
        return self._single_(t, x, k)

    def count_exact_multi(self, t: int, x: int, k: int) -> int:
        """At least two free components, each seeing the whole root, each exact at t."""
        self._check(t >= 0, x >= 1, k >= 0, x + k <= self.n_max)
        return self._multi_(t, x, k)

    def count_pinned(self, t: int, x: int, l: int, k: int) -> int:
        """Graphs on [x+l+k] whose last layer is exactly the labels [x+1, x+l].

        The root [x] plus that layer must form a clique, evaporation (sparing
        the root) takes exactly t rounds, and the part outside the root is
        connected.
        """
        self._check(t >= 1, x >= 0, l >= 1, k >= 0, x + l + k <= self.n_max)
        return self._pinned_(t, x, l, k)

    def count_pinned_exact(self, t: int, x: int, l: int, k: int) -> int:
        """Like :meth:`count_pinned`, but every component outside root-plus-layer
        finishes exactly in round t-1, and at least one such component exists."""
        self._check(t >= 1, x >= 0, l >= 1, k >= 0, x + l + k <= self.n_max)
        return self._pinned_exact_(t, x, l, k)

    def count_pinned_proper(self, t: int, x: int, l: int, k: int) -> int:
        """Like :meth:`count_pinned_exact`, with no component adjacent to all of
        root-plus-layer."""
        self._check(t >= 1, x >= 0, l >= 1, k >= 0, x + l + k <= self.n_max)
        return self._pinned_proper_z_(t, x, l, k, x)

    def count_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int) -> int:
        """Five-argument form: connectivity is required only outside [z]."""
        self._check(t >= 1, x >= 0, l >= 1, k >= 0, 0 <= z <= x, x + l + k <= self.n_max)
        return self._pinned_proper_z_(t, x, l, k, z)

    def inner_sum(self, t: int, x: int, l: int, z: int, r: int, k: int) -> int:
        """The factored inner summation used by the five-argument pinned table."""
        self._check(t >= 2, x >= 0, l >= 1, 0 <= z <= x, 1 <= r <= x + l - 1,
                    k >= 0, x + l + k <= self.n_max)
        return self._inner_(t, x, l, z, r, k)

    @staticmethod
    def _check(*conds: bool) -> None:
        if not all(conds):
            raise ValueError("counter arguments outside their domain")

    # -- top-level counts ----------------------------------------------------

    def count_connected(self, n: int) -> int:
        """Number of w-colorable labeled connected chordal graphs on [n]."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")
        got = self._conn.get(n)
        if got is None:
            got = sum(self._single_(t, 0, n) for t in range(1, n + 1))
            self._conn[n] = got
        return got

    def count_all(self, n: int) -> int:
        """Number of w-colorable labeled chordal graphs on [n] (n = 0 gives 1).

        Splits off the component containing label 1 and recurses on the rest.
        """
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}]")
        a = self._all
        C = self._C
        while len(a) <= n:
            m = len(a)
            total = 0
            for k in range(1, m + 1):
                total += C[m - 1][k - 1] * self.count_connected(k) * a[m - k]
            a.append(total)
        return a[n]

    # -- hot internals (arguments already in-domain) ---------------------------

    def _within_(self, t: int, x: int, k: int, z: int) -> int:
        # Bare root: the empty evaporation sequence fits any round budget.
        if k == 0:
            return 1
        if t == 0:
            return 0
        S = self._stride
        key = ((t * S + x) * S + k) * S + z
        memo = self._within
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        Ck = self._C[k]
        total = 0
        for k2 in range(k + 1):
            a = self._exact_(t, x, k2, z)
            if a:
                total += Ck[k2] * a * self._within_(t - 1, x, k - k2, z)
        self._depth -= 1
        return _put(memo, key, total)

    def _exact_(self, t: int, x: int, k: int, z: int) -> int:
        if k == 0:
            return 1
        S = self._stride
        key = ((t * S + x) * S + k) * S + z
        memo = self._exact
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        C = self._C
        Cx, Cz, Ck1 = C[x], C[z], C[k - 1]
        total = 0
        # Split off the component holding the lowest free label (k2 vertices,
        # root contact x2) from the rest of the free part.
        for k2 in range(1, k + 1):
            rest = self._exact_(t, x, k - k2, z)
            if not rest:
                continue
            b = Ck1[k2 - 1] * rest
            acc = 0
            for x2 in range(1, x + 1):
                s = self._single_(t, x2, k2)
                if s:
                    acc += (Cx[x2] - Cz[x2]) * s
            total += b * acc
        self._depth -= 1
        return _put(memo, key, total)

    def _exact_proper_(self, t: int, x: int, k: int, z: int) -> int:
        if k == 0:
            return 1
        S = self._stride
        key = ((t * S + x) * S + k) * S + z
        memo = self._exact_proper
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        C = self._C
        Cx, Cz, Ck1 = C[x], C[z], C[k - 1]
        total = 0
        for k2 in range(1, k + 1):
            rest = self._exact_proper_(t, x, k - k2, z)
            if not rest:
                continue
            b = Ck1[k2 - 1] * rest
            acc = 0
            for x2 in range(1, x):  # proper contact: x2 < x
                s = self._single_(t, x2, k2)
                if s:
                    acc += (Cx[x2] - Cz[x2]) * s
            total += b * acc
        self._depth -= 1
        return _put(memo, key, total)

    def _single_(self, t: int, x: int, k: int) -> int:
        if t == 0 or k == 0:
            return 0
        S = self._stride
        key = (t * S + x) * S + k
        memo = self._single
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        Ck = self._C[k]
        total = 0
        # Last layer has some size l; its label set is interchangeable.
        # Sizes with x + l > omega contribute nothing.
        for l in range(1, min(k, self.omega - x) + 1):
            p = self._pinned_(t, x, l, k - l)
            if p:
                total += Ck[l] * p
        self._depth -= 1
        return _put(memo, key, total)

    def _multi_(self, t: int, x: int, k: int) -> int:
        if t == 0 or k == 0:
            return 0
        S = self._stride
        key = (t * S + x) * S + k
        memo = self._multi
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        Ck1 = self._C[k - 1]
        total = 0
        for k2 in range(1, k):
            s = self._single_(t, x, k2)
            if s:
                rest = self._single_(t, x, k - k2) + self._multi_(t, x, k - k2)
                if rest:
                    total += Ck1[k2 - 1] * s * rest
        self._depth -= 1
        return _put(memo, key, total)

    def _pinned_(self, t: int, x: int, l: int, k: int) -> int:
        if x + l > self.omega:
            return 0
        if t == 1:
            return 1 if k == 0 else 0
        if k == 0:
            return 0
        S = self._stride
        key = ((t * S + x) * S + l) * S + k
        memo = self._pinned
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        Ck = self._C[k]
        total = 0
        # k2 free vertices sit in components finishing exactly at t-1; the
        # rest evaporates at least two rounds earlier, with the whole layer
        # absorbed into its root.
        for k2 in range(1, k + 1):
            a = self._pinned_exact_(t, x, l, k2)
            if a:
                total += Ck[k2] * a * self._within_(t - 2, x + l, k - k2, x)
        self._depth -= 1
        return _put(memo, key, total)

    def _pinned_exact_(self, t: int, x: int, l: int, k: int) -> int:
        if t == 1 or k == 0:
            return 0
        S = self._stride
        key = ((t * S + x) * S + l) * S + k
        memo = self._pinned_exact
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        Ck = self._C[k]
        xl = x + l
        # Zero, one, or at least two components see all of root-plus-layer.
        total = self._pinned_proper_z_(t, x, l, k, x)
        for k2 in range(1, k + 1):
            s1 = self._single_(t - 1, xl, k2)
            if s1:
                p = self._pinned_proper_z_(t, x, l, k - k2, x)
                if p:
                    total += Ck[k2] * s1 * p
            m = self._multi_(t - 1, xl, k2)
            if m:
                gp = self._exact_proper_(t - 1, xl, k - k2, x)
                if gp:
                    total += Ck[k2] * m * gp
        self._depth -= 1
        return _put(memo, key, total)

    def _pinned_proper_z_(self, t: int, x: int, l: int, k: int, z: int) -> int:
        if t == 1 or k == 0:
            return 0
        S = self._stride
        key = (((t * S + x) * S + l) * S + k) * S + z
        memo = self._pinned_proper_z
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        if self.factored:
            total = self._pinned_proper_factored(t, x, l, k, z)
        else:
            total = self._pinned_proper_direct(t, x, l, k, z)
        self._depth -= 1
        return _put(memo, key, total)

    def _pinned_proper_factored(self, t: int, x: int, l: int, k: int, z: int) -> int:
        Ck1 = self._C[k - 1]
        single = self._single_
        inner = self._inner_
        xl1 = x + l - 1
        total = 0
        for k2 in range(1, k + 1):
            b = Ck1[k2 - 1]
            kr = k - k2
            acc = 0
            for r in range(1, xl1 + 1):
                s = single(t - 1, r, k2)
                if s:
                    h = inner(t, x, l, z, r, kr)
                    if h:
                        acc += s * h
            if acc:
                total += b * acc
        return total

    def _pinned_proper_direct(self, t: int, x: int, l: int, k: int, z: int) -> int:
        C = self._C
        Ck1, Cl, Cx, Cz = C[k - 1], C[l], C[x], C[z]
        single = self._single_
        total = 0
        # Component with the lowest free label: k2 vertices, touching x2 root
        # labels and l2 layer labels, a proper nonempty part of root+layer.
        for k2 in range(1, k + 1):
            b = Ck1[k2 - 1]
            kr = k - k2
            for l2 in range(l + 1):
                rest = (self._pinned_proper_z_(t, x + l2, l - l2, kr, z) if l2 < l
                        else self._exact_proper_(t - 1, x + l, kr, z))
                if not rest:
                    continue
                w_layer = Cl[l2] * rest
                for x2 in range(x + 1):
                    if not 0 < x2 + l2 < x + l:
                        continue
                    w = Cx[x2] if l2 > 0 else Cx[x2] - Cz[x2]
                    if not w:
                        continue
                    s = single(t - 1, x2 + l2, k2)
                    if s:
                        total += b * w_layer * w * s
        return total

    def _inner_(self, t: int, x: int, l: int, z: int, r: int, k: int) -> int:
        S = self._stride
        key = ((((t * S + x) * S + l) * S + z) * S + r) * S + k
        memo = self._inner
        got = memo.get(key)
        if got is not None:
            return got
        self._enter()
        C = self._C
        Cl, Cx, Cz = C[l], C[x], C[z]
        total = 0
        for l2 in range(max(0, r - x), min(r, l) + 1):
            w = Cx[r - l2] if l2 > 0 else Cx[r] - Cz[r]
            if not w:
                continue
            rest = (self._pinned_proper_z_(t, x + l2, l - l2, k, z) if l2 < l
                    else self._exact_proper_(t - 1, x + l, k, z))
            if rest:
                total += Cl[l2] * w * rest
        self._depth -= 1
        return _put(memo, key, total)

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > self._depth_limit:
            raise DepthGuardError(
                f"recursion depth exceeded {self._depth_limit}; "
                "the evaluation order is broken")

    # -- diagnostics -----------------------------------------------------------

    def table_sizes(self) -> dict[str, int]:
        """Number of stored entries per memo table (for perf inspection)."""
        return {
            "within": len(self._within),
            "exact": len(self._exact),
            "exact_proper": len(self._exact_proper),
            "single": len(self._single),
            "multi": len(self._multi),
            "pinned": len(self._pinned),
            "pinned_exact": len(self._pinned_exact),
            "pinned_proper_z": len(self._pinned_proper_z),
            "inner": len(self._inner),
        }


# ---------------------------------------------------------------------------
# Module-level conveniences with a small context cache
# ---------------------------------------------------------------------------

_context_cache: dict[tuple[int, int], CountingContext] = {}


def get_context(n_max: int, omega: int | None = None) -> CountingContext:
    """A shared context per (n_max, omega); fills are reused across calls."""
    if omega is None:
        omega = n_max
    omega_eff = min(omega, n_max) if n_max >= 1 else max(omega, 1)
    key = (n_max, omega_eff)
    ctx = _context_cache.get(key)
    if ctx is None:
        ctx = CountingContext(n_max, omega_eff if n_max >= 1 else None)
        _context_cache[key] = ctx
    return ctx


def count_connected(n: int, omega: int | None = None) -> int:
    """Number of omega-colorable labeled connected chordal graphs on [n]."""
    return get_context(n, omega).count_connected(n)


def count_all(n: int, omega: int | None = None) -> int:
    """Number of omega-colorable labeled chordal graphs on [n]."""
    if n == 0:
        return 1
    return get_context(n, omega).count_all(n)


def connected_count_rows(n_max: int, omega: int | None = None) -> Iterator[tuple[int, int, int, int]]:
    """Rows (n, omega, connected_count, all_count) for n = 1..n_max."""
    ctx = get_context(n_max, omega)
    for n in range(1, n_max + 1):
        yield n, ctx.omega, ctx.count_connected(n), ctx.count_all(n)
