"""Exact counting of w-colorable labeled (connected) chordal graphs.

The counts come from a family of tables over arbitrary-precision integers.
Each table counts connected chordal graphs classified by how they dissolve
under "evaporation": repeated simultaneous deletion of all simplicial
vertices, while a clique of *root* vertices (labels ``1..x``) is held back and
never deleted.  The classifying data are

    t  -- bound on, or exact value of, the number of evaporation rounds
    x  -- size of the held root clique (always the labels ``[1, x]``)
    l  -- size of the last evaporation layer when it is pinned to the labels
          ``[x+1, x+l]`` (the "pinned" tables)
    k  -- number of remaining free vertices
    z  -- components must keep at least one neighbor outside the first z root
          labels (ties the pieces of a decomposition back together)

The tables live in one store keyed by ``CLASS_ARGS`` kind.  Every table is
a dense nested list with k last (``[t][x][z][k]``, ``[t][x][l][k]`` and
``[t][x][l][z][k]``), so each recurrence is a binomial convolution over
whole rows.
:class:`CountingContext` fills them bottom-up when it is constructed.
Rounds run t = 1, 2, ... and each round has two phases:

    A. for each hull size x + l: the five-argument pinned rows, as one chain
       over x descending at root contact z = 0, each row at z >= 1 derived
       from the z = 0 row by one convolution; then, with x descending,
       ``pinned_exact`` and ``pinned``;
    B. ``exact_single`` and ``exact_multi``, then ``exact`` and
       ``exact_proper``, then ``within``.

The invariant is that every read is of an earlier round, or of the same
round and an earlier phase, or of a row the current phase has completed, or
of entries of the row being filled at fewer free vertices.  The fill stops
after the first round whose ``exact_single`` table is all zero.  No component
finishes then or later, so that round, ``last_round``, holds every table's
value at every later t.  Rows whose root clique, or root plus layer, is
larger than omega are empty, since every graph there contains that clique,
and nothing stores them.  :meth:`CountingContext.row` is the one reader of
the tables: it checks a kind's arguments, reads round min(t, last_round),
and returns the stored row over k (a shared all-zero row above omega);
each ``count_<kind>`` is that row's entry at k.  Every row is a tuple when
the fill stores it, so a constructed context is filled and immutable, and
may be read from any number of threads.

Most entries of most rows are zero, and the two row kernels
(``_first_component_row`` and ``_conv``) multiply only over the nonzero band
of each row.  The zeros have three sources.  Leading zeros: a component that
finishes in round t has at least lo(t) vertices, so ``exact_single``,
``exact`` and the pinned chain rows vanish at 0 < k < lo(t).  The gap after
k = 0: an exact row is [1, 0, ..., 0, nonzero from lo(t)], the bare root at
k = 0.  The self row: a row that reads itself at fewer free vertices is
[first, 0, ..., 0, row[lo:]].  The kernels find each band from the values
themselves (the first nonzero entry of a row), so they store the same values
as full products would.

All arithmetic is exact; values grow to roughly 2**(n*n).
"""

from __future__ import annotations

from itertools import islice
from operator import mul
from typing import Sequence

# The counted class kinds and the names of their arguments, in order.
# ``CountingContext.count_<kind>`` counts a class; ``ChordalSampler._KINDS``
# holds the weigher and the handler that unrank it.
CLASS_ARGS = {
    "within": "txkz", "exact": "txkz", "exact_proper": "txkz",
    "exact_single": "txk", "exact_multi": "txk",
    "pinned": "txlk", "pinned_exact": "txlk",
    "pinned_proper_z": "txlkz",
}

# Largest n = omega whose fill a context runs without ``allow_large``.  At n = 30
# a ``count --n 30`` process (``exact_counts``, which keeps only the rounds the
# next round reads) takes 1.1-1.9 s and peaks at 25 MB RSS, and a
# ``sample --n 30`` process (a full context) takes 1.8-2.6 s and peaks at
# 75 MB (fresh processes, 2-core x86-64, CPython 3.11).  The approximate entry
# points in ``splits`` use the same limit for their exact fallback.
EXACT_LIMIT = 30


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


def fill_cells(n_max: int, omega: int | None = None) -> int:
    """Number of table cells a ``CountingContext(n_max, omega)`` fill stores.

    Exact integer arithmetic in O(1).  Rounds 0..R are stored, where R is the
    first round with an all-zero ``single`` table: R = n_max once there is
    room for a root vertex under a path of n_max - 1 vertices, else 2 (or 1
    when there is no vertex at all).
    """
    n = n_max
    w = min(max(n, 1) if omega is None else omega, n)
    rounds = 1 + (1 if n == 0 else 2 if w == 1 else n)
    s1 = w * (w + 1) // 2                  # sum of X over hulls X = 1..w
    s2 = w * (w + 1) * (2 * w + 1) // 6    # sum of X**2
    s3 = s1 * s1                           # sum of X**3
    per_x = w * (n + 1) - (w - 1) * w // 2         # rows x = 0..w-1, n - x + 1 cells
    per_hull = (n + 1) * s1 - s2                   # X cells-rows of n - X + 1 cells
    per_z = ((n + 1) * (s2 + s1) - (s3 + s2)) // 2  # X(X+1)/2 rows of n - X + 1 cells
    # single and multi; within (also in round 0); exact, exact_proper, pinned,
    # pinned_exact; pinned_proper_z.
    return rounds * (2 * per_x + per_hull) + (rounds - 1) * (4 * per_hull + per_z)


_CELL_LIMIT = fill_cells(EXACT_LIMIT, EXACT_LIMIT)

# The weights of a round in which no component finishes.
_NO_WEIGHTS = (None, None, None, None)


class CountingContext:
    """Filled tables for counting w-colorable chordal graphs up to n_max.

    One context serves every vertex count ``n <= n_max`` at a fixed color
    budget ``omega``; ``omega`` larger than ``n_max`` is clamped since it
    imposes no constraint.  The constructor runs the whole fill; it raises
    ValueError before allocating anything when the fill would store more
    cells than the one at n = omega = EXACT_LIMIT, unless ``allow_large``.

    A context keeps every round of every table because the sampler unranks
    through them all.  Counting alone does not need the stored rounds: each
    round reads only the one or two before it, and :func:`exact_counts` runs
    the same fill keeping just those.  Nothing in this module keeps a
    context: to reuse a fill, hold the context.

    ``factored=True`` (the default) evaluates the five-argument pinned table
    grouped by the component's share of the layer, with the root-contact
    sums hoisted out of the rows, and runs that chain at z = 0 only: every
    row at z >= 1 is the z = 0 row convolved with the inverse of
    exact(t - 1, z, ., 0) (the derivation is in :meth:`_fill_pinned`).
    ``factored=False`` evaluates the direct triple sum for each cell and
    every z, without that identity.  Both produce identical values.
    """

    def __init__(self, n_max: int, omega: int | None = None, factored: bool = True,
                 allow_large: bool = False):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if omega is None:
            omega = max(n_max, 1)
        if omega < 1:
            raise ValueError("omega must be at least 1")
        self.n_max = n_max
        self.omega = min(omega, n_max) if n_max >= 1 else omega
        self.factored = factored
        cells = fill_cells(n_max, omega)
        if cells > _CELL_LIMIT and not allow_large:
            raise ValueError(
                f"the exact fill at n = {n_max}, omega = {self.omega} stores {cells} table "
                f"cells, more than the {_CELL_LIMIT} at n = omega = {EXACT_LIMIT}; pass "
                "allow_large=True (CLI: --allow-large) to run it anyway (it may take hours)")

        size = n_max + 1
        # Pascal triangle, rows zero-padded to full width so that C[a][b] is 0
        # for b > a without bounds checks.
        rows = [[0] * size for _ in range(size)]
        for a in range(size):
            rows[a][0] = 1
            for b in range(1, a + 1):
                rows[a][b] = rows[a - 1][b - 1] + rows[a - 1][b]
        self._C = tuple(map(tuple, rows))
        # Largest root-plus-layer a stored row may have.
        self._w = min(self.omega, n_max)
        self._zeros = tuple((0,) * (m + 1) for m in range(size))  # by row length
        self._fill()

    # -- public arithmetic ---------------------------------------------------

    def binomial(self, a: int, b: int) -> int:
        """C(a, b), with value 0 outside 0 <= b <= a."""
        if not 0 <= a <= self.n_max:
            raise ValueError(f"binomial row {a} outside [0, {self.n_max}]")
        if b < 0 or b > a:
            return 0
        return self._C[a][b]

    @property
    def last_round(self) -> int:
        """The last stored round; every count at a later t equals its count here."""
        return self._last

    @property
    def pascal(self) -> tuple[tuple[int, ...], ...]:
        """Pascal's triangle to n_max, read-only: pascal[a][b] = C(a, b) for
        0 <= b <= a <= n_max, with every row zero-padded to n_max + 1 entries."""
        return self._C

    def row(self, kind: str, t: int, x: int, l: int = 0, z: int = 0) -> tuple[int, ...]:
        """The stored row of ``count_<kind>`` over the free vertices
        k = 0..n_max - x - l, at round min(t, last_round), as a read-only tuple.

        ``kind`` is a ``CLASS_ARGS`` kind; l and z stay 0 where it takes none.
        This is where every accessor's arguments are checked, its round
        clamped and omega applied: a row whose root, or root plus layer,
        exceeds omega counts only graphs containing that clique, so it is the
        shared all-zero row of its length.  Raises ValueError for an unknown
        kind or arguments outside its domain.
        """
        if kind in ("within", "exact", "exact_proper"):
            ok = t >= (kind != "within") and 0 <= z < x and l == 0
            top, key = x, (x, z)
        elif kind in ("exact_single", "exact_multi"):
            # Each member has a free component of its own beside the root.
            ok = t >= 0 and x >= (kind == "exact_multi") and l == z == 0
            top, key = x + 1, (x,)
        elif kind in ("pinned", "pinned_exact"):
            ok = t >= 1 and x >= 0 and l >= 1 and z == 0
            top, key = x + l, (x, l)
        elif kind == "pinned_proper_z":
            ok = t >= 1 and 0 <= z <= x and l >= 1
            top, key = x + l, (x, l, z)
        else:
            raise ValueError(f"unknown class kind {kind!r}; expected one of {tuple(CLASS_ARGS)}")
        if not ok or x + l > self.n_max:
            raise ValueError(f"counter arguments outside the domain of {kind}")
        if top > self._w:
            return self._zeros[self.n_max - x - l]
        rows = self._tables[kind][t if t < self._last else self._last]
        for i in key:
            rows = rows[i]
        return rows

    # -- public counter accessors: a row, then the free vertices k -------------

    def count_within(self, t: int, x: int, k: int, z: int) -> int:
        """Rooted graphs on [x+k] that fully evaporate within t rounds.

        The root [x] is a clique held in place; every component of the free
        part must keep a neighbor among root labels z+1..x.
        """
        return _at(self.row("within", t, x, z=z), k)

    def count_exact(self, t: int, x: int, k: int, z: int) -> int:
        """Like :meth:`count_within`, but every free component finishes in
        exactly round t.  A bare root (k = 0) counts once."""
        return _at(self.row("exact", t, x, z=z), k)

    def count_exact_proper(self, t: int, x: int, k: int, z: int) -> int:
        """Like :meth:`count_exact`, with no component adjacent to the whole root."""
        return _at(self.row("exact_proper", t, x, z=z), k)

    def count_exact_single(self, t: int, x: int, k: int) -> int:
        """One free component, adjacent to the whole root, finishing exactly at t."""
        return _at(self.row("exact_single", t, x), k)

    def count_exact_multi(self, t: int, x: int, k: int) -> int:
        """At least two free components, each seeing the whole root, each exact at t."""
        return _at(self.row("exact_multi", t, x), k)

    def count_pinned(self, t: int, x: int, l: int, k: int) -> int:
        """Graphs on [x+l+k] whose last layer is exactly the labels [x+1, x+l].

        The root [x] plus that layer must form a clique, evaporation (sparing
        the root) takes exactly t rounds, and the part outside the root is
        connected.
        """
        return _at(self.row("pinned", t, x, l), k)

    def count_pinned_exact(self, t: int, x: int, l: int, k: int) -> int:
        """Like :meth:`count_pinned`, but every component outside root-plus-layer
        finishes exactly in round t-1, and at least one such component exists."""
        return _at(self.row("pinned_exact", t, x, l), k)

    def count_pinned_proper_z(self, t: int, x: int, l: int, k: int, z: int) -> int:
        """Five-argument form: connectivity is required only outside [z].  At
        z = x this is :meth:`count_pinned_exact` with no component adjacent to
        all of root-plus-layer."""
        return _at(self.row("pinned_proper_z", t, x, l, z), k)

    # -- top-level counts ----------------------------------------------------

    def count_connected(self, n: int) -> int:
        """Number of w-colorable labeled connected chordal graphs on [n]."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")
        return self._connected[n]

    def count_all(self, n: int) -> int:
        """Number of w-colorable labeled chordal graphs on [n] (n = 0 gives 1).

        Splits off the component containing label 1 and recurses on the rest.
        """
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}]")
        return self._all[n]

    # -- diagnostics -----------------------------------------------------------

    def table_sizes(self) -> dict[str, int]:
        """Number of stored cells per table, by ``CLASS_ARGS`` kind, for perf
        inspection."""
        def cells(rows) -> int:
            if rows is None:
                return 0
            if rows and isinstance(rows[0], int):
                return len(rows)
            return sum(cells(r) for r in rows)

        return {kind: cells(table) for kind, table in self._tables.items()}

    # -- the fill ----------------------------------------------------------------

    def _fill(self) -> None:
        n, w = self.n_max, self._w
        hulls = range(1, w + 1)
        # Every table, by kind and then round; round 0 stores exact_single,
        # exact_multi and within only.
        self._tables = {
            "within": [[None] + [[(1,) + (0,) * (n - x) for _ in range(x)] for x in hulls]],
            "exact": [None], "exact_proper": [None],
            "exact_single": [[(0,) * (n - x + 1) for x in range(w)]],
            "exact_multi": [[(0,) * (n - x + 1) for x in range(w)]],
            "pinned": [None], "pinned_exact": [None], "pinned_proper_z": [None],
        }
        weights = _NO_WEIGHTS  # round 0 has no component at all
        connected = [0] * (n + 1)
        t = 0
        while True:
            t += 1
            self._fill_pinned(t, weights)
            del weights  # read by phase A only; phase B builds the next ones
            weights = self._fill_root(t)
            if w:
                connected = [c + s for c, s in zip(connected, self._tables["exact_single"][t][0])]
            if weights[0] is None:
                break
            self._release(t)
        self._last = t

        self._connected = connected
        a = [1]
        for m in range(1, n + 1):
            a.append(sum(self._C[m - 1][k - 1] * self._connected[k] * a[m - k]
                         for k in range(1, m + 1)))
        self._all = a

    def _release(self, t: int) -> None:
        """Called after each round t but the last to drop the rounds no later
        round reads; a full context keeps every round, since the sampler
        reads them all."""

    def _fill_pinned(self, t: int, weights: tuple) -> None:
        """Phase A of round t: pinned_proper_z, pinned_exact, pinned.

        ``weights`` are the component weights of round t - 1 (:meth:`_weights`).

        On the factored path only the z = 0 chain of each hull is run; the
        rows at z >= 1 are derived from it.  Read every row as an exponential
        generating function in the free vertices, with e_x the series of the
        root-contact sum G[x][0] of round t - 1.  The kernel's first-component
        split is then row' = W' * rest, and the chain row P_z(x) at z, with
        l = hull - x and constant term 0, solves

            P_z(x)' = (e_x - e_z)' P_z(x)
                      + sum over 0 < l2 < l of C(l, l2) G[x][l2]' P_z(x + l2)
                      + (G[x][l] - G[0][hull])' E_z,

        with the rest E_z = exact_proper(t - 1, hull, ., z)
        = exp(e_hull - e_z - G[0][hull]).  Multiplying the z-chain by
        exp(e_z) removes z from both its self term and its rest, so
        exp(e_z) P_z(x) solves the same equations for every z, and

            P_z(x) = exp(e_0 - e_z) * P_0(x)   (a binomial convolution).

        exp(e_0 - e_z) is the inverse of exact(t - 1, z, ., 0) = exp(e_z - e_0),
        built once per round for each z >= 1 by the kernel from the same
        weights.  ``factored=False`` runs the direct triple sum for every z
        and never uses the identity.
        """
        n, w, tables = self.n_max, self._w, self._tables
        prev = t - 1
        exact_proper = tables["exact_proper"]
        proper = [[None] * (w - x + 1) for x in range(w)]
        exact = [[None] * (w - x + 1) for x in range(w)]
        pinned = [[None] * (w - x + 1) for x in range(w)]
        lo, _, escape, _ = weights
        inv = None
        if self.factored and lo is not None:
            inv = [None] + [self._first_component_row(1, [(escape[z, 0], -1, None)], n - z - 1, lo)
                            for z in range(1, w)]
        for hull in range(1, w + 1):
            K = n - hull
            rows = {}
            partial = (self._layer_sums(hull, weights)
                       if inv is not None and lo <= K else None)
            # The direct path, and a round after one in which no component
            # finished (every row zero), run one chain per z.
            for z in range(hull if inv is None else 1):
                rest = exact_proper[prev][hull][z] if prev else None
                chain = self._pinned_proper_chain(t, hull, z, weights, rest, partial)
                for x in range(z, hull):
                    rows[x, z] = chain[x]
            if inv is not None:
                for x in range(hull):
                    for z in self._derived_contacts(x):
                        rows[x, z] = tuple(self._conv(inv[z], rows[x, 0], K, 0))
            for x in range(hull - 1, -1, -1):
                l = hull - x
                proper[x][l] = [rows.get((x, z)) for z in range(x + 1)]
                own = rows[x, x]
                row = own
                if prev and hull < w:
                    # Zero, one, or at least two components see all of the hull.
                    one = self._conv(tables["exact_single"][prev][hull], own, K, 1)
                    more = self._conv(tables["exact_multi"][prev][hull],
                                      exact_proper[prev][hull][x], K, 1)
                    row = tuple(a + b + c for a, b, c in zip(own, one, more))
                exact[x][l] = row
                if t == 1:
                    pinned[x][l] = (1,) + (0,) * K
                else:
                    pinned[x][l] = tuple(self._conv(row, tables["within"][t - 2][hull][x], K, 1))
        tables["pinned_proper_z"].append(proper)
        tables["pinned_exact"].append(exact)
        tables["pinned"].append(pinned)

    def _derived_contacts(self, x: int) -> Sequence[int]:
        """The z >= 1 whose pinned_proper_z rows at x phase A derives from
        z = 0: all of them, since the sampler reads every row."""
        return range(1, x + 1)

    def _fill_root(self, t: int) -> tuple:
        """Phase B of round t; returns the round's component weights."""
        n, w, C, tables = self.n_max, self._w, self._C, self._tables
        pinned = tables["pinned"][t]
        single = []
        for x in range(w):
            row = [0] * (n - x + 1)
            for l in range(1, w - x + 1):
                # The last layer has l labels, chosen among the k free ones.
                row[l:] = [r + C[k][l] * v
                           for k, (r, v) in enumerate(zip(row[l:], pinned[x][l]), l)]
            single.append(tuple(row))
        tables["exact_single"].append(single)

        weights = self._weights(t)
        lo, wg, _, _ = weights
        # multi(t, x, k): the component with the lowest free label, then one or
        # more further components (single + multi at fewer free vertices).
        tables["exact_multi"].append([tuple(self._first_component_row(
            0, [(wg[0][x], 1, single[x]), (wg[0][x], 1, None)], n - x, lo))
            if wg else (0,) * (n - x + 1) for x in range(w)])
        exact = [None]
        exact_proper = [None]
        within = [None]
        for hull in range(1, w + 1):
            K = n - hull
            e_rows, ep_rows, w_rows = [], [], []
            for z in range(hull):
                e, ep = self._exact_rows(hull, z, weights)
                e_rows.append(e)
                ep_rows.append(ep)
                w_rows.append(tuple(self._conv(e, tables["within"][t - 1][hull][z], K, 0)))
            exact.append(e_rows)
            exact_proper.append(ep_rows)
            within.append(w_rows)
        tables["exact"].append(exact)
        tables["exact_proper"].append(exact_proper)
        tables["within"].append(within)
        return weights

    # -- row code ----------------------------------------------------------------

    def _weights(self, t: int) -> tuple:
        """(lo, wg, escape, G): the weights of one component finishing in round t.

        lo is the smallest k with some single(t, ., k) nonzero: every such
        component has at least lo vertices.  With the Pascal sums
        G[x][m][k2] = sum over x2 <= x of C(x, x2) single(t, x2 + m, k2) for
        x + m <= omega (Pascal's rule: G[x][m] = G[x-1][m] + G[x-1][m+1]),
        wg[x][m][k - lo] lists C(k-1, k2-1) G[x][m][k2] for k2 = lo..k, or
        wg[x][m] is None where G[x][m] is zero; wg[x][0] is built for x = 0
        only, since the other rows of m = 0 are read only through escape.
        escape[x, z] (z < x) weighs G[x][0] - G[z][0], the nonnegative
        root-contact sum of a component that escapes [z], so the kernels make
        one pass for it, not one for each side.  G itself is returned for
        :meth:`_layer_sums`.  (lo, wg, escape, G), or (None, None, None, None)
        if single(t) is all zero.
        """
        n, C, top = self.n_max, self._C, self._w
        s = self._tables["exact_single"][t] + [(0,) * (n - top + 1)]
        firsts = [row.index(next(filter(None, row))) for row in s if any(row)]
        if not firsts:
            return _NO_WEIGHTS
        lo = min(firsts)
        g = [s]
        for x in range(1, top + 1):
            below = g[-1]
            g.append([[a + b for a, b in zip(below[m], below[m + 1])]
                      for m in range(top - x + 1)])

        wg = [[self._weigh(lo, row) if x == 0 or m else None for m, row in enumerate(gx)]
              for x, gx in enumerate(g)]
        escape = {(x, z): self._weigh(lo, [u - v for u, v in zip(g[x][0], g[z][0])])
                  for x in range(1, top + 1) for z in range(x)}
        return lo, wg, escape, g

    def _weigh(self, lo: int, row: list[int]) -> list[list[int]] | None:
        """C(k-1, k2-1) row[k2] for k2 = lo..min(k, last), for each
        k = lo..len(row) - 1, where row[last] is the last nonzero entry of row
        (the rest would weigh zeros: at small omega a round-1 component is a
        clique of at most omega vertices); None for an all-zero row."""
        tail = _first_nonzero(row[::-1])
        if tail is None:
            return None
        C = self._C
        band = row[lo:len(row) - tail]
        return [list(map(mul, C[k - 1][lo - 1:k], band)) for k in range(lo, len(row))]

    def _layer_sums(self, hull: int, weights: tuple) -> list:
        """partial[x] weighs G[x][hull - x] - G[0][hull] for x = 1..hull - 1
        (partial[0] is None): the nonnegative layer-contact sum of a component
        that touches the whole layer and fewer than x root labels.  Each is
        read by the chains of one hull only, so it lives for that hull.
        """
        lo, _, _, g = weights
        return [None] + [self._weigh(lo, [u - v for u, v in zip(g[x][hull - x], g[0][hull])])
                         for x in range(1, hull)]

    def _exact_rows(self, hull: int, z: int, weights: tuple) -> tuple:
        """exact(t, hull, ., z) and exact_proper(t, hull, ., z), from the weights
        of round t.

        The first free component has k2 vertices and root contact x2; summed
        over x2, its weight is the root-contact sum G[hull][0] - G[z][0], and
        the proper form leaves out the x2 = hull term G[0][hull].
        """
        K = self.n_max - hull
        lo, wg, escape, _ = weights
        if lo is None:
            row = (1,) + (0,) * K
            return row, row
        terms = [(escape[hull, z], 1, None)]
        exact = tuple(self._first_component_row(1, terms, K, lo))
        if wg[0][hull] is None:
            return exact, exact
        terms.append((wg[0][hull], -1, None))
        return exact, tuple(self._first_component_row(1, terms, K, lo))

    def _pinned_proper_chain(self, t: int, hull: int, z: int, weights: tuple,
                             rest: tuple[int, ...] | None,
                             partial: list | None) -> dict[int, tuple[int, ...]]:
        """pinned_proper_z(t, x, hull - x, ., z) rows for x = hull-1 down to z.

        ``weights`` are those of round t - 1, ``partial`` their
        :meth:`_layer_sums` at this hull, and ``rest`` is
        exact_proper(t - 1, hull, ., z).  The row at x reads the rows at
        larger x of the same chain, so the chain runs x descending.
        """
        K = self.n_max - hull
        lo, wg, escape, _ = weights
        chain: dict[int, tuple[int, ...]] = {}
        for x in range(hull - 1, z - 1, -1):
            if lo is None or lo > K:
                chain[x] = (0,) * (K + 1)
                continue
            l = hull - x
            rests = [None] + [chain[x + l2] for l2 in range(1, l)] + [rest]
            if not self.factored:
                chain[x] = tuple(self._pinned_proper_direct(t, x, l, z, K, rests))
                continue
            # The component with the lowest free label touches x2 root labels
            # and l2 layer labels.  Grouped by l2, its weights summed over x2
            # are Pascal sums of round t - 1:
            #   l2 = 0:      G[x][0] - G[z][0]  (it escapes [z]; rest is this row)
            #   0 < l2 < l:  C(l, l2) G[x][l2]  (the touched labels join the root)
            #   l2 = l:      G[x][l] - G[0][hull]  (x2 < x; rest is exact_proper)
            # The first sum is zero at x = z and the last at x = 0.
            Cl = self._C[l]
            terms = [(escape.get((x, z)), 1, None)]
            terms += [(wg[x][l2], Cl[l2], rests[l2]) for l2 in range(1, l)]
            terms += [(partial[x], 1, rest)]
            chain[x] = tuple(self._first_component_row(0, terms, K, lo))
        return chain

    def _pinned_proper_direct(self, t: int, x: int, l: int, z: int, K: int,
                              rests: list) -> list[int]:
        C = self._C
        Cl, Cx, Cz = C[l], C[x], C[z]
        single = self._tables["exact_single"][t - 1]
        row = [0] * (K + 1)
        rests = [row] + rests[1:]
        for k in range(1, K + 1):
            Ck1 = C[k - 1]
            total = 0
            # Component with the lowest free label: k2 vertices, touching x2 root
            # labels and l2 layer labels, a proper nonempty part of root+layer.
            for k2 in range(1, k + 1):
                b = Ck1[k2 - 1]
                kr = k - k2
                for l2 in range(l + 1):
                    rest = rests[l2][kr]
                    if not rest:
                        continue
                    w_layer = Cl[l2] * rest
                    for x2 in range(x + 1):
                        if not 0 < x2 + l2 < x + l:
                            continue
                        w = Cx[x2] if l2 > 0 else Cx[x2] - Cz[x2]
                        if not w:
                            continue
                        s = single[x2 + l2][k2]
                        if s:
                            total += b * w_layer * w * s
            row[k] = total
        return row

    @staticmethod
    def _first_component_row(first: int, terms: list, K: int, lo: int | None) -> list[int]:
        """row[0] = first; row[k] = sum over (wt, scale, r) in terms of
        scale * sum over k2 = lo..k of wt[k - lo][k2 - lo] * r[k - k2].

        With the weights of :meth:`_weights` this splits off the component
        holding the lowest free label (k2 vertices) from the rest r, where
        r = None stands for the row itself at fewer free vertices.  Terms
        whose weights are None (zero) are skipped, and a weight row wt[j]
        may stop before index j: its missing entries are zeros.
        """
        row = [first] + [0] * K
        if lo is None or lo > K:
            return row
        span = K - lo + 1  # row[lo:], or j = k - lo below
        # The terms at a fixed rest r sum into a forcing row, one list each.
        # The gap after k = 0: a rest is [r[0], 0, ..., 0, nonzero from low]
        # (an exact row has r[0] = 1 and low = lo of its round), so r[j - i]
        # vanishes for 0 < j - i < low; the r[0] term is split off and the
        # dot product runs over r[j], ..., r[low].  An all-zero rest adds
        # nothing.
        force = [0] * span
        selfs = []
        for wt, scale, r in terms:
            if wt is None:
                continue
            if r is None:
                selfs.append((wt, scale))
                continue
            head = r[0]
            low = _first_nonzero(r, 1)
            if low is None:
                if not head:
                    continue
                low = span
            if head:
                force = [f + scale * (sum(map(mul, w, r[j:low - 1:-1]))
                                      + (head * w[j] if j < len(w) else 0))
                         for j, (f, w) in enumerate(zip(force, wt))]
            else:
                force[low:] = [f + scale * sum(map(mul, wt[j], r[j:low - 1:-1]))
                               for j, f in enumerate(force[low:], low)]
        # The self row is [first, 0, ..., 0, row[lo:]] (leading zeros: a
        # component has at least lo vertices), so first * wt[j][j] is added
        # once and the dot product runs over row[j], ..., row[low] only.  With
        # first = 0 the row stays zero until the forcing row is nonzero, and
        # its band starts there.
        if first:
            low = lo
        else:
            j0 = _first_nonzero(force)
            if j0 is None:
                return row
            low = lo + j0
        for j in range(low - lo, span):
            total = force[j]
            band = row[j:low - 1:-1]
            for wt, scale in selfs:
                w = wt[j]
                s = sum(map(mul, w, band))
                if first and j < len(w):
                    s += first * w[j]
                total += scale * s
            row[lo + j] = total
        return row

    def _conv(self, a: list[int], b: list[int], K: int, lo: int) -> list[int]:
        """Binomial convolution c[k] = sum over k2 = lo..k of C(k, k2) a[k2] b[k-k2].

        Only the nonzero bands are multiplied.  Leading zeros: with fa and fb
        the first nonzero entries of a (from k2 = max(lo, 1)) and of b, c[k]
        sums k2 = fa..k - fb and vanishes below fa + fb, so supports that
        cannot meet at or below K give zeros without a product.  The gap after
        k = 0: an exact row is [1, 0, ..., 0, nonzero from lo(t)], so with
        lo = 0 the a[0] b[k] term is split off and the rest convolved from
        the next nonzero entry of a.
        """
        C = self._C
        c = [0] * (K + 1)
        fb = _first_nonzero(b)
        if fb is None:
            return c
        fa = _first_nonzero(a, max(lo, 1))
        if fa is not None:
            c[fa + fb:] = [sum(map(mul, map(mul, C[k][fa:k - fb + 1], a[fa:k - fb + 1]),
                                   b[k - fa::-1]))
                           for k in range(fa + fb, K + 1)]
        head = a[0] if lo == 0 else 0
        if head:
            c = [v + head * u for v, u in zip(c, b)]
        return c


class _CountOnly(CountingContext):
    """A fill that keeps only the rounds the next round reads.

    Round t + 1 reads ``single``, ``multi`` and ``exact_proper`` of round t
    and ``within`` of rounds t - 1 and t; the rest of round t is dropped as
    soon as the round is done.  Only ``count_connected`` and ``count_all``
    answer afterwards.  Phase A reads the pinned_proper_z row of each x at
    z = x only, so only that row is derived from the z = 0 chain.
    """

    def _derived_contacts(self, x: int) -> Sequence[int]:
        return (x,) if x else ()

    def _release(self, t: int) -> None:
        tables = self._tables
        for kind in ("pinned", "pinned_exact", "pinned_proper_z", "exact"):
            tables[kind][t] = None
        for kind in ("exact_single", "exact_multi", "exact_proper"):
            tables[kind][t - 1] = None
        if t >= 2:
            tables["within"][t - 2] = None


def _at(row: tuple[int, ...], k: int) -> int:
    """row[k], for a count at k free vertices; ValueError outside the row."""
    if 0 <= k < len(row):
        return row[k]
    raise ValueError("counter arguments outside their domain")


def _first_nonzero(row: list[int], start: int = 0) -> int | None:
    """Index of the first nonzero entry of row[start:], or None."""
    v = next(filter(None, islice(row, start, None) if start else row), 0)
    return row.index(v, start) if v else None


# ---------------------------------------------------------------------------
# Module-level counts: each call runs its own count-only fill and keeps nothing
# ---------------------------------------------------------------------------

def exact_counts(n_max: int, omega: int | None = None,
                 allow_large: bool = False) -> tuple[list[int], list[int]]:
    """(connected, all): the counts of ``CountingContext(n_max, omega)`` for
    every n = 0..n_max, with connected[0] = 0 and all[0] = 1.

    Runs the same fill, with the same admission, but keeps only the rounds
    the next round reads, so it peaks at a fraction of a full context's
    memory; use a context to sample.
    """
    ctx = _CountOnly(n_max, omega, allow_large=allow_large)
    return ctx._connected, ctx._all


def count_connected(n: int, omega: int | None = None) -> int:
    """Number of omega-colorable labeled connected chordal graphs on [n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return exact_counts(n, omega)[0][n]


def count_all(n: int, omega: int | None = None) -> int:
    """Number of omega-colorable labeled chordal graphs on [n]."""
    return exact_counts(n, omega)[1][n]
