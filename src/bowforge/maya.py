"""Maya-diagram model of torus fixed points.

A diagram has n rows of cells grouped in blocks of width l; the cell at
(row i, in-block column x, block N in Z+1/2) sits at flat position
t = l*(N - 1/2) + x - 1, so block 1/2 covers t = 0..l-1.  Rows are stored as
the positions flipped relative to the vacuum (gray exactly on t < 0): a flip
at t >= 0 is a particle, at t < 0 a hole.

A `FixedPointQuery` holds three statistics of a diagram as its targets.
`FixedPointQuery.from_weights` builds them from a weight pair (lam, mu) in
the standard reading: it first shifts both profiles by the same s*(1, ..., 1)
so that lam's last entry is 0, which changes no multiplicity, and leaves
delta alone.

* row charges: particles minus holes per row; row 1 matches the last profile
  entry of the shifted mu and row i+1 the i-th entry (the distinguished cross
  reads the wrapped entry).
* column statistic: per residue class of columns, particles minus holes,
  summed over all blocks and rows.
* base dimension v0: sum over holes of ceil(-t/l) plus sum over particles of
  floor(t/l) -- the winding count of the unwound diagram.  The hole part
  alone is the naive block-depth count; the particle part is forced by the
  partition fixture (the one-row, width-one case must count partitions by
  size).

Enumeration rests on a cell decomposition.  Write a flip as t = l*s + j with
0 <= j < l.  In row i, the flips of residue class j are the flips {s} of an
ordinary charged Maya diagram, and each costs |s| towards v0.  Such a
diagram is a charge c and a partition lam, with occupied set
{lam_k - k + c : k >= 1}, and its cost is E(c) + |lam| where
E(c) = c(c-1)/2.  A fixed point is therefore exactly an n x l integer
charge matrix whose row sums are the row charges and whose column sums are
the column statistics, together with one partition per cell, such that
sum E(c_ij) + sum |lam_ij| = v0.

`enumerate_fixed_points` lists the charge matrices within the v0 budget one
whole row at a time.  E is convex, so m integers adding up to s cost at
least minE(s, m) = r*E(q+1) + (m-r)*E(q) with (q, r) = divmod(s, m); a cell
takes a charge only while the matrix so far plus minE of what each column
still needs over the open rows, plus the least its row's later cells cost
to make up the row sum, fits the budget.  So every partial row kept can be
completed, and the search does not double per column on queries with few
answers (the one answer at zero margins and v0 = 0 takes O(l) steps).  Each
row alone costs at least minE(row sum, l), so margins whose rows together
cost more than v0 are refused before any row is grown.  The
remaining energy is split among the rows.  A row depends only on its l
charges and its share, so its diagrams come from a sorted row list per
(l, row charges, size), built from the cell-wise partitions, and the
diagrams are their product; every combination is a result.  A row fixes its
cells' charges and sizes, so the products are grouped by their first row's
(charges, size): the first rows are sorted once, each group's tails once,
and the diagrams come out in lexicographic order without a global sort.
Each is a `MayaDiagram`, a tuple (n, l, rows) built without re-validation.
Row lists, cell lists, cell options and partitions are memoised for the
whole process and shared by every query; their entries are immutable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import itemgetter, sub

from .weights import (
    AffineWeight,
    dominance_leq,
    exact_ints,
    lower_weight,
    root_difference,
    to_dominant,
)
from .young import GYDiagram, gyd_transpose


class MayaDiagram(tuple):
    """The tuple (n, l, rows): n rows of sorted, distinct flip positions in blocks of width l.

    `MayaDiagram(n, l, rows)` checks its input and sorts each row, and so
    does unpickling; the enumerator, whose rows are valid by construction,
    builds the tuple directly with `tuple.__new__`.
    """

    __slots__ = ()

    def __new__(cls, n, l, rows):
        exact_ints((n, l), "n and l")
        if n < 1 or l < 1:
            raise ValueError("need n >= 1 rows and block width l >= 1")
        rows = tuple(tuple(sorted(exact_ints(row, "flip positions"))) for row in rows)
        if len(rows) != n:
            raise ValueError("row count must equal n")
        for row in rows:
            if len(set(row)) != len(row):
                raise ValueError("flip positions within a row must be distinct")
        return tuple.__new__(cls, (n, l, rows))

    n = property(itemgetter(0))
    l = property(itemgetter(1))
    rows = property(itemgetter(2))

    def __reduce__(self):
        # every pickle protocol and copy rebuild through the checks, as for FockState
        return MayaDiagram, tuple(self)

    def __repr__(self):
        return f"MayaDiagram(n={self[0]!r}, l={self[1]!r}, rows={self[2]!r})"


# -- queries and enumeration -------------------------------------------


def _check_pair(lam: AffineWeight, mu: AffineWeight) -> None:
    """The checks a query on (lam, mu) opens with: same rank and level, level >= 1, lam dominant."""
    if lam.n != mu.n or lam.level != mu.level:
        raise ValueError("rank/level mismatch")
    if lam.level < 1:
        raise ValueError("queries need level >= 1")
    if not lam.is_dominant():
        raise ValueError("first weight must be dominant")


@dataclass(frozen=True)
class FixedPointQuery:
    n: int
    l: int
    row_charges: tuple[int, ...]
    column_stats: tuple[int, ...]
    v0: int

    def __post_init__(self):
        exact_ints((self.n, self.l, self.v0), "n, l and v0")
        object.__setattr__(self, "row_charges", exact_ints(self.row_charges, "row charges"))
        object.__setattr__(self, "column_stats", exact_ints(self.column_stats, "column statistics"))
        if self.n < 1 or self.l < 1:
            raise ValueError("need n >= 1 rows and block width l >= 1")
        if len(self.row_charges) != self.n or len(self.column_stats) != self.l:
            raise ValueError("target lengths must match n and l")
        if sum(self.row_charges) != sum(self.column_stats):
            raise ValueError("inconsistent targets: row and column totals differ")
        if self.v0 < 0:
            raise ValueError("inconsistent targets: base dimension is negative")

    @classmethod
    def from_weights(cls, lam: AffineWeight, mu: AffineWeight) -> "FixedPointQuery":
        _check_pair(lam, mu)
        if lam.charge != mu.charge:
            raise ValueError("inconsistent targets: charge mismatch")
        v0 = lam.delta - mu.delta
        if v0.denominator != 1 or v0 < 0:
            raise ValueError("inconsistent targets: base dimension must be a nonnegative integer")
        # the standard reading: lam and mu shifted together until lam's last entry is 0
        s = lam.profile[-1]
        tlam = gyd_transpose(GYDiagram(lam.n, lam.level, tuple(a - s for a in lam.profile))).entries
        prof = tuple(a - s for a in mu.profile)
        charges = (prof[-1],) + prof[:-1]
        return cls(lam.n, lam.level, charges, tlam, int(v0))


@dataclass(frozen=True)
class EnumerationResult:
    diagrams: tuple[MayaDiagram, ...]


def _min_energy(s: int, k: int) -> int:
    """The least sum of E over k >= 1 integers adding up to s.

    E is convex, so spreading s as evenly as possible costs least: k - r
    parts q and r parts q + 1, where (q, r) = divmod(s, k).
    """
    q, r = divmod(s, k)
    return (r * (q + 1) * q + (k - r) * q * (q - 1)) // 2


@cache
def _cell_options(s: int, k: int, slack: int) -> tuple[tuple[int, int], ...]:
    """(c, extra) for each charge c of a cell whose column still needs s over k >= 2 open rows, c ascending.

    extra = E(c) + minE(s - c, k - 1) - minE(s, k) >= 0 is what the cell adds
    to the energy bound, and only c with extra <= slack (slack >= 0) are
    listed.  extra is convex in c and vanishes at c = q = s // k, so the
    options are an interval around q.
    """
    base, q = _min_energy(s, k), s // k

    def extra(c):
        return c * (c - 1) // 2 + _min_energy(s - c, k - 1) - base

    lo = q
    while extra(lo - 1) <= slack:
        lo -= 1
    hi = q
    while extra(hi + 1) <= slack:
        hi += 1
    return tuple((c, extra(c)) for c in range(lo, hi + 1))


def _charge_matrices(row_sums, col_sums, budget: int) -> list[tuple[tuple[int, ...], int]]:
    """Every integer matrix with these margins and sum of E(c) = c(c-1)/2 over its cells <= budget.

    Each entry is (cells in row-major order, sum of E), in lexicographic
    order of the cells.  The matrix is filled one row at a time, and the
    last row is forced by the column sums.  A partial matrix carries a
    lower bound on the energy of every completion: its own energy plus
    minE(s, k) per column, where s is what the column still needs and k the
    number of open rows.  Putting c in a cell of the next row replaces its
    column's term by E(c) + minE(s - c, k - 1); the cell may take c only if
    the bound, plus the least that the row's later cells add while making up
    the rest of the row sum, stays within the budget.  So every partial row
    kept has a completion, and with two rows every completed row ends in a
    matrix.  After the last free row the bound is the energy of the whole
    matrix.  Margins whose rows alone cost more than the budget, at least
    minE(s, l) each, are refused before any row is grown.
    """
    n, l = len(row_sums), len(col_sums)
    bound = sum(_min_energy(s, n) for s in col_sums)
    if sum(row_sums) != sum(col_sums) or bound > budget or sum(_min_energy(s, l) for s in row_sums) > budget:
        return []
    states = [((), tuple(col_sums), bound)]
    for i in range(n - 1):
        k = n - i
        grown = []
        for cells, cols, bound in states:
            slack = budget - bound
            options = [_cell_options(s, k, slack) for s in cols]
            # need[j]: sum of cells j + 1 .. l - 1 -> the least they add to the bound, if within the slack
            need = [{0: 0}]
            for opts in reversed(options[1:]):
                table = {}
                for t, f in need[-1].items():
                    for c, extra in opts:
                        e = f + extra
                        if e < table.get(t + c, slack + 1):
                            table[t + c] = e
                need.append(table)
            need.reverse()
            partial = [((), bound, row_sums[i])]
            for opts, after in zip(options, need):
                # slack + 1 stands for a sum the later cells cannot make up
                partial = [
                    (row + (c,), b + extra, left - c)
                    for row, b, left in partial
                    for c, extra in opts
                    if b + extra + after.get(left - c, slack + 1) <= budget
                ]
            grown += [(cells + row, tuple(map(sub, cols, row)), b) for row, b, _ in partial]
        states = grown
    return [(cells + cols, bound) for cells, cols, bound in states]


@cache
def _partitions(k: int, largest: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k with parts <= largest, as weakly decreasing tuples."""
    if k == 0:
        return ((),)
    return tuple((top,) + rest for top in range(min(k, largest), 0, -1) for rest in _partitions(k - top, top))


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every `parts`-tuple (parts >= 1) of nonnegative integers adding up to `total`."""
    partial = [((), total)]
    for _ in range(parts - 1):
        partial = [(head + (m,), left - m) for head, left in partial for m in range(left + 1)]
    return [head + (left,) for head, left in partial]


def _cell_flips(c: int, lam: tuple[int, ...]) -> list[int]:
    """Flipped block indices s of the charged Maya diagram {lam_k - k + c : k >= 1}."""
    padded = lam + (0,) * max(c, 0)
    occupied = {part - k - 1 + c for k, part in enumerate(padded)}
    holes = [s for s in range(c - len(padded), 0) if s not in occupied]
    return [s for s in occupied if s >= 0] + holes


@cache
def _cell_list(l: int, c: int, j: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Flip positions l*s + j of each cell of charge c in column j whose partition has this size."""
    return tuple(tuple(l * s + j for s in _cell_flips(c, lam)) for lam in _partitions(size, size))


@cache
def _row_list(l: int, charges: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """Flip tuples of each row with these l charges whose partitions add up to `size`, in lexicographic order."""
    return tuple(
        sorted(
            tuple(sorted(sum(cells, ())))
            for sizes in _compositions(size, l)
            for cells in product(*[_cell_list(l, c, j, m) for j, (c, m) in enumerate(zip(charges, sizes))])
        )
    )


def enumerate_fixed_points(query: FixedPointQuery) -> EnumerationResult:
    """All diagrams matching the query targets, in lexicographic row order."""
    n, l, v0 = query.n, query.l, query.v0
    # first row's (charges, size) -> the other rows of every block that starts with it
    groups = {}
    for cells, used in _charge_matrices(query.row_charges, query.column_stats, v0):
        charges = [cells[i * l : i * l + l] for i in range(n)]
        for sizes in _compositions(v0 - used, n):
            tails = groups.setdefault((charges[0], sizes[0]), [])
            tails += product(*[_row_list(l, c, m) for c, m in zip(charges[1:], sizes[1:])])
    # a row fixes its cells' charges and sizes, so each first row lies in one group
    firsts = sorted((row, key) for key in groups for row in _row_list(l, *key))
    for tails in groups.values():
        tails.sort()
    new = tuple.__new__
    return EnumerationResult(
        tuple([new(MayaDiagram, (n, l, (row,) + tail)) for row, key in firsts for tail in groups[key]])
    )


# -- existence and deformation -----------------------------------------


def t_fixed_point_exists(lam: AffineWeight, mu: AffineWeight) -> bool:
    """Dominance test: the orbit representative of mu lies below lam."""
    _check_pair(lam, mu)
    ok, _ = dominance_leq(to_dominant(mu), lam)
    return ok


def deformed_fixed_points(lam1: AffineWeight, lam2: AffineWeight, mu: AffineWeight) -> tuple[tuple, ...]:
    """All splittings mu = mu1 + mu2 with fixed points on both factors, as (mu1, mu2, v1, v2).

    Splittings range over the positive cone of lam1 + lam2 - mu; mu1 is lam1
    minus v1 in simple roots and mu2 is lam2 minus v2.  The delta
    coefficient of each factor follows from its share of alpha_0.
    """
    if lam1.n != lam2.n or lam1.n != mu.n:
        raise ValueError("rank mismatch")
    if lam1.level + lam2.level != mu.level:
        raise ValueError("levels of the factors must sum to the level of mu")
    if min(lam1.level, lam2.level) < 1:
        raise ValueError("queries need level >= 1")
    if not (lam1.is_dominant() and lam2.is_dominant()):
        raise ValueError("factor weights must be dominant")
    total = root_difference(lam1 + lam2, mu)
    if not total.is_nonnegative():
        return ()
    out = []
    for v1 in product(*(range(t + 1) for t in total.coeffs)):
        v2 = tuple(t - c for t, c in zip(total.coeffs, v1))
        mu1, mu2 = lower_weight(lam1, v1), lower_weight(lam2, v2)
        if t_fixed_point_exists(lam1, mu1) and t_fixed_point_exists(lam2, mu2):
            out.append((mu1, mu2, v1, v2))
    return tuple(out)


# -- unwinding ---------------------------------------------------------


def unwind_to_a_infinity(n: int, split: list[tuple[int, int, int]]) -> tuple[tuple[int, int], ...]:
    """Unwind a table of (residue i, winding m, count) to the line: index m*n + i.

    Returns the (index, count) pairs of the simple roots subtracted from the
    top weight, sorted by index, with distinct indices and positive counts.
    """
    if n < 1:
        raise ValueError("unwinding needs rank >= 1")
    if not isinstance(split, list):
        raise ValueError(f"split must be a list of [residue, winding, count], got {split!r}")
    coeffs: dict[int, int] = {}
    for row in split:
        row = exact_ints(row, "split entries")
        if len(row) != 3:
            raise ValueError(f"split row {list(row)} must be [residue, winding, count]")
        i, m, v = row
        if not 0 <= i < n:
            raise ValueError("residue out of range")
        if v < 0:
            raise ValueError("counts must be nonnegative")
        if v:
            idx = m * n + i
            coeffs[idx] = coeffs.get(idx, 0) + v
    return tuple(sorted(coeffs.items()))
