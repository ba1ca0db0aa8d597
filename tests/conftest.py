"""Shared test helpers: the cell-wise reference for the fixed-point enumerator,
with its own brute-force list of charge matrices, the weight-space
reference for the top of an i-string, and the simple reflections of the
affine Weyl group.

A fixture rather than an importable module, so test files use it under any
pytest import mode and from any working directory.
"""

import json
from functools import cache

import pytest

from bowforge.fock import freudenthal_mult, string_top
from bowforge.maya import (
    MayaDiagram,
    _cell_flips,
    _partitions,
    enumerate_fixed_points,
    maya_to_json,
)
from bowforge.weights import AffineWeight, coroot_pairing, root_difference, simple_root


def _energy(c):
    return c * (c - 1) // 2


@cache
def _rows_by_sum(l, v0):
    """Row sum -> every (row, energy) of l cells whose energies E(c) = c(c-1)/2 add up to at most v0."""
    rows = [((), 0)]
    for _ in range(l):
        # E(c) <= v0 only for c in -v0 .. v0 + 1
        rows = [(row + (c,), e + _energy(c)) for row, e in rows for c in range(-v0, v0 + 2) if e + _energy(c) <= v0]
    by_sum = {}
    for row, e in rows:
        by_sum.setdefault(sum(row), []).append((row, e))
    return by_sum


def _brute_force_matrices(row_sums, col_sums, v0):
    """(cells, energy) of every charge matrix with these margins and energy <= v0.

    Every row but the last is any row of energy <= v0 with its row sum; the
    last row is what the column sums leave, kept if its row sum and the
    total energy fit.  No bound looks ahead at the margins.
    """
    n, l = len(row_sums), len(col_sums)
    partial = [((), (0,) * l, 0)]
    for s in row_sums[:-1]:
        rows = _rows_by_sum(l, v0).get(s, ())
        partial = [
            (cells + row, tuple(a + b for a, b in zip(cols, row)), used + e)
            for cells, cols, used in partial
            for row, e in rows
            if used + e <= v0
        ]
    found = []
    for cells, cols, used in partial:
        last = tuple(t - a for t, a in zip(col_sums, cols))
        used += sum(map(_energy, last))
        if sum(last) == row_sums[-1] and used <= v0:
            found.append((cells + last, used))
    return found


def _cellwise_multipartitions(cells, size):
    """All `cells`-tuples of partitions whose sizes add up to `size`, one cell at a time."""
    by_size = [_partitions(m, m) for m in range(size + 1)]
    partial = [((), size)]
    for _ in range(cells - 1):
        partial = [
            (parts + (lam,), left - m) for parts, left in partial for m in range(left + 1) for lam in by_size[m]
        ]
    return [parts + (lam,) for parts, left in partial for lam in by_size[left]]


def _cellwise_enumeration(q):
    """The enumerator before row lists: every cell of every diagram rebuilt, every diagram strict."""
    n, l = q.n, q.l
    found = []
    for charges, used in _brute_force_matrices(q.row_charges, q.column_stats, q.v0):
        for parts in _cellwise_multipartitions(n * l, q.v0 - used):
            rows = [[] for _ in range(n)]
            for k, (c, lam) in enumerate(zip(charges, parts)):
                rows[k // l] += [l * s + k % l for s in _cell_flips(c, lam)]
            found.append(MayaDiagram(n, l, tuple(map(tuple, rows))))
    found.sort(key=lambda m: m.rows)
    return found


def _assert_matches_cellwise_enumeration(q):
    """The query's diagrams, checked equal (order included) to the cell-wise ones, strict and JSON-stable."""
    diagrams = enumerate_fixed_points(q).diagrams
    assert list(diagrams) == _cellwise_enumeration(q), q
    for m in diagrams:
        assert m == MayaDiagram(q.n, q.l, m.rows)
        assert MayaDiagram(**json.loads(json.dumps(maya_to_json(m)))) == m
    return diagrams


@pytest.fixture(scope="session")
def brute_force_matrices():
    """The charge matrices of given margins and budget, listed with no look-ahead bound."""
    return _brute_force_matrices


@pytest.fixture(scope="session")
def assert_matches_cellwise_enumeration():
    """A check returning the query's diagrams after comparing them with the cell-wise enumeration."""
    return _assert_matches_cellwise_enumeration


def _weight_space_string_top(lam, mu, i):
    """`string_top` as a walk in weight space: one `freudenthal_mult` per k from 0 through gap_i + 1."""
    alpha = simple_root(lam.n, i)
    mu_p = coroot_pairing(mu, i)
    # k = 0 first, so the rank and module checks come in string_top's order
    mults = [freudenthal_mult(lam, mu + alpha.scale(0))]
    try:
        gap_i = root_difference(lam, mu).coeffs[i]
    except ValueError:
        gap_i = -1  # off the root lattice of lam, where every multiplicity is 0
    mults += [freudenthal_mult(lam, mu + alpha.scale(k)) for k in range(1, gap_i + 2)]
    present = [k for k, m in enumerate(mults) if m > 0]
    if not present:
        raise ValueError("no member of the i-string through this weight lies in the module")
    return mu_p + 2 * max(present)


def _outcome(f, *args):
    """f(*args), or the type and text of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def _assert_string_top_matches_weight_space_walk(lam, mu, i):
    """Equal values, or equal ValueError texts, from `string_top` and the weight-space walk."""
    want = _outcome(_weight_space_string_top, lam, mu, i)
    assert _outcome(string_top, lam, mu, i) == want, (lam, mu, i)
    return want


@pytest.fixture(scope="session")
def assert_string_top_matches_weight_space_walk():
    """A check returning the outcome of `string_top` after comparing it with the weight-space walk."""
    return _assert_string_top_matches_weight_space_walk


def _reflect(mu, i):
    """Simple reflection s_i(mu) = mu - <mu, h_i> alpha_i; the rank must be >= 2."""
    if mu.n < 2:
        raise ValueError("simple reflections need rank >= 2")
    p = coroot_pairing(mu, i)
    prof = list(mu.profile)
    if i == 0:
        prof[0], prof[-1] = mu.level + prof[-1], prof[0] - mu.level
        return AffineWeight(mu.n, mu.level, tuple(prof), mu.delta - p)
    prof[i - 1], prof[i] = prof[i], prof[i - 1]
    return AffineWeight(mu.n, mu.level, tuple(prof), mu.delta)


@pytest.fixture(scope="session")
def reflect():
    """The simple reflection s_i of an affine weight of rank >= 2."""
    return _reflect
