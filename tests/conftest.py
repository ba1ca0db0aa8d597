"""Shared test helpers: the cell-wise reference for the fixed-point enumerator
and the weight-space reference for the top of an i-string.

A fixture rather than an importable module, so test files use it under any
pytest import mode and from any working directory.
"""

import json

import pytest

from bowforge.fock import freudenthal_mult, string_top
from bowforge.maya import (
    MayaDiagram,
    _cell_flips,
    _charge_matrices,
    _partitions,
    enumerate_fixed_points,
    maya_to_json,
)
from bowforge.weights import coroot_pairing, root_difference, simple_root


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
    for charges, used in _charge_matrices(q.row_charges, q.column_stats, q.v0):
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
