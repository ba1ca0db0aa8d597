"""Shared test helpers: the cell-wise reference for the fixed-point enumerator.

A fixture rather than an importable module, so test files use it under any
pytest import mode and from any working directory.
"""

import json

import pytest

from bowforge.maya import (
    MayaDiagram,
    _cell_flips,
    _charge_matrices,
    _partitions,
    enumerate_fixed_points,
    maya_from_json,
    maya_to_json,
)


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
        assert maya_from_json(json.loads(json.dumps(maya_to_json(m)))) == m
    return diagrams


@pytest.fixture(scope="session")
def assert_matches_cellwise_enumeration():
    """A check returning the query's diagrams after comparing them with the cell-wise enumeration."""
    return _assert_matches_cellwise_enumeration
