"""fixed-points: Maya-diagram fixed-point queries built from weight pairs.

One op is `FixedPointQuery.from_weights(lam, mu)` followed by
`enumerate_fixed_points`.  The queries come from a committed pool (ranks 2-4,
levels 1-3, n*l <= 9, v0 <= 5, at most CAP diagrams), cut from a sample of
queries sorted by enumeration time.  The pool holds pairs of neighbours in
that order, of which the seed picks one query each, and anchors, which every
seed runs.  BANDS lays them out by cost so that the median and the 90th
percentile latency fall on anchors, with seeded pairs below, between and
above: every seed then draws the same cost profile.  The level-1 pairs come
from their own shapes; everything else from the level >= 2 sample.  The
heaviest anchors are the scaling cases; the cheapest queries, left out, are
the millisecond cases the tests already cover.

The pool also records each query's diagram count and a digest of the
diagram list, as computed when the pool was made.  Level-1 counts are checked
independently against the convolution sum_j p(j) mult(mu + j delta).
"""

from __future__ import annotations

import random
from itertools import product
from time import perf_counter

from bowforge.fock import freudenthal_mult
from bowforge.maya import FixedPointQuery, enumerate_fixed_points
from bowforge.weights import AffineWeight

from common import (
    Op,
    add,
    calibrate,
    compositions,
    digest,
    gyd_transpose_entries,
    load_reference,
    lower,
    marks_profile,
    multipartitions,
    pick,
)

NAME = "fixed-points"
LEVEL1 = ((2, 1), (3, 1), (4, 1))
HIGHER = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
MAX_V0 = {(3, 3): 4}
V0 = 5
CANDIDATES = 400
CAP = 3500
# (pairs per level-1 shape, quantiles of that shape's sample)
LEVEL1_PAIRS = (4, (0.35, 0.95))
# (ops, seeded, quantiles of the level >= 2 sample), cheapest first.  The 12
# level-1 ops and the first band's 38 lie below the 24 median anchors, so the
# median (op 62 of 124) falls on those anchors and the 90th percentile
# (op 112) on the last band.
BANDS = ((38, True, (0.25, 0.6)), (24, False, (0.62, 0.72)), (30, True, (0.74, 0.9)), (20, False, (0.92, 0.995)))
PAIR_SLACK = 3
REFERENCE = "fixed_points.json"


def weights(n, l, marks, coeffs):
    prof = marks_profile(marks)
    lam = AffineWeight(n, l, prof)
    return lam, AffineWeight(n, l, *lower(prof, coeffs))


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    pool = load_reference(REFERENCE)
    p = multipartitions(1, V0)
    ops = []
    for entry in pick(rng, [(1, group) for group in pool]):
        n, l, marks, coeffs, count, dig = entry
        lam, mu = weights(n, l, marks, coeffs)
        ops.append(Op(f"n{n}-l{l}-v{coeffs[0]}", _runner(lam, mu), _checker(lam, mu, coeffs, count, dig, p)))
    return ops


def _runner(lam, mu):
    def run(tr):
        q = tr.call("maya.from_weights", FixedPointQuery.from_weights, lam, mu)
        return q, tr.call("maya.enumerate_fixed_points", enumerate_fixed_points, q)

    return run


def stats(rows, l):
    """(row charges, column statistics, v0) of a diagram, convention a."""
    charges, cols, v0 = [], [0] * l, 0
    for row in rows:
        ps = [t for t in row if t >= 0]
        hs = [t for t in row if t < 0]
        charges.append(len(ps) - len(hs))
        for t in ps:
            cols[t % l] += 1
            v0 += t // l
        for t in hs:
            cols[t % l] -= 1
            v0 += (-t - 1) // l + 1
    return tuple(charges), tuple(cols), v0


def _checker(lam, mu, coeffs, count, dig, p):
    n, l = lam.n, lam.level
    target = ((mu.profile[-1],) + mu.profile[:-1], gyd_transpose_entries(lam.profile, l), coeffs[0])

    def check(result, counts):
        q, res = result
        rows = [d.rows for d in res.diagrams]
        add(counts, "maya.queries", 1)
        add(counts, "maya.diagrams", len(rows))
        if (q.row_charges, q.column_stats, q.v0) != target:
            return f"{lam}, {mu}: query targets {q} differ from {target}"
        if any(a >= b for a, b in zip(rows, rows[1:])):
            return f"{q}: diagrams not distinct and sorted"
        bad = next((r for r in rows if stats(r, l) != target), None)
        if bad is not None:
            return f"{q}: diagram {bad} has statistics {stats(bad, l)}"
        if (len(rows), digest(rows)) != (count, dig):
            return f"{q}: {len(rows)} diagrams, reference has {count} (or the digest differs)"
        if l == 1:
            delta = AffineWeight(n, 0, (0,) * n, 1)
            want = sum(p[j] * freudenthal_mult(lam, mu + delta.scale(j)) for j in range(min(coeffs) + 1))
            if len(rows) != want:
                return f"{q}: {len(rows)} diagrams, convolution gives {want}"
        return None

    return check


def make_reference() -> list:
    """The pool: groups of two (pairs) or one (anchors), as described above.

    Each time is divided by a calibration run just before it, so that the
    machine's drift while the pool is made does not reorder the queries.
    """
    pool = []
    k, ranks = LEVEL1_PAIRS
    for shape in LEVEL1:
        pool += _band(_sample([shape]), k, True, ranks)
    higher = _sample(HIGHER)
    for k, seeded, ranks in BANDS:
        pool += _band(higher, k, seeded, ranks)
    return pool


def _sample(shapes) -> list:
    """(time per calibration time, pool entry) of sampled queries, sorted by time."""
    timed = []
    for n, l in shapes:
        rng = random.Random(f"{n}x{l}")
        grid = [
            (marks, (v0,) + rest)
            for marks in compositions(l, n)
            for v0 in range(1, MAX_V0.get((n, l), V0) + 1)
            for rest in product(range(max(0, v0 - 2), v0 + 3), repeat=n - 1)
        ]
        for marks, coeffs in rng.sample(grid, min(CANDIDATES, len(grid))):
            lam, mu = weights(n, l, marks, coeffs)
            cost = []
            for _ in range(3):
                cal = calibrate()
                start = perf_counter()
                res = enumerate_fixed_points(FixedPointQuery.from_weights(lam, mu))
                cost.append((perf_counter() - start) / cal)
            rows = [d.rows for d in res.diagrams]
            if len(rows) <= CAP:
                timed.append((min(cost), [n, l, list(marks), list(coeffs), len(rows), digest(rows)]))
    timed.sort(key=lambda t: t[0])
    return timed


def _band(timed, k, seeded, ranks) -> list:
    """k groups at evenly spaced ranks between two quantiles of `timed`."""
    lo, hi = (int(q * (len(timed) - 2)) for q in ranks)
    targets = [lo + i * (hi - lo) // max(k - 1, 1) for i in range(k)]
    if not seeded:
        return [[timed[t][1]] for t in targets]
    groups, r = [], -2
    for target in targets:
        # the closest-costing neighbours near the target, never reusing a query
        window = range(max(target - PAIR_SLACK, r + 2), target + PAIR_SLACK + 1)
        r = min(window, key=lambda j: timed[j + 1][0] / timed[j][0])
        groups.append([timed[r][1], timed[r + 1][1]])
    return groups
