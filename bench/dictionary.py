"""dictionary: the weight/diagram dictionary at large sizes.

Five kinds of op, with fixed counts and sizes; the seed picks the concrete
weights, diagrams and walks:

* round trip: `balanced_form` then `weights_of`, n = l up to 64 (m = 128 nodes);
* walk: `hw_transition` steps along a seeded Hanany-Witten walk, with
  `invariants` after every step;
* search: `balanced_form` then `hw_reachable_balanced` with bound 10, n = l <= 6;
* dominant: `to_dominant` then `dominance_leq` on weights translated far out of
  the alcove;
* transpose: `gyd_transpose` twice on large diagrams.

No op touches the oracle.
"""

from __future__ import annotations

import random

from bowforge.bow import BowDiagram, balanced_form, hw_reachable_balanced, hw_transition, invariants, weights_of
from bowforge.weights import AffineWeight, dominance_leq, to_dominant
from bowforge.young import GYDiagram, gyd_transpose

from common import Op, add, gyd_transpose_entries, in_alcove, lower, marks_profile, norm, random_composition

NAME = "dictionary"
# Op counts are layered by cost so that the median and the 90th percentile
# fall inside blocks of ops whose cost does not depend on the seed: the walks
# hold the median, the n = l = 32 round trips the 90th percentile.
# (n = l, op count); a round trip costs about m^3 in the node count m = 2n
ROUND_TRIPS = ((8, 8), (16, 8), (24, 6), (32, 14), (48, 3), (64, 2))
ROUND_TRIP_GAP = 6
WALKS = 30
WALK_SHAPE = (12, 12)
WALK_DIM = 6
WALK_STEPS = 150
SEARCHES = ((3, 8), (4, 6), (5, 2), (6, 1))
SEARCH_GAP = 3
SEARCH_BOUND = 10
# (translation length, op count per rank) of the far-away weights
DOMINANT = ((500, 2), (2000, 1), (5000, 2))
DOMINANT_RANKS = (2, 3, 4, 5)
DOMINANT_LEVEL = 3
TRANSPOSES = (((200, 100), 8), ((300, 150), 8))


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for h, k in ROUND_TRIPS:
        ops += [_round_trip(rng, h) for _ in range(k)]
    ops += [_walk(rng) for _ in range(WALKS)]
    for h, k in SEARCHES:
        ops += [_search(rng, h, i) for i in range(k)]
    for dist, k in DOMINANT:
        for n in DOMINANT_RANKS:
            ops += [_dominant(rng, n, dist) for _ in range(k)]
    for (rank, level), k in TRANSPOSES:
        ops += [_transpose(rng, rank, level) for _ in range(k)]
    rng.shuffle(ops)
    return ops


def _pair(marks, coeffs):
    h = len(marks)
    prof = marks_profile(marks)
    lam = AffineWeight(h, h, prof)
    mu = AffineWeight(h, h, *lower(prof, coeffs))
    # the balanced diagram: x_i on a segment of dimension c_i, then marks[i] circles
    dims = tuple(c for i, c in enumerate(coeffs) for _ in range(marks[i] + 1))
    return lam, mu, dims


def _rotate(seq, r):
    return seq[r:] + seq[:r]


def _round_trip(rng, h):
    marks = random_composition(rng, h, h)
    coeffs = tuple(rng.randint(0, ROUND_TRIP_GAP) for _ in range(h))
    # Separation carries each circle after x_i across i crosses, so it fires
    # sum_i i * marks[i] transitions.  Of the rotations of the seeded pair, use
    # the one closest to the average h(h-1)/2, so the cost does not depend on
    # the seed.
    r = min(range(h), key=lambda r: abs(sum(i * w for i, w in enumerate(_rotate(marks, r))) - h * (h - 1) // 2))
    lam, mu, dims = _pair(_rotate(marks, r), _rotate(coeffs, r))

    def run(tr):
        d = tr.call("bow.balanced_form", balanced_form, lam, mu)
        return d, tr.call("bow.weights_of", weights_of, d)

    def check(result, counts):
        d, (lam2, mu2) = result
        add(counts, "bow.separated_nodes", len(d.nodes))
        if d.dims != dims:
            return f"balanced form of {lam}, {mu} has dims {d.dims}, want {dims}"
        if (lam2.profile, lam2.delta, mu2.profile, mu2.delta) != (lam.profile, lam.delta, mu.profile, mu.delta):
            return f"round trip of {lam}, {mu} gave {lam2}, {mu2}"
        return None

    return Op(f"roundtrip-{h}", run, check)


def _walk(rng):
    n, l = WALK_SHAPE
    kinds = ["x"] * n + ["o"] * l
    rng.shuffle(kinds)
    lead = kinds.index("x")
    kinds = kinds[lead:] + kinds[:lead]
    nodes, xi, sym = [], 0, 1
    for kind in kinds:
        if kind == "x":
            nodes.append(("x", xi))
            xi += 1
        else:
            nodes.append(("o", sym, 0))
            sym += 1
    dims = [rng.randint(0, WALK_DIM) for _ in nodes]
    start = BowDiagram("circle", tuple(nodes), tuple(dims))
    # plan the walk on plain lists; a transition swaps the circle/cross pair
    # around segment k and sets dims[k] to left + right + 1 - dims[k]
    m = len(nodes)
    labels = [nd[:2] for nd in nodes]
    path = []
    for _ in range(WALK_STEPS):
        moves = [
            k
            for k in range(m)
            if labels[k][0] != labels[(k + 1) % m][0] and dims[k - 1] + dims[(k + 1) % m] + 1 - dims[k] >= 0
        ]
        k = rng.choice(moves)
        dims[k] = dims[k - 1] + dims[(k + 1) % m] + 1 - dims[k]
        labels[k], labels[(k + 1) % m] = labels[(k + 1) % m], labels[k]
        path.append(k)
    end = (tuple(labels), tuple(dims))

    def run(tr):
        d = start
        records = [tr.call("bow.invariants", invariants, d)]
        for k in path:
            d = tr.call("bow.hw_transition", hw_transition, d, k)
            records.append(tr.call("bow.invariants", invariants, d))
        return d, records

    def check(result, counts):
        d, records = result
        add(counts, "bow.transitions", len(path))
        if (tuple(nd[:2] for nd in d.nodes), d.dims) != end:
            return f"walk from {start} ended at {d}"
        base = records[0].invariant_part()
        if any(r.invariant_part() != base for r in records):
            return f"invariants drift along the walk from {start}"
        return None

    return Op("walk", run, check)


def _search(rng, h, i):
    # The i-th template of size h comes from a fixed generator and the seed
    # only rotates it.  A rotation moves the base cross of the same circular
    # diagram, so the search explores an isomorphic graph at the same cost.
    template = random.Random(f"search-{h}-{i}")
    marks = random_composition(template, h, h)
    coeffs = tuple(template.randint(0, SEARCH_GAP) for _ in range(h))
    r = rng.randrange(h)
    lam, mu, _dims = _pair(_rotate(marks, r), _rotate(coeffs, r))

    def run(tr):
        d = tr.call("bow.balanced_form", balanced_form, lam, mu)
        return d, tr.call("bow.hw_reachable_balanced", hw_reachable_balanced, d, SEARCH_BOUND)

    def check(result, counts):
        d, found = result
        add(counts, "bow.balanced_found", len(found))
        if found != [d]:
            return f"search from the balanced diagram of {lam}, {mu} found {len(found)} balanced diagrams"
        return None

    return Op(f"search-{h}", run, check)


def _dominant(rng, n, dist):
    level = DOMINANT_LEVEL
    shift = [dist, -dist] + [0] * (n - 2)
    rng.shuffle(shift)
    base = marks_profile(random_composition(rng, level, n))
    mu = AffineWeight(n, level, tuple(a + level * s for a, s in zip(base, shift)), rng.randint(-5, 5))

    def run(tr):
        top = tr.call("weights.to_dominant", to_dominant, mu)
        return top, tr.call("weights.dominance_leq", dominance_leq, mu, top)

    def check(result, counts):
        top, (ok, witness) = result
        add(counts, "weights.to_dominant.calls", 1)
        if top.level != level or not in_alcove(top.profile, level):
            return f"to_dominant({mu}) = {top} is not in the alcove"
        if norm(top.profile, level, top.delta) != norm(mu.profile, level, mu.delta):
            return f"to_dominant({mu}) = {top} changes the invariant form"
        if not ok or any(c < 0 for c in witness.coeffs):
            return f"{mu} is not below its dominant form {top}"
        prof, d = lower(top.profile, witness.coeffs)
        if (prof, top.delta + d) != (mu.profile, mu.delta):
            return f"witness {witness.coeffs} does not carry {top} to {mu}"
        return None

    return Op(f"dominant-{n}-{dist}", run, check)


def _transpose(rng, rank, level):
    top = rng.randint(-1000, 1000)
    entries = tuple(sorted([top] + [top - rng.randint(0, level) for _ in range(rank - 1)], reverse=True))
    d = GYDiagram(rank, level, entries)
    want = gyd_transpose_entries(entries, level)

    def run(tr):
        t = tr.call("young.gyd_transpose", gyd_transpose, d)
        return t, tr.call("young.gyd_transpose", gyd_transpose, t)

    def check(result, counts):
        t, back = result
        if (t.rank, t.level, t.entries) != (level, rank, want):
            return f"transpose of a rank-{rank} level-{level} diagram is wrong"
        if back != d:
            return f"transpose is not an involution on a rank-{rank} level-{level} diagram"
        return None

    return Op(f"transpose-{rank}x{level}", run, check)
