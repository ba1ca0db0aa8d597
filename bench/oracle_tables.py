"""oracle-tables: Freudenthal multiplicity tables for 124 highest weights.

One op computes `freudenthal_mult(lam, mu)` for every dominant mu <= lam whose
gap sum_a c_a alpha_a has height sum(c) <= DEPTH[n].  Each op uses its own lam,
and the multiplicity memo is keyed by lam, so an op's cost does not depend on
the ops before it.  The highest weights are grouped into orbits of the
diagram rotation L_i -> L_{i+1}, whose tables have the same shape and cost
about the same; the seed picks two members of every orbit.
"""

from __future__ import annotations

import random

from bowforge.fock import freudenthal_mult
from bowforge.weights import AffineWeight

from common import (
    Op,
    add,
    compositions,
    load_reference,
    lower,
    marks_profile,
    multipartitions,
    pick,
)

NAME = "oracle-tables"
RANKS = (2, 3, 4, 5)
LEVELS = (1, 2, 3, 4)
# gap heights per rank; chosen so the tables of one rank cost about the same
DEPTH = {2: 24, 3: 15, 4: 11, 5: 9}
PER_ORBIT = 2
REFERENCE = "oracle_tables.json"


def lam_key(marks) -> str:
    return ",".join(map(str, marks))


def orbits() -> list[list[tuple[int, ...]]]:
    """Highest weights (as marks) grouped by rotation orbit, in a fixed order."""
    out = []
    for n in RANKS:
        for level in LEVELS:
            seen = set()
            for marks in compositions(level, n):
                if marks in seen:
                    continue
                orbit = sorted({marks[r:] + marks[:r] for r in range(n)})
                seen.update(orbit)
                out.append(orbit)
    return out


def dominant_gaps(marks) -> list[tuple[int, ...]]:
    """Gap vectors c, in lexicographic order, of the dominant mu = lam - sum_a c_a alpha_a.

    A dominant mu at level l has a weakly decreasing profile within l of its
    last entry and the charge of lam.  Its profile fixes c up to adding the
    same integer to every entry (that is, up to multiples of delta).
    """
    n, level = len(marks), sum(marks)
    prof = marks_profile(marks)
    charge = sum(prof)
    out = []
    for low in range(-(-charge // n) - level, charge // n + 1):
        for p in _decreasing(n, low, low + level, charge):
            d = [0]
            for a in range(1, n):
                d.append(d[-1] + prof[a - 1] - p[a - 1])
            c0 = -min(d)
            while n * c0 + sum(d) <= DEPTH[n]:
                out.append(tuple(c0 + x for x in d))
                c0 += 1
    return sorted(out)


def _decreasing(n, low, high, total):
    """Weakly decreasing n-tuples in [low, high] ending in low, summing to total."""
    if n == 1:
        return [(low,)] if total == low else []
    return [
        (v,) + rest
        for v in range(high, low - 1, -1)
        if low * (n - 1) <= total - v <= v * (n - 1)
        for rest in _decreasing(n - 1, low, v, total - v)
    ]


def inputs(marks):
    """The gaps, lam and the dominant mu of one table."""
    n, level = len(marks), sum(marks)
    prof = marks_profile(marks)
    gaps = dominant_gaps(marks)
    lam = AffineWeight(n, level, prof)
    return gaps, lam, [AffineWeight(n, level, *lower(prof, c)) for c in gaps]


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    reference = load_reference(REFERENCE)
    fk = {n: multipartitions(n - 1, DEPTH[n]) for n in RANKS}
    ops = []
    for marks in pick(rng, [(PER_ORBIT, orbit) for orbit in orbits()]):
        gaps, lam, mus = inputs(marks)
        ops.append(
            Op(
                f"n{lam.n}-l{lam.level}",
                _runner(lam, mus),
                _checker(marks, gaps, fk[lam.n], reference.get(lam_key(marks))),
            )
        )
    return ops


def _runner(lam, mus):
    def run(tr):
        return [tr.call("fock.freudenthal_mult", freudenthal_mult, lam, mu) for mu in mus]

    return run


def _checker(marks, gaps, fk, reference):
    def check(mults, counts):
        add(counts, "fock.freudenthal_mult.calls", len(mults))
        add(counts, "fock.nonzero_weights", sum(1 for m in mults if m))
        add(counts, "fock.mult_sum", sum(mults))
        if sum(marks) == 1:
            # Frenkel-Kac: the dominant weights are L_i - k delta, mult p_{n-1}(k)
            for c, m in zip(gaps, mults):
                if len(set(c)) != 1:
                    return f"{lam_key(marks)}: unexpected dominant gap {c}"
                if m != fk[c[0]]:
                    return f"{lam_key(marks)}: mult at L - {c[0]} delta is {m}, Frenkel-Kac gives {fk[c[0]]}"
            return None
        if reference != [[list(c), m] for c, m in zip(gaps, mults)]:
            return f"{lam_key(marks)}: table differs from the committed reference"
        return None

    return check


def make_reference() -> dict:
    """Tables for every level >= 2 highest weight a seed can pick."""
    out = {}
    for orbit in orbits():
        for marks in orbit:
            if sum(marks) < 2:
                continue
            gaps, lam, mus = inputs(marks)
            mults = [freudenthal_mult(lam, mu) for mu in mus]
            out[lam_key(marks)] = [[list(c), m] for c, m in zip(gaps, mults)]
    return out
