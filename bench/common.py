"""Helpers shared by the workloads: exact weight arithmetic, partition counts,
seeded selection, and the span recorder used by traced runs.

Everything here is the benchmark's own arithmetic.  Checks rely on it so that
an answer from the library is never compared with another answer from the
library.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from time import perf_counter
from typing import Any, Callable, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")


@dataclass
class Op:
    """One timed call sequence.

    `run(tracer)` is the only part that is timed.  `check(result, counts)`
    runs after the whole op list, returns None or a failure message, and adds
    to the deterministic work counts.
    """

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], Optional[str]]


def load_reference(name: str):
    with open(os.path.join(REFERENCE_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pick(rng: random.Random, groups) -> list:
    """`k` members of every `(k, members)` group (all, if fewer), then a seeded shuffle.

    Members of one group cost about the same, so every seed draws the same
    cost profile while the concrete inputs change with the seed.
    """
    out = []
    for k, members in groups:
        out.extend(rng.sample(list(members), min(k, len(members))))
    rng.shuffle(out)
    return out


# -- affine type A weights as plain tuples -------------------------------


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All nonnegative `parts`-tuples summing to `total`, lexicographic."""
    return [m for m in product(range(total + 1), repeat=parts) if sum(m) == total]


def random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def marks_profile(marks) -> tuple[int, ...]:
    """Profile of sum_i marks[i] L_i: entry i is marks[i+1] + ... + marks[n-1]."""
    n = len(marks)
    return tuple(sum(marks[i + 1 :]) for i in range(n))


def lower(profile, coeffs) -> tuple[tuple[int, ...], int]:
    """(profile, delta) of a delta-0 weight minus sum_a coeffs[a] alpha_a.

    alpha_0 = e_n - e_1 carries delta 1 and alpha_a = e_a - e_{a+1}.
    """
    p = list(profile)
    p[-1] -= coeffs[0]
    p[0] += coeffs[0]
    for a in range(1, len(p)):
        p[a - 1] -= coeffs[a]
        p[a] += coeffs[a]
    return tuple(p), -coeffs[0]


def in_alcove(profile, level: int) -> bool:
    return all(a >= b for a, b in zip(profile, profile[1:])) and level + profile[-1] - profile[0] >= 0


def norm(profile, level: int, delta) -> Any:
    """(mu, mu) for the normalized invariant form, times n to stay integral."""
    n = len(profile)
    s = sum(profile)
    return n * sum(a * a for a in profile) - s * s + 2 * n * level * delta


def multipartitions(colors: int, kmax: int) -> list[int]:
    """Coefficients of prod_j (1 - q^j)^(-colors) up to q^kmax."""
    out = [1] + [0] * kmax
    for _ in range(colors):
        for j in range(1, kmax + 1):
            for k in range(j, kmax + 1):
                out[k] += out[k - j]
    return out


def gyd_transpose_entries(entries, level: int) -> tuple[int, ...]:
    """Column statistics of the transposed diagram: sum_i floor((a_i - x)/L) + 1."""
    return tuple(sum((a - x) // level + 1 for a in entries) for x in range(1, level + 1))


# -- machine speed ---------------------------------------------------------
#
# The machine's speed drifts by up to a third within minutes, and every op
# slows with it.  A fixed computation timed just before each op tracks the
# drift, and dividing by it turns a measured time into the time the op would
# take on a machine where that computation takes CAL_MS (about its time on the
# 2-vCPU Xeon the benchmark was written on).

CAL_MS = 2.0
# calibrations on each side of an op that set its speed factor
CAL_WINDOW = 5


def calibrate() -> float:
    """Milliseconds taken by a fixed pure-Python computation.

    It mixes integer and Fraction arithmetic with tuple, list and dict
    traffic, as the library does, and does not touch the library.  The
    cyclic collector is off meanwhile, so the library's heap does not slow it.
    """
    gc.disable()
    try:
        start = perf_counter()
        memo: dict = {}
        total = Fraction(0)
        for i in range(1, 400):
            key = (i % 13, i % 7, i)
            memo[key] = memo.get(key, 0) + i
            total += Fraction(i % 11 + 1, i % 5 + 1)
            row = [a * i for a in key]
            row.sort()
        return (perf_counter() - start) * 1000
    finally:
        gc.enable()


def speed_factors(cal_ms: list[float]) -> list[float]:
    """Per op: the median calibration time around it, divided by CAL_MS."""
    w = CAL_WINDOW
    return [statistics.median(cal_ms[max(0, i - w) : i + w + 1]) / CAL_MS for i in range(len(cal_ms))]


# -- tracing ---------------------------------------------------------------


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, op_id: int, label: str) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer:
    """Spans around each call the benchmark makes into the library.

    A span is [name, start, end, parent span id, op id]; the id is its index.
    Spans stay in memory until `dump`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def wrap(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)

        return traced

    def begin_op(self, op_id: int, label: str) -> None:
        self._op = op_id
        self._open("op:" + label)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def busy(self, factors: list[float]) -> dict[str, float]:
        """Total span time per call name (op spans excluded), each span
        divided by its op's speed factor."""
        out: dict[str, float] = {}
        for name, start, end, _parent, op in self.spans:
            if not name.startswith("op:"):
                out[name] = out.get(name, 0.0) + (end - start) / factors[op]
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "op": o}
                    for n, s, e, p, o in self.spans
                ],
                fh,
            )
