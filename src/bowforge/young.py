"""Generalized Young diagrams with a level constraint.

A diagram of rank r and level L is a weakly decreasing integer sequence
[a_1, ..., a_r] with a_r >= a_1 - L.  Cells live at (row i, in-block column
x, block N in Z+1/2), gray iff L*(N - 1/2) + x <= a_i; the transpose swaps
rank and level by transposing every n x L block.  Counting cancelling tails
once gives the closed form used below: the transposed entry at column x is
sum_i (floor((a_i - x)/L) + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .weights import AffineWeight, exact_ints


@dataclass(frozen=True)
class GYDiagram:
    rank: int
    level: int
    entries: tuple[int, ...]

    def __post_init__(self):
        exact_ints((self.rank, self.level), "rank and level")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        ent = exact_ints(self.entries, "diagram entries")
        if len(ent) != self.rank:
            raise ValueError("entry count must equal rank")
        object.__setattr__(self, "entries", ent)
        if any(ent[i] < ent[i + 1] for i in range(self.rank - 1)):
            raise ValueError(f"entries not weakly decreasing: {list(ent)}")
        if ent[-1] < ent[0] - self.level:
            raise ValueError(f"level-{self.level} constraint violated: {list(ent)}")

    @property
    def charge(self) -> int:
        return sum(self.entries)


def gyd_transpose(d: GYDiagram) -> GYDiagram:
    """Blockwise transpose: rank r level L -> rank L level r."""
    if d.level < 1:
        raise ValueError("transpose needs level >= 1")
    entries = tuple(
        sum((a - x) // d.level + 1 for a in d.entries) for x in range(1, d.level + 1)
    )
    return GYDiagram(d.level, d.rank, entries)


def gyd_rotate(d: GYDiagram) -> GYDiagram:
    """[a_2, ..., a_r, a_1 - L]; matches a simultaneous shift by -1 on the transpose side."""
    ent = d.entries
    return GYDiagram(d.rank, d.level, ent[1:] + (ent[0] - d.level,))


def gyd_from_weight(w: AffineWeight) -> GYDiagram:
    if w.level < 1:
        raise ValueError("diagram needs level >= 1")
    if not w.is_dominant():
        raise ValueError("diagram needs a dominant (alcove) profile")
    return GYDiagram(w.n, w.level, w.profile)


def gyd_to_weight(d: GYDiagram, delta=0) -> AffineWeight:
    return AffineWeight(d.rank, d.level, d.entries, delta)


def gyd_to_json(d: GYDiagram) -> dict:
    return {"rank": d.rank, "level": d.level, "entries": list(d.entries)}


def gyd_from_json(j: dict) -> GYDiagram:
    return GYDiagram(j["rank"], j["level"], j["entries"])
