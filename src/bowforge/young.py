"""Generalized Young diagrams with a level constraint.

A diagram of rank r and level L is a weakly decreasing integer sequence
[a_1, ..., a_r] with a_r >= a_1 - L.  Cells live at (row i, in-block column
x, block N in Z+1/2), gray iff L*(N - 1/2) + x <= a_i; the transpose swaps
rank and level by transposing every n x L block.  Counting cancelling tails
once gives the transposed entry at column x = 1..L as

    f(x) = sum_i (floor((a_i - x)/L) + 1).

Write a_i - 1 = q_i*L + r_i with 0 <= r_i < L.  Since 0 <= x - 1 < L, the
floor is q_i when r_i >= x - 1 and q_i - 1 otherwise, so f(1) = sum_i (q_i + 1)
and f(x) = f(x - 1) - #{i : r_i = x - 2}.  The transpose reads this residue
count: one pass over the entries and one over the columns, O(rank + level).
"""

from __future__ import annotations

from dataclasses import dataclass

from .weights import exact_ints


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


def gyd_transpose(d: GYDiagram) -> GYDiagram:
    """Blockwise transpose: rank r level L -> rank L level r, in O(r + L).

    With a_i - 1 = q_i*L + r_i, column 1 holds sum_i (q_i + 1), and each
    column x > 1 holds column x - 1 less the number of entries with residue
    r_i = x - 2 (see the module docstring).
    """
    level = d.level
    if level < 1:
        raise ValueError("transpose needs level >= 1")
    with_residue = [0] * level
    col = 0
    for a in d.entries:
        q, r = divmod(a - 1, level)
        col += q + 1
        with_residue[r] += 1
    entries = []
    for c in with_residue:
        entries.append(col)
        col -= c
    return GYDiagram(level, d.rank, tuple(entries))


def gyd_rotate(d: GYDiagram) -> GYDiagram:
    """[a_2, ..., a_r, a_1 - L]; matches a simultaneous shift by -1 on the transpose side."""
    ent = d.entries
    return GYDiagram(d.rank, d.level, ent[1:] + (ent[0] - d.level,))
