import random

import pytest

from bowforge.young import (
    GYDiagram,
    gyd_from_json,
    gyd_rotate,
    gyd_to_json,
    gyd_transpose,
)


def transpose_by_cells(d, window=40):
    # count gray cells in positive blocks minus white cells in negative
    # blocks over an explicit window; the tails cancel, so a window past the
    # entry range is exact
    out = []
    for x in range(1, d.level + 1):
        c = 0
        for a in d.entries:
            for t in range(0, window):
                if d.level * t + x <= a:
                    c += 1
            for t in range(-window, 0):
                if d.level * t + x > a:
                    c -= 1
        out.append(c)
    return tuple(out)


def random_alcove(rng, rank, level):
    base = sorted((rng.randint(-5, 5) for _ in range(rank)), reverse=True)
    top = base[0]
    entries = [max(e, top - level) for e in base]
    return GYDiagram(rank, level, tuple(entries))


def test_transpose_known_value():
    assert gyd_transpose(GYDiagram(2, 3, (2, -1))).entries == (1, 1, -1)


def test_transpose_zero_and_unit():
    assert gyd_transpose(GYDiagram(3, 2, (0, 0, 0))).entries == (0, 0)
    assert gyd_transpose(GYDiagram(2, 1, (1, 0))).entries == (1,)


def test_transpose_matches_cell_count():
    rng = random.Random(23)
    for _ in range(200):
        d = random_alcove(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert gyd_transpose(d).entries == transpose_by_cells(d)


def test_transpose_involution_and_charge():
    rng = random.Random(29)
    for _ in range(200):
        d = random_alcove(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = gyd_transpose(d)
        assert t.rank == d.level and t.level == d.rank
        assert sum(t.entries) == sum(d.entries)
        assert gyd_transpose(t) == d


def test_rotate_examples():
    assert gyd_rotate(GYDiagram(3, 2, (1, 1, -1))).entries == (1, -1, -1)
    assert gyd_rotate(GYDiagram(2, 0, (0, 0))).entries == (0, 0)


def test_full_rotation_shifts_by_level():
    rng = random.Random(31)
    for _ in range(50):
        d = random_alcove(rng, rng.randint(1, 4), rng.randint(0, 3))
        r = d
        for _ in range(d.rank):
            r = gyd_rotate(r)
        assert r.entries == tuple(a - d.level for a in d.entries)


def test_rotation_intertwines_shift():
    rng = random.Random(37)
    for _ in range(100):
        d = random_alcove(rng, rng.randint(1, 4), rng.randint(1, 4))
        shifted = GYDiagram(d.rank, d.level, tuple(a - 1 for a in d.entries))
        assert gyd_transpose(shifted) == gyd_rotate(gyd_transpose(d))


def test_constraint_validation():
    with pytest.raises(ValueError):
        GYDiagram(2, 1, (0, 1))
    with pytest.raises(ValueError):
        GYDiagram(2, 1, (3, 0))
    with pytest.raises(ValueError):
        GYDiagram(2, 0, (1, 0))  # level 0 must be constant


def test_json_round_trip():
    d = GYDiagram(2, 3, (2, -1))
    assert gyd_from_json(gyd_to_json(d)) == d
