import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from bowforge.cli import weight_from_json, weight_to_json
from bowforge.weights import (
    AffineWeight,
    RootVector,
    coroot_pairing,
    delta_weight,
    dominance_leq,
    fundamental_weight,
    generic_cocharacter,
    lower_weight,
    root_difference,
    simple_root,
    to_dominant,
    weight_from_marks,
    weight_pair_from_dims,
)


def mu_profile_from_dims(n, level, w, v):
    # independent route to the mu profile: u = w - C v with the affine Cartan
    # matrix, then mu_i = v_{n-1} - v_0 + sum_{j>=i} u_j
    u = []
    for i in range(n):
        nb = v[(i - 1) % n] + v[(i + 1) % n] if n > 2 else 2 * v[(i + 1) % 2]
        u.append(w[i] - (2 * v[i] - nb))
    return tuple(v[n - 1] - v[0] + sum(u[j] for j in range(i, n)) for i in range(1, n + 1))


def test_weight_pair_examples():
    lam, mu = weight_pair_from_dims(2, 1, (1, 0), (0, 0))
    assert lam.profile == mu.profile == (0, 0) and mu.delta == 0

    lam, mu = weight_pair_from_dims(2, 1, (1, 0), (1, 0))
    assert mu.profile == (1, -1) and mu.delta == -1

    lam, mu = weight_pair_from_dims(2, 1, (1, 0), (1, 1))
    assert mu.profile == (0, 0) and mu.delta == -1


def test_weight_pair_against_cartan_formula():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 4)
        w = [rng.randint(0, 3) for _ in range(n)]
        if sum(w) == 0:
            w[0] = 1
        v = [rng.randint(0, 3) for _ in range(n)]
        lam, mu = weight_pair_from_dims(n, sum(w), w, v)
        assert mu.profile == mu_profile_from_dims(n, sum(w), w, v)
        assert mu.delta == -v[0]
        assert sum(lam.profile) == sum(mu.profile)


def test_lower_weight_subtracts_simple_roots():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        lam = weight_from_marks(n, [rng.randint(0, 2) for _ in range(n)])
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        want = lam
        for a, c in enumerate(coeffs):
            want = want - simple_root(n, a).scale(c)
        assert lower_weight(lam, coeffs) == want
    L = fundamental_weight(1, 0)
    assert lower_weight(L, [0]) == L
    with pytest.raises(ValueError):
        lower_weight(L, [1])
    with pytest.raises(ValueError):
        lower_weight(fundamental_weight(2, 0), [1])
    with pytest.raises(ValueError, match="root coefficients must be integers"):
        lower_weight(fundamental_weight(2, 0), [0.5, 0])


def test_weight_pair_errors():
    with pytest.raises(ValueError):
        weight_pair_from_dims(2, 1, (1,), (0, 0))
    with pytest.raises(ValueError):
        weight_pair_from_dims(2, 1, (1, 0), (-1, 0))
    with pytest.raises(ValueError):
        weight_pair_from_dims(2, 2, (1, 0), (0, 0))


def test_coroot_pairing_examples():
    L0 = fundamental_weight(2, 0)
    assert coroot_pairing(L0, 0) == 1
    assert coroot_pairing(L0, 1) == 0
    w = AffineWeight(2, 1, (1, -1), Fraction(-1))  # L0 - alpha_0
    assert coroot_pairing(w, 0) == -1
    shifted = L0 - delta_weight(2)
    assert coroot_pairing(shifted, 0) == 1
    assert coroot_pairing(shifted, 1) == 0
    with pytest.raises(ValueError):
        coroot_pairing(L0, 2)


def test_pairing_shift_invariant():
    w = AffineWeight(3, 2, (4, 1, -2), Fraction(1, 2))
    shifted = AffineWeight(3, 2, (9, 6, 3), Fraction(1, 2))  # every profile entry + 5
    for i in range(3):
        assert coroot_pairing(w, i) == coroot_pairing(shifted, i)


def test_to_dominant_examples():
    L0 = fundamental_weight(2, 0)
    assert to_dominant(L0) == L0
    w = AffineWeight(2, 1, (1, -1), Fraction(-1))
    assert to_dominant(w) == L0
    # one finite reflection is not enough here: (1,-1) at level 1 breaks the
    # alcove gap bound, so s_0 fires once more and lands on L0 + delta
    w2 = AffineWeight(2, 1, (-1, 1))
    dom = to_dominant(w2)
    assert dom.profile == (0, 0) and dom.delta == 1
    assert dom.is_dominant()
    # (N, -N) is L0 translated by N(e_1 - e_2): |p|^2 falls by 2N^2, so delta gains N^2
    far = to_dominant(AffineWeight(2, 1, (10**12, -(10**12))))
    assert far.profile == (0, 0) and far.delta == 10**24


def test_to_dominant_idempotent_and_in_alcove():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        lvl = rng.randint(1, 3)
        w = AffineWeight(n, lvl, tuple(rng.randint(-6, 6) for _ in range(n)), rng.randint(-3, 3))
        d = to_dominant(w)
        assert d.is_dominant()
        assert to_dominant(d) == d
        assert d.charge == w.charge


def test_to_dominant_level_zero():
    assert to_dominant(AffineWeight(2, 0, (3, 3))).profile == (3, 3)
    with pytest.raises(ValueError):
        to_dominant(AffineWeight(2, 0, (1, 0)))


def test_reflection_negates_pairing(reflect):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 4)
        w = AffineWeight(n, rng.randint(0, 3), tuple(rng.randint(-4, 4) for _ in range(n)))
        i = rng.randrange(n)
        assert coroot_pairing(reflect(w, i), i) == -coroot_pairing(w, i)
        assert reflect(reflect(w, i), i) == w


def test_reflection_needs_rank_two(reflect):
    # rank 1 has no simple roots, so no simple reflections either
    with pytest.raises(ValueError, match="simple reflections need rank >= 2"):
        reflect(AffineWeight(1, 1, (0,)), 0)
    with pytest.raises(ValueError, match="simple reflections need rank >= 2"):
        reflect(AffineWeight(1, 0, (5,), Fraction(1, 2)), 0)


def test_index_must_be_an_int(reflect):
    w = AffineWeight(3, 1, (1, 0, 0))
    for bad in (True, False, 1.0, Fraction(1), "1"):
        with pytest.raises(ValueError, match="coroot index must be integers"):
            reflect(w, bad)
        with pytest.raises(ValueError, match="coroot index must be integers"):
            coroot_pairing(w, bad)
        with pytest.raises(ValueError, match="root index must be integers"):
            simple_root(3, bad)
        with pytest.raises(ValueError, match="fundamental weight index must be integers"):
            fundamental_weight(3, bad)
    with pytest.raises(ValueError, match="out of range"):
        reflect(w, 3)


def test_orbit_reduces_to_same_dominant(reflect):
    lam = weight_from_marks(3, [1, 1, 0])
    orbit = {lam}
    for _ in range(4):
        orbit |= {reflect(w, i) for w in orbit for i in range(3)}
    assert len(orbit) == 19
    for w in orbit:
        assert to_dominant(w) == lam


def test_dominance_examples():
    L0 = fundamental_weight(2, 0)
    ok, c = dominance_leq(L0, L0)
    assert ok and c.coeffs == (0, 0)
    ok, c = dominance_leq(L0 - simple_root(2, 0), L0)
    assert ok and c.coeffs == (1, 0)
    ok, c = dominance_leq(L0 + simple_root(2, 1), L0)
    assert not ok and c is None


def test_dominance_errors():
    L0 = fundamental_weight(2, 0)
    with pytest.raises(ValueError):
        dominance_leq(weight_from_marks(2, [2, 0]), L0)
    with pytest.raises(ValueError):
        dominance_leq(AffineWeight(2, 1, (1, 0)), L0)  # charge mismatch
    with pytest.raises(ValueError):
        dominance_leq(AffineWeight(2, 1, (0, 0), Fraction(1, 2)), L0)


def test_dominance_partial_order():
    # all weights L0 - sum c_i alpha_i with 0 <= c_i <= 2
    L0 = fundamental_weight(2, 0)
    pool = []
    for c0, c1 in product(range(3), repeat=2):
        pool.append(L0 - simple_root(2, 0).scale(c0) - simple_root(2, 1).scale(c1))
    for a in pool:
        assert dominance_leq(a, a)[0]
        for b in pool:
            ab, ba = dominance_leq(a, b)[0], dominance_leq(b, a)[0]
            if ab and ba:
                assert a == b
            for c in pool:
                if ab and dominance_leq(b, c)[0]:
                    assert dominance_leq(a, c)[0]


def test_root_difference_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 4)
        lam = weight_from_marks(n, [rng.randint(0, 2) for _ in range(n)])
        if lam.level == 0:
            continue
        coeffs = [rng.randint(0, 3) for _ in range(n)]
        mu = lam
        for a, c in enumerate(coeffs):
            mu = mu - simple_root(n, a).scale(c)
        assert root_difference(lam, mu).coeffs == tuple(coeffs)


def test_generic_cocharacter_examples():
    assert not generic_cocharacter([-1, -1])
    assert generic_cocharacter([-2, -3])
    assert not generic_cocharacter([1, -1, 0])
    assert not generic_cocharacter([1, 1, 1])
    assert generic_cocharacter([Fraction(-1, 2), Fraction(-1, 3)])


def test_weight_json_round_trip():
    w = AffineWeight(3, 2, (2, 0, -1), Fraction(3, 4))
    j = weight_to_json(w)
    assert j["delta"] == "3/4"
    assert weight_from_json(json.dumps(j)) == w
    assert weight_from_json(json.dumps(weight_to_json(fundamental_weight(2, 1)))) == fundamental_weight(2, 1)


def test_profile_rejects_non_integers():
    with pytest.raises(ValueError, match="profile entries must be integers"):
        AffineWeight(2, 1, (1.7, 0))
    with pytest.raises(ValueError):
        AffineWeight(2, 1, (True, 0))
    with pytest.raises(ValueError):
        AffineWeight(2.0, 1, (1, 0))
    with pytest.raises(ValueError):
        AffineWeight(2, 1, (1, 0), 0.5)


def test_marks_reject_non_integers():
    # a bool mark was read as 1 or 0
    with pytest.raises(ValueError, match="marks must be integers, got True"):
        weight_from_marks(2, [True, False])
    with pytest.raises(ValueError, match="marks must be integers, got 1.0"):
        weight_from_marks(2, [1.0, 0])
    assert weight_from_marks(2, [1, 0]) == fundamental_weight(2, 0)


def test_root_vector_rejects_non_integers():
    with pytest.raises(ValueError, match="root coefficients must be integers"):
        RootVector((0.7, -1.2))
    assert RootVector([1, 0]).coeffs == (1, 0)


def test_json_delta_rejects_floats():
    with pytest.raises(ValueError, match="not an exact rational"):
        weight_from_json('{"n": 2, "level": 1, "profile": [0, 0], "delta": 0.333}')
    exact = weight_from_json('{"n": 2, "level": 1, "profile": [0, 0], "delta": "333/1000"}')
    assert exact.delta == Fraction(333, 1000)


@pytest.mark.parametrize("delta", ["1/0", "x", "", 0.5, None])
def test_json_delta_that_does_not_parse_names_the_field(delta):
    # a string Fraction cannot read (a zero denominator included) is refused like a float
    want = f"weight record field 'delta': not an exact rational: {delta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        weight_from_json(json.dumps({"n": 2, "level": 1, "profile": [0, 0], "delta": delta}))


L0 = fundamental_weight(2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: L0 - L0.scale(2), "subtraction would produce negative level"),
        (lambda: L0.scale(-1), "negative multiple of a positive-level weight"),
        (lambda: fundamental_weight(2, 2), "fundamental weight index out of range"),
        (lambda: weight_from_marks(2, [1]), "marks length must equal rank"),
        (lambda: weight_from_marks(2, [1, -1]), "marks must be nonnegative"),
        (lambda: root_difference(L0, L0.scale(2)), "level mismatch"),
    ],
    ids=["negative-level", "negative-multiple", "fundamental-index", "marks-length", "marks-sign", "level"],
)
def test_a_domain_error_names_its_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
