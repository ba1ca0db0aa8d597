import ast
import copy
import inspect
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, isqrt
from pathlib import Path

import pytest

import bowforge
from bowforge import fock
from bowforge.fock import (
    FockState,
    char_factorization_check,
    chevalley_apply,
    cone_points,
    crystal_component,
    crystal_op,
    delta_convolution,
    epsilon,
    fock_weight_count,
    freudenthal_mult,
    partition_count,
    partitions,
    phi,
    serre_and_commutator_check,
    states_of_energy,
    string_top,
)
from bowforge.weights import (
    AffineWeight,
    coroot_pairing,
    delta_weight,
    fundamental_weight,
    lower_weight,
    simple_root,
    weight_from_marks,
)


def test_partition_values():
    assert [partition_count(k) for k in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    for k in range(9):
        assert len(list(partitions(k))) == partition_count(k)
        for p in partitions(k):
            assert sum(p) == k and all(a >= b for a, b in zip(p, p[1:]))


def test_state_rejects_float_flips():
    with pytest.raises(ValueError, match="flip positions must be integers"):
        FockState(2, (0.7, -1.2))
    with pytest.raises(ValueError):
        FockState(2, (0.0, -1))


def test_state_rejects_an_inexact_rank():
    # a bool is not a rank 1, and a float rank must not fail late in range()
    with pytest.raises(ValueError, match="rank must be integers, got True"):
        FockState(True, ())
    with pytest.raises(ValueError, match="rank must be integers, got 2.0"):
        FockState(2.0, (0, -1))


@pytest.mark.parametrize("flips", [(0,), (-1,), (-1, 0, 1)])
def test_state_must_have_charge_zero(flips):
    with pytest.raises(ValueError, match="state must have charge 0"):
        FockState(2, flips)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_state_needs_rank_two(n):
    # every operator on a state reads an i-signature of the affine algebra, which needs n >= 2
    with pytest.raises(ValueError, match=re.escape("rank must be >= 2")):
        FockState(n, ())


def test_state_is_an_immutable_tuple():
    st = FockState(3, (2, -1, 0, -3))
    assert repr(st) == "FockState(n=3, flips=(-3, -1, 0, 2))"
    assert repr(FockState(n=2, flips=(0, -1))) == "FockState(n=2, flips=(-1, 0))"
    assert st == (3, (-3, -1, 0, 2)) and hash(st) == hash((3, (-3, -1, 0, 2)))
    assert (st.n, st.flips) == tuple(st)
    assert not hasattr(st, "__dict__")
    for name in ("n", "flips"):
        with pytest.raises(AttributeError):
            setattr(st, name, 2)
    for clone in (pickle.loads(pickle.dumps(st)), copy.copy(st), copy.deepcopy(st)):
        assert type(clone) is FockState and clone == st and repr(clone) == repr(st)


class _Pickled:
    """Pickles as the given reduce value, so a state's pickle can be written with other arguments."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_a_state_runs_the_constructor_checks(protocol):
    st = FockState(2, (-1, 0))
    assert pickle.loads(pickle.dumps(st, protocol)) == st
    # the stand-in writes the state's own bytes, so with float flips it is that pickle altered
    assert pickle.dumps(_Pickled((FockState, (2, (-1, 0)))), protocol) == pickle.dumps(st, protocol)
    forged = pickle.dumps(_Pickled((FockState, (2, (-1.0, 0.0)))), protocol)
    with pytest.raises(ValueError, match="flip positions must be integers, got -1.0"):
        pickle.loads(forged)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_hop_is_the_checked_state(n):
    # a hop skips the constructor's checks, so its child must equal the one the checks build
    hops = 0
    for e in range(7):
        for st in states_of_energy(n, e):
            for i in range(n):
                for t, _ in fock._signature(st, i):
                    child = fock._hop(st, t)
                    checked = FockState(n, set(st.flips) ^ {t, t + 1})
                    assert type(child) is FockState and child == checked and repr(child) == repr(checked)
                    hops += 1
    assert hops > 0


def test_state_partition_bijection():
    for e in range(7):
        states = states_of_energy(2, e)
        assert len(states) == partition_count(e)
        assert len(set(states)) == len(states)
        for st in states:
            assert sum(map(abs, st.flips)) == e  # particles sum to g, holes to -g


# -- multiplicities ------------------------------------------------------


def test_cone_points_equal_the_filtered_box():
    for n in range(6):
        for depth in range(-1, 7):
            box = [c for c in product(range(depth + 1), repeat=n) if sum(c) <= depth]
            assert list(cone_points(n, depth)) == box, (n, depth)


def test_freudenthal_trivial_and_strings():
    L0 = fundamental_weight(2, 0)
    a0 = simple_root(2, 0)
    assert freudenthal_mult(L0, L0) == 1
    assert freudenthal_mult(L0, L0 - a0) == 1
    assert freudenthal_mult(L0, L0 - a0.scale(2)) == 0


def test_freudenthal_regression_constants():
    # frozen from the recursion, cross-checked by the crystal count below
    L0 = fundamental_weight(2, 0)
    d = delta_weight(2)
    assert freudenthal_mult(L0, L0 - d) == 1
    assert freudenthal_mult(L0, L0 - d.scale(2)) == 2
    L0_3 = fundamental_weight(3, 0)
    assert freudenthal_mult(L0_3, L0_3 - delta_weight(3)) == 2


def test_freudenthal_weyl_invariance(reflect):
    rng = random.Random(71)
    L0 = fundamental_weight(2, 0)
    for coeffs in cone_points(2, 4):
        mu = lower_weight(L0, coeffs)
        m = freudenthal_mult(L0, mu)
        for i in (0, 1):
            assert freudenthal_mult(L0, reflect(mu, i)) == m
    lam = weight_from_marks(3, [1, 1, 0])
    for _ in range(30):
        coeffs = [rng.randint(0, 2) for _ in range(3)]
        mu = lower_weight(lam, coeffs)
        m = freudenthal_mult(lam, mu)
        i = rng.randrange(3)
        assert freudenthal_mult(lam, reflect(mu, i)) == m


def test_freudenthal_depth_and_errors():
    L0 = fundamental_weight(2, 0)
    with pytest.raises(ValueError):
        freudenthal_mult(L0 - simple_root(2, 0), L0)
    assert freudenthal_mult(L0, L0 + simple_root(2, 0)) == 0


L0_2 = AffineWeight(2, 1, (0, 0))
RANK_3 = AffineWeight(3, 1, (0, 0, 0))


@pytest.mark.parametrize(
    "lam, mu, message",
    [
        (AffineWeight(1, 0, (0,)), L0_2, "multiplicities need rank >= 2"),
        (AffineWeight(2, 0, (0, 1)), RANK_3, "highest weight must be dominant"),
        (AffineWeight(2, 0, (0, 0)), RANK_3, "highest weight must have positive level"),
        (L0_2, AffineWeight(2, 2, (0, 0)), "level/rank mismatch"),
        (L0_2, RANK_3, "level/rank mismatch"),
    ],
    ids=["rank", "dominance", "level", "level-mismatch", "rank-mismatch"],
)
def test_freudenthal_checks_its_input_in_order(lam, mu, message):
    # each pair breaks its own check and every later one it can, so the message pins the order
    with pytest.raises(ValueError) as caught:
        freudenthal_mult(lam, mu)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "mu",
    [AffineWeight(2, 1, (1, 0)), AffineWeight(2, 1, (0, 0), Fraction(1, 2)), L0_2 + delta_weight(2)],
    ids=["charge-mismatch", "non-integral-delta-gap", "gap-outside-the-cone"],
)
def test_freudenthal_is_zero_off_the_root_cone(mu):
    assert freudenthal_mult(L0_2, mu) == 0


@pytest.mark.parametrize("depth", [2.0, 2.5, True, -1])
def test_oracle_depth_is_a_nonnegative_int(depth):
    # True once acted as 1, 2.0 was accepted; the crystal walk raised a TypeError on a float
    # and returned the vacuum alone below 0
    for check in (char_factorization_check, serre_and_commutator_check, crystal_component):
        with pytest.raises(ValueError, match="^depth must be"):
            check(2, depth)


@pytest.mark.parametrize(
    "check, args, message",
    [
        (serre_and_commutator_check, (3.0, 2), "rank must be integers, got 3.0"),
        (serre_and_commutator_check, (True, -1), "rank must be integers, got True"),
        (serre_and_commutator_check, (1, 2.0), "relations need rank >= 2"),
        (char_factorization_check, (2.0, 2), "rank must be integers, got 2.0"),
        (char_factorization_check, (2.0, -1), "rank must be integers, got 2.0"),
        (fock_weight_count, (2.0, L0_2), "rank must be integers, got 2.0"),
        (fock_weight_count, (True, L0_2), "rank must be integers, got True"),
        (crystal_component, (2.0, 1.5), "rank must be integers, got 2.0"),
        (crystal_component, (1, 1.5), "rank must be >= 2"),
    ],
)
def test_oracle_entry_points_check_an_exact_rank_first(check, args, message):
    # a float rank raised a TypeError from range() and a bool one was read as 1; the rank
    # is checked before the depth, and an int rank keeps its own text
    with pytest.raises(ValueError) as caught:
        check(*args)
    assert str(caught.value) == message


def _reference_cartan(c):
    n = len(c)
    return [2 * c[i] - c[i - 1] - c[(i + 1) % n] for i in range(n)]


def _reference_roots(n, max_height):
    """(coefficients, multiplicity, norm) of every positive root up to max_height."""
    out = []
    for j in range(1, n):
        for i in range(j + 1, n + 1):
            span = i - j
            k = 0
            while span + k * n <= max_height:
                out.append((tuple(k if a == 0 else k + (j <= a < i) for a in range(n)), 1, 2))
                k += 1
            k = 1
            while k * n - span <= max_height:
                out.append((tuple(k if a == 0 else k - (j <= a < i) for a in range(n)), 1, 2))
                k += 1
    out += [((k,) * n, n - 1, 0) for k in range(1, max_height // n + 1)]
    return out


def _reference_dominant_gap(marks, gap):
    """One reflection at a time, the Cartan product recomputed after each."""
    c = list(gap)
    while min(c) >= 0:
        for i, ac in enumerate(_reference_cartan(c)):
            if marks[i] < ac:
                c[i] += marks[i] - ac
                break
        else:
            return tuple(c)
    return None


def _reference_mult(marks, gap, memo):
    """Freudenthal's recursion over every positive root, unweighted, memoised in `memo`."""
    if not any(gap):
        return 1
    if gap not in memo:
        ac = _reference_cartan(gap)
        denom = sum(c * (2 * w + 2 - x) for c, w, x in zip(gap, marks, ac))
        total = 0
        for root, mult, norm in _reference_roots(len(gap), sum(gap)):
            pair = sum((w - x) * a for w, x, a in zip(marks, ac, root))
            k = 1
            while True:
                t = tuple(c - k * a for c, a in zip(gap, root))
                if min(t) < 0:
                    break
                top = _reference_dominant_gap(marks, t)
                if top is not None:
                    total += 2 * mult * (pair + k * norm) * _reference_mult(marks, top, memo)
                k += 1
        val, rem = divmod(total, denom)
        assert rem == 0 and val >= 0
        memo[gap] = val
    return memo[gap]


def test_freudenthal_matches_the_unweighted_recursion(monkeypatch):
    # every dominant lam at n = 2-6, levels 1-4, against every gap up to these heights; the
    # zero marks of mu include runs through node 0, e.g. {3, 4, 0, 1} for mu = lam = L2 at n = 5
    monkeypatch.setattr(fock, "_MULT_CACHE", {})
    for n, top in ((2, 12), (3, 7), (4, 5), (5, 4), (6, 3)):
        for level in range(1, 5):
            for marks in product(range(level + 1), repeat=n):
                if sum(marks) != level:
                    continue
                lam, memo = weight_from_marks(n, list(marks)), {}
                for c in cone_points(n, top):
                    gap = _reference_dominant_gap(marks, c)
                    want = 0 if gap is None else _reference_mult(marks, gap, memo)
                    assert freudenthal_mult(lam, lower_weight(lam, c)) == want, (marks, c)


def _cycle_symmetries(n):
    """The 2n node maps i -> (+-i + r) mod n of the n-cycle, as tuples sigma with sigma[i] the image of i."""
    return [tuple((sign * i + r) % n for i in range(n)) for r in range(n) for sign in (1, -1)]


def _moved(sigma, coords):
    """coords read on the moved nodes: entry sigma[i] of the result is entry i of coords."""
    out = [0] * len(coords)
    for i, x in enumerate(coords):
        out[sigma[i]] = x
    return tuple(out)


def test_freudenthal_is_invariant_under_the_cycle_symmetries(monkeypatch):
    # rotations and reflections of the n-cycle fix the affine Cartan matrix, so
    # mult_{V(sigma lam)}(sigma mu) = mult_{V(lam)}(mu); every table starts from an empty memo
    for n in range(2, 6):
        gaps = list(cone_points(n, 5))
        for level in range(1, 4):
            for marks in product(range(level + 1), repeat=n):
                if sum(marks) != level:
                    continue
                monkeypatch.setattr(fock, "_MULT_CACHE", {})
                lam = weight_from_marks(n, list(marks))
                want = [freudenthal_mult(lam, lower_weight(lam, c)) for c in gaps]
                for sigma in _cycle_symmetries(n):
                    monkeypatch.setattr(fock, "_MULT_CACHE", {})
                    image = weight_from_marks(n, list(_moved(sigma, marks)))
                    got = [freudenthal_mult(image, lower_weight(image, _moved(sigma, c))) for c in gaps]
                    assert got == want, (marks, sigma)


def test_a_rotated_or_reflected_table_adds_no_memo_entry(monkeypatch):
    monkeypatch.setattr(fock, "_MULT_CACHE", {})
    marks, gaps = (2, 1, 0, 0), list(cone_points(4, 6))
    lam = weight_from_marks(4, list(marks))
    want = [freudenthal_mult(lam, lower_weight(lam, c)) for c in gaps]
    entries = len(fock._MULT_CACHE)
    assert entries > 0
    for sigma in ((1, 2, 3, 0), (0, 3, 2, 1)):  # one rotation, one reflection
        image = weight_from_marks(4, list(_moved(sigma, marks)))
        assert [freudenthal_mult(image, lower_weight(image, _moved(sigma, c))) for c in gaps] == want
        assert len(fock._MULT_CACHE) == entries, sigma


def _multipartition_counts(colours, top):
    """Number of `colours`-tuples of partitions of total size k, for k = 0..top, by coin change."""
    ways = [1] + [0] * top
    for part in range(1, top + 1):
        for _ in range(colours):
            for k in range(part, top + 1):
                ways[k] += ways[k - part]
    return ways


def test_freudenthal_frenkel_kac_level_one():
    # mult_{L_i}(L_i - k delta) = p_{n-1}(k), the (n-1)-coloured partition count
    # at level 1 the stabilizer of L_i - k delta is W_J for a run J of n - 1 nodes, of order n!;
    # deep in the delta-string most of each frame is the divisor-sum term of the imaginary roots
    for n, top in ((2, 100), (3, 60), (4, 40), (5, 30), (6, 20), (7, 15)):
        want = _multipartition_counts(n - 1, top)
        d = delta_weight(n)
        for i in range(n):
            lam = fundamental_weight(n, i)
            assert [freudenthal_mult(lam, lam - d.scale(k)) for k in range(top + 1)] == want


def test_freudenthal_needs_no_recursion_depth():
    # a cold level-1 query 110 dominant nodes deep, with 100 frames to spare
    k = 110
    lam = fundamental_weight(2, 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = freudenthal_mult(lam, lam - delta_weight(2).scale(k))
    finally:
        sys.setrecursionlimit(limit)
    assert got == _multipartition_counts(1, k)[k]


@pytest.mark.parametrize(
    "n, marks, want",
    [
        (2, [2, 0], [1, 1, 3, 5, 10, 16, 28, 43]),
        (2, [1, 1], [1, 2, 4, 8, 14, 24, 40, 64]),
        (3, [1, 1, 0], [1, 4, 13, 36, 89, 204, 441, 908]),
    ],
)
def test_freudenthal_level_two_delta_strings(n, marks, want):
    # pinned from the rational-arithmetic recursion this integer one replaced
    lam = weight_from_marks(n, marks)
    d = delta_weight(n)
    assert [freudenthal_mult(lam, lam - d.scale(k)) for k in range(8)] == want


# -- Chevalley action ------------------------------------------------------


def _combine(*terms):
    """The sum of the (coeff, {state: coeff} vector) terms, with no zero coefficient."""
    out = {}
    for k, vec in terms:
        for s, c in vec.items():
            out[s] = out.get(s, 0) + k * c
    return {s: c for s, c in out.items() if c}


def _apply(op, i, vec):
    """op_i on a {state: coeff} vector, extended linearly from the basis action."""
    return _combine(*((c, chevalley_apply(op, i, state)) for state, c in vec.items()))


def test_chevalley_vacuum_examples():
    vac = FockState(2, ())
    for i in (0, 1):
        assert chevalley_apply("e", i, vac) == {}
    f0 = chevalley_apply("f", 0, vac)
    assert len(f0) == 1
    state, coeff = next(iter(f0.items()))
    assert coeff == 1
    assert state.weight() == fundamental_weight(2, 0) - simple_root(2, 0)
    assert chevalley_apply("f", 1, vac) == {}
    lhs = _apply("e", 1, chevalley_apply("f", 0, vac))
    rhs = _apply("f", 0, chevalley_apply("e", 1, vac))
    assert _combine((1, lhs), (-1, rhs)) == {}


def test_h_acts_by_pairing():
    # h_i is read off the simple-root gap, so it is pinned here against the weight's pairing
    for n in range(2, 6):
        for e in range(6):
            for st in states_of_energy(n, e):
                w = st.weight()
                for i in range(n):
                    val = coroot_pairing(w, i)
                    assert chevalley_apply("h", i, st) == ({st: val} if val else {})


def test_weight_shift_of_operators():
    for n in (2, 3):
        for st in states_of_energy(n, 3):
            w = st.weight()
            for i in range(n):
                for t in chevalley_apply("f", i, st):
                    assert t.weight() == w - simple_root(n, i)
                for t in chevalley_apply("e", i, st):
                    assert t.weight() == w + simple_root(n, i)


def test_commutator_on_vacuum():
    # [e_0, f_0] acts on the vacuum as h_0, i.e. by <L0, h_0> = 1
    vac = FockState(2, ())
    ef = _apply("e", 0, chevalley_apply("f", 0, vac))
    fe = _apply("f", 0, chevalley_apply("e", 0, vac))
    assert _combine((1, ef), (-1, fe)) == {vac: 1}


def test_serre_and_commutator_reports():
    for n in (2, 3):
        rows = serre_and_commutator_check(n, 3)
        assert all(ok for _, ok, _ in rows), [label for label, ok, _ in rows if not ok]


def _reference_ad_power(a, b, power, vec):
    terms = []
    for k in range(power + 1):
        v = vec
        for _ in range(k):
            v = _apply("e", a, v)
        v = _apply("e", b, v)
        for _ in range(power - k):
            v = _apply("e", a, v)
        terms.append(((-1) ** k * comb(power, k), v))
    return _combine(*terms)


def _reference_serre(n, depth):
    """The relation check on {state: coeff} dicts, every generator applied afresh at every step."""
    cartan = fock.affine_cartan_matrix(n)
    basis = [{st: 1} for e in range(depth + 1) for st in states_of_energy(n, e)]
    rows = []
    for a in range(n):
        for b in range(n):
            ok = all(
                _combine((1, _apply("e", a, _apply("f", b, v))), (-1, _apply("f", b, _apply("e", a, v))))
                == (_apply("h", a, v) if a == b else {})
                for v in basis
            )
            rows.append((f"[e_{a}, f_{b}] = {f'h_{a}' if a == b else '0'}", ok, ""))
    for a in range(n):
        for b in range(n):
            ok = all(
                _combine((1, _apply("h", a, _apply("e", b, v))), (-1, _apply("e", b, _apply("h", a, v))))
                == _combine((cartan[a][b], _apply("e", b, v)))
                for v in basis
            )
            rows.append((f"[h_{a}, e_{b}] = {cartan[a][b]} e_{b}", ok, ""))
    for a in range(n):
        for b in range(n):
            if a != b:
                power = 1 - cartan[a][b]
                ok = all(_reference_ad_power(a, b, power, v) == {} for v in basis)
                rows.append((f"ad(e_{a})^{power}(e_{b}) = 0", ok, ""))
    return rows


@pytest.mark.parametrize("n, depth", [*product(range(2, 6), range(4)), (2, 5), (3, 4)])
def test_serre_check_matches_the_reference(n, depth):
    rows = serre_and_commutator_check(n, depth)
    assert rows == _reference_serre(n, depth)
    assert len(rows) == 3 * n * n - n


def test_serre_check_fails_exactly_the_broken_relation(monkeypatch):
    # f_0 doubled breaks [e_0, f_0] = h_0 alone: [e_a, f_0] for a != 0 only doubles a
    # zero, and the Cartan and Serre rows have no f at all. The calls before and after
    # the patch pass, so the action is read afresh on every call and no image outlives one.
    assert all(ok for _, ok, _ in serre_and_commutator_check(3, 2))
    real = fock.chevalley_apply

    def doubled_f0(op, i, state):
        out = real(op, i, state)
        return {s: 2 * c for s, c in out.items()} if (op, i) == ("f", 0) else out

    monkeypatch.setattr(fock, "chevalley_apply", doubled_f0)
    rows = serre_and_commutator_check(3, 2)
    assert [label for label, ok, _ in rows if not ok] == ["[e_0, f_0] = h_0"]
    monkeypatch.undo()
    assert all(ok for _, ok, _ in serre_and_commutator_check(3, 2))


# -- crystal ---------------------------------------------------------------


_I_SIGNATURE_OPERATORS = {
    "e": lambda st, i: chevalley_apply("e", i, st),
    "f": lambda st, i: chevalley_apply("f", i, st),
    "h": lambda st, i: chevalley_apply("h", i, st),
    "crystal e": lambda st, i: crystal_op("e", st, i),
    "crystal f": lambda st, i: crystal_op("f", st, i),
    "epsilon": epsilon,
    "phi": phi,
}


@pytest.mark.parametrize("name", _I_SIGNATURE_OPERATORS)
@pytest.mark.parametrize(
    "n, i, message",
    [
        (2, 2, "generator index out of range"),
        (2, -1, "generator index out of range"),
        (2, 1.0, "generator index must be integers, got 1.0"),
        (2, True, "generator index must be integers, got True"),
        (3, "1", "generator index must be integers, got '1'"),
        (1, 0, "rank must be >= 2"),
        (1, 0.5, "rank must be >= 2"),
    ],
)
def test_generator_index_is_checked_by_every_i_signature_operator(name, n, i, message):
    # the rank comes first (no state of rank 1 is made), then the index: an int in 0..n-1,
    # never a float or a bool read as 1
    op = _I_SIGNATURE_OPERATORS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        op(FockState(n, ()), i)


def test_crystal_vacuum_examples():
    vac = FockState(2, ())
    for i in (0, 1):
        assert crystal_op("e", vac, i) is None
    f0 = crystal_op("f", vac, 0)
    assert f0 == FockState(2, (-1, 0))
    assert crystal_op("f", vac, 1) is None
    assert phi(vac, 1) == 0 and phi(vac, 0) == 1 and epsilon(vac, 0) == 0


def test_crystal_inverse_and_statistics():
    for n in (2, 3):
        for e in range(5):
            for st in states_of_energy(n, e):
                w = st.weight()
                for i in range(n):
                    assert phi(st, i) - epsilon(st, i) == coroot_pairing(w, i)
                    f = crystal_op("f", st, i)
                    if f is not None:
                        assert crystal_op("e", f, i) == st
                        assert f.weight() == w - simple_root(n, i)
                    e_ = crystal_op("e", st, i)
                    if e_ is not None:
                        assert crystal_op("f", e_, i) == st


def test_crystal_component_counts():
    for n in (2, 3):
        lam = fundamental_weight(n, 0)
        expected = {}
        for coeffs in cone_points(n, 4):
            mu = lower_weight(lam, coeffs)
            m = freudenthal_mult(lam, mu)
            if m:
                expected[mu] = m
        got = {}
        for st in crystal_component(n, 4):
            w = st.weight()
            got[w] = got.get(w, 0) + 1
        assert got == expected


def _reference_signature(state, i):
    """Every slot of the window around the flips, occupancy by membership, by decreasing slot."""
    flips = state.flips
    lo = min(min(flips, default=0) - 1, -2)
    hi = max(max(flips, default=-1) + 1, 1)

    def occupied(g):
        return (g < 0) != (g in flips)

    return [
        (t, "+" if occupied(t) else "-")
        for t in range(hi, lo - 1, -1)
        if (t + 1) % state.n == i and occupied(t) != occupied(t + 1)
    ]


def _reference_reduce(word):
    """Bracket rule on a stack: a '-' cancels the '+' on top."""
    stack = []
    for item in word:
        if item[1] == "-" and stack and stack[-1][1] == "+":
            stack.pop()
        else:
            stack.append(item)
    return stack


def _reference_hop(state, t):
    return FockState(state.n, tuple(set(state.flips) ^ {t, t + 1}))


def _reference_weight(state):
    """Fold the hop count at every slot j of the window onto alpha_{(j+1) mod n}."""
    n = state.n
    ps, hs = [g for g in state.flips if g >= 0], [g for g in state.flips if g < 0]
    folded = [0] * n
    if ps:
        for j in range(min(hs), max(ps)):
            folded[(j + 1) % n] += sum(p > j for p in ps) - sum(h > j for h in hs)
    return lower_weight(fundamental_weight(n, 0), folded)


def test_operators_match_the_full_window_reference():
    for n in (2, 3, 4, 5):
        for e in range(9):
            for st in states_of_energy(n, e):
                w = _reference_weight(st)
                assert st.weight() == w
                for i in range(n):
                    word = _reference_signature(st, i)
                    hops = {s: {_reference_hop(st, t): 1 for t, x in word if x == s} for s in "+-"}
                    assert chevalley_apply("f", i, st) == hops["+"]
                    assert chevalley_apply("e", i, st) == hops["-"]
                    val = coroot_pairing(w, i)
                    assert chevalley_apply("h", i, st) == ({st: val} if val else {})
                    reduced = _reference_reduce(word)
                    plus = [t for t, x in reduced if x == "+"]
                    minus = [t for t, x in reduced if x == "-"]
                    assert crystal_op("f", st, i) == (_reference_hop(st, plus[0]) if plus else None)
                    assert crystal_op("e", st, i) == (_reference_hop(st, minus[-1]) if minus else None)
                    assert (epsilon(st, i), phi(st, i)) == (len(minus), len(plus))


def test_divided_powers_on_inner_string():
    # the i=1 string through the one-box state has length 2 for n=2
    head = FockState(2, (-1, 0))
    assert epsilon(head, 1) == 0 and phi(head, 1) == 2
    # the crystal image appears in f with the leading coefficient eps + 1;
    # the remaining terms point into the complement of the vacuum submodule
    image = crystal_op("f", head, 1)
    fv = chevalley_apply("f", 1, head)
    assert fv[image] == epsilon(head, 1) + 1
    # the string endpoint carries the full divided power: f^2 = 2! * crystal path
    bottom = crystal_op("f", image, 1)
    v2 = _apply("f", 1, fv)
    assert v2 == {bottom: 2}
    assert _apply("f", 1, v2) == {}


# -- counts and identities ---------------------------------------------------


def test_string_top_examples():
    L0 = fundamental_weight(2, 0)
    d = delta_weight(2)
    a0 = simple_root(2, 0)
    assert string_top(L0, L0, 0) == 1
    assert string_top(L0, L0, 1) == 0
    assert string_top(L0, L0 - a0, 0) == 1
    assert string_top(L0, L0 - d, 1) == 2
    # the string through L0 - 10 alpha_1 meets k >= 0 only at k = 10, where it reaches L0
    assert string_top(L0, L0 - simple_root(2, 1).scale(10), 1) == 0


def _dominant_weights(n, level):
    for marks in product(range(level + 1), repeat=n):
        if sum(marks) == level:
            yield weight_from_marks(n, list(marks))


def _string_grid():
    """(lam, mu, i): every dominant lam at n = 2-4, levels 1-3, and every i; mu over the gaps of the
    cone up to a height and one step above lam, so some strings miss the module."""
    for n, height in ((2, 4), (3, 3), (4, 2)):
        above = [tuple(-(a == j) for a in range(n)) for j in range(n)]
        for level in (1, 2, 3):
            for lam in _dominant_weights(n, level):
                for c in [*cone_points(n, height), *above]:
                    mu = lower_weight(lam, c)
                    for i in range(n):
                        yield lam, mu, i


def test_string_top_matches_the_weight_space_walk(assert_string_top_matches_weight_space_walk):
    outcomes = set()
    for lam, mu, i in _string_grid():
        got = assert_string_top_matches_weight_space_walk(lam, mu, i)
        outcomes.add(got if isinstance(got, tuple) else "value")
    assert "value" in outcomes
    assert ("ValueError", "no member of the i-string through this weight lies in the module") in outcomes


def test_string_foot_mirrors_its_top():
    # the bisection in string_top rests on this: the weights on an i-string are one unbroken
    # interval a <= k <= b that s_i maps to itself, so a + b = -<mu, h_i>; checked with Freudenthal
    feet = 0
    for lam, mu, i in _string_grid():
        try:
            top = string_top(lam, mu, i)
        except ValueError:
            continue
        mu_p = coroot_pairing(mu, i)
        b = (top - mu_p) // 2
        a = -mu_p - b
        alpha = simple_root(lam.n, i)
        assert freudenthal_mult(lam, mu + alpha.scale(a)) > 0, (lam, mu, i)
        assert freudenthal_mult(lam, mu + alpha.scale(a - 1)) == 0, (lam, mu, i)
        feet += 1
    assert feet > 0


def test_string_top_rejects_what_the_weight_space_walk_rejects(assert_string_top_matches_weight_space_walk):
    L0 = fundamental_weight(2, 0)
    L0_3 = fundamental_weight(3, 0)
    cases = [
        (L0, L0, 2),
        (L0, L0, -1),
        (L0, L0, True),
        (L0_3, L0, 2),
        (L0_3, L0, 1),
        (L0, L0_3, 1),
        (fundamental_weight(1, 0), fundamental_weight(1, 0), 0),
        (L0 - simple_root(2, 0), L0, 0),
        (AffineWeight(2, 0, (0, 0)), AffineWeight(2, 0, (0, 0)), 0),
        (L0, AffineWeight(2, 1, (1, 0)), 0),
        (L0, AffineWeight(2, 2, (0, 0)), 0),
        (L0, AffineWeight(2, 1, (0, 0), Fraction(1, 2)), 1),
    ]
    for lam, mu, i in cases:
        got = assert_string_top_matches_weight_space_walk(lam, mu, i)
        assert isinstance(got, tuple), (lam, mu, i)


def test_deep_string_tops_match_the_level_one_orbit():
    # W.L0 = {L0 + m alpha_1 - m^2 delta} at n = 2, so L0 - N delta + k alpha_1 is a weight exactly
    # when k^2 <= N: the 1-string through L0 - N delta tops out at k = isqrt(N)
    L0 = fundamental_weight(2, 0)
    d = delta_weight(2)
    for N in [*range(401), 10**6, 10**8]:
        assert string_top(L0, L0 - d.scale(N), 1) == 2 * isqrt(N), N


def test_rank_one_restriction_counts_crystal_string_heads():
    # m(mu) - m(mu + alpha_i) = dim of the sl(2)_i highest weight space at mu when <mu, h_i> >= 0,
    # and in the crystal those vectors are the states of weight mu with epsilon_i = 0
    points = nonzero = 0
    for n in (2, 3, 4):
        L0 = fundamental_weight(n, 0)
        heads: dict = {}
        for st in crystal_component(n, 4):
            w = st.weight()
            for i in range(n):
                if epsilon(st, i) == 0:
                    heads[w, i] = heads.get((w, i), 0) + 1
        for c in cone_points(n, 4):
            mu = lower_weight(L0, c)
            for i in range(n):
                if coroot_pairing(mu, i) < 0:
                    continue
                diff = freudenthal_mult(L0, mu) - freudenthal_mult(L0, mu + simple_root(n, i))
                assert diff == heads.get((mu, i), 0), (mu, i)
                points += 1
                nonzero += diff != 0
    assert (points, nonzero) == (272, 54)


def test_fock_weight_count_examples():
    L0 = fundamental_weight(2, 0)
    assert fock_weight_count(2, L0) == 1
    assert fock_weight_count(1, AffineWeight(1, 1, (0,), Fraction(-4))) == 5
    d = delta_weight(2)
    assert fock_weight_count(2, L0 - d) == freudenthal_mult(L0, L0 - d) + partition_count(1)
    with pytest.raises(ValueError):
        fock_weight_count(2, weight_from_marks(2, [1, 1]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fock_weight_count_matches_the_brute_force_count(n):
    lam = fundamental_weight(n, 0)
    for coeffs in cone_points(n, 5):
        mu = lower_weight(lam, coeffs)
        brute = sum(st.weight() == mu for st in states_of_energy(n, sum(coeffs)))
        assert fock_weight_count(n, mu) == brute, coeffs
    # off the root lattice (charge, half-integral delta) and above L0 nothing is counted
    off = [lam + simple_root(n, 1), lam + delta_weight(n), lower_weight(lam, (1, -1) + (0,) * (n - 2)),
           AffineWeight(n, 1, (1,) + (0,) * (n - 1)), AffineWeight(n, 1, (0,) * n, Fraction(-1, 2))]
    assert [fock_weight_count(n, mu) for mu in off] == [0] * len(off)


def test_char_factorization_reports():
    assert char_factorization_check(2, 0)[0][1]
    for n, depth in ((2, 3), (3, 2)):
        rows = char_factorization_check(n, depth)
        assert all(ok for _, ok, _ in rows), [row for row in rows if not row[1]]


def test_delta_convolution_counts_two_coloured_partitions_at_n_2():
    # m(L0 - k delta) = p(k) at n = 2, so the convolution at (k, k) counts pairs of partitions of total size k
    lam = fundamental_weight(2, 0)
    assert [delta_convolution(lam, lower_weight(lam, (k, k)), k) for k in range(6)] == [1, 2, 5, 10, 20, 36]
    # top = 0 keeps the one term j = 0, and top = -1 none
    mu = lower_weight(lam, (3, 1))
    assert delta_convolution(lam, mu, 0) == freudenthal_mult(lam, mu) and delta_convolution(lam, mu, -1) == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FockState(2, (0, 0)), "flip positions must be distinct"),
        (lambda: chevalley_apply("x", 0, FockState(2, ())), "op must be one of 'e', 'f', 'h'"),
        (lambda: crystal_op("h", FockState(2, ()), 0), "op must be 'e' or 'f'"),
        (lambda: fock_weight_count(3, fundamental_weight(2, 0)), "rank mismatch"),
    ],
    ids=["repeated-flip", "chevalley-op", "crystal-op", "count-rank"],
)
def test_a_domain_error_names_its_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _imports(name):
    """Module, then imported names, of every import in one source file of the package.

    A relative module keeps its leading dots; `import a, b` counts as two imports.
    """
    tree = ast.parse((Path(bowforge.__file__).parent / name).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield ["." * node.level + (node.module or "")] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            yield from ([a.name] for a in node.names)


def test_combinatorial_modules_never_import_the_oracle():
    # the combinatorial half must stay independent of the oracle it is checked against, and back
    for name in ("weights.py", "young.py", "bow.py", "maya.py"):
        for names in _imports(name):
            assert not any("fock" in n.split(".") for n in names), f"{name} imports {names}"
    others = {"young", "bow", "maya", "acceptance", "cli"}
    for names in _imports("fock.py"):
        assert not any(others & set(n.split(".")) for n in names), f"fock.py imports {names}"


def test_only_the_cli_knows_the_json_records():
    # every record reader and writer lives in cli.py; the library modules compute and validate only
    def record_code(names):
        return {n for n in names if n == "json_record" or n.endswith(("_to_json", "_from_json"))}

    defined = {}
    for path in Path(bowforge.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if found := record_code(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
            defined[path.name] = found
        for module, *names in _imports(path.name):
            assert not record_code(names), f"{path.name} imports {record_code(names)} from {module}"
    records = ("weight", "gyd", "bow", "separated")
    assert defined == {
        "cli.py": {"json_record", "_fraction_to_json", "maya_to_json"}
        | {f"{r}_{way}_json" for r in records for way in ("to", "from")}
    }


# public names no library or benchmark code calls, each kept on purpose
CALLED_ONLY_BY_TESTS = {
    "fock.phi",  # phi_i of the crystal, epsilon's partner, which a tensor product rule reads
    "bow.SeparatedForm.realize",  # the separated form's inverse, the diagram its data names
    "weights.delta_weight",  # the imaginary root delta, defined beside simple_root
}


def test_every_public_library_name_has_a_caller():
    # a public function or method must be named somewhere in the package or in bench/;
    # code only the tests run belongs in the tests
    package = Path(bowforge.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    defined, named = {}, set()
    for path in [*package.glob("*.py"), *bench.rglob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == package:
            for top in tree.body:
                for f in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                        owner = "" if f is top else f"{top.name}."
                        defined[f"{path.stem}.{owner}{f.name}"] = f.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert bench.is_dir() and defined
    uncalled = {q for q, name in defined.items() if name not in named}
    assert uncalled == CALLED_ONLY_BY_TESTS, (
        f"called only by tests: {sorted(uncalled - CALLED_ONLY_BY_TESTS)};"
        f" listed above but now called: {sorted(CALLED_ONLY_BY_TESTS - uncalled)}"
    )


@pytest.mark.parametrize(
    "module, loads",
    [
        ("weights", {"weights"}),
        ("young", {"weights", "young"}),
        ("bow", {"weights", "young", "bow"}),
        ("maya", {"weights", "young", "maya"}),
        ("fock", {"weights", "fock"}),
    ],
)
def test_importing_one_half_never_loads_the_other(module, loads):
    # the same rule at runtime, in a fresh interpreter per module: the package itself loads nothing
    env = dict(os.environ, PYTHONPATH=str(Path(bowforge.__file__).parent.parent))
    code = f"import sys, bowforge.{module}; print(*sorted(m for m in sys.modules if m.startswith('bowforge.')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) == {f"bowforge.{name}" for name in loads}


def test_the_package_imports_the_standard_library_only():
    # runtime dependencies are stdlib only: every absolute import names a standard-library module
    for path in Path(bowforge.__file__).parent.glob("*.py"):
        for module, *_ in _imports(path.name):
            if not module.startswith("."):
                assert module.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {module}"
