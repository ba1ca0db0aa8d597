import copy
import pickle
import random
import re
from itertools import product

import pytest

from bowforge.acceptance import _ac4_grid
from bowforge.bow import balanced_form, separated_form
from bowforge.cli import maya_to_json
from bowforge.fock import cone_points, freudenthal_mult, partition_count
from bowforge.maya import (
    FixedPointQuery,
    MayaDiagram,
    _charge_matrices,
    deformed_fixed_points,
    enumerate_fixed_points,
    t_fixed_point_exists,
    unwind_to_a_infinity,
)
from bowforge.weights import (
    AffineWeight,
    delta_weight,
    fundamental_weight,
    lower_weight,
    simple_root,
    weight_from_marks,
)


def test_stats_examples(maya_stats):
    assert maya_stats(MayaDiagram(2, 1, ((), ()))) == maya_stats(MayaDiagram(2, 1, ((), ())))
    vac = maya_stats(MayaDiagram(3, 2, ((), (), ())))
    assert vac == FixedPointQuery(3, 2, (0, 0, 0), (0, 0), 0)
    one = maya_stats(MayaDiagram(2, 1, ((-1, 0), ())))
    assert one.row_charges == (0, 0) and one.v0 == 1
    hilb = maya_stats(MayaDiagram(1, 1, ((-1, 0),)))
    assert hilb.v0 == 1


def test_stats_particle_winding(maya_stats):
    # a particle pushed past the first block contributes its winding to v0
    st = maya_stats(MayaDiagram(1, 1, ((-1, 1),)))
    assert st.v0 == 2
    st2 = maya_stats(MayaDiagram(1, 2, ((-1, 3),)))
    assert st2.v0 == 2  # hole depth 1, particle winding 1


def test_enumerate_vacuum_only():
    L0 = fundamental_weight(2, 0)
    res = enumerate_fixed_points(FixedPointQuery.from_weights(L0, L0))
    assert [m.rows for m in res.diagrams] == [((), ())]


def test_enumerate_partition_counts(maya_stats):
    for v in range(7):
        q = FixedPointQuery(1, 1, (0,), (0,), v)
        res = enumerate_fixed_points(q)
        assert len(res.diagrams) == partition_count(v)
        for m in res.diagrams:
            assert maya_stats(m) == q


def test_enumerate_convolution_identity():
    L0 = fundamental_weight(2, 0)
    d = delta_weight(2)
    for coeffs in cone_points(2, 4):
        mu = lower_weight(L0, coeffs)
        got = len(enumerate_fixed_points(FixedPointQuery.from_weights(L0, mu)).diagrams)
        want, j = 0, 0
        while all(c - j >= 0 for c in coeffs):
            want += partition_count(j) * freudenthal_mult(L0, mu + d.scale(j))
            j += 1
        assert got == want, (coeffs, got, want)


def test_enumerate_convolution_identity_rank_three():
    lam = fundamental_weight(3, 0)
    d = delta_weight(3)
    for coeffs in cone_points(3, 2):
        mu = lower_weight(lam, coeffs)
        got = len(enumerate_fixed_points(FixedPointQuery.from_weights(lam, mu)).diagrams)
        want, j = 0, 0
        while all(c - j >= 0 for c in coeffs):
            want += partition_count(j) * freudenthal_mult(lam, mu + d.scale(j))
            j += 1
        assert got == want


def test_enumerate_weyl_symmetry_level_two(reflect):
    lam = weight_from_marks(2, [1, 1])
    for coeffs in cone_points(2, 3):
        mu = lower_weight(lam, coeffs)
        base = len(enumerate_fixed_points(FixedPointQuery.from_weights(lam, mu)).diagrams)
        for i in (0, 1):
            w = reflect(mu, i)
            if lam.delta - w.delta < 0:
                continue
            assert len(enumerate_fixed_points(FixedPointQuery.from_weights(lam, w)).diagrams) == base


def test_enumerated_diagrams_hit_targets_and_order(maya_stats):
    L0 = fundamental_weight(2, 0)
    mu = L0 - delta_weight(2).scale(2)
    q = FixedPointQuery.from_weights(L0, mu)
    res = enumerate_fixed_points(q)
    rows = [m.rows for m in res.diagrams]
    assert rows == sorted(rows)
    for m in res.diagrams:
        assert maya_stats(m) == q


def test_enumerate_weyl_symmetry_of_counts(reflect):
    L0 = fundamental_weight(2, 0)
    rng = random.Random(5)
    for coeffs in cone_points(2, 3):
        mu = lower_weight(L0, coeffs)
        base = len(enumerate_fixed_points(FixedPointQuery.from_weights(L0, mu)).diagrams)
        w = mu
        for _ in range(3):
            w = reflect(w, rng.randrange(2))
            if L0.delta - w.delta < 0:
                continue
            count = len(enumerate_fixed_points(FixedPointQuery.from_weights(L0, w)).diagrams)
            assert count == base


def test_enumerate_bound_and_completeness():
    # v0 alone bounds every flip: holes lie in [-v0*l, 0) and particles in [0, (v0+1)*l)
    for n, l, v0 in ((1, 1, 4), (2, 2, 3), (1, 3, 3)):
        q = FixedPointQuery(n, l, (0,) * n, (0,) * l, v0)
        for m in enumerate_fixed_points(q).diagrams:
            assert all(-v0 * l <= t < (v0 + 1) * l for row in m.rows for t in row)
    assert len(enumerate_fixed_points(FixedPointQuery(1, 1, (0,), (0,), 4)).diagrams) == 5


def _multipartition_counts(colours, top):
    """Coefficients up to q^top of prod_m (1 - q^m)^-colours, by coin change with coloured parts."""
    ways = [1] + [0] * top
    for part in range(1, top + 1):
        for _ in range(colours):
            for s in range(part, top + 1):
                ways[s] += ways[s - part]
    return ways


def _fixed_point_count(q):
    """Sum over charge matrices c with the query's margins of p_{nl}(v0 - sum_ij c_ij(c_ij - 1)/2)."""
    p = _multipartition_counts(q.n * q.l, q.v0)
    rows = [
        (row, sum(c * (c - 1) // 2 for c in row))
        for row in product(range(-q.v0, q.v0 + 2), repeat=q.l)
    ]
    # (column sums so far, energy so far) -> number of partial matrices, built row by row
    states = {((0,) * q.l, 0): 1}
    for charge in q.row_charges:
        grown = {}
        for row, e in rows:
            if sum(row) != charge:
                continue
            for (cols, used), ways in states.items():
                if used + e <= q.v0:
                    key = (tuple(a + c for a, c in zip(cols, row)), used + e)
                    grown[key] = grown.get(key, 0) + ways
        states = grown
    return sum(ways * p[q.v0 - used] for (cols, used), ways in states.items() if cols == q.column_stats)


def test_enumeration_matches_charge_matrix_count(assert_matches_cellwise_enumeration, maya_stats):
    # every dominant lam of each shape, mu = lam - sum c_a alpha_a with every c_a <= depth
    shapes = ((2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
    total = 0
    for n, l in shapes:
        depth = 3 if n * l <= 6 else 2
        for marks in product(range(l + 1), repeat=n):
            if sum(marks) != l:
                continue
            lam = weight_from_marks(n, list(marks))
            for coeffs in product(range(depth + 1), repeat=n):
                q = FixedPointQuery.from_weights(lam, lower_weight(lam, coeffs))
                diagrams = assert_matches_cellwise_enumeration(q)
                assert len(diagrams) == _fixed_point_count(q), (marks, coeffs)
                for m in diagrams:
                    assert maya_stats(m) == q
                total += len(diagrams)
    assert total == 11647


def test_raw_targets_of_any_sign_match_the_cellwise_enumeration(assert_matches_cellwise_enumeration):
    raw = (
        FixedPointQuery(3, 2, (1, -2, 1), (2, -2), 4),
        FixedPointQuery(2, 3, (-3, 1), (0, -1, -1), 5),
        FixedPointQuery(2, 2, (2, -1), (-1, 2), 4),
        FixedPointQuery(2, 3, (-1, 1), (2, -1, -1), 5),
        FixedPointQuery(3, 3, (2, -2, -1), (1, -2, 0), 4),
        FixedPointQuery(3, 1, (-2, 0, -1), (-3,), 6),
        FixedPointQuery(1, 3, (-2,), (0, -2, 0), 6),
        FixedPointQuery(2, 2, (-2, -2), (-1, -3), 6),
        FixedPointQuery(1, 1, (0,), (0,), 8),
    )
    assert [len(assert_matches_cellwise_enumeration(q)) for q in raw] == [8, 41, 18, 166, 13, 9, 22, 8, 22]


def test_extremal_weight_with_no_slack_enumerates_at_once():
    # mu = (10, -10), delta -100 lies in the Weyl orbit of Lambda_0: its only charge
    # matrix spends the whole budget (45 + 55 = 100), so no partition of size > 0 is needed
    (m,) = enumerate_fixed_points(FixedPointQuery(2, 1, (10, -10), (0,), 100)).diagrams
    assert m.rows == (tuple(range(10)), tuple(range(-10, 0)))
    assert enumerate_fixed_points(FixedPointQuery(2, 1, (12, -12), (0,), 70)).diagrams == ()


@pytest.mark.parametrize("l", [64, 128])
def test_zero_margins_at_no_energy_give_the_vacuum_alone(l):
    # every free cell could be 0 or 1 by its own energy; the column bound keeps only 0
    (m,) = enumerate_fixed_points(FixedPointQuery(2, l, (0, 0), (0,) * l, 0)).diagrams
    assert m == MayaDiagram(2, l, ((), ()))


def test_free_cells_that_cannot_meet_their_row_sum_are_cut_at_once():
    # row 1 adds up to 0 over m columns that want 0 or 1 and m that want 0: all zero, or
    # one 1 paid for by one -1 at energy 1, so m^2 + 1 matrices among 2^m prefixes of 0s and 1s
    m = 32
    assert len(_charge_matrices((0, m), (1,) * m + (0,) * m, 1)) == m * m + 1


def test_margins_whose_rows_alone_exceed_the_budget_are_refused_at_once():
    # the columns cost nothing, but a row of -3 over 32 cells costs at least 3 > 2; without
    # the row bound every 0/1 first row with sum 16 passes the column bound
    assert _charge_matrices((16, -3, 19), (1,) * 32, 2) == []


def test_diagram_constructor_stays_strict():
    for n, l, rows in (
        (2, 1, ((0,),)),  # row count
        (1, 1, ((0, 0),)),  # repeated flip
        (1, 1, ((True,),)),
        (0, 1, ()),
        (1, 0, ((),)),
        (1.0, 1, ((),)),
        (1, 1, (3,)),
    ):
        with pytest.raises(ValueError):
            MayaDiagram(n, l, rows)
    assert MayaDiagram(1, 2, ([3, -1],)).rows == ((-1, 3),)
    # enumerated diagrams skip the checks but are the same slotted, immutable values
    for m in enumerate_fixed_points(FixedPointQuery(2, 2, (1, -1), (0, 0), 2)).diagrams:
        with pytest.raises(AttributeError):
            m.rows = ()
        assert not hasattr(m, "__dict__")
        assert m == MayaDiagram(m.n, m.l, m.rows) and hash(m) == hash(MayaDiagram(m.n, m.l, m.rows))
        assert pickle.loads(pickle.dumps(m)) == m and copy.deepcopy(m) == m
    # no named-tuple helper builds a diagram around the checks
    assert not hasattr(MayaDiagram, "_make") and not hasattr(MayaDiagram, "_replace")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_a_diagram_runs_the_constructor_checks(protocol):
    m = MayaDiagram(2, 1, [(0, -1), ()])
    for clone in (pickle.loads(pickle.dumps(m, protocol)), copy.copy(m), copy.deepcopy(m)):
        assert type(clone) is MayaDiagram and clone == m and repr(clone) == repr(m)
    # the stand-in writes the diagram's own bytes, so with a float flip it is that pickle altered
    assert pickle.dumps(_Pickled((MayaDiagram, (2, 1, ((-1, 0), ())))), protocol) == pickle.dumps(m, protocol)
    forged = pickle.dumps(_Pickled((MayaDiagram, (2, 1, ((-1, 0.5), ())))), protocol)
    with pytest.raises(ValueError, match="flip positions must be integers, got 0.5"):
        pickle.loads(forged)


def test_a_forged_protocol_0_pickle_is_refused():
    # the text protocol lets a payload swap an int for a float in place
    payload = pickle.dumps(MayaDiagram(1, 1, [(0, -1)]), 0)
    assert b"I0\n" in payload
    with pytest.raises(ValueError, match="flip positions must be integers, got 0.5"):
        pickle.loads(payload.replace(b"I0\n", b"F0.5\n"))


class _Pickled:
    """Pickles as the given reduce value, so a diagram's pickle can be written with other arguments."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


def test_query_validation():
    with pytest.raises(ValueError):
        FixedPointQuery(2, 1, (1, 0), (0,), 0)  # totals differ
    with pytest.raises(ValueError):
        FixedPointQuery(2, 1, (0, 0), (0,), -1)
    L0 = fundamental_weight(2, 0)
    with pytest.raises(ValueError):
        FixedPointQuery.from_weights(L0, L0 + delta_weight(2))  # negative v0
    with pytest.raises(ValueError):
        FixedPointQuery.from_weights(L0, AffineWeight(2, 1, (1, 0)))  # charge


@pytest.mark.parametrize("check", [FixedPointQuery.from_weights, t_fixed_point_exists], ids=["query", "exists"])
@pytest.mark.parametrize(
    "lam, mu, message",
    [
        (fundamental_weight(2, 0), fundamental_weight(3, 0), "rank/level mismatch"),
        (AffineWeight(2, 0, (0, 0)), AffineWeight(2, 0, (0, 0)), "queries need level >= 1"),
        (fundamental_weight(2, 0) - simple_root(2, 0), fundamental_weight(2, 0), "first weight must be dominant"),
    ],
    ids=["rank-mismatch", "level-zero", "not-dominant"],
)
def test_a_bad_weight_pair_is_refused_alike_by_query_and_existence(check, lam, mu, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check(lam, mu)


def test_exists_examples():
    L0 = fundamental_weight(2, 0)
    assert t_fixed_point_exists(L0, L0)
    assert t_fixed_point_exists(L0, L0 - simple_root(2, 0))
    assert not t_fixed_point_exists(L0, L0 - simple_root(2, 1))


def test_exists_matches_multiplicity_grid():
    for n in (2, 3):
        lam = fundamental_weight(n, 0)
        for coeffs in cone_points(n, 3):
            mu = lower_weight(lam, coeffs)
            assert t_fixed_point_exists(lam, mu) == (freudenthal_mult(lam, mu) > 0)


def test_a_pair_shifted_together_keeps_its_fixed_points():
    # AC-4's grid with lam and mu shifted by the same s * (1, ..., 1), which changes no
    # multiplicity: the enumeration reads every pair in that standard reading, so it finds a
    # fixed point exactly when one exists, and at least as many as the oracle's multiplicity
    checked = 0
    for lam, mu in _ac4_grid():
        for s in range(-2, 3):
            ones = AffineWeight(lam.n, 0, (s,) * lam.n)
            lam_s, mu_s = lam + ones, mu + ones
            count = len(enumerate_fixed_points(FixedPointQuery.from_weights(lam_s, mu_s)).diagrams)
            mult = freudenthal_mult(lam_s, mu_s)
            assert (count > 0) == t_fixed_point_exists(lam_s, mu_s) and count >= mult, (lam_s, mu_s, count, mult)
            checked += 1
    assert checked == 1950


def test_a2_fixture():
    lam = fundamental_weight(3, 1)
    got = {
        (v1, v2)
        for v1 in range(3)
        for v2 in range(3)
        if t_fixed_point_exists(lam, lam - simple_root(3, 1).scale(v1) - simple_root(3, 2).scale(v2))
    }
    assert got == {(0, 0), (1, 0), (1, 1)}


def test_deformed_examples():
    L0 = fundamental_weight(2, 0)
    two = weight_from_marks(2, [2, 0])
    pts = deformed_fixed_points(L0, L0, two)
    assert len(pts) == 1 and pts[0][:2] == (L0, L0)
    pts = deformed_fixed_points(L0, L0, two - simple_root(2, 0))
    assert len(pts) == 2
    assert {v1 for _, _, v1, _ in pts} == {(0, 0), (1, 0)}
    assert deformed_fixed_points(L0, L0, two - simple_root(2, 1)) == ()


def test_deformed_points_carry_tensor_multiplicity():
    # summing mult products over the found splittings must reproduce the
    # tensor weight multiplicity, here computed by convolving the two
    # multiplicity tables over their full depth-bounded supports
    L0 = fundamental_weight(2, 0)
    depth = 3
    support = {}
    for coeffs in cone_points(2, depth):
        mu = lower_weight(L0, coeffs)
        m = freudenthal_mult(L0, mu)
        if m:
            support[coeffs] = (mu, m)
    for coeffs in cone_points(2, depth):
        target = lower_weight(L0, coeffs) + L0
        via_points = sum(
            freudenthal_mult(L0, mu1) * freudenthal_mult(L0, mu2)
            for mu1, mu2, _, _ in deformed_fixed_points(L0, L0, target)
        )
        via_tables = 0
        for c1, (mu1, m1) in support.items():
            c2 = tuple(t - a for t, a in zip(coeffs, c1))
            if c2 in support:
                via_tables += m1 * support[c2][1]
        assert via_points == via_tables


def test_deformed_delta_splitting():
    L0 = fundamental_weight(2, 0)
    two = weight_from_marks(2, [2, 0])
    pts = deformed_fixed_points(L0, L0, two - delta_weight(2))
    for mu1, mu2, _, _ in pts:
        assert mu1 + mu2 == two - delta_weight(2)
        assert t_fixed_point_exists(L0, mu1) and t_fixed_point_exists(L0, mu2)
    # delta can sit on either factor
    assert len(pts) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda lam, l1: FixedPointQuery.from_weights(lam, lam),
        lambda lam, l1: t_fixed_point_exists(lam, AffineWeight(2, 0, (0, 0), -3)),
        lambda lam, l1: t_fixed_point_exists(lam, lam),
        lambda lam, l1: t_fixed_point_exists(AffineWeight(2, 0, (1, 0)), AffineWeight(2, 0, (1, 0))),
        lambda lam, l1: deformed_fixed_points(lam, l1, l1 - delta_weight(2)),
        lambda lam, l1: deformed_fixed_points(l1, lam, l1 - delta_weight(2)),
        lambda lam, l1: deformed_fixed_points(lam, l1, l1 + delta_weight(2)),
    ],
    ids=[
        "query", "exists", "exists-at-the-top", "exists-not-dominant", "deformed", "deformed-second", "deformed-off-cone"
    ],
)
def test_level_zero_is_refused_as_by_the_query(call):
    # V(0) has the single weight 0; existence answered true below it and the deformation found
    # points, or hid the error behind () off the cone, while the query refused the level
    zero, L0 = AffineWeight(2, 0, (0, 0)), fundamental_weight(2, 0)
    with pytest.raises(ValueError, match=re.escape("queries need level >= 1")):
        call(zero, L0)


def test_separated_form_is_the_fixed_point_query():
    # bow and maya read one dictionary: the separated data of the balanced diagram of (lam, mu),
    # with x_0's entry of mu read as row 1, are the query's targets
    points = 0
    for n, l in product((2, 3, 4), (1, 2, 3)):
        for marks in product(range(l + 1), repeat=n):
            if sum(marks) != l:
                continue
            lam = weight_from_marks(n, list(marks))
            for v in product(range(3), repeat=n):
                mu = lower_weight(lam, v)
                sf = separated_form(balanced_form(lam, mu))
                want = FixedPointQuery(sf.n, sf.l, (sf.mu[-1],) + sf.mu[:-1], sf.tlambda, sf.v0)
                assert FixedPointQuery.from_weights(lam, mu) == want, (marks, v)
                points += 1
    assert points == 3348


def test_unwind_examples():
    assert unwind_to_a_infinity(2, [(0, 0, 1), (1, 0, 1)]) == ((0, 1), (1, 1))
    assert unwind_to_a_infinity(2, []) == ()
    assert unwind_to_a_infinity(2, [(0, 0, 1), (1, -1, 1)]) == ((-1, 1), (0, 1))
    with pytest.raises(ValueError):
        unwind_to_a_infinity(2, [(0, 0, -1)])


@pytest.mark.parametrize("row", [[0, 0, 1, 5], [0, 0]], ids=["too-long", "too-short"])
def test_unwind_names_a_split_row_of_the_wrong_length(row):
    # these once answered "too many / not enough values to unpack"
    with pytest.raises(ValueError, match=re.escape(f"split row {row} must be [residue, winding, count]")):
        unwind_to_a_infinity(2, [[0, 0, 1], row])


def test_maya_json_round_trip():
    m = MayaDiagram(2, 3, ((-1, 0), (4,)))
    assert maya_to_json(m) == {"n": 2, "l": 3, "rows": [[-1, 0], [4]]}
    assert MayaDiagram(**maya_to_json(m)) == m


def test_diagram_rejects_float_flips():
    with pytest.raises(ValueError, match="flip positions must be integers"):
        MayaDiagram(1, 1, ((-1.5, 0.9),))
    with pytest.raises(ValueError):
        MayaDiagram(1, 1.0, ((),))


def test_query_rejects_non_integers():
    with pytest.raises(ValueError, match="row charges must be integers"):
        FixedPointQuery(1, 1, (0.6,), (0.4,), 2)
    with pytest.raises(ValueError):
        FixedPointQuery(1, 1, (0,), (0,), 2.0)
