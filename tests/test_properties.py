"""Property tests: the legal-move list against `hw_transition`, transition
invariance, involution, the balanced round trip,
the diagram transpose against its floor sum at scale, the oracle's alcove
reduction with and without a floor, the memo key's least image against all
2n images and its marks and gap against the coroot pairings and
`root_difference`, `to_dominant` against a reflection walk,
the top of an i-string against a walk in weight space, e_i and f_i as
adjoints on random Fock states, the energy-bounded charge matrices against
a brute-force list, and the fixed-point enumerator against its cell-wise
form, on targets read off a charge matrix and on raw margins, each example
meeting row lists other examples left in the process-wide memo.

Runs are derandomized and keep no example database, so every run draws the
same examples.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bowforge.bow import (
    BowDiagram,
    balanced_form,
    hw_transition,
    invariants,
    o_node,
    transitions,
    weights_of,
    x_node,
)
from bowforge.fock import (
    FockState,
    _cartan_times,
    _dominant_gap,
    _least_image,
    _marks_and_gap,
    chevalley_apply,
)
from bowforge.maya import (
    FixedPointQuery,
    _cell_list,
    _cell_options,
    _charge_matrices,
    _partitions,
    _row_list,
    enumerate_fixed_points,
)
from bowforge.weights import (
    AffineWeight,
    coroot_pairing,
    lower_weight,
    root_difference,
    simple_root,
    to_dominant,
    weight_from_marks,
)
from bowforge.young import GYDiagram, gyd_transpose

deterministic = settings(derandomize=True, database=None)


@st.composite
def diagrams(draw):
    """A circle with x_0 anywhere and random nu_star labels."""
    kinds = draw(st.permutations(["x"] * draw(st.integers(1, 4)) + ["o"] * draw(st.integers(1, 4))))
    lead = kinds.index("x")
    kinds = kinds[lead:] + kinds[:lead]
    nodes, xi = [], 0
    for sym, kind in enumerate(kinds, 1):
        if kind == "x":
            nodes.append(x_node(xi))
            xi += 1
        else:
            nodes.append(o_node(sym, draw(st.integers(-2, 2))))
    dims = draw(st.lists(st.integers(0, 6), min_size=len(kinds), max_size=len(kinds)))
    turn = draw(st.integers(0, len(nodes) - 1))
    return BowDiagram("circle", tuple(nodes[turn:] + nodes[:turn]), tuple(dims[turn:] + dims[:turn]))


@st.composite
def admissible_transitions(draw):
    """A diagram and a segment where a transition keeps every dimension >= 0."""
    d = draw(diagrams())
    pos = transitions(d)
    assume(pos)
    return d, draw(st.sampled_from(pos))


def _is_legal(d, pos):
    try:
        hw_transition(d, pos)
    except ValueError:
        return False
    return True


@deterministic
@given(diagrams())
def test_transitions_are_the_segments_where_a_transition_does_not_raise(d):
    assert transitions(d) == [pos for pos in range(len(d.nodes)) if _is_legal(d, pos)]


@deterministic
@given(admissible_transitions())
def test_invariant_part_is_unchanged_by_any_admissible_transition(case):
    d, pos = case
    assert invariants(hw_transition(d, pos)).invariant_part() == invariants(d).invariant_part()


@deterministic
@given(admissible_transitions())
def test_transition_is_an_involution_at_a_fixed_segment(case):
    d, pos = case
    back = hw_transition(hw_transition(d, pos), pos)
    assert (back.shape, back.nodes, back.dims) == (d.shape, d.nodes, d.dims)


@st.composite
def weight_pairs(draw):
    """A dominant charge-normalized lam and mu = lam minus a nonnegative root sum."""
    n = draw(st.integers(2, 4))
    level = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, level), min_size=n - 1, max_size=n - 1)))
    marks = [b - a for a, b in zip([0] + cuts, cuts + [level])]
    lam = weight_from_marks(n, marks)
    mu = lam
    for a, c in enumerate(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))):
        mu = mu - simple_root(n, a).scale(c)
    return lam, mu


@deterministic
@given(weight_pairs())
def test_weights_of_balanced_form_round_trips(pair):
    lam, mu = pair
    d = balanced_form(lam, mu)
    assert d.is_balanced()
    assert weights_of(d) == (lam, mu)


@st.composite
def wide_diagrams(draw):
    """Rank and level 1..60 and entries within the level constraint below a top entry in +-10^9."""
    rank, level = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    top = draw(st.integers(-(10**9), 10**9))
    rest = draw(st.lists(st.integers(top - level, top), min_size=rank - 1, max_size=rank - 1))
    return GYDiagram(rank, level, (top, *sorted(rest, reverse=True)))


def _transpose_by_floor_sum(d):
    """Column x = 1..L of the transpose: sum_i (floor((a_i - x)/L) + 1), one term per (entry, column)."""
    return tuple(sum((a - x) // d.level + 1 for a in d.entries) for x in range(1, d.level + 1))


@deterministic
@given(wide_diagrams())
def test_transpose_matches_the_floor_sum_at_scale(d):
    t = gyd_transpose(d)
    assert (t.rank, t.level, t.entries) == (d.level, d.rank, _transpose_by_floor_sum(d))
    assert gyd_transpose(t) == d
    assert sum(t.entries) == sum(d.entries)


@st.composite
def reductions(draw):
    """Marks of positive level and a gap with entries -2..30, at rank 2-7."""
    n = draw(st.integers(2, 7))
    marks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    gap = draw(st.lists(st.integers(-2, 30), min_size=n, max_size=n))
    return tuple(marks), tuple(gap)


def _naive_dominant_gap(marks, gap):
    """Reflect at the first node where mu is not dominant, recomputing A c after every step."""
    c = list(gap)
    while min(c) >= 0:
        ac = _cartan_times(c)
        bad = [i for i in range(len(c)) if marks[i] < ac[i]]
        if not bad:
            return tuple(c)
        c[bad[0]] += marks[bad[0]] - ac[bad[0]]
    return None


@deterministic
@given(reductions())
def test_incremental_reduction_matches_a_naive_reflection_loop(case):
    marks, gap = case
    assert _dominant_gap(marks, gap, _cartan_times(gap)) == _naive_dominant_gap(marks, gap)


@deterministic
@given(reductions(), st.integers(0, 12))
def test_reduction_with_a_floor_is_none_exactly_below_it(case, floor):
    # entries only shrink on the way to the alcove, so stopping at the first one below the floor is exact
    marks, gap = case
    want = _naive_dominant_gap(marks, gap)
    if want is not None and min(want) < floor:
        want = None
    assert _dominant_gap(marks, gap, _cartan_times(gap), floor) == want


@st.composite
def strings(draw):
    """A dominant lam, mu = lam minus root coefficients from -1 to 5, and an index."""
    lam, _ = draw(weight_pairs())
    n = lam.n
    mu = lower_weight(lam, draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n)))
    return lam, mu, draw(st.integers(0, n - 1))


@settings(derandomize=True, database=None, deadline=None)
@given(strings())
def test_string_top_matches_a_weight_space_walk(assert_string_top_matches_weight_space_walk, case):
    assert_string_top_matches_weight_space_walk(*case)


@st.composite
def fock_states(draw):
    """A charge-0 Fock state at rank 2..5: up to 5 particles in 0..15 and as many holes in -15..-1."""
    particles = draw(st.sets(st.integers(0, 15), max_size=5))
    holes = draw(st.sets(st.integers(-15, -1), min_size=len(particles), max_size=len(particles)))
    return FockState(draw(st.integers(2, 5)), (*particles, *holes))


@deterministic
@given(fock_states())
def test_e_and_f_are_adjoint_on_the_basis(s):
    # t is in f_i(s) exactly when s is in e_i(t): each image of s is read back through the other operator
    for i in range(s.n):
        f, e = chevalley_apply("f", i, s), chevalley_apply("e", i, s)
        assert set(f.values()) <= {1} and set(e.values()) <= {1}
        assert all(s in chevalley_apply("e", i, t) for t in f)
        assert all(s in chevalley_apply("f", i, t) for t in e)


@st.composite
def affine_weights(draw):
    """A weight of positive level with any profile and a fractional delta coefficient."""
    n = draw(st.integers(1, 5))
    profile = draw(st.lists(st.integers(-15, 15), min_size=n, max_size=n))
    delta = draw(st.fractions(min_value=-20, max_value=20, max_denominator=4))
    return AffineWeight(n, draw(st.integers(1, 4)), tuple(profile), delta)


@deterministic
@given(affine_weights())
def test_to_dominant_is_idempotent(mu):
    dominant = to_dominant(mu)
    assert dominant.is_dominant()
    assert to_dominant(dominant) == dominant


def _walk_to_alcove(mu, reflect):
    """Reflect at the first node with a negative pairing until none is left."""
    while True:
        bad = [i for i in range(mu.n) if coroot_pairing(mu, i) < 0]
        if not bad:
            return mu
        mu = reflect(mu, bad[0])


@deterministic
@given(affine_weights())
def test_to_dominant_matches_a_reflection_walk(reflect, mu):
    assert to_dominant(mu) == _walk_to_alcove(mu, reflect)


@deterministic
@given(affine_weights())
def test_to_dominant_is_constant_on_reflections(reflect, mu):
    assume(mu.n >= 2)  # simple reflections need rank >= 2
    dominant = to_dominant(mu)
    for i in range(mu.n):
        assert to_dominant(reflect(mu, i)) == dominant


@st.composite
def cycle_keys(draw):
    """Marks from 0..2 and a gap from 0..3 at rank 2-7, so equal marks, palindromes and equal gap images occur."""
    n = draw(st.integers(2, 7))
    marks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    gap = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return tuple(marks), tuple(gap)


@deterministic
@given(cycle_keys())
def test_least_image_is_the_least_of_all_2n_images(case):
    marks, gap = case
    images = [
        (m[r:] + m[:r], g[r:] + g[:r]) for m, g in ((marks, gap), (marks[::-1], gap[::-1])) for r in range(len(marks))
    ]
    assert _least_image(marks, gap) == min(images)


@st.composite
def lattice_pairs(draw):
    """A dominant lam of rank 2-5 with a fractional delta, and mu = lam - sum c_i alpha_i.

    mu is then moved off the root lattice, at times, by a charge or a delta shift.
    """
    lam = to_dominant(draw(affine_weights().filter(lambda w: w.n >= 2)))
    mu = lower_weight(lam, draw(st.lists(st.integers(-6, 6), min_size=lam.n, max_size=lam.n)))
    charge = draw(st.integers(-1, 1))
    shift = draw(st.sampled_from((0, 0, Fraction(1, 2), Fraction(-2, 3))))
    return lam, AffineWeight(lam.n, lam.level, mu.profile[:-1] + (mu.profile[-1] + charge,), mu.delta + shift)


def _marks_and_gap_by_pairings(lam, mu):
    """The marks pairing by pairing and the gap from `root_difference`; None where that raises."""
    try:
        gap = root_difference(lam, mu).coeffs
    except ValueError:
        return None
    return tuple(coroot_pairing(lam, i) for i in range(lam.n)), gap


@deterministic
@given(lattice_pairs())
def test_marks_and_gap_read_off_the_profiles_match_the_pairings(pair):
    assert _marks_and_gap(*pair) == _marks_and_gap_by_pairings(*pair)


@st.composite
def fixed_point_queries(draw):
    """Targets of any sign read off a charge matrix with n*l <= 6, and v0 up to 3 above its energy.

    Cells lie in -1..2, where c(c-1)/2 <= 1, so v0 <= 9 and every query has a fixed point.
    """
    n = draw(st.integers(1, 3))
    l = draw(st.integers(1, 6 // n))
    cells = draw(st.lists(st.integers(-1, 2), min_size=n * l, max_size=n * l))
    rows = tuple(sum(cells[i * l : i * l + l]) for i in range(n))
    cols = tuple(sum(cells[j::l]) for j in range(l))
    v0 = sum(c * (c - 1) // 2 for c in cells) + draw(st.integers(0, 3))
    return FixedPointQuery(n, l, rows, cols, v0)


@settings(derandomize=True, database=None, deadline=None)
@given(fixed_point_queries())
def test_row_products_match_the_cellwise_enumeration(assert_matches_cellwise_enumeration, q):
    assert_matches_cellwise_enumeration(q)


@st.composite
def margins(draw, most, bound):
    """(row sums, column sums) with n, l <= most, entries in -bound..bound and equal totals."""
    n, l = draw(st.integers(1, most)), draw(st.integers(1, most))
    rows = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    left = sum(rows)
    assume(abs(left) <= bound * l)
    cols = []
    for j in range(l - 1, -1, -1):  # j columns follow this one; keep |left| <= bound * j
        c = draw(st.integers(max(-bound, left - bound * j), min(bound, left + bound * j)))
        cols.append(c)
        left -= c
    return tuple(rows), tuple(cols)


@settings(derandomize=True, database=None, deadline=None)
@given(margins(4, 3), st.integers(0, 6))
@example(((0, 0, 0, 0), (0, 0, 0, 0)), 6)  # the largest case: 5,449 matrices
def test_bounded_charge_matrices_match_the_brute_force_list(brute_force_matrices, sums, budget):
    got = _charge_matrices(*sums, budget)
    assert len(set(got)) == len(got)
    assert set(got) == set(brute_force_matrices(*sums, budget)), (sums, budget)


@st.composite
def raw_fixed_point_queries(draw):
    """Margins in -2..2 with equal totals, n*l <= 6 and v0 <= 4; many have no fixed point."""
    n = draw(st.integers(1, 3))
    l = draw(st.integers(1, 6 // n))
    rows = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    left = sum(rows)
    assume(abs(left) <= 2 * l)
    cols = []
    for j in range(l - 1, -1, -1):  # j columns follow this one; keep |left| <= 2j
        c = draw(st.integers(max(-2, left - 2 * j), min(2, left + 2 * j)))
        cols.append(c)
        left -= c
    return FixedPointQuery(n, l, tuple(rows), tuple(cols), draw(st.integers(0, 4)))


@settings(derandomize=True, database=None, deadline=None)
@given(raw_fixed_point_queries())
def test_shared_row_lists_match_the_cellwise_enumeration(assert_matches_cellwise_enumeration, q):
    assert_matches_cellwise_enumeration(q)


def test_enumeration_does_not_depend_on_the_row_memo():
    q = FixedPointQuery(2, 3, (1, -1), (1, 0, -1), 4)
    warm = enumerate_fixed_points(q).diagrams
    assert warm and _row_list.cache_info().currsize > 0
    for memo in (_row_list, _cell_list, _partitions, _cell_options):
        memo.cache_clear()
    assert enumerate_fixed_points(q).diagrams == warm
