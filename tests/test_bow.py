import ast
import json
import random
from collections import deque
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import bowforge
from bowforge import cli
from bowforge.bow import (
    BowDiagram,
    SeparatedForm,
    balanced_form,
    hw_reachable_balanced,
    hw_transition,
    invariants,
    numbered_nodes,
    o_node,
    rotate_base,
    separated_form,
    transitions,
    weights_of,
    x_node,
)
from bowforge.cli import bow_from_json, bow_to_json
from bowforge.weights import delta_weight, fundamental_weight, simple_root, weight_from_marks


def three_node_fixture():
    # balanced diagram for n=2, l=1, w=(1,0), v=(1,1)
    L0 = fundamental_weight(2, 0)
    return balanced_form(L0, L0 - delta_weight(2))


def random_circle(rng, max_x=4, max_o=4, max_dim=6):
    n = rng.randint(1, max_x)
    l = rng.randint(0, max_o)
    kinds = ["x"] * n + ["o"] * l
    rng.shuffle(kinds)
    lead = kinds.index("x")
    kinds = kinds[lead:] + kinds[:lead]
    nodes, xi, sym = [], 0, 1
    for kind in kinds:
        if kind == "x":
            nodes.append(x_node(xi))
            xi += 1
        else:
            nodes.append(o_node(sym))
            sym += 1
    return BowDiagram("circle", tuple(nodes), tuple(rng.randint(0, max_dim) for _ in kinds))


def random_turned_circle(rng, **sizes):
    """A random circle with x_0 anywhere in the lists and random nu_star labels."""
    d = random_circle(rng, **sizes)
    nodes = [nd if nd[0] == "x" else o_node(nd[1], rng.randint(-2, 2)) for nd in d.nodes]
    turn = rng.randrange(len(nodes))
    return BowDiagram("circle", tuple(nodes[turn:] + nodes[:turn]), d.dims[turn:] + d.dims[:turn])


# -- invariants ----------------------------------------------------------


def test_invariants_balanced_fixture():
    n_h, n_x, _, _, quad_h, _ = _labelled(invariants(three_node_fixture()))
    assert all(v == 0 for _, v in n_h)
    assert all(v == 0 for _, v in n_x)
    assert quad_h == 4


def test_invariants_no_circles():
    d = BowDiagram("circle", (x_node(0), x_node(1)), (2, 3))
    _, _, pair_h, pair_x, _, _ = _labelled(invariants(d))
    assert sum(v for _, v in pair_x) == 0
    assert pair_h == ()


def _labelled(inv):
    """A flat record read as labelled families, in the layout of `_invariants_by_walking`."""
    circles, n = inv.circles, len(inv.n_x)
    return (
        tuple(sorted(zip(circles, inv.n_h))),
        tuple(enumerate(inv.n_x)),
        tuple(sorted(((s, circles[j - 1]), v) for j, (s, v) in enumerate(zip(circles, inv.pair_h)))),
        tuple(((i, (i + 1) % n), v) for i, v in enumerate(inv.pair_x)),
        inv.quad_h,
        inv.quad_x,
    )


def _invariants_by_walking(d):
    """The invariant families read off their definitions, one node at a time."""
    m, nodes, dims = len(d.nodes), d.nodes, d.dims

    def n_value(k):
        out_seg, in_seg = dims[k - 1], dims[k]
        return out_seg - in_seg if nodes[k][0] == "x" else in_seg - out_seg

    def next_same_kind(k):
        # walk anticlockwise to the next node of the same kind, counting the others
        passed, j = 0, k + 1
        while True:
            if j == m:
                j = 0
            if nodes[j][0] == nodes[k][0]:
                return j, passed
            passed += 1
            j += 1

    n_h, n_x, pair_h, pair_x = [], [], [], []
    quad_h = quad_x = 0
    for k in range(m):
        label, value = nodes[k][1], n_value(k)
        j, passed = next_same_kind(k)
        touching = dims[k - 1] + dims[k]
        if nodes[k][0] == "o":
            n_h.append((label, value))
            quad_h -= value * value
            quad_x += touching
            pair_h.append(((nodes[j][1], label), n_value(j) - value + passed))
        else:
            n_x.append((label, value))
            quad_x -= value * value
            quad_h += touching
            pair_x.append(((label, nodes[j][1]), value - n_value(j) + passed))
    return tuple(map(tuple, map(sorted, (n_h, n_x, pair_h, pair_x)))) + (quad_h, quad_x)


def _rotations(d):
    """`d` and every storage rotation of it: nodes and dims turned together."""
    return [BowDiagram("circle", d.nodes[t:] + d.nodes[:t], d.dims[t:] + d.dims[:t]) for t in range(len(d.nodes))]


def test_invariants_match_their_definitions():
    rng = random.Random(5)
    x0_at = set()
    for _ in range(400):
        d = random_turned_circle(rng)
        record = invariants(d)
        # the same diagram stored from every node: x_0 at every position
        for turned in _rotations(d):
            x0_at.add(turned.nodes.index(("x", 0)))
            inv = invariants(turned)
            assert inv == record
            assert _labelled(inv) == _invariants_by_walking(turned)
    assert set(range(8)) <= x0_at


def relabel_circles(rng, d):
    """`d` with circle symbols drawn without order from -50..49 and random nu_star labels."""
    syms = iter(rng.sample(range(-50, 50), d.num_o))
    nodes = tuple(nd if nd[0] == "x" else o_node(next(syms), rng.randint(-2, 2)) for nd in d.nodes)
    return BowDiagram("circle", nodes, d.dims)


def test_invariants_match_their_definitions_with_shuffled_symbols():
    # symbols out of node order: a record that kept the circles in node order would differ
    rng = random.Random(17)
    for _ in range(400):
        d = relabel_circles(rng, random_turned_circle(rng, max_x=12, max_o=12, max_dim=9))
        assert _labelled(invariants(d)) == _invariants_by_walking(d)


def test_invariant_part_agrees_with_the_labelled_links():
    # invariant_part() must compare equal exactly when the labelled link families and
    # quadratic sums agree: over every record met, the two keys are in bijection.  Each
    # walk also runs on a copy with two circle symbols swapped, whose links differ
    # only in their labels
    rng = random.Random(2903)
    pairs, walk_steps, passed = set(), 0, {"anticlockwise": 0, "clockwise": 0}
    swap_keeps_links = {True: 0, False: 0}
    for _ in range(300):
        d = relabel_circles(rng, random_turned_circle(rng, max_x=4, max_o=4, max_dim=3))
        starts = [d]
        syms = [nd[1] for nd in d.nodes if nd[0] == "o"]
        if len(syms) > 1:
            a, b = rng.sample(syms, 2)
            swapped = (nd if nd[0] == "x" or nd[1] not in (a, b) else o_node(a + b - nd[1], nd[2]) for nd in d.nodes)
            starts.append(BowDiagram("circle", tuple(swapped), d.dims))
            swap_keeps_links[_invariants_by_walking(d)[2:] == _invariants_by_walking(starts[1])[2:]] += 1
        for d in starts:
            base = invariants(d).invariant_part()
            for _ in range(20):
                inv = invariants(d)
                assert inv.invariant_part() == base
                for field in (inv.circles, inv.n_h, inv.pair_h, inv.n_x, inv.pair_x):
                    assert type(field) is tuple and all(type(v) is int for v in field)
                assert type(inv.quad_h) is int and type(inv.quad_x) is int
                pairs.add((inv.invariant_part(), _invariants_by_walking(d)[2:]))
                pos = transitions(d)
                if not pos:
                    break
                k = rng.choice(pos)
                nb = d.nodes[(k + 1) % len(d.nodes)]
                if x_node(0) in (d.nodes[k], nb):
                    passed["anticlockwise" if nb == x_node(0) else "clockwise"] += 1
                d = hw_transition(d, k)
                walk_steps += 1
    parts, links = {p for p, _ in pairs}, {q for _, q in pairs}
    assert len(parts) == len(links) == len(pairs)
    assert walk_steps > 5000 and min(passed.values()) > 1000, (walk_steps, passed)
    assert min(swap_keeps_links.values()) > 3, swap_keeps_links


def test_cli_invariants_document_lists_the_labelled_families(capsys):
    # the recorded argv hold only balanced diagrams with symbols in node order
    rng = random.Random(2917)
    for _ in range(150):
        d = relabel_circles(rng, random_turned_circle(rng, max_x=6, max_o=6, max_dim=7))
        for turned in _rotations(d):
            assert cli.main(["bow", "invariants", json.dumps(bow_to_json(turned))]) == 0
            n_h, n_x, pair_h, pair_x, quad_h, quad_x = _invariants_by_walking(turned)
            want = {"n_h": n_h, "n_x": n_x, "pair_h": pair_h, "pair_x": pair_x, "quad_h": quad_h, "quad_x": quad_x}
            assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(want))


def test_pair_sums_circle():
    rng = random.Random(13)
    for _ in range(200):
        d = random_circle(rng)
        _, _, pair_h, pair_x, _, _ = _labelled(invariants(d))
        if d.num_o:
            assert sum(v for _, v in pair_h) == d.num_x
        if d.num_x and d.num_o:
            assert sum(v for _, v in pair_x) == d.num_o


def test_invariants_separated_fixture():
    sf = separated_form(three_node_fixture())
    assert sf.tlambda == (0,)
    assert sf.mu == (0, 0)
    assert sf.v0 == 1
    n_h, n_x, *_ = _labelled(invariants(sf.realize()))
    assert n_h == ((1, 0),)
    assert n_x == ((0, 0), (1, 0))


# -- transitions ----------------------------------------------------------


def test_hw_dimension_rule():
    d = three_node_fixture()  # dims (1,1,1)
    t = hw_transition(d, 0)
    assert t.dims[0] == 2  # 1 + 1 + 1 - 1
    assert hw_transition(t, 0) == d  # involution


def test_hw_again_returns_original_dims():
    d = BowDiagram("circle", (x_node(0), o_node(1), x_node(1)), (1, 2, 1))
    t = hw_transition(d, 1)
    assert t.dims[1] == 1
    assert hw_transition(t, 1).dims[1] == 2


def test_hw_negative_dimension_error():
    d = BowDiagram("circle", (x_node(0), o_node(1), x_node(1)), (0, 2, 0))
    assert 1 not in transitions(d)
    with pytest.raises(ValueError, match="^transition at segment 1 yields negative dimension -1$"):
        hw_transition(d, 1)
    # a segment that is not an exact int is refused like the search's bound: True once acted
    # as segment 1, and 1.0 once failed as a tuple index
    for pos in (True, 1.0):
        with pytest.raises(ValueError, match=f"^transition segment must be integers, got {pos!r}$"):
            hw_transition(d, pos)


def test_hw_invariance_randomized():
    rng = random.Random(99)
    for _ in range(600):
        d = random_circle(rng)
        base = invariants(d).invariant_part()
        for _ in range(12):
            pos = transitions(d)
            if not pos:
                break
            d = hw_transition(d, rng.choice(pos))
            assert invariants(d).invariant_part() == base


def test_transition_child_passes_the_strict_constructor():
    # hw_transition builds its result without re-validation; every child of
    # a walk must be exactly what the public constructor accepts
    rng = random.Random(99)
    fired = 0
    for _ in range(600):
        d = random_turned_circle(rng)
        for _ in range(12):
            pos = transitions(d)
            if not pos:
                break
            t = hw_transition(d, rng.choice(pos))
            strict = BowDiagram(t.shape, t.nodes, t.dims)
            assert (strict.shape, strict.nodes, strict.dims) == (t.shape, t.nodes, t.dims)
            assert type(t.nodes) is tuple and all(type(nd) is tuple for nd in t.nodes)
            assert type(t.dims) is tuple and all(type(v) is int for v in t.dims)
            fired += 1
            d = t
    assert fired > 2000


def test_nu_star_bookkeeping():
    # push the circle clockwise across x_0 (one nu_star unit) and back
    d = BowDiagram("circle", (x_node(0), o_node(7), x_node(1)), (1, 1, 1))
    across = hw_transition(d, 0)
    assert across.nodes[0] == ("o", 7, 1)
    back = hw_transition(across, 0)
    assert back == d and back.nodes[1] == ("o", 7, 0)
    # a cross pair is not a transition locus
    with pytest.raises(ValueError):
        hw_transition(d, 2)


def test_nu_star_changes_only_at_base():
    rng = random.Random(17)
    for _ in range(200):
        d = random_circle(rng, max_x=3, max_o=3, max_dim=4)
        pos = transitions(d)
        if not pos:
            continue
        k = rng.choice(pos)
        m = len(d.nodes)
        a, b = d.nodes[k], d.nodes[(k + 1) % m]
        t = hw_transition(d, k)
        before = sorted(nd[1:] for nd in d.nodes if nd[0] == "o")
        after = sorted(nd[1:] for nd in t.nodes if nd[0] == "o")
        crossed_base = (a[0] == "x" and a[1] == 0) or (b[0] == "x" and b[1] == 0)
        syms_before = sorted(s for s, _ in before)
        syms_after = sorted(s for s, _ in after)
        assert syms_before == syms_after
        if crossed_base:
            assert before != after
        else:
            assert before == after


def _winding_invariants(d):
    """N_h + #(crosses from x_0 to h) - n * nu_h for every circle h, by symbol."""
    m, n = len(d.nodes), d.num_x
    p0 = d.nodes.index(x_node(0))
    out, crosses = {}, 0
    for k in [(p0 + j) % m for j in range(m)]:
        nd = d.nodes[k]
        if nd[0] == "x":
            crosses += 1
        else:
            out[nd[1]] = d.node_n(k) + crosses - n * nd[2]
    return out


def test_winding_invariant_survives_every_transition():
    # the search keeps nu_star in its state and relies on this invariant to
    # know that the state cannot return with other nu_star labels
    rng = random.Random(1801)
    steps = across = 0
    for _ in range(400):
        d = random_turned_circle(rng)
        base = _winding_invariants(d)
        for _ in range(15):
            pos = transitions(d)
            if not pos:
                break
            k = rng.choice(pos)
            across += x_node(0) in (d.nodes[k], d.nodes[(k + 1) % len(d.nodes)])
            d = hw_transition(d, k)
            steps += 1
            assert _winding_invariants(d) == base
    assert steps > 3000 and across > 1000, (steps, across)


# -- separated form and the dictionary ------------------------------------


def test_separated_fixture_values():
    sf = separated_form(three_node_fixture())
    assert (sf.tlambda, sf.mu, sf.v0) == ((0,), (0, 0), 1)
    L0 = fundamental_weight(2, 0)
    sf0 = separated_form(balanced_form(L0, L0))
    assert (sf0.tlambda, sf0.mu, sf0.v0) == ((0,), (0, 0), 0)


def test_separated_fixed_point():
    sf = separated_form(three_node_fixture())
    again = separated_form(sf.realize())
    assert again == sf


def _separations_by_search(d):
    """Every separated diagram reached from d by some order of admissible clockwise moves.

    A move swaps a cross other than x_0 with the circle just anticlockwise of
    it; the search tries every such move that keeps all dimensions >= 0.
    """
    seen = {d.canonical_key()}
    stack = [d]
    found = set()
    while stack:
        cur = stack.pop()
        m = len(cur.nodes)
        p0 = cur.nodes.index(x_node(0))
        if all(cur.nodes[(p0 + k) % m][0] == "o" for k in range(1, cur.num_o + 1)):
            found.add(cur)
            continue
        for k in transitions(cur):
            a, b = cur.nodes[k], cur.nodes[(k + 1) % m]
            if a[0] == "x" and a[1] != 0 and b[0] == "o":
                nxt = hw_transition(cur, k)
                if nxt.canonical_key() not in seen:
                    seen.add(nxt.canonical_key())
                    stack.append(nxt)
    return found


def _read_separated(d):
    m, n, l = len(d.nodes), d.num_x, d.num_o
    p0 = d.nodes.index(x_node(0))
    slots = [(p0 + l + 1 - s) % m for s in range(1, l + 1)]
    return SeparatedForm(
        n,
        l,
        tuple(d.node_n(k) for k in slots),
        tuple(d.node_n(d.nodes.index(x_node(i % n))) for i in range(1, n + 1)),
        d.dims[p0],
        tuple(d.nodes[k][1:] for k in slots),
    )


def test_separated_form_matches_search_over_every_order():
    rng = random.Random(4)
    outcomes = {"separated": 0, "raised": 0}
    for _ in range(400):
        d = random_circle(rng, max_x=5, max_o=5, max_dim=5)
        turn = rng.randrange(len(d.nodes))  # put x_0 anywhere in the lists
        d = BowDiagram("circle", d.nodes[turn:] + d.nodes[:turn], d.dims[turn:] + d.dims[:turn])
        found = _separations_by_search(d)
        assert len(found) <= 1  # every successful order ends in the same diagram
        if found:
            outcomes["separated"] += 1
            assert separated_form(d) == _read_separated(found.pop())
        else:
            outcomes["raised"] += 1
            with pytest.raises(ValueError, match="no admissible transition sequence reaches the separated form"):
                separated_form(d)
    assert min(outcomes.values()) > 20


def test_separated_form_rejects_what_invariants_alone_accept():
    # N values and crossing counts of this diagram describe separated data
    # that `realize` accepts, yet o2 cannot pass x2 (0 + 0 + 1 - 2 < 0) and
    # o3 sits behind o2, so no transition sequence separates it
    d = BowDiagram(
        "circle",
        (x_node(0), o_node(1), x_node(1), x_node(2), o_node(2), o_node(3)),
        (3, 2, 0, 2, 0, 0),
    )
    assert _separations_by_search(d) == set()
    with pytest.raises(ValueError, match="no admissible transition sequence"):
        separated_form(d)
    with pytest.raises(ValueError, match="no admissible transition sequence"):
        weights_of(d)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 0, (), (0,), 0, ()), "n, l and v0 must be integers"),  # would realize a one-cross circle
        ((2, 0, (), (0.5, -0.5), 0, ()), "mu must be integers"),  # would fail in `realize` as a negative dimension
        ((1, 0, (), (0,), 0.0, ()), "n, l and v0 must be integers"),
        # params entries would fail only in `realize`, or unpack with Python's own message
        ((1, 1, (0,), (0,), 0, ((True, 0),)), "circle label must be integers, got True"),
        ((1, 1, (0,), (0,), 0, ((1, 0.5),)), "circle label must be integers, got 0.5"),
        ((1, 1, (0,), (0,), 0, ((1,),)), r"a params entry is \(sym, nu_star\), got \(1,\)$"),
        ((1, 1, (0,), (0,), 0, ((1, 0, 2),)), r"a params entry is \(sym, nu_star\), got \(1, 0, 2\)$"),
    ],
    ids=["bool-n", "float-mu", "float-v0", "bool-sym", "float-nu-star", "short-param", "long-param"],
)
def test_separated_form_rejects_inexact_data(args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        SeparatedForm(*args)


def test_weights_of_fixture():
    lam, mu = weights_of(three_node_fixture())
    assert (lam.profile, lam.delta) == ((0, 0), 0)
    assert (mu.profile, mu.delta) == ((0, 0), -1)
    L0 = fundamental_weight(2, 0)
    lam0, mu0 = weights_of(balanced_form(L0, L0))
    assert lam0 == L0 and mu0 == L0


def test_balanced_form_examples():
    L0 = fundamental_weight(2, 0)
    assert three_node_fixture().dims == (1, 1, 1)
    assert balanced_form(L0, L0).dims == (0, 0, 0)
    two = weight_from_marks(2, [2, 0])
    d = balanced_form(two, two - simple_root(2, 0))
    assert d.dims == (1, 1, 1, 0)
    assert [nd[0] for nd in d.nodes] == ["x", "o", "o", "x"]


def test_balanced_form_errors():
    L0 = fundamental_weight(2, 0)
    with pytest.raises(ValueError):
        balanced_form(L0 - simple_root(2, 0), L0)  # not dominant
    with pytest.raises(ValueError):
        balanced_form(L0, L0 + simple_root(2, 0))  # negative coefficients


def test_round_trip_exhaustive_small():
    for n in (2, 3):
        for l in (1, 2):
            for marks in product(range(l + 1), repeat=n):
                if sum(marks) != l:
                    continue
                lam = weight_from_marks(n, list(marks))
                for v in product(range(4), repeat=n):
                    mu = lam
                    for a, c in enumerate(v):
                        mu = mu - simple_root(n, a).scale(c)
                    d = balanced_form(lam, mu)
                    assert d.is_balanced()
                    lam2, mu2 = weights_of(d)
                    assert lam2 == lam and mu2 == mu
                    assert balanced_form(lam2, mu2) == d


def test_rotate_base_example():
    sf = separated_form(three_node_fixture())
    r = rotate_base(sf)
    assert (r.tlambda, r.mu, r.v0) == ((-2,), (-1, -1), 3)
    assert r.params == ((1, -1),)


def test_rotate_base_properties():
    sf = separated_form(balanced_form(weight_from_marks(2, [1, 1]), weight_from_marks(2, [1, 1])))
    r = sf
    for _ in range(sf.l):
        r = rotate_base(r)
    assert r.tlambda == tuple(t - sf.n for t in sf.tlambda)
    # tlambda entry equal to n leaves v0 unchanged
    sf2 = separated_form(
        balanced_form(weight_from_marks(2, [0, 2]), weight_from_marks(2, [0, 2]) - delta_weight(2).scale(0))
    )
    if sf2.tlambda[0] == sf2.n:
        assert rotate_base(sf2).v0 == sf2.v0


def test_rotate_base_preserves_quadratic_invariants():
    L0 = fundamental_weight(2, 0)
    sf = separated_form(balanced_form(L0, L0 - delta_weight(2)))
    inv0 = invariants(sf.realize())
    r = rotate_base(sf)
    inv1 = invariants(r.realize())
    assert (inv0.quad_h, inv0.quad_x) == (inv1.quad_h, inv1.quad_x)


def test_search_examples():
    d = three_node_fixture()
    sf = separated_form(d)
    found = hw_reachable_balanced(sf.realize(), 4)
    assert found == [d]
    assert d in hw_reachable_balanced(d, 4)
    # the class of (0,2,0) names a pair with a negative root coefficient,
    # so no balanced diagram exists in it
    bad = BowDiagram("circle", (x_node(0), o_node(1), x_node(1)), (0, 2, 0))
    assert hw_reachable_balanced(bad, 6) == []


def test_weights_survive_scrambling():
    # random admissible transitions away from the base cross keep the named
    # pair intact; transitions across the base shift the winding bookkeeping
    rng = random.Random(271)
    L0 = fundamental_weight(2, 0)
    lam3 = weight_from_marks(3, [1, 1, 0])
    for lam, mu in (
        (L0, L0 - delta_weight(2)),
        (lam3, lam3 - simple_root(3, 0) - simple_root(3, 1).scale(2)),
    ):
        start = balanced_form(lam, mu)
        for _ in range(20):
            d = start
            for _ in range(15):
                m = len(d.nodes)
                pos = [k for k in transitions(d) if ("x", 0) not in (d.nodes[k][:2], d.nodes[(k + 1) % m][:2])]
                if not pos:
                    break
                d = hw_transition(d, rng.choice(pos))
            lam2, mu2 = weights_of(d)
            assert lam2 == lam and mu2 == mu


def test_search_from_scramble_recovers_balanced():
    rng = random.Random(137)
    L0 = fundamental_weight(2, 0)
    start = balanced_form(L0, L0 - delta_weight(2))
    d = start
    for _ in range(10):
        pos = [k for k in transitions(d) if hw_transition(d, k).dims[k] <= 6]
        if not pos:
            break
        d = hw_transition(d, rng.choice(pos))
    found = hw_reachable_balanced(d, 6)
    assert len(found) == 1
    assert _stripped_from_x0(found[0]) == _stripped_from_x0(start)


def _from_x0(d):
    """Nodes and dims of a circle read one by one anticlockwise from x_0."""
    m = len(d.nodes)
    p0 = next(k for k, nd in enumerate(d.nodes) if nd[:2] == ("x", 0))
    turn = [(p0 + k) % m for k in range(m)]
    return tuple(d.nodes[k] for k in turn), tuple(d.dims[k] for k in turn)


def _stripped_from_x0(d):
    nodes, dims = _from_x0(d)
    return tuple(nd[:2] for nd in nodes), dims


def _search_building_every_child(d, bound):
    """Breadth-first search that builds each child strictly, then keys it.

    It computes each middle dimension itself, so it shares only
    `hw_transition` with the search it checks.
    """
    if any(v > bound for v in d.dims):
        raise ValueError("start diagram exceeds the dimension bound")
    seen = {_stripped_from_x0(d)}
    queue = deque([d])
    found = []
    while queue:
        cur = queue.popleft()
        if cur.is_balanced():
            found.append(cur)
        nodes, dims = cur.nodes, cur.dims
        m = len(nodes)
        for k in range(m):
            if nodes[k][0] == nodes[(k + 1) % m][0]:
                continue
            if not 0 <= dims[k - 1] + dims[(k + 1) % m] + 1 - dims[k] <= bound:
                continue
            t = hw_transition(cur, k)
            nxt = BowDiagram(t.shape, t.nodes, t.dims)
            key = _stripped_from_x0(nxt)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
    return sorted(found, key=_from_x0)


def test_search_matches_a_search_that_builds_every_child():
    # the reference builds each child with hw_transition and keys it from x_0, so the
    # search's storage-order keys must give the same nu_star labels, node order and base
    rng = random.Random(23)
    outcomes = {"found": 0, "empty": 0, "raised": 0, "wound": 0}
    for _ in range(300):
        d = random_turned_circle(rng, max_x=4, max_o=4, max_dim=5)
        bound = rng.randint(3, 8)
        try:
            expected = [bow_to_json(b) for b in _search_building_every_child(d, bound)]
        except ValueError as err:
            outcomes["raised"] += 1
            with pytest.raises(ValueError, match=f"^{err}$"):
                hw_reachable_balanced(d, bound)
            continue
        outcomes["found" if expected else "empty"] += 1
        assert [bow_to_json(b) for b in hw_reachable_balanced(d, bound)] == expected
        # found diagrams reached across x_0 carry other nu_star labels than the start
        labels = sorted((p["sym"], p["nu_star"]) for p in bow_to_json(d)["params"])
        outcomes["wound"] += sum(sorted((p["sym"], p["nu_star"]) for p in j["params"]) != labels for j in expected)
    assert min(outcomes.values()) > 20, outcomes


def test_search_rejects_an_inexact_bound():
    d = three_node_fixture()
    for bound in (4.5, 4.0, True, Fraction(9, 2), Fraction(4)):
        with pytest.raises(ValueError, match="dimension bound must be integers"):
            hw_reachable_balanced(d, bound)


def test_search_never_two_balanced():
    rng = random.Random(401)
    for _ in range(40):
        d = random_circle(rng, max_x=3, max_o=2, max_dim=3)
        found = hw_reachable_balanced(d, 7)
        assert len(found) <= 1


@pytest.mark.parametrize(
    "node, message",
    [
        (("o", 1), r"a circle node is \('o', sym, nu_star\)"),
        (("o", 1, 0, 0), r"a circle node is \('o', sym, nu_star\)"),
        (("o", 1.5, 0), "circle label must be integers, got 1.5"),
        (("o", 1, True), "circle label must be integers, got True"),
        (("x", 1, 9), r"a cross node is \('x', index\)"),
        (("x", 1.0), "cross index must be integers, got 1.0"),
        (("q", 0), "^node kind must be 'x' or 'o'$"),
        ((), "^node kind must be 'x' or 'o'$"),
    ],
)
def test_constructor_accepts_only_well_formed_nodes(node, message):
    with pytest.raises(ValueError, match=message):
        BowDiagram("circle", (x_node(0), o_node(2), node), (1, 1, 1))


def test_constructor_accepts_only_circles():
    # affine type A bow diagrams sit on a circle; the shape field names it
    for shape in ("line", "Circle", None):
        with pytest.raises(ValueError, match="^shape must be 'circle'$"):
            BowDiagram(shape, (o_node(1), x_node(0), x_node(1)), (0, 1, 1))


def test_constructor_checks_the_base_cross():
    # x_0 must be exactly ("x", 0): a bool index or a third entry would hide it
    for node, message in ((("x", False), "cross index must be integers"), (("x", 0, 9), "a cross node is")):
        with pytest.raises(ValueError, match=message):
            BowDiagram("circle", (node, o_node(1)), (1, 1))
    # a circle without its nu_star used to pass here and fail inside hw_transition
    with pytest.raises(ValueError, match="a circle node is"):
        BowDiagram("circle", (("x", 0), ("o", 1)), (1, 1))
    # the JSON reader refuses a record with no cross first, so only a library caller meets this
    with pytest.raises(ValueError, match="^circle diagrams need at least one cross$"):
        BowDiagram("circle", (o_node(1),), (1,))
    # lists are read as tuples
    d = BowDiagram("circle", (["x", 0], ["o", 1, 0]), [1, 1])
    assert d.nodes == (("x", 0), ("o", 1, 0)) and hw_transition(d, 0).nodes == (("o", 1, 1), ("x", 0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BowDiagram("circle", (x_node(0), x_node(2)), (0, 0)), "cross indices must be 0..n-1"),
        (lambda: BowDiagram("circle", (x_node(0), x_node(2), x_node(1)), (0, 0, 0)),
         "cross indices must increase anticlockwise from x_0"),
        (lambda: SeparatedForm(1, 1, (0,), (5,), 9, ((1, 0),)).realize(), "inconsistent separated data: charge mismatch"),
        (lambda: SeparatedForm(1, 1, (-5,), (-5,), 0, ((1, 0),)).realize(),
         "separated data needs a negative dimension: [0, -5]"),
    ],
    ids=["cross-gap", "cross-order", "realize-charge", "realize-negative"],
)
def test_a_domain_error_names_its_cause(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_numbered_nodes_count_crosses_anticlockwise_from_the_base():
    kinds = ["o", "x", "x", "o", "x"]
    want = (o_node(5, 1), x_node(2), x_node(0), o_node(2), x_node(1))
    assert numbered_nodes(kinds, [(5, 1), (2, 0)], 2) == want
    assert numbered_nodes(kinds, [(5, 1), (2, 0)], 1)[1:3] == (x_node(0), x_node(1))
    for labels, base in (([(5, 1), (2, 0)], 0), ([(5, 1), (2, 0)], 5), ([(5, 1)], 1)):
        with pytest.raises(ValueError, match="^numbered nodes need a cross at the base and one label per circle$"):
            numbered_nodes(kinds, labels, base)


def test_only_bow_builds_nodes():
    # crosses are numbered in one place: other modules build nodes through `numbered_nodes`
    builders = {"x_node", "o_node"}
    for path in Path(bowforge.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        if path.name == "bow.py":
            assert builders <= named
        else:
            assert not builders & named, f"{path.name} uses {sorted(builders & named)}"


# -- serialization ---------------------------------------------------------


def test_bow_json_round_trip():
    d = three_node_fixture()
    j = bow_to_json(d)
    assert j["shape"] == "circle" and j["base"] == 0
    assert bow_from_json(json.dumps(j)) == d


def test_bow_json_round_trip_randomized():
    rng = random.Random(8)
    for _ in range(400):
        d = random_turned_circle(rng)
        again = bow_from_json(json.dumps(bow_to_json(d)))
        assert (again.shape, again.nodes, again.dims) == (d.shape, d.nodes, d.dims)
