"""Acceptance gate: every criterion runs at its pinned tolerance (all exact).

Run with `pytest tests/test_acceptance.py -s` for the one-line-per-criterion
report, or `bowforge verify --suite all` for the same checks from the CLI.
"""

import random
from types import SimpleNamespace

import pytest

from bowforge import acceptance

BUDGETS = {
    "ac1": 5.0,
    "ac2": 30.0,
    "ac4": 10.0,
    "ac5": 10.0,
    "ac6": 30.0,
}


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_criterion(name):
    (result,) = acceptance.run(name)
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}  [{result.seconds:.2f}s]  {result.detail}")
    assert result.passed, f"{result.name} failed: {result.detail}"
    budget = BUDGETS.get(name)
    if budget is not None:
        assert result.seconds < budget, f"{result.name} exceeded its {budget}s budget"


def test_ac8_fails_on_a_shifted_epsilon(monkeypatch):
    # epsilon of the next index: the crystal string heads no longer match m(mu) - m(mu + alpha_i)
    epsilon = acceptance.epsilon
    monkeypatch.setattr(acceptance, "epsilon", lambda st, i: epsilon(st, (i + 1) % st.n))
    passed, detail = acceptance.ac8()
    assert not passed and detail.endswith("differ from the crystal")


def test_ac8_fails_on_a_string_top_below_the_pairing(monkeypatch):
    def short_top(lam, mu, i):
        return abs(acceptance.coroot_pairing(mu, i)) - 2

    monkeypatch.setattr(acceptance, "string_top", short_top)
    passed, detail = acceptance.ac8()
    assert not passed and detail.startswith("string shape violated")


def _widened(d, pos):
    # every segment one wider: the N values stay, the quadratic sums move
    return acceptance.BowDiagram("circle", d.nodes, tuple(v + 1 for v in d.dims))


def _first_drift():
    # AC-1 with `_widened` for the transition drifts at the first seeded diagram that has a legal move
    rng = random.Random(acceptance._AC1_SEED)
    while not (pos := acceptance.transitions(d := acceptance._random_circle(rng))):
        pass
    return f"invariant drift on {_widened(d, rng.choice(pos))}"


_LAM, _MU = next(acceptance._ac2_grid())
_TOP = next(acceptance._ac4_grid())[0]


@pytest.mark.parametrize(
    "name, attr, fault, detail",
    [
        ("ac1", "hw_transition", _widened, _first_drift()),
        ("ac2", "weights_of", lambda d: (None, None), f"round trip failed at {_LAM}, {_MU}"),
        ("ac2", "hw_reachable_balanced", lambda d, bound: [], f"balanced search found 0 diagrams at {_LAM}, {_MU}"),
        ("ac4", "t_fixed_point_exists", lambda lam, mu: False, f"mismatch at {_TOP}, {_TOP}: exists=False, mult=1"),
        ("ac5", "serre_and_commutator_check", lambda n, depth: [("[e_0, f_0] = h_0", False, "")],
         "n=2: [e_0, f_0] = h_0 failed"),
        ("ac6", "enumerate_fixed_points", lambda query: SimpleNamespace(diagrams=()), "n=1 count at v=0: 0 != p(v)=1"),
        ("ac6", "delta_convolution", lambda lam, mu, top: -1, "n=2 count at (0, 0): 1 != convolution -1"),
        ("ac7", "crystal_component", lambda n, depth: {}, "n=2: crystal counts differ from multiplicities"),
        ("ac9", "crystal_op", lambda op, state, i: None, "n=2, i=0, k=1: f^k != k! * crystal path"),
        ("ac9", "coroot_pairing", lambda mu, i: 0, "n=2, i=0: string longer than <L0, h_i>"),
    ],
    ids=["ac1", "ac2-round-trip", "ac2-search", "ac4", "ac5", "ac6-partitions", "ac6-convolution", "ac7",
         "ac9-path", "ac9-string-length"],
)
def test_a_criterion_fails_on_a_planted_fault(monkeypatch, name, attr, fault, detail):
    # each failure branch is reached by one faulty stand-in for a function the criterion calls
    monkeypatch.setattr(acceptance, attr, fault)
    assert acceptance.CRITERIA[name]() == (False, detail)


def test_the_whole_suite_runs_every_criterion_in_order(monkeypatch):
    fakes = {"ac1": lambda: (True, "one"), "ac2": lambda: (False, "two"), "ac10": lambda: (True, "ten")}
    monkeypatch.setattr(acceptance, "CRITERIA", fakes)
    for suite in ((), ("all",)):  # "all" is the default
        results = acceptance.run(*suite)
        assert [(r.name, r.passed, r.detail) for r in results] == [
            ("AC-1", True, "one"),
            ("AC-2", False, "two"),
            ("AC-10", True, "ten"),
        ]
        assert all(r.seconds >= 0 for r in results)


def test_an_unknown_suite_is_refused():
    names = [f"ac{k}" for k in range(1, 10)]
    with pytest.raises(ValueError) as exc:
        acceptance.run("ac10")
    assert str(exc.value) == f"unknown suite 'ac10'; choose all or one of {names}"
