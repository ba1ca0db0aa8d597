"""Acceptance gate: every criterion runs at its pinned tolerance (all exact).

Run with `pytest tests/test_acceptance.py -s` for the one-line-per-criterion
report, or `bowforge verify --suite all` for the same checks from the CLI.
"""

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
