"""session: about 100 in-process `bowforge.cli.main(argv)` calls, stdout captured.

The calls cover every subcommand on README-sized inputs, a few domain and
usage errors, and `verify --suite acN` for each of AC-1 .. AC-9.  Argument
vectors come from a fixed pool of groups whose members cost about the same;
the seed picks members of every group and the call order.  Expected exit
codes and stdout were recorded from the pool when the reference was made;
for `verify` the per-criterion `seconds` field is left out of the comparison.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import product

from bowforge import acceptance
from bowforge.cli import main

from common import Op, add, compositions, load_reference, lower, marks_profile, pick

NAME = "session"
REFERENCE = "session.json"


def _w(n, level, profile, delta=0) -> str:
    return json.dumps({"n": n, "level": level, "profile": list(profile), "delta": delta}, separators=(",", ":"))


def _pair(marks, coeffs):
    prof = marks_profile(marks)
    mu_prof, mu_delta = lower(prof, coeffs)
    return _w(len(marks), sum(marks), prof), _w(len(marks), sum(marks), mu_prof, mu_delta)


def _balanced(marks, coeffs) -> str:
    """Balanced circle diagram JSON: x_i on a segment of dimension c_i, then marks[i] circles."""
    nodes, dims = [], []
    for i, c in enumerate(coeffs):
        nodes += [{"kind": "x"}] + [{"kind": "o"}] * marks[i]
        dims += [c] * (marks[i] + 1)
    syms = range(sum(marks), 0, -1)
    params = [{"sym": s, "nu_star": 0} for s in syms]
    doc = {"shape": "circle", "nodes": nodes, "dims": dims, "params": params, "base": 0}
    return json.dumps(doc, separators=(",", ":"))


def groups() -> list[tuple[int, list[list[str]]]]:
    """(calls to draw, candidate argument vectors) per group, in a fixed order."""
    small = [
        (m, c)
        for n in (2, 3)
        for m in compositions(1, n) + compositions(2, n)
        for c in product(range(2), repeat=n)
    ]
    pairs = [_pair(m, c) for m, c in small]
    diagrams = [_balanced(m, c) for m, c in small]
    level1 = [(m, c) for m, c in small if sum(m) == 1]
    out = [
        (5, [["weights", "pair", "--n", str(len(m)), "--level", str(sum(m)), "--w", ",".join(map(str, m)),
              "--v", ",".join(map(str, c))] for m, c in small]),
        (4, [["weights", "dominant", _w(n, lvl, (a, b) + (0,) * (n - 2), d)]
             for n in (2, 3) for lvl in (1, 2) for a in (-3, 2) for b in (1, 4) for d in (0, -1)]),
        (3, [["weights", "pairing", mu, "--index", str(i)] for _lam, mu in pairs[:12] for i in range(2)]),
        (4, [["weights", "dominance", "--mu", mu, "--lambda", lam] for lam, mu in pairs]),
        (3, [["weights", "generic", f"--m={a},{b},{c}"] for a in (-2, 1) for b in (-3, 2) for c in (0, 5)]),
        (3, [["gyd", "transpose", json.dumps({"rank": r, "level": lvl, "entries": [2, 1, 0][:r]})]
             for r in (2, 3) for lvl in (1, 2, 3)]),
        (3, [["gyd", "rotate", json.dumps({"rank": 3, "level": lvl, "entries": e})]
             for lvl in (2, 3) for e in ([1, 1, 0], [2, 1, 0], [0, 0, 0])]),
        (5, [["bow", "balance", "--lambda", lam, "--mu", mu] for lam, mu in pairs]),
        (4, [["bow", "weights", d] for d in diagrams]),
        (4, [["bow", "invariants", d] for d in diagrams]),
        (4, [["bow", "hw", d, "--pos", str(p)] for d in diagrams[:16] for p in (0, 1)]),
        (3, [["bow", "separate", d] for d in diagrams]),
        (3, [["bow", "search", d, "--bound", "6"] for d in diagrams[:16]]),
        (3, [["bow", "rotate", json.dumps({"n": 2, "l": 1, "tlambda": [t], "mu": [a, -a], "v0": v,
                                           "params": [{"sym": 1, "nu_star": 0}]})]
             for t in (0, 1) for a in (0, 1) for v in (1, 2)]),
        (4, [["maya", "enumerate", "--query", json.dumps({"n": 1, "l": 1, "row_charges": [0],
                                                        "column_stats": [0], "v0": v})] for v in range(6)]),
        (4, [["maya", "enumerate", "--lambda", lam, "--mu", mu] for lam, mu in pairs[:16]]),
        (5, [["maya", "exists", "--lambda", lam, "--mu", mu] for lam, mu in pairs]),
        (3, [["maya", "deformed", "--lambda1", _w(2, 1, (0, 0)), "--lambda2", _w(2, 1, (1, 0)),
              "--mu", _w(2, 2, (a, 1 - a), d)] for a in (0, 1, 2) for d in (0, -1)]),
        (3, [["maya", "sl2", "--lambda", lam, "--mu", mu, "--index", "0"]
             for (m, c), (lam, mu) in zip(small, pairs) if sum(m) == 1]),
        (3, [["maya", "unwind", "--n", "2", "--split", json.dumps([[0, w, 1], [1, -1, k]])]
             for w in (0, 1, 2) for k in (1, 2)]),
        (5, [["oracle", "mult", "--lambda", lam, "--mu", mu] for lam, mu in pairs]),
        (3, [["oracle", "string", "--lambda", lam, "--mu", mu, "--index", "1"]
             for (m, c), (lam, mu) in zip(small, pairs) if sum(m) == 1]),
        (3, [["oracle", "fock-count", "--n", str(len(m)), "--mu", _pair(m, c)[1]] for m, c in level1]),
        # the Serre checks keep no memo, so all eight always run and, with the
        # five heavy criteria above them, hold the 90th percentile
        (8, [[*pretty, "oracle", "verify-serre", "--n", str(n), "--depth", str(d)]
             for pretty in ([], ["--pretty"]) for n, d in ((2, 3), (3, 2), (3, 3), (4, 2))]),
        (2, [[*pretty, "oracle", "verify-char", "--n", str(n), "--depth", str(d)]
             for pretty in ([], ["--pretty"]) for n, d in ((2, 4), (3, 3))]),
        # domain errors (exit 2) and usage errors (exit 1)
        (2, [["weights", "pair", "--n", "2", "--level", "3", "--w", "1,0", "--v", f"{v},0"] for v in range(3)]),
        (2, [["gyd", "transpose", json.dumps({"rank": 2, "level": lvl, "entries": [5, 0]})] for lvl in (1, 2, 3)]),
        (2, [["weights", sub] for sub in ("pair", "dominance", "pairing")]),
        (2, [["--pretty", "weights", "pair", "--n", str(len(m)), "--level", str(sum(m)),
              "--w", ",".join(map(str, m)), "--v", ",".join(map(str, c))] for m, c in small]),
    ]
    out += [(1, [["verify", "--suite", name]]) for name in acceptance.CRITERIA]
    return out


def normalized(argv, stdout: str) -> str:
    """stdout with the wall-clock `seconds` of `verify` results removed."""
    if argv[0] != "verify" or not stdout:
        return stdout
    doc = json.loads(stdout)
    for r in doc["results"]:
        r.pop("seconds")
    return json.dumps(doc, sort_keys=True)


def call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def instrument(tr) -> None:
    """Spans around each criterion that `verify` runs, at the cli/acceptance boundary."""
    for name, fn in list(acceptance.CRITERIA.items()):
        acceptance.CRITERIA[name] = tr.wrap(f"acceptance.{name}", fn)


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    expected = load_reference(REFERENCE)
    return [_op(argv, expected[json.dumps(argv)]) for argv in pick(rng, groups())]


def _op(argv, want):
    command = next(a for a in argv if not a.startswith("--"))
    span = f"cli.{command}"

    def run(tr):
        return tr.call(span, call, argv)

    def check(result, counts):
        code, stdout = result
        add(counts, "cli.calls", 1)
        if command != "verify":
            add(counts, "cli.stdout_bytes", len(stdout.encode()))
        if [code, normalized(argv, stdout)] != want:
            return f"{' '.join(argv)}: exit {code}, stdout differs from the reference"
        return None

    return Op(span, run, check)


def make_reference() -> dict:
    out = {}
    for _k, members in groups():
        for argv in members:
            code, stdout = call(argv)
            out[json.dumps(argv)] = [code, normalized(argv, stdout)]
    return out
