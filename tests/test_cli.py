import argparse
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from operator import add

import pytest

import bowforge
from bowforge import acceptance, cli
from bowforge.cli import _parser, main, weight_to_json
from bowforge.weights import (
    coroot_pairing,
    delta_weight,
    fundamental_weight,
    simple_root,
    weight_from_marks,
)

L0 = '{"n":2,"level":1,"profile":[0,0],"delta":0}'
L0_MINUS_DELTA = '{"n":2,"level":1,"profile":[0,0],"delta":-1}'
# L0 - 10 alpha_1: its 1-string meets k >= 0 only at k = 10, at L0 itself
L0_MINUS_10_ALPHA1 = '{"n":2,"level":1,"profile":[-10,10],"delta":0}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_weights_pair(capsys):
    code, out = run(capsys, "weights", "pair", "--n", "2", "--level", "1", "--w", "1,0", "--v", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == {"n": 2, "level": 1, "profile": [0, 0], "delta": -1}


def test_bow_weights_fixture(capsys, tmp_path):
    code, out = run(capsys, "bow", "balance", "--lambda", L0, "--mu", L0_MINUS_DELTA)
    assert code == 0
    path = tmp_path / "diagram.json"
    path.write_text(out, encoding="utf-8")
    code, out = run(capsys, "bow", "weights", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"]["profile"] == [0, 0] and payload["lambda"]["delta"] == 0
    assert payload["mu"]["profile"] == [0, 0] and payload["mu"]["delta"] == -1


@pytest.mark.parametrize(
    "kinds, dims, params, base, tlambda, n",
    [
        ("oox", [3, 0, 2], [(1, 2), (2, -2)], 2, [-3, 1], 1),
        ("xooxx", [1, 0, 3, 1, 5], [(1, -1), (2, 1)], 3, [5, 1], 3),
    ],
    ids=["not-decreasing", "level-constraint"],
)
def test_bow_weights_names_the_separated_tlambda(capsys, kinds, dims, params, base, tlambda, n):
    # these once reported GYDiagram's own text, naming a Young diagram the user never gave
    diagram = {
        "shape": "circle",
        "nodes": [{"kind": k} for k in kinds],
        "dims": dims,
        "params": [{"sym": s, "nu_star": nu} for s, nu in params],
        "base": base,
    }
    code, out = run(capsys, "bow", "weights", json.dumps(diagram))
    assert code == 2
    message = (
        f"the separated form's tlambda {tlambda} is not a level-{n} generalized Young diagram,"
        " so the diagram names no dominant weight"
    )
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


def test_maya_exists(capsys):
    code, out = run(capsys, "maya", "exists", "--lambda", L0, "--mu", L0)
    assert code == 0 and json.loads(out) == {"exists": True}


def test_maya_exists_refuses_level_zero_as_enumerate_does(capsys):
    # V(0) has the single weight 0, yet this once printed {"exists": true}
    zero = '{"n":2,"level":0,"profile":[0,0]}'
    mu = '{"n":2,"level":0,"profile":[0,0],"delta":-3}'
    error = {"type": "ValueError", "message": "queries need level >= 1"}
    for argv in (("exists", "--lambda", zero, "--mu", mu), ("enumerate", "--lambda", zero, "--mu", mu)):
        code, out = run(capsys, "maya", *argv)
        assert code == 2 and json.loads(out)["error"] == error


def test_gyd_transpose_fixture(capsys):
    code, out = run(capsys, "gyd", "transpose", '{"rank":2,"level":3,"entries":[2,-1]}')
    assert code == 0
    assert json.loads(out) == {"rank": 3, "level": 2, "entries": [1, 1, -1]}


def test_oracle_mult(capsys):
    code, out = run(capsys, "oracle", "mult", "--lambda", L0, "--mu", L0_MINUS_DELTA)
    assert code == 0 and json.loads(out) == {"multiplicity": 1}


def test_maya_enumerate_raw_query(capsys):
    code, out = run(
        capsys, "maya", "enumerate", "--query", '{"n":1,"l":1,"row_charges":[0],"column_stats":[0],"v0":3}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3 and payload["complete"] is True


@pytest.mark.parametrize("n, depth", [(2, 2), (3, 6), (5, 3)])
def test_oracle_verify_serre(capsys, n, depth):
    # every relation holds on every Fock state up to the depth: n^2 rows [e_a, f_b], n^2 rows
    # [h_a, e_b] and n^2 - n Serre rows, 3n^2 - n in all
    code, out = run(capsys, "oracle", "verify-serre", "--n", str(n), "--depth", str(depth))
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert len(report["rows"]) == 3 * n * n - n and all(r["ok"] for r in report["rows"])


def test_byte_stable_output(capsys):
    args = ("maya", "enumerate", "--lambda", L0, "--mu", L0_MINUS_DELTA)
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "weights", "dominant", '{"n":2,"level":0,"profile":[1,0],"delta":0}')
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_parse_error_exit_code(capsys):
    assert main(["weights", "nonsense"]) == 1


def test_verify_one_criterion(capsys):
    code = main(["verify", "--suite", "ac3"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["passed"] is True
    assert "AC-3" in captured.err


FAILED_REPORT = [("forced", False, "forced")]


@pytest.mark.parametrize(
    "argv",
    [("verify", "--suite", "ac3"), ("oracle", "verify-serre", "--n", "2"), ("oracle", "verify-char", "--n", "2")],
    ids=["verify", "verify-serre", "verify-char"],
)
def test_a_failing_check_exits_2(capsys, monkeypatch, argv):
    _parser()  # patches made after the parser is built must still reach the handlers
    monkeypatch.setitem(acceptance.CRITERIA, "ac3", lambda: (False, "forced"))
    monkeypatch.setattr(cli, "serre_and_commutator_check", lambda n, depth: FAILED_REPORT)
    monkeypatch.setattr(cli, "char_factorization_check", lambda n, depth: FAILED_REPORT)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and json.loads(captured.out)["passed"] is False
    if argv[0] == "verify":
        assert "AC-3: FAIL" in captured.err


def _leaves(parser, path=()):
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_leaf_subcommand_has_a_handler(capsys):
    # a leaf declared without a handler would end in an AttributeError traceback, not an exit code
    leaves = dict(_leaves(_parser()))
    assert len(leaves) == 25
    for path, leaf in leaves.items():
        assert callable(leaf.get_default("run")), path
        assert main([*path, "--help"]) == 0, path
        assert capsys.readouterr().out.startswith(f"usage: bowforge {' '.join(path)} ")


def test_top_level_help_shows_the_usage_paragraphs_only(capsys):
    assert main(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "exits 0 on success, 1 on usage errors and 2 on domain errors" in out
    assert "built once per process" not in out


def test_unwind(capsys):
    code, out = run(capsys, "maya", "unwind", "--n", "2", "--split", "[[0,0,1],[1,-1,1]]")
    assert code == 0
    assert json.loads(out) == {"coefficients": [[-1, 1], [0, 1]], "residue_totals": [1, 1]}


@pytest.mark.parametrize(
    "argv, says",
    [
        (("--n", "0", "--split", "[]"), "unwinding needs rank >= 1"),
        (("--n", "-1", "--split", "[[0,0,1]]"), "unwinding needs rank >= 1"),
        (("--n", "2", "--split", "{}"), "split must be a list of [residue, winding, count], got {}"),
        (("--n", "2", "--split", "[[0,0,1,5]]"), "split row [0, 0, 1, 5] must be [residue, winding, count]"),
    ],
    ids=["rank-0", "rank-negative", "split-dict", "split-row-too-long"],
)
def test_unwind_rejects_a_rank_below_one_and_a_split_that_is_not_a_list(capsys, argv, says):
    # the first three once exited 0: an empty table at rank 0, and the keys of the dict read as rows
    code, out = run(capsys, "maya", "unwind", *argv)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": says}


@pytest.mark.parametrize(
    "option, value",
    [("--w", "1,,0"), ("--v", ",0,0"), ("--v", "0,0,"), ("--m", "1,,2"), ("--m", ",1,2"), ("--m", "1,2,")],
    ids=["w-doubled", "v-leading", "v-trailing", "m-doubled", "m-leading", "m-trailing"],
)
def test_a_comma_list_with_an_empty_entry_is_a_domain_error(capsys, option, value):
    # each once dropped the empty entry and answered for the shorter list
    if option == "--m":
        argv = ("weights", "generic", f"--m={value}")
    else:
        argv = ("weights", "pair", "--n", "2", "--level", "1", "--w", "1,0", "--v", "0,0", option, value)
    code, out = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"{option} has an empty entry in {value!r}; give comma-separated values"


@pytest.mark.parametrize(
    "option, value, entry, what",
    [
        ("--w", "1.5,0", "1.5", "an integer"),
        ("--v", "a,0", "a", "an integer"),
        ("--m", "1,x", "x", "a rational number"),
        ("--m", "1/0,1", "1/0", "a rational number"),
    ],
    ids=["w-float", "v-letter", "m-letter", "m-zero-denominator"],
)
def test_a_comma_list_entry_that_does_not_parse_names_the_option(capsys, option, value, entry, what):
    # each once answered with Python's own parse error (a ZeroDivisionError for 1/0),
    # naming neither the option nor the list
    if option == "--m":
        argv = ("weights", "generic", f"--m={value}")
    else:
        argv = ("weights", "pair", "--n", "2", "--level", "1", "--w", "1,0", "--v", "0,0", option, value)
    code, out = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"{option} entry {entry!r} in {value!r} is not {what}"


def test_bow_separate_rotate_search(capsys, tmp_path):
    _, diagram = run(capsys, "bow", "balance", "--lambda", L0, "--mu", L0_MINUS_DELTA)
    code, sep = run(capsys, "bow", "separate", diagram)
    assert code == 0
    record = json.loads(sep)
    assert record["tlambda"] == [0] and record["mu"] == [0, 0] and record["v0"] == 1
    code, rot = run(capsys, "bow", "rotate", sep)
    assert code == 0
    assert json.loads(rot)["tlambda"] == [-2]
    code, out = run(capsys, "bow", "search", diagram, "--bound", "6")
    assert code == 0 and json.loads(out)["count"] == 1
    code, out = run(capsys, "bow", "invariants", diagram)
    assert code == 0 and json.loads(out)["quad_h"] == 4
    code, out = run(capsys, "bow", "hw", diagram, "--pos", "0")
    assert code == 0 and json.loads(out)["dims"] == [2, 1, 1]


def test_weights_dominant_and_pairing(capsys):
    code, out = run(capsys, "weights", "dominant", '{"n":2,"level":1,"profile":[1,-1],"delta":-1}')
    assert code == 0 and json.loads(out)["profile"] == [0, 0]
    code, out = run(capsys, "weights", "pairing", L0, "--index", "0")
    assert code == 0 and json.loads(out) == {"pairing": 1}
    code, out = run(capsys, "weights", "generic", "--m=-2,-3")
    assert code == 0 and json.loads(out) == {"generic": True}


def test_oracle_fock_count_and_char(capsys):
    code, out = run(capsys, "oracle", "fock-count", "--n", "2", "--mu", L0_MINUS_DELTA)
    assert code == 0 and json.loads(out) == {"count": 2}
    code, out = run(capsys, "oracle", "verify-char", "--n", "2", "--depth", "2")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out = run(capsys, "oracle", "string", "--lambda", L0, "--mu", L0_MINUS_DELTA, "--index", "1")
    assert code == 0 and json.loads(out) == {"string_top": 2}


def test_maya_sl2_and_deformed(capsys):
    code, out = run(capsys, "maya", "sl2", "--lambda", L0, "--mu", L0_MINUS_DELTA, "--index", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_prime"] == 2 and payload["mu_prime"] == 0
    code, out = run(capsys, "maya", "sl2", "--lambda", L0, "--mu", L0_MINUS_10_ALPHA1, "--index", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lambda_prime"], payload["mu_prime"], len(payload["strata"])) == (0, -20, 11)
    two = '{"n":2,"level":2,"profile":[0,0],"delta":0}'
    mu = '{"n":2,"level":2,"profile":[1,-1],"delta":-1}'
    code, out = run(capsys, "maya", "deformed", "--lambda1", L0, "--lambda2", L0, "--mu", mu)
    assert code == 0 and json.loads(out)["count"] == 2
    code, out = run(capsys, "maya", "deformed", "--lambda1", L0, "--lambda2", L0, "--mu", two)
    assert code == 0 and json.loads(out)["count"] == 1


def _sl2(capsys, lam, mu, i):
    code, out = run(
        capsys, "maya", "sl2", "--lambda", json.dumps(weight_to_json(lam)), "--mu", json.dumps(weight_to_json(mu)),
        "--index", str(i),
    )
    assert code == 0
    r = json.loads(out)
    # one stratum per v = 0 .. (lambda' - mu') / 2, with kappa = mu' + 2v = tau1 - tau2
    assert [s["v"] for s in r["strata"]] == list(range((r["lambda_prime"] - r["mu_prime"]) // 2 + 1))
    for s in r["strata"]:
        assert s["kappa"] - 2 * s["v"] == r["mu_prime"]
        assert s["tau1"] - s["tau2"] == s["kappa"]
    return r


def test_maya_sl2_examples(capsys):
    L0 = fundamental_weight(2, 0)
    a0 = simple_root(2, 0)
    d = delta_weight(2)
    r = _sl2(capsys, L0, L0, 0)
    assert (r["lambda_prime"], r["mu_prime"]) == (1, 1)
    r = _sl2(capsys, L0, L0 - a0, 0)
    assert (r["lambda_prime"], r["mu_prime"]) == (1, -1)
    r = _sl2(capsys, L0, L0 - d, 1)
    assert (r["lambda_prime"], r["mu_prime"], len(r["strata"])) == (2, 0, 2)
    # i >= 1 reads the two profile entries around the coroot
    lam = weight_from_marks(3, [1, 0, 1])
    mu = lam - simple_root(3, 2)
    r = _sl2(capsys, lam, mu, 2)
    assert [(s["tau1"], s["tau2"]) for s in r["strata"]] == [
        (mu.profile[1] + v, mu.profile[2] - v) for v in range(len(r["strata"]))
    ]


def test_maya_sl2_zero_index_uses_level(capsys):
    lam = weight_from_marks(2, [1, 1])
    mu = lam - simple_root(2, 0)
    r = _sl2(capsys, lam, mu, 0)
    assert r["mu_prime"] == coroot_pairing(mu, 0) == mu.level + mu.profile[-1] - mu.profile[0]
    assert r["strata"]
    for s in r["strata"]:
        assert s["tau1"] == mu.profile[-1] + mu.level + s["v"]
        assert s["tau2"] == mu.profile[0] - s["v"]


def test_fock_count_deep_delta(capsys):
    # p(5000) once overflowed the recursion limit; compare with coin change, filled block by block
    mu = '{"n":1,"level":1,"profile":[0],"delta":-5000}'
    code, out = run(capsys, "oracle", "fock-count", "--n", "1", "--mu", mu)
    assert code == 0
    k = 5000
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for lo in range(part, k + 1, part):
            ways[lo : lo + part] = map(add, ways[lo : lo + part], ways[lo - part : lo])
    assert json.loads(out) == {"count": ways[k]}


@pytest.mark.parametrize(
    "argv",
    [
        ("weights", "dominant", '{"n":2,"level":1,"profile":[1.7,0],"delta":0}'),
        ("weights", "dominant", '{"n":2,"level":1,"profile":[1,0],"delta":0.333}'),
        ("maya", "enumerate", "--query", '{"n":1,"l":1,"row_charges":[0.6],"column_stats":[0.4],"v0":2}'),
        ("maya", "enumerate", "--query", '{"n":1,"l":1,"row_charges":0,"column_stats":[0],"v0":2}'),
        ("gyd", "transpose", '{"rank":2,"level":3,"entries":[2.5,-1]}'),
        (
            "bow",
            "invariants",
            '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"o"}],"dims":[1.5,1.5],"params":[{"sym":1}],"base":0}',
        ),
        ("maya", "unwind", "--n", "2", "--split", "[[0,0.5,1]]"),
    ],
)
def test_inexact_input_is_a_domain_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


QUERY = '{"n":1,"l":1,"row_charges":[0],"column_stats":[0],"v0":3}'


@pytest.mark.parametrize(
    "argv",
    [
        ("maya", "enumerate", "--query", QUERY, "--bound", "2"),
        ("maya", "enumerate", "--query", QUERY, "--convention", "a"),
        ("verify", "--suite", "ac3", "--depth", "4"),
        ("oracle", "string", "--lambda", L0, "--mu", L0, "--index", "0", "--depth", "8"),
        ("maya", "sl2", "--lambda", L0, "--mu", L0, "--index", "0", "--depth", "8"),
        ("oracle", "mult", "--lambda", L0, "--mu", L0, "--depth", "5"),
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 1


def test_explicit_depth_zero_is_honoured(capsys):
    # --depth 0 once fell back to the default depth because 0 is falsy
    code, out = run(capsys, "oracle", "verify-char", "--n", "2", "--depth", "0")
    assert code == 0
    assert [r["label"] for r in json.loads(out)["rows"]] == ["mu = L0 - [0, 0]"]


@pytest.mark.parametrize("action", ["verify-serre", "verify-char"])
def test_negative_depth_of_a_check_is_a_domain_error(capsys, action):
    # a negative depth would otherwise pass after checking no state at all
    code, out = run(capsys, "oracle", action, "--n", "2", "--depth", "-1")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": "depth must be >= 0, got -1"}


def test_depth_defaults_ignore_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("BOWFORGE_DEPTH", "1")
    code, out = run(capsys, "oracle", "verify-char", "--n", "2")
    assert code == 0
    # depth 4 over two simple roots: every (c0, c1) with c0 + c1 <= 4
    assert len(json.loads(out)["rows"]) == 15


@pytest.mark.parametrize(
    "argv",
    [
        ("weights", "dominant", "[1,2]"),
        ("bow", "weights", '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1],"base":0.5}'),
        ("bow", "weights", '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1],"base":"1"}'),
    ],
)
def test_json_of_the_wrong_shape_is_a_domain_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    # the weight reader refuses a list where its record belongs; the bow reader a base that is not an int
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "argv, says",
    [
        (("weights", "dominant", '{"n":2,"level":1}'), "weight record has no field 'profile': a list of n integers"),
        (("weights", "dominant", '{"n":2,"level":1,"profile":[[0],0]}'), "profile entries must be integers"),
        (("weights", "dominant", "[1,2]"), "weight record must be a JSON object with fields 'n', 'level', 'profile'"),
        (
            ("oracle", "mult", "--lambda", L0, "--mu", '{"n":2,"level":1,"profile":[0,0],"delta":"1/0"}'),
            "weight record field 'delta': not an exact rational: '1/0'",
        ),
        (("gyd", "transpose", '{"rank":2,"entries":[0,0]}'), "Young diagram record has no field 'level'"),
        (("gyd", "transpose", '{"rank":2,"level":1,"entries":[0,"a"]}'), "diagram entries must be integers"),
        (("gyd", "transpose", "[]"), "Young diagram record must be a JSON object"),
        (("bow", "invariants", '{"shape":"circle","nodes":[{"kind":"x"}]}'), "bow diagram record has no field 'dims'"),
        (("bow", "invariants", '{"shape":"circle","nodes":["x"],"dims":[1]}'), "bow diagram record field 'nodes' must"),
        (
            ("bow", "invariants", '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"o"}],"dims":[1,1],"params":["a"]}'),
            "bow diagram record field 'params' must be a list of objects, one per circle node",
        ),
        (("bow", "invariants", "[1]"), "bow diagram record must be a JSON object with fields 'shape', 'nodes', 'dims'"),
        (("maya", "enumerate", "--query", '{"n":1,"row_charges":[0],"column_stats":[0],"v0":1}'), "no field 'l'"),
        (
            ("maya", "enumerate", "--query", '{"n":1,"l":1,"row_charges":[0.5],"column_stats":[0],"v0":1}'),
            "row charges must be integers",
        ),
        (("maya", "enumerate", "--query", "[0]"), "query record must be a JSON object"),
        (("bow", "rotate", "[]"), "separated record must be a JSON object with fields 'n', 'l'"),
    ],
    ids=[
        "weight-missing-profile",
        "weight-profile-entry-a-list",
        "weight-a-list",
        "weight-delta-zero-denominator",
        "gyd-missing-level",
        "gyd-entry-a-string",
        "gyd-a-list",
        "bow-missing-dims",
        "bow-node-a-string",
        "bow-params-entry-a-string",
        "bow-a-list",
        "query-missing-l",
        "query-charge-a-float",
        "query-a-list",
        "separated-a-list",
    ],
)
def test_a_malformed_record_names_the_record_and_the_field(capsys, argv, says):
    # each once answered with Python's own text: a bare KeyError, or list or string indexing
    code, out = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and says in error["message"]


@pytest.mark.parametrize(
    "command, base, shown",
    [
        ("invariants", "0.5", "0.5"),
        ("invariants", '"1"', "'1'"),
        ("invariants", "true", "True"),
        ("invariants", "[0]", "[0]"),
        ("weights", '"1"', "'1'"),
    ],
    ids=["float", "string", "bool", "list", "string-bow-weights"],
)
def test_a_base_that_is_not_an_int_is_named(capsys, command, base, shown):
    # these once reported list indexing and a failed '<=' between int and str; then a TypeError,
    # except for the bool, which was a ValueError with other words
    diagram = '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1],"base":%s}' % base
    code, out = run(capsys, "bow", command, diagram)
    assert code == 2
    message = f"bow diagram record field 'base' must be integers, got {shown}"
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


TWO_NODE_CIRCLE = '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"o"}],"dims":[1,1],"params":[{"sym":1}],"base":0}'
A2_LINE = (
    '{"shape":"line","nodes":[{"kind":"o"},{"kind":"x"},{"kind":"x"},{"kind":"x"}],'
    '"dims":[0,1,1,1,0],"params":[{"sym":1}]}'
)


@pytest.mark.parametrize(
    "diagram, pos, message",
    [
        (TWO_NODE_CIRCLE, "7", "must be in 0..1, got 7"),
        (TWO_NODE_CIRCLE, "-1", "must be in 0..1, got -1"),
    ],
    ids=["circle-past-end", "circle-negative"],
)
def test_hw_position_off_a_transition_is_a_domain_error(capsys, diagram, pos, message):
    code, out = run(capsys, "bow", "hw", diagram, "--pos", pos)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and message in error["message"]


@pytest.mark.parametrize(
    "argv",
    [("invariants",), ("hw", "--pos", "1"), ("weights",), ("separate",), ("search",)],
    ids=lambda argv: argv[0],
)
def test_a_line_diagram_is_a_domain_error(capsys, argv):
    # every bow diagram of affine type A sits on a circle
    code = main(["bow", argv[0], A2_LINE, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == {"type": "ValueError", "message": "shape must be 'circle'"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "diagram",
    [
        '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"z"}],"dims":[1,1],"base":0}',
        '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1],"base":5}',
        '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"x"}],"dims":[1,1],"base":-1}',
        # a bool is an int to Python; True must not pass as position 1
        '{"shape":"circle","nodes":[{"kind":"o"},{"kind":"x"}],"dims":[1,2],"params":[{"sym":1}],"base":true}',
    ],
    ids=["kind-z", "base-past-end", "base-negative", "base-bool"],
)
def test_malformed_bow_json_is_a_domain_error(capsys, diagram):
    code, out = run(capsys, "bow", "invariants", diagram)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "record, says",
    [
        ('{"n":2,"l":1,"tlambda":[],"mu":[0,0],"v0":1,"params":[{"sym":1}]}', "need l = 1 entries"),
        ('{"n":2,"l":1,"tlambda":[1],"mu":[0,0],"v0":1,"params":[]}', "need l = 1 entries"),
        ('{"n":2,"l":1,"tlambda":[1,5],"mu":[0],"v0":1,"params":[{"sym":1},{"sym":1}]}', "need l = 1 entries"),
        ('{"n":2,"l":2,"tlambda":[1,5],"mu":[0,0],"v0":1,"params":[{"sym":1},{"sym":1}]}', "must be distinct"),
        ('{"n":0,"l":1,"tlambda":[1],"mu":[],"v0":1,"params":[{"sym":1}]}', "n >= 1"),
        ('{"n":2,"l":1,"tlambda":[1],"mu":[0,0],"v0":-1,"params":[{"sym":1}]}', "v0 >= 0"),
        (
            '{"n":2,"l":1,"tlambda":[1],"mu":[0,0],"v0":1,"params":["x"]}',
            "separated record field 'params' must be a list of l objects, each with an integer 'sym'",
        ),
        ('{"n":2,"l":1,"tlambda":[1],"v0":1,"params":[{"sym":1}]}', "separated record has no field 'mu'"),
        ('{"n":2,"l":1,"tlambda":[1],"mu":[0,0],"v0":1,"params":null}', "separated record field 'params' must be"),
    ],
    ids=[
        "short-tlambda",
        "short-params",
        "short-mu",
        "repeated-symbol",
        "rank-zero",
        "negative-v0",
        "params-entry-not-an-object",
        "missing-mu",
        "params-null",
    ],
)
def test_malformed_separated_record_is_a_domain_error(capsys, record, says):
    code, out = run(capsys, "bow", "rotate", record)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and says in error["message"]


@pytest.mark.parametrize(
    "argv, first",
    [
        # 9,027 diagrams: far more than a pipe buffers, so a write meets the closed pipe mid-document
        (["maya", "enumerate", "--query", '{"n":3,"l":3,"row_charges":[0,0,0],"column_stats":[0,0,0],"v0":5}'], 1),
        # a short document closed before any read: only the flush on the way out meets the closed pipe
        (["weights", "dominant", L0], 0),
    ],
)
def test_reader_closing_the_pipe_early_gets_exit_1_and_no_traceback(argv, first):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bowforge.__file__)))
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered, as it is by default on a pipe
    cmd = [sys.executable, "-m", "bowforge.cli", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(first)) == first
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert proc.returncode == 1
    assert err == b""


def test_answer_too_long_to_print_is_a_domain_error(capsys):
    # (N, -N) at level 1 reduces to delta N^2, which has about twice the digits of N
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length to text")
    big = "9" * (limit // 2 + 50)
    code, out = run(capsys, "weights", "dominant", f'{{"n":2,"level":1,"profile":[{big},-{big}],"delta":0}}')
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and "integer string conversion" in error["message"]


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bowforge.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "bowforge.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "calls",
    [
        [("weights", "nonsense"), ("weights", "dominant", L0)],
        [("--pretty", "weights", "dominant", L0), ("weights", "dominant", L0)],
        [("bow", "search", "BALANCED", "--bound", "6"), ("bow", "search", "BALANCED")],
        [("oracle", "verify-char", "--n", "2", "--depth", "0"), ("oracle", "verify-char", "--n", "2")],
    ],
    ids=["usage-error-then-valid", "pretty-then-plain", "bound-then-default", "depth-then-default"],
)
def test_reused_parser_keeps_no_state_between_calls(capsys, calls):
    # dims (7, 7, 7): over a bound of 6, within the default 8
    _, balanced = run(capsys, "bow", "balance", "--lambda", L0, "--mu", '{"n":2,"level":1,"profile":[0,0],"delta":-7}')
    calls = [[balanced if a == "BALANCED" else a for a in argv] for argv in calls]
    results = []
    for argv in calls:
        code = main(argv)
        results.append((code, capsys.readouterr().out))
    assert results == [_fresh_process(argv) for argv in calls]
    assert results[0] != results[1]


def test_a_deep_string_top_returns_at_once(capsys):
    # the 1-string through L0 - N delta tops out at 2 isqrt(N), found by bisection
    mu = '{"n":2,"level":1,"profile":[0,0],"delta":-100000000}'
    code, out = run(capsys, "oracle", "string", "--lambda", L0, "--mu", mu, "--index", "1")
    assert code == 0 and out == '{"string_top":20000}'


# 50,000 levels: past the recursion limit of the JSON parser, well under the 128 KB limit of one argument
DEEP_JSON = "[" * 50_000


@pytest.mark.parametrize("command", [("weights", "dominant"), ("bow", "weights")])
@pytest.mark.parametrize("source", ["inline", "file", "stdin"])
def test_deeply_nested_json_is_a_domain_error(capsys, monkeypatch, tmp_path, command, source):
    arg = DEEP_JSON
    if source == "file":
        arg = str(tmp_path / "deep.json")
        with open(arg, "w", encoding="utf-8") as fh:
            fh.write(DEEP_JSON)
    elif source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP_JSON))
        arg = "-"
    code = main([*command, arg])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == {"type": "ValueError", "message": "JSON input is nested too deeply"}
    assert captured.err == ""


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "reference", "session.json")


def test_recorded_cli_surface(capsys):
    # the reference holds argv over all 25 leaf subcommands, usage and domain errors and verify
    # AC-1 .. AC-9, each with its [exit code, stdout]; a verify record leaves out each criterion's seconds
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    differ = []
    for key, want in recorded.items():
        argv = json.loads(key)
        code = main(argv)
        out = capsys.readouterr().out
        if argv[0] == "verify" and out:
            doc = json.loads(out)
            for r in doc["results"]:
                r.pop("seconds")
            out = json.dumps(doc, sort_keys=True)
        if [code, out] != want:
            differ.append(argv)
    assert recorded
    assert not differ, f"{len(differ)} of {len(recorded)} argv differ, the first: {differ[:5]}"


def test_the_module_entry_point_prints_the_recorded_verify_output():
    # `python -m bowforge.cli`, as CI's acceptance step runs it, in a fresh process
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)[json.dumps(["verify", "--suite", "ac3"])]
    code, out = _fresh_process(["verify", "--suite", "ac3"])
    doc = json.loads(out)
    for r in doc["results"]:
        r.pop("seconds")
    assert code == 0 and [code, json.dumps(doc, sort_keys=True)] == want


def _weight(n, level, profile, delta):
    return json.dumps({"n": n, "level": level, "profile": profile, "delta": delta}, separators=(",", ":"))


def _mult(lam, mu):
    return ("oracle", "mult", "--lambda", _weight(*lam), "--mu", _weight(*mu))


def _query(n, l, v0):
    query = {"n": n, "l": l, "row_charges": [0] * n, "column_stats": [0] * l, "v0": v0}
    return json.dumps(query, separators=(",", ":"))


# (0, 0) and (1, -1) at n = 2, level 2, 2 delta apart: the pair of the rank-one restriction at i = 0
LEVEL_2 = (2, 2, [0, 0], 0)
MU_RANK_ONE = (2, 2, [1, -1], -2)
STRATA = '[{"kappa":0,"tau1":1,"tau2":1,"v":0},{"kappa":2,"tau1":2,"tau2":0,"v":1}]'
OFF_X0 = (
    '{"base":1,"dims":[2,1,2,1],"nodes":[{"kind":"o"},{"kind":"x"},{"kind":"o"},{"kind":"x"}],'
    '"params":[{"nu_star":1,"sym":2},{"nu_star":0,"sym":1}],"shape":"circle"}'
)
ON_X0 = (
    '{"base":0,"dims":[1,1,1,1],"nodes":[{"kind":"x"},{"kind":"o"},{"kind":"x"},{"kind":"o"}],'
    '"params":[{"nu_star":0,"sym":2},{"nu_star":0,"sym":1}],"shape":"circle"}'
)


@pytest.mark.parametrize(
    "argv, want",
    [
        # L0 - 1000 delta at n = 2 has multiplicity p(1000), by Frenkel-Kac
        (_mult((2, 1, [0, 0], 0), (2, 1, [0, 0], -1000)), '{"multiplicity":24061467864032622473692149727991}'),
        # lambda = L0 + delta/2: mu at delta -7/2 is L0 - 4 delta shifted alike, p(4) = 5; at delta -4 it
        # lies off the root lattice (gap 9/2)
        (_mult((2, 1, [0, 0], "1/2"), (2, 1, [0, 0], "-7/2")), '{"multiplicity":5}'),
        (_mult((2, 1, [0, 0], "1/2"), (2, 1, [0, 0], -4)), '{"multiplicity":0}'),
        # n = 3, level 2: 2L0 - (4, 3, 2) in simple roots, its rotation under 2L1, its reflection
        # i -> 2 - i under 2L2 and its reflection i -> -i under 2L0
        (_mult((3, 2, [0, 0, 0], 0), (3, 2, [1, 1, -2], -4)), '{"multiplicity":12}'),
        (_mult((3, 2, [2, 0, 0], 0), (3, 2, [0, 1, 1], -2)), '{"multiplicity":12}'),
        (_mult((3, 2, [2, 2, 0], 0), (3, 2, [1, 1, 2], -2)), '{"multiplicity":12}'),
        (_mult((3, 2, [0, 0, 0], 0), (3, 2, [2, -1, -1], -4)), '{"multiplicity":12}'),
        # mu + k alpha_1 leaves the root cone of L0 past k = 3, so the bisection stops there
        (("oracle", "string", "--lambda", L0, "--mu", _weight(2, 1, [0, 0], -3), "--index", "1"), '{"string_top":2}'),
        # i = 0: lambda' = 2 and mu' = 0, tau1 = profile[-1] + level + v and tau2 = profile[0] - v on each stratum
        (
            ("maya", "sl2", "--lambda", _weight(*LEVEL_2), "--mu", _weight(*MU_RANK_ONE), "--index", "0"),
            '{"lambda_prime":2,"mu_prime":0,"strata":%s}' % STRATA,
        ),
        # the same lambda' and mu' read as the top of the 0-string and the 0-th coroot pairing
        (
            ("oracle", "string", "--lambda", _weight(*LEVEL_2), "--mu", _weight(*MU_RANK_ONE), "--index", "0"),
            '{"string_top":2}',
        ),
        (("weights", "pairing", _weight(*MU_RANK_ONE), "--index", "0"), '{"pairing":0}'),
        # (N, -N) at level 1 reduces to (0, 0) with delta N^2; a reflection walk would take N steps
        (
            ("weights", "dominant", _weight(2, 1, [10**12, -(10**12)], 0)),
            '{"delta":1000000000000000000000000,"level":1,"n":2,"profile":[0,0]}',
        ),
        # n = l = 3, v0 = 5: 9,027 Maya diagrams; the digest pins the list and its order
        (
            ("maya", "enumerate", "--query", _query(3, 3, 5)),
            "sha256:75d14d0a2e9c42368657db37219630b4594c060ed1319e890a47f15c6c4961ef",
        ),
        # n = 3, l = 2 and its transpose n = 2, l = 3, zero margins, v0 = 5: 1,506 diagrams each
        (("maya", "enumerate", "--query", _query(3, 2, 5)), {"count": 1506}),
        (("maya", "enumerate", "--query", _query(2, 3, 5)), {"count": 1506}),
        # the balanced diagram is reached only when circle 2 passes x_0 anticlockwise once more than
        # clockwise: it loses its unit of nu_star, and x_0 moves from position 1 to position 0
        (("bow", "search", OFF_X0, "--bound", "4"), '{"balanced":[%s],"count":1}' % ON_X0),
    ],
    ids=[
        "deep-oracle", "rational-delta-on-lattice", "rational-delta-off-lattice",
        "cycle-symmetry", "cycle-rotation", "cycle-reflection-2-i", "cycle-reflection-minus-i",
        "string-top", "rank-one-restriction", "rank-one-string-top", "rank-one-pairing", "far-alcove",
        "fixed-point-enumeration", "fixed-point-count", "fixed-point-count-transposed", "search-across-x0",
    ],
)
def test_a_single_call_prints_its_pinned_value(capsys, argv, want):
    # want is the exact stdout, its SHA-256 as "sha256:<hex>", or a dict of fields of the document
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if isinstance(want, dict):
        doc = json.loads(out)
        assert {k: doc[k] for k in want} == want
    elif want.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == want
    else:
        assert out == want + "\n"


def _staircase(n):
    """The level-n weight with profile (n - 1, ..., 0) and the one 3 delta below it."""
    profile = list(range(n - 1, -1, -1))
    return _weight(n, n, profile, 0), _weight(n, n, profile, -3)


def test_search_from_a_wide_balanced_diagram_finds_only_it(capsys):
    # n = l = 8 with v = (3, ..., 3): the search visits every reachable state with dims <= 10
    lam, mu = _staircase(8)
    _, diagram = run(capsys, "bow", "balance", "--lambda", lam, "--mu", mu)
    code, out = run(capsys, "bow", "search", diagram, "--bound", "10")
    assert code == 0 and out == '{"balanced":[%s],"count":1}' % diagram


def test_invariants_survive_a_transition_across_x0_at_walk_size(capsys):
    # n = l = 12, the size of the benchmark's walks: the transition at segment 0 carries circle 12
    # clockwise across x_0 and moves the base to 1; the links and quadratic sums survive, n_h does not
    lam, mu = _staircase(12)
    _, diagram = run(capsys, "bow", "balance", "--lambda", lam, "--mu", mu)
    _, moved = run(capsys, "bow", "hw", diagram, "--pos", "0")
    before = json.loads(run(capsys, "bow", "invariants", diagram)[1])
    after = json.loads(run(capsys, "bow", "invariants", moved)[1])
    assert json.loads(moved)["base"] == 1
    for key in ("pair_h", "pair_x", "quad_h", "quad_x"):
        assert before[key] == after[key], key
    assert before["n_h"] != after["n_h"]


def test_a_wide_transpose_read_from_stdin_round_trips(capsys, monkeypatch):
    # rank = level = 20,000 with a_i = -floor(i/2): summing over every (entry, column) pair would take
    # 8*10^8 floor divisions, the residue count 40,000 steps; the transpose is an involution
    r = 20_000
    entries = [-(i // 2) for i in range(1, r + 1)]
    wide = json.dumps({"entries": entries, "level": r, "rank": r}, separators=(",", ":")) + "\n"
    out = wide
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert main(["gyd", "transpose", "-"]) == 0
        out = capsys.readouterr().out
    assert out == wide


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("bow", "balance", "--lambda", _weight(2, 1, [0, 0], 1), "--mu", L0),
            "dominant weight must have delta coefficient 0",
        ),
        (
            ("bow", "balance", "--lambda", _weight(2, 1, [1, 1], 0), "--mu", L0),
            "dominant profile must be charge-normalized (last entry 0)",
        ),
        (
            ("bow", "balance", "--lambda", _weight(2, 0, [0, 0], 0), "--mu", _weight(2, 0, [0, 0], 0)),
            "level must be >= 1",
        ),
        (
            ("bow", "rotate", '{"n":1,"l":0,"tlambda":[],"mu":[0],"v0":0,"params":[]}'),
            "rotation needs at least one circle",
        ),
        (
            ("bow", "rotate", '{"n":1,"l":1,"tlambda":[5],"mu":[5],"v0":0,"params":[{"sym":1}]}'),
            "rotation not realizable: new base dimension -4 < 0",
        ),
        (
            ("bow", "rotate", '{"n":2,"l":1,"tlambda":[1],"mu":[0],"v0":1,"params":[{"sym":1}]}'),
            "mu needs n = 2 entries",
        ),
        (
            ("bow", "weights", '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1]}'),
            "weight dictionary needs at least one circle",
        ),
        (
            ("bow", "invariants", '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"o"}],"dims":[1,1],"params":[]}'),
            "params must list one entry per circle node",
        ),
        (
            ("bow", "invariants", '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[-1]}'),
            "segment dimensions must be nonnegative",
        ),
        (
            ("bow", "invariants", '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1,1]}'),
            "circle needs one segment per node",
        ),
        (
            (
                "bow",
                "invariants",
                '{"shape":"circle","nodes":[{"kind":"x"},{"kind":"o"},{"kind":"o"}],"dims":[1,1,1],'
                '"params":[{"sym":1},{"sym":1}]}',
            ),
            "circle parameter symbols must be distinct",
        ),
        (("maya", "enumerate", "--query", _query(0, 1, 0)), "need n >= 1 rows and block width l >= 1"),
        (("maya", "enumerate", "--query", _query(1, 0, 0)), "need n >= 1 rows and block width l >= 1"),
        (
            ("maya", "enumerate", "--query", '{"n":1,"l":1,"row_charges":[0,0],"column_stats":[0],"v0":0}'),
            "target lengths must match n and l",
        ),
        (("maya", "enumerate"), "enumerate needs either --query or both --lambda and --mu"),
        (("maya", "enumerate", "--lambda", L0), "enumerate needs either --query or both --lambda and --mu"),
        (
            ("maya", "deformed", "--lambda1", L0, "--lambda2", _weight(3, 1, [0, 0, 0], 0), "--mu", _weight(*LEVEL_2)),
            "rank mismatch",
        ),
        (
            ("maya", "deformed", "--lambda1", L0, "--lambda2", L0, "--mu", L0),
            "levels of the factors must sum to the level of mu",
        ),
        (
            ("maya", "deformed", "--lambda1", _weight(2, 0, [0, 0], 0), "--lambda2", L0, "--mu", L0),
            "queries need level >= 1",
        ),
        (
            ("maya", "deformed", "--lambda1", _weight(2, 1, [0, 1], 0), "--lambda2", L0, "--mu", _weight(*LEVEL_2)),
            "factor weights must be dominant",
        ),
        (("maya", "unwind", "--n", "2", "--split", "[[2,0,1]]"), "residue out of range"),
        (("gyd", "transpose", '{"rank":0,"level":1,"entries":[]}'), "rank must be >= 1"),
        (("gyd", "transpose", '{"rank":1,"level":-1,"entries":[0]}'), "level must be >= 0"),
        (("gyd", "transpose", '{"rank":2,"level":1,"entries":[0]}'), "entry count must equal rank"),
        (("gyd", "transpose", '{"rank":2,"level":3,"entries":[0,1]}'), "entries not weakly decreasing: [0, 1]"),
        (("gyd", "transpose", '{"rank":2,"level":1,"entries":[2,0]}'), "level-1 constraint violated: [2, 0]"),
        (("gyd", "transpose", '{"rank":1,"level":0,"entries":[0]}'), "transpose needs level >= 1"),
        (("weights", "dominant", _weight(0, 1, [], 0)), "rank must be >= 1"),
        (("weights", "dominant", _weight(1, -1, [0], 0)), "level must be >= 0"),
        (("weights", "dominant", _weight(2, 1, [0], 0)), "profile length 1 != rank 2"),
    ],
    ids=[
        "balance-delta", "balance-not-normalized", "balance-level-0",
        "rotate-no-circle", "rotate-negative-base", "separated-short-mu",
        "weights-no-circle", "bow-params-count", "bow-negative-dim", "bow-dims-length", "bow-repeated-symbol",
        "query-n-0", "query-l-0", "query-target-lengths", "enumerate-no-input", "enumerate-lambda-only",
        "deformed-rank", "deformed-levels", "deformed-level-0", "deformed-not-dominant",
        "unwind-residue",
        "gyd-rank-0", "gyd-level-negative", "gyd-entry-count", "gyd-increasing", "gyd-level-constraint",
        "gyd-transpose-level-0",
        "weight-rank-0", "weight-level-negative", "weight-profile-length",
    ],
)
def test_a_domain_check_prints_its_exact_error(capsys, argv, message):
    # each check of the library and the record readers, reached from the command line
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 2
    assert out == json.dumps({"error": {"message": message, "type": "ValueError"}}, separators=(",", ":")) + "\n"


# what a mutated field becomes: every JSON type but the int, each kept small so no answer grows
MUTANTS = (None, True, False, 1.5, "a", "1/2", [], [0], {}, {"n": 1})


def _json_args(argv):
    """(position, document) of every argument of argv that is a JSON object or list."""
    for k, arg in enumerate(argv):
        try:
            doc = json.loads(arg)
        except ValueError:
            continue
        if isinstance(doc, (dict, list)):
            yield k, doc


def _mutate(doc, rng):
    """`doc` with one field deleted or one value, at any depth or the whole, replaced by a mutant."""
    doc = copy.deepcopy(doc)
    holders = [(None, None)]  # (container, key or index); (None, None) is the document itself
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            holders.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = rng.choice(holders)
    if node is None:
        return rng.choice(MUTANTS)
    if isinstance(node, dict) and rng.random() < 0.3:
        del node[key]
    else:
        node[key] = copy.deepcopy(rng.choice(MUTANTS))
    return doc


def test_a_mutated_json_argument_never_escapes_the_error_net(capsys):
    # the net catches ValueError, ArithmeticError and OSError only: a record reader or a check that
    # raised a TypeError or KeyError on a field of the wrong type would end in a traceback here
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = [json.loads(key) for key in json.load(fh)]
    targets = [(argv, k, doc) for argv in recorded for k, doc in _json_args(argv)]
    rng = random.Random(33)
    codes = []
    for _ in range(500):
        argv, k, doc = rng.choice(targets)
        mutated = argv[:k] + [json.dumps(_mutate(doc, rng))] + argv[k + 1 :]
        codes.append(main(mutated))
        capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert codes.count(2) > 250, codes.count(2)
