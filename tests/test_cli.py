import argparse
import io
import json
import os
import subprocess
import sys
from operator import add

import pytest

import bowforge
from bowforge import acceptance, cli
from bowforge.cli import _parser, main
from bowforge.weights import (
    coroot_pairing,
    delta_weight,
    fundamental_weight,
    simple_root,
    weight_from_marks,
    weight_to_json,
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


def test_oracle_verify_serre(capsys):
    code, out = run(capsys, "oracle", "verify-serre", "--n", "2", "--depth", "2")
    assert code == 0 and json.loads(out)["passed"] is True


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
    "argv",
    [("--n", "0", "--split", "[]"), ("--n", "-1", "--split", "[[0,0,1]]"), ("--n", "2", "--split", "{}")],
    ids=["rank-0", "rank-negative", "split-dict"],
)
def test_unwind_rejects_a_rank_below_one_and_a_split_that_is_not_a_list(capsys, argv):
    # both once exited 0: an empty table at rank 0, and the keys of the dict read as rows
    code, out = run(capsys, "maya", "unwind", *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


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
    "base, shown",
    [("0.5", "0.5"), ('"1"', "'1'"), ("true", "True"), ("[0]", "[0]")],
    ids=["float", "string", "bool", "list"],
)
def test_a_base_that_is_not_an_int_is_named(capsys, base, shown):
    # these once reported list indexing and a failed '<=' between int and str; then a TypeError,
    # except for the bool, which was a ValueError with other words
    diagram = '{"shape":"circle","nodes":[{"kind":"x"}],"dims":[1],"base":%s}' % base
    code, out = run(capsys, "bow", "invariants", diagram)
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
