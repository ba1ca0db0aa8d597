"""Command-line interface.

Every subcommand reads JSON (inline, from a file path, or '-' for stdin),
writes one JSON document to stdout, and exits 0 on success, 1 on usage
errors and 2 on domain errors (reported as a structured error object) or
on a failing check (a document with "passed": false).  A reader that
closes stdout early (`| head`) gets exit code 1 and no traceback.  Output
key order and list order are deterministic, so results are byte-stable
across runs.

The argument parser is built once per process, on the first `main` call,
and reused; each call parses into a fresh namespace, so `main` can be
called repeatedly in-process and one call leaves no state for the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import acceptance
from .bow import (
    O_KIND,
    X_KIND,
    BowDiagram,
    SeparatedForm,
    balanced_form,
    hw_reachable_balanced,
    hw_transition,
    invariants,
    o_node,
    rotate_base,
    separated_form,
    weights_of,
    x_node,
)
from .fock import (
    char_factorization_check,
    fock_weight_count,
    freudenthal_mult,
    serre_and_commutator_check,
    string_top,
)
from .maya import (
    FixedPointQuery,
    MayaDiagram,
    deformed_fixed_points,
    enumerate_fixed_points,
    t_fixed_point_exists,
    unwind_to_a_infinity,
)
from .weights import (
    AffineWeight,
    _as_fraction,
    coroot_pairing,
    dominance_leq,
    exact_ints,
    generic_cocharacter,
    to_dominant,
    weight_pair_from_dims,
)
from .young import GYDiagram, gyd_rotate, gyd_transpose

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_json(arg: str):
    if arg == "-":
        text = sys.stdin.read()
    elif os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = arg
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


# -- JSON records: the one place that knows the record format --------------
#
# A reader takes one JSON argument (inline, a file path, or '-') and returns the
# checked object; a writer returns the record as a dict for `_dumps`.


def json_record(j, record: str, fields: dict[str, str]) -> dict:
    """`j` if it is a JSON object holding every field of `fields`, a map from field to expected shape.

    Otherwise a ValueError names `record` and, for a missing field, the field and its shape.
    """
    if not isinstance(j, dict):
        names = ", ".join(map(repr, fields))
        raise ValueError(f"{record} must be a JSON object with fields {names}, got {type(j).__name__}")
    for field, shape in fields.items():
        if field not in j:
            raise ValueError(f"{record} has no field {field!r}: {shape}")
    return j


def _objects_with(value, key: str) -> bool:
    """Whether a JSON value is a list of objects that each hold `key`."""
    return isinstance(value, list) and all(isinstance(e, dict) and key in e for e in value)


def _fraction_to_json(x: Fraction):
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def weight_to_json(w: AffineWeight) -> dict:
    return {"n": w.n, "level": w.level, "profile": list(w.profile), "delta": _fraction_to_json(w.delta)}


_WEIGHT_FIELDS = {"n": "an integer >= 1", "level": "an integer >= 0", "profile": "a list of n integers"}


def weight_from_json(arg: str) -> AffineWeight:
    """The weight in one JSON argument, as weight_to_json writes it; a delta is an int or a rational string."""
    d = json_record(_load_json(arg), "weight record", _WEIGHT_FIELDS)
    try:
        delta = _as_fraction(d.get("delta", 0))
    except ValueError as e:
        raise ValueError(f"weight record field 'delta': {e}") from None
    return AffineWeight(d["n"], d["level"], d["profile"], delta)


def _lam_mu(args) -> tuple[AffineWeight, AffineWeight]:
    """The weights of a call's --lambda and --mu."""
    return weight_from_json(args.lam), weight_from_json(args.mu)


def _pair_json(lam, mu) -> dict:
    return {"lambda": weight_to_json(lam), "mu": weight_to_json(mu)}


def gyd_to_json(d: GYDiagram) -> dict:
    return {"rank": d.rank, "level": d.level, "entries": list(d.entries)}


_GYD_FIELDS = {"rank": "an integer >= 1", "level": "an integer >= 0", "entries": "a list of rank integers"}


def gyd_from_json(arg: str) -> GYDiagram:
    j = json_record(_load_json(arg), "Young diagram record", _GYD_FIELDS)
    return GYDiagram(j["rank"], j["level"], j["entries"])


def bow_to_json(d: BowDiagram) -> dict:
    nodes = []
    params = []
    base = None
    for k, nd in enumerate(d.nodes):
        nodes.append({"kind": nd[0]})
        if nd[0] == O_KIND:
            params.append({"sym": nd[1], "nu_star": nd[2]})
        elif nd[1] == 0:
            base = k
    return {"shape": d.shape, "nodes": nodes, "dims": list(d.dims), "params": params, "base": base}


_BOW_FIELDS = {
    "shape": "'circle'",
    "nodes": "a list of objects, each with a 'kind' of 'x' or 'o'",
    "dims": "a list of nonnegative integers, one per node",
}


def bow_from_json(arg: str) -> BowDiagram:
    j = json_record(_load_json(arg), "bow diagram record", _BOW_FIELDS)
    shape = j["shape"]
    params = j.get("params", [])
    if not _objects_with(j["nodes"], "kind"):
        raise ValueError(f"bow diagram record field 'nodes' must be {_BOW_FIELDS['nodes']}")
    if not _objects_with(params, "sym"):
        raise ValueError(
            "bow diagram record field 'params' must be a list of objects, one per circle node,"
            " each with an integer 'sym' and an optional integer 'nu_star'"
        )
    kinds = [nd["kind"] for nd in j["nodes"]]
    if any(k not in (X_KIND, O_KIND) for k in kinds):
        raise ValueError("node kind must be 'x' or 'o'")
    if len(params) != kinds.count(O_KIND):
        raise ValueError("params must list one entry per circle node")
    start = j.get("base")
    if start is None:
        start = kinds.index(X_KIND) if X_KIND in kinds else None
    else:
        (start,) = exact_ints((start,), "bow diagram record field 'base'")
    if start is None or not 0 <= start < len(kinds) or kinds[start] != X_KIND:
        raise ValueError("circle JSON needs a cross at the base position")
    # crosses are numbered anticlockwise from the base
    n, xi = kinds.count(X_KIND), -kinds[:start].count(X_KIND)
    nodes = []
    circles = iter(params)
    for kind in kinds:
        if kind == X_KIND:
            nodes.append(x_node(xi % n))
            xi += 1
        else:
            p = next(circles)
            nodes.append(o_node(p["sym"], p.get("nu_star", 0)))
    return BowDiagram(shape, tuple(nodes), j["dims"])


def separated_to_json(sf: SeparatedForm) -> dict:
    return {
        "n": sf.n,
        "l": sf.l,
        "tlambda": list(sf.tlambda),
        "mu": list(sf.mu),
        "v0": sf.v0,
        "params": [{"sym": s, "nu_star": nu} for s, nu in sf.params],
    }


_SEPARATED_FIELDS = {
    "n": "an integer >= 1",
    "l": "an integer >= 0",
    "tlambda": "a list of l integers",
    "mu": "a list of n integers",
    "v0": "an integer >= 0",
    "params": "a list of l objects, each with an integer 'sym' and an optional integer 'nu_star'",
}


def separated_from_json(arg: str) -> SeparatedForm:
    j = json_record(_load_json(arg), "separated record", _SEPARATED_FIELDS)
    params = j["params"]
    if not _objects_with(params, "sym"):
        raise ValueError(f"separated record field 'params' must be {_SEPARATED_FIELDS['params']}")
    return SeparatedForm(
        j["n"], j["l"], j["tlambda"], j["mu"], j["v0"], tuple((p["sym"], p.get("nu_star", 0)) for p in params)
    )


def maya_to_json(m: MayaDiagram) -> dict:
    n, l, rows = m
    return {"n": n, "l": l, "rows": [list(r) for r in rows]}


_QUERY_FIELDS = {
    "n": "an integer >= 1",
    "l": "an integer >= 1",
    "row_charges": "a list of n integers",
    "column_stats": "a list of l integers",
    "v0": "an integer >= 0",
}


def _comma_list(arg: str, option: str, kind, what: str) -> list:
    """The entries of a comma-separated option value, each read by `kind`.

    An empty entry is refused, not dropped, and an entry `kind` cannot read
    is a ValueError naming the option and the entry.
    """
    entries = arg.split(",")
    if not all(e.strip() for e in entries):
        raise ValueError(f"{option} has an empty entry in {arg!r}; give comma-separated values")
    out = []
    for e in entries:
        try:
            out.append(kind(e))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{option} entry {e!r} in {arg!r} is not {what}") from None
    return out


def _ints(arg: str, option: str) -> list[int]:
    return _comma_list(arg, option, int, "an integer")


def _dumps(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report_json(rows: list[tuple[str, bool, str]]) -> dict:
    return {
        "passed": all(ok for _, ok, _ in rows),
        "rows": [{"label": label, "ok": ok, "detail": detail} for label, ok, detail in rows],
    }


# -- handlers: each takes the parsed namespace and returns the JSON document --


def _dominance(args) -> dict:
    ok, witness = dominance_leq(weight_from_json(args.mu), weight_from_json(args.lam))
    return {"leq": ok} if witness is None else {"leq": ok, "coefficients": list(witness.coeffs)}


def _invariants(args) -> dict:
    # the record is flat; the document labels each value with its circle symbol
    # or cross index, circles sorted by symbol
    rec = invariants(bow_from_json(args.diagram))
    circles, n = rec.circles, len(rec.n_x)
    return {
        "n_h": sorted([s, v] for s, v in zip(circles, rec.n_h)),
        "n_x": [[i, v] for i, v in enumerate(rec.n_x)],
        "pair_h": sorted([[s, circles[j - 1]], v] for j, (s, v) in enumerate(zip(circles, rec.pair_h))),
        "pair_x": [[[i, (i + 1) % n], v] for i, v in enumerate(rec.pair_x)],
        "quad_h": rec.quad_h,
        "quad_x": rec.quad_x,
    }


def _search(args) -> dict:
    found = hw_reachable_balanced(bow_from_json(args.diagram), args.bound)
    return {"count": len(found), "balanced": [bow_to_json(b) for b in found]}


def _enumerate(args) -> dict:
    if args.query:
        j = json_record(_load_json(args.query), "query record", _QUERY_FIELDS)
        q = FixedPointQuery(j["n"], j["l"], j["row_charges"], j["column_stats"], j["v0"])
    elif args.lam and args.mu:
        q = FixedPointQuery.from_weights(*_lam_mu(args))
    else:
        raise ValueError("enumerate needs either --query or both --lambda and --mu")
    res = enumerate_fixed_points(q)
    # the v0 target bounds every flip, so the enumeration is always complete
    return {
        "count": len(res.diagrams),
        "complete": True,
        "derived_bound": q.v0,
        "diagrams": [maya_to_json(mm) for mm in res.diagrams],
    }


def _deformed(args) -> dict:
    pts = deformed_fixed_points(*map(weight_from_json, (args.lambda1, args.lambda2, args.mu)))
    return {
        "count": len(pts),
        "points": [
            {"mu1": weight_to_json(mu1), "mu2": weight_to_json(mu2), "v1": list(v1), "v2": list(v2)}
            for mu1, mu2, v1, v2 in pts
        ],
    }


def _sl2(args) -> dict:
    # rank-one restriction: mu' = <mu, h_i>, lambda' the top of the i-string through mu,
    # and one stratum per v with kappa = mu' + 2v and tau1 - tau2 = kappa
    (lam, mu), i = _lam_mu(args), args.index
    mu_p = coroot_pairing(mu, i)
    top = string_top(lam, mu, i)
    b1, b2 = (mu.profile[-1] + mu.level, mu.profile[0]) if i == 0 else mu.profile[i - 1 : i + 1]
    strata = [{"kappa": mu_p + 2 * v, "tau1": b1 + v, "tau2": b2 - v, "v": v} for v in range((top - mu_p) // 2 + 1)]
    return {"lambda_prime": top, "mu_prime": mu_p, "strata": strata}


def _unwind(args) -> dict:
    coeffs = unwind_to_a_infinity(args.n, _load_json(args.split))
    totals = [0] * args.n
    for idx, c in coeffs:
        totals[idx % args.n] += c
    return {"coefficients": [[i, c] for i, c in coeffs], "residue_totals": totals}


def _verify(args) -> dict:
    results = acceptance.run(args.suite)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: {status}  [{r.seconds:.2f}s]  {r.detail}", file=sys.stderr)
    return {
        "passed": all(r.passed for r in results),
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
            for r in results
        ],
    }


def _leaf(sub, name: str, run, **kwargs) -> _Parser:
    """Subcommand `name` of `sub`; parsing it sets `args.run`, the handler `main` calls."""
    leaf = sub.add_parser(name, **kwargs)
    leaf.set_defaults(run=run)
    return leaf


def _weight_options(parser: _Parser, *flags: str, required: bool = True) -> None:
    """One weight JSON option per flag (`lambda`, `mu`, ...); `--lambda` is stored as `args.lam`."""
    for flag in flags:
        parser.add_argument(f"--{flag}", dest="lam" if flag == "lambda" else flag, required=required)


@functools.cache
def _parser() -> _Parser:
    # --help shows the module docstring without its last paragraph, the note on how the parser is kept
    p = _Parser(prog="bowforge", description=__doc__.rsplit("\n\n", 1)[0])
    p.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="affine weight operations")
    wsub = w.add_subparsers(dest="action", required=True)
    wp = _leaf(
        wsub,
        "pair",
        lambda a: _pair_json(*weight_pair_from_dims(a.n, a.level, _ints(a.w, "--w"), _ints(a.v, "--v"))),
        help="weight pair from dimension data",
    )
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--level", type=int, required=True)
    wp.add_argument("--w", required=True, help="comma-separated marks, length n")
    wp.add_argument("--v", required=True, help="comma-separated root coefficients, length n")
    wd = _leaf(
        wsub,
        "dominant",
        lambda a: weight_to_json(to_dominant(weight_from_json(a.weight))),
        help="alcove representative",
    )
    wd.add_argument("weight", help="weight JSON (inline, file, or -)")
    wc = _leaf(
        wsub,
        "pairing",
        lambda a: {"pairing": coroot_pairing(weight_from_json(a.weight), a.index)},
        help="coroot pairing",
    )
    wc.add_argument("weight")
    wc.add_argument("--index", type=int, required=True)
    _weight_options(_leaf(wsub, "dominance", _dominance, help="dominance order test with witness"), "mu", "lambda")
    wg = _leaf(
        wsub,
        "generic",
        lambda a: {"generic": generic_cocharacter(_comma_list(a.m, "--m", Fraction, "a rational number"))},
        help="generic cocharacter test",
    )
    wg.add_argument("--m", required=True, help="comma-separated rationals")

    g = sub.add_parser("gyd", help="generalized Young diagram operations")
    gsub = g.add_subparsers(dest="action", required=True)
    gt = _leaf(gsub, "transpose", lambda a: gyd_to_json(gyd_transpose(gyd_from_json(a.diagram))))
    gt.add_argument("diagram")
    gr = _leaf(gsub, "rotate", lambda a: gyd_to_json(gyd_rotate(gyd_from_json(a.diagram))))
    gr.add_argument("diagram")

    b = sub.add_parser("bow", help="bow diagram operations")
    bsub = b.add_subparsers(dest="action", required=True)
    diagram_help = "bow diagram JSON (inline, file, or -)"
    _leaf(bsub, "invariants", _invariants).add_argument("diagram", help=diagram_help)
    bh = _leaf(bsub, "hw", lambda a: bow_to_json(hw_transition(bow_from_json(a.diagram), a.pos)))
    bh.add_argument("diagram", help=diagram_help)
    bh.add_argument("--pos", type=int, required=True, help="middle segment index")
    bw = _leaf(bsub, "weights", lambda a: _pair_json(*weights_of(bow_from_json(a.diagram))))
    bw.add_argument("diagram", help=diagram_help)
    bs = _leaf(bsub, "separate", lambda a: separated_to_json(separated_form(bow_from_json(a.diagram))))
    bs.add_argument("diagram", help=diagram_help)
    bq = _leaf(bsub, "search", _search)
    bq.add_argument("diagram", help=diagram_help)
    bq.add_argument("--bound", type=int, default=8)
    bb = _leaf(bsub, "balance", lambda a: bow_to_json(balanced_form(*_lam_mu(a))))
    _weight_options(bb, "lambda", "mu")
    br = _leaf(bsub, "rotate", lambda a: separated_to_json(rotate_base(separated_from_json(a.record))))
    br.add_argument("record", help="separated-form JSON")

    m = sub.add_parser("maya", help="fixed-point operations")
    msub = m.add_subparsers(dest="action", required=True)
    me = _leaf(msub, "enumerate", _enumerate)
    _weight_options(me, "lambda", "mu", required=False)
    me.add_argument("--query", help="raw target JSON {n,l,row_charges,column_stats,v0}")
    mx = _leaf(msub, "exists", lambda a: {"exists": t_fixed_point_exists(*_lam_mu(a))})
    _weight_options(mx, "lambda", "mu")
    _weight_options(_leaf(msub, "deformed", _deformed), "lambda1", "lambda2", "mu")
    ms = _leaf(msub, "sl2", _sl2)
    _weight_options(ms, "lambda", "mu")
    ms.add_argument("--index", type=int, required=True)
    mu_ = _leaf(msub, "unwind", _unwind)
    mu_.add_argument("--n", type=int, required=True)
    mu_.add_argument("--split", required=True, help="JSON list of [residue, winding, count]")

    o = sub.add_parser("oracle", help="representation-theoretic oracle")
    osub = o.add_subparsers(dest="action", required=True)
    om = _leaf(osub, "mult", lambda a: {"multiplicity": freudenthal_mult(*_lam_mu(a))})
    _weight_options(om, "lambda", "mu")
    os_ = _leaf(osub, "string", lambda a: {"string_top": string_top(*_lam_mu(a), a.index)})
    _weight_options(os_, "lambda", "mu")
    os_.add_argument("--index", type=int, required=True)
    of = _leaf(osub, "fock-count", lambda a: {"count": fock_weight_count(a.n, weight_from_json(a.mu))})
    of.add_argument("--n", type=int, required=True)
    _weight_options(of, "mu")
    ov = _leaf(osub, "verify-serre", lambda a: _report_json(serre_and_commutator_check(a.n, a.depth)))
    oc = _leaf(osub, "verify-char", lambda a: _report_json(char_factorization_check(a.n, a.depth)))
    for check in (ov, oc):
        check.add_argument("--n", type=int, required=True)
        check.add_argument("--depth", type=int, default=4)

    _leaf(sub, "verify", _verify, help="run the acceptance suite").add_argument("--suite", default="all")

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        out = args.run(args)
        code = DOMAIN_EXIT if out.get("passed") is False else 0
        # inside the guard: an answer too large to serialise is a domain error too
        text = _dumps(out, args.pretty)
    except (ValueError, ArithmeticError, OSError) as exc:
        # the record readers and the library raise ValueError or ArithmeticError; reading a file, OSError
        code = DOMAIN_EXIT
        text = _dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.pretty)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): point stdout at devnull so
        # the flush at exit cannot raise again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
