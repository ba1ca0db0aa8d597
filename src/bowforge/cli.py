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
    balanced_form,
    bow_from_json,
    bow_to_json,
    hw_reachable_balanced,
    hw_transition,
    invariants,
    rotate_base,
    separated_form,
    separated_from_json,
    separated_to_json,
    weights_of,
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
    deformed_fixed_points,
    enumerate_fixed_points,
    maya_to_json,
    t_fixed_point_exists,
    unwind_to_a_infinity,
)
from .weights import (
    coroot_pairing,
    dominance_leq,
    generic_cocharacter,
    json_record,
    to_dominant,
    weight_from_json,
    weight_pair_from_dims,
    weight_to_json,
)
from .young import gyd_from_json, gyd_rotate, gyd_to_json, gyd_transpose

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


def _load_weight(arg: str):
    return weight_from_json(_load_json(arg))


def _load_bow(arg: str):
    return bow_from_json(_load_json(arg))


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


def _pair_json(lam, mu) -> dict:
    return {"lambda": weight_to_json(lam), "mu": weight_to_json(mu)}


def _report_json(rows: list[tuple[str, bool, str]]) -> dict:
    return {
        "passed": all(ok for _, ok, _ in rows),
        "rows": [{"label": label, "ok": ok, "detail": detail} for label, ok, detail in rows],
    }


# -- handlers: each takes the parsed namespace and returns the JSON document --


def _dominance(args) -> dict:
    ok, witness = dominance_leq(_load_weight(args.mu), _load_weight(args.lam))
    return {"leq": ok} if witness is None else {"leq": ok, "coefficients": list(witness.coeffs)}


def _invariants(args) -> dict:
    # the record is flat; the document labels each value with its circle symbol
    # or cross index, circles sorted by symbol
    rec = invariants(_load_bow(args.diagram))
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
    found = hw_reachable_balanced(_load_bow(args.diagram), args.bound)
    return {"count": len(found), "balanced": [bow_to_json(b) for b in found]}


_QUERY_FIELDS = {
    "n": "an integer >= 1",
    "l": "an integer >= 1",
    "row_charges": "a list of n integers",
    "column_stats": "a list of l integers",
    "v0": "an integer >= 0",
}


def _enumerate(args) -> dict:
    if args.query:
        j = json_record(_load_json(args.query), "query record", _QUERY_FIELDS)
        q = FixedPointQuery(j["n"], j["l"], j["row_charges"], j["column_stats"], j["v0"])
    elif args.lam and args.mu:
        q = FixedPointQuery.from_weights(_load_weight(args.lam), _load_weight(args.mu))
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
    pts = deformed_fixed_points(_load_weight(args.lambda1), _load_weight(args.lambda2), _load_weight(args.mu))
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
    lam, mu, i = _load_weight(args.lam), _load_weight(args.mu), args.index
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
        wsub, "dominant", lambda a: weight_to_json(to_dominant(_load_weight(a.weight))), help="alcove representative"
    )
    wd.add_argument("weight", help="weight JSON (inline, file, or -)")
    wc = _leaf(
        wsub, "pairing", lambda a: {"pairing": coroot_pairing(_load_weight(a.weight), a.index)}, help="coroot pairing"
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
    gt = _leaf(gsub, "transpose", lambda a: gyd_to_json(gyd_transpose(gyd_from_json(_load_json(a.diagram)))))
    gt.add_argument("diagram")
    gr = _leaf(gsub, "rotate", lambda a: gyd_to_json(gyd_rotate(gyd_from_json(_load_json(a.diagram)))))
    gr.add_argument("diagram")

    b = sub.add_parser("bow", help="bow diagram operations")
    bsub = b.add_subparsers(dest="action", required=True)
    diagram_help = "bow diagram JSON (inline, file, or -)"
    _leaf(bsub, "invariants", _invariants).add_argument("diagram", help=diagram_help)
    bh = _leaf(bsub, "hw", lambda a: bow_to_json(hw_transition(_load_bow(a.diagram), a.pos)))
    bh.add_argument("diagram", help=diagram_help)
    bh.add_argument("--pos", type=int, required=True, help="middle segment index")
    bw = _leaf(bsub, "weights", lambda a: _pair_json(*weights_of(_load_bow(a.diagram))))
    bw.add_argument("diagram", help=diagram_help)
    bs = _leaf(bsub, "separate", lambda a: separated_to_json(separated_form(_load_bow(a.diagram))))
    bs.add_argument("diagram", help=diagram_help)
    bq = _leaf(bsub, "search", _search)
    bq.add_argument("diagram", help=diagram_help)
    bq.add_argument("--bound", type=int, default=8)
    bb = _leaf(bsub, "balance", lambda a: bow_to_json(balanced_form(_load_weight(a.lam), _load_weight(a.mu))))
    _weight_options(bb, "lambda", "mu")
    br = _leaf(bsub, "rotate", lambda a: separated_to_json(rotate_base(separated_from_json(_load_json(a.record)))))
    br.add_argument("record", help="separated-form JSON")

    m = sub.add_parser("maya", help="fixed-point operations")
    msub = m.add_subparsers(dest="action", required=True)
    me = _leaf(msub, "enumerate", _enumerate)
    _weight_options(me, "lambda", "mu", required=False)
    me.add_argument("--query", help="raw target JSON {n,l,row_charges,column_stats,v0}")
    mx = _leaf(msub, "exists", lambda a: {"exists": t_fixed_point_exists(_load_weight(a.lam), _load_weight(a.mu))})
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
    om = _leaf(osub, "mult", lambda a: {"multiplicity": freudenthal_mult(_load_weight(a.lam), _load_weight(a.mu))})
    _weight_options(om, "lambda", "mu")
    os_ = _leaf(
        osub, "string", lambda a: {"string_top": string_top(_load_weight(a.lam), _load_weight(a.mu), a.index)}
    )
    _weight_options(os_, "lambda", "mu")
    os_.add_argument("--index", type=int, required=True)
    of = _leaf(osub, "fock-count", lambda a: {"count": fock_weight_count(a.n, _load_weight(a.mu))})
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
    except (ValueError, TypeError, KeyError, ArithmeticError, json.JSONDecodeError, OSError) as exc:
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
