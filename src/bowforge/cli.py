"""Command-line interface.

Every subcommand reads JSON (inline, from a file path, or '-' for stdin),
writes one JSON document to stdout, and exits 0 on success, 1 on usage
errors and 2 on domain errors (reported as a structured error object).  A
reader that closes stdout early (`| head`) gets exit code 1 and no
traceback.  Output key order and list order are deterministic, so results
are byte-stable across runs.

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
    Report,
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


def _ints(arg: str) -> list[int]:
    return [int(x) for x in arg.replace(",", " ").split()]


def _dumps(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report_json(rep: Report) -> dict:
    return {
        "passed": rep.passed,
        "rows": [{"label": r.label, "ok": r.ok, "detail": r.detail} for r in rep.rows],
    }


@functools.cache
def _parser() -> _Parser:
    p = _Parser(prog="bowforge", description=__doc__)
    p.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="affine weight operations")
    wsub = w.add_subparsers(dest="action", required=True)
    wp = wsub.add_parser("pair", help="weight pair from dimension data")
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--level", type=int, required=True)
    wp.add_argument("--w", required=True, help="comma-separated marks, length n")
    wp.add_argument("--v", required=True, help="comma-separated root coefficients, length n")
    wd = wsub.add_parser("dominant", help="alcove representative")
    wd.add_argument("weight", help="weight JSON (inline, file, or -)")
    wc = wsub.add_parser("pairing", help="coroot pairing")
    wc.add_argument("weight")
    wc.add_argument("--index", type=int, required=True)
    wo = wsub.add_parser("dominance", help="dominance order test with witness")
    wo.add_argument("--mu", required=True)
    wo.add_argument("--lambda", dest="lam", required=True)
    wg = wsub.add_parser("generic", help="generic cocharacter test")
    wg.add_argument("--m", required=True, help="comma-separated rationals")

    g = sub.add_parser("gyd", help="generalized Young diagram operations")
    gsub = g.add_subparsers(dest="action", required=True)
    gt = gsub.add_parser("transpose")
    gt.add_argument("diagram")
    gr = gsub.add_parser("rotate")
    gr.add_argument("diagram")

    b = sub.add_parser("bow", help="bow diagram operations")
    bsub = b.add_subparsers(dest="action", required=True)
    for name, needs_pos in (
        ("invariants", False),
        ("hw", True),
        ("weights", False),
        ("separate", False),
        ("search", False),
    ):
        bp = bsub.add_parser(name)
        bp.add_argument("diagram", help="bow diagram JSON (inline, file, or -)")
        if needs_pos:
            bp.add_argument("--pos", type=int, required=True, help="middle segment index")
        if name == "search":
            bp.add_argument("--bound", type=int, default=8)
    bb = bsub.add_parser("balance")
    bb.add_argument("--lambda", dest="lam", required=True)
    bb.add_argument("--mu", required=True)
    br = bsub.add_parser("rotate")
    br.add_argument("record", help="separated-form JSON")

    m = sub.add_parser("maya", help="fixed-point operations")
    msub = m.add_subparsers(dest="action", required=True)
    me = msub.add_parser("enumerate")
    me.add_argument("--lambda", dest="lam")
    me.add_argument("--mu")
    me.add_argument("--query", help="raw target JSON {n,l,row_charges,column_stats,v0}")
    mx = msub.add_parser("exists")
    mx.add_argument("--lambda", dest="lam", required=True)
    mx.add_argument("--mu", required=True)
    md = msub.add_parser("deformed")
    md.add_argument("--lambda1", required=True)
    md.add_argument("--lambda2", required=True)
    md.add_argument("--mu", required=True)
    ms = msub.add_parser("sl2")
    ms.add_argument("--lambda", dest="lam", required=True)
    ms.add_argument("--mu", required=True)
    ms.add_argument("--index", type=int, required=True)
    mu_ = msub.add_parser("unwind")
    mu_.add_argument("--n", type=int, required=True)
    mu_.add_argument("--split", required=True, help="JSON list of [residue, winding, count]")

    o = sub.add_parser("oracle", help="representation-theoretic oracle")
    osub = o.add_subparsers(dest="action", required=True)
    om = osub.add_parser("mult")
    om.add_argument("--lambda", dest="lam", required=True)
    om.add_argument("--mu", required=True)
    os_ = osub.add_parser("string")
    os_.add_argument("--lambda", dest="lam", required=True)
    os_.add_argument("--mu", required=True)
    os_.add_argument("--index", type=int, required=True)
    of = osub.add_parser("fock-count")
    of.add_argument("--n", type=int, required=True)
    of.add_argument("--mu", required=True)
    ov = osub.add_parser("verify-serre")
    ov.add_argument("--n", type=int, required=True)
    ov.add_argument("--depth", type=int, default=4)
    oc = osub.add_parser("verify-char")
    oc.add_argument("--n", type=int, required=True)
    oc.add_argument("--depth", type=int, default=4)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--suite", default="all")

    return p


def _dispatch(args) -> tuple[dict, int]:
    if args.command == "weights":
        if args.action == "pair":
            lam, mu = weight_pair_from_dims(args.n, args.level, _ints(args.w), _ints(args.v))
            return {"lambda": weight_to_json(lam), "mu": weight_to_json(mu)}, 0
        if args.action == "dominant":
            return weight_to_json(to_dominant(_load_weight(args.weight))), 0
        if args.action == "pairing":
            return {"pairing": coroot_pairing(_load_weight(args.weight), args.index)}, 0
        if args.action == "dominance":
            ok, witness = dominance_leq(_load_weight(args.mu), _load_weight(args.lam))
            out = {"leq": ok}
            if witness is not None:
                out["coefficients"] = list(witness.coeffs)
            return out, 0
        if args.action == "generic":
            from fractions import Fraction

            vals = [Fraction(x) for x in args.m.replace(",", " ").split()]
            return {"generic": generic_cocharacter(vals)}, 0

    if args.command == "gyd":
        d = gyd_from_json(_load_json(args.diagram))
        if args.action == "transpose":
            return gyd_to_json(gyd_transpose(d)), 0
        if args.action == "rotate":
            return gyd_to_json(gyd_rotate(d)), 0

    if args.command == "bow":
        if args.action == "balance":
            d = balanced_form(_load_weight(args.lam), _load_weight(args.mu))
            return bow_to_json(d), 0
        if args.action == "rotate":
            sf = rotate_base(separated_from_json(_load_json(args.record)))
            return separated_to_json(sf), 0
        d = bow_from_json(_load_json(args.diagram))
        if args.action == "invariants":
            rec = invariants(d)
            return {
                "n_h": [list(t) for t in rec.n_h],
                "n_x": [list(t) for t in rec.n_x],
                "pair_h": [[list(k), v] for k, v in rec.pair_h],
                "pair_x": [[list(k), v] for k, v in rec.pair_x],
                "quad_h": rec.quad_h,
                "quad_x": rec.quad_x,
            }, 0
        if args.action == "hw":
            return bow_to_json(hw_transition(d, args.pos)), 0
        if args.action == "weights":
            lam, mu = weights_of(d)
            return {"lambda": weight_to_json(lam), "mu": weight_to_json(mu)}, 0
        if args.action == "separate":
            return separated_to_json(separated_form(d)), 0
        if args.action == "search":
            found = hw_reachable_balanced(d, args.bound)
            return {"count": len(found), "balanced": [bow_to_json(b) for b in found]}, 0

    if args.command == "maya":
        if args.action == "enumerate":
            if args.query:
                j = _load_json(args.query)
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
            }, 0
        if args.action == "exists":
            return {"exists": t_fixed_point_exists(_load_weight(args.lam), _load_weight(args.mu))}, 0
        if args.action == "deformed":
            pts = deformed_fixed_points(
                _load_weight(args.lambda1), _load_weight(args.lambda2), _load_weight(args.mu)
            )
            return {
                "count": len(pts),
                "points": [
                    {
                        "mu1": weight_to_json(p.mu1),
                        "mu2": weight_to_json(p.mu2),
                        "v1": list(p.v1),
                        "v2": list(p.v2),
                    }
                    for p in pts
                ],
            }, 0
        if args.action == "sl2":
            # rank-one restriction: mu' = <mu, h_i>, lambda' the top of the i-string through mu,
            # and one stratum per v with kappa = mu' + 2v and tau1 - tau2 = kappa
            lam, mu, i = _load_weight(args.lam), _load_weight(args.mu), args.index
            mu_p = coroot_pairing(mu, i)
            top = string_top(lam, mu, i)
            b1, b2 = (mu.profile[-1] + mu.level, mu.profile[0]) if i == 0 else mu.profile[i - 1 : i + 1]
            strata = [
                {"kappa": mu_p + 2 * v, "tau1": b1 + v, "tau2": b2 - v, "v": v}
                for v in range((top - mu_p) // 2 + 1)
            ]
            return {"lambda_prime": top, "mu_prime": mu_p, "strata": strata}, 0
        if args.action == "unwind":
            w = unwind_to_a_infinity(args.n, _load_json(args.split))
            return {
                "coefficients": [[i, c] for i, c in w.coeffs],
                "residue_totals": list(w.residue_totals(args.n)),
            }, 0

    if args.command == "oracle":
        if args.action == "mult":
            m = freudenthal_mult(_load_weight(args.lam), _load_weight(args.mu))
            return {"multiplicity": m}, 0
        if args.action == "string":
            top = string_top(_load_weight(args.lam), _load_weight(args.mu), args.index)
            return {"string_top": top}, 0
        if args.action == "fock-count":
            return {"count": fock_weight_count(args.n, _load_weight(args.mu))}, 0
        if args.action == "verify-serre":
            rep = serre_and_commutator_check(args.n, args.depth)
            return _report_json(rep), 0 if rep.passed else DOMAIN_EXIT
        if args.action == "verify-char":
            rep = char_factorization_check(args.n, args.depth)
            return _report_json(rep), 0 if rep.passed else DOMAIN_EXIT

    if args.command == "verify":
        results = acceptance.run(args.suite)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name}: {status}  [{r.seconds:.2f}s]  {r.detail}", file=sys.stderr)
        ok = all(r.passed for r in results)
        return {
            "passed": ok,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
                for r in results
            ],
        }, 0 if ok else DOMAIN_EXIT

    raise ValueError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        out, code = _dispatch(args)
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
