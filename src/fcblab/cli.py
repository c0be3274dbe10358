"""Command-line entry point: analyze, fcb, witness, simulate, check."""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, fileio, qsim
from .behavior import verify_bb
from .errors import FcblabError
from .linalg import sigma_max
from .poly import _greedy_walk, spectral_l1, statistics, sup_norm_bruteforce
from .sdp import DEFAULT_MAX_ITERS, DEFAULT_TOL, build_fcb_sdp, extract_witness, solve_sdp
from .witnesses import (
    BML_GENERAL,
    BML_HOMOGENEOUS,
    HOMOGENEOUS_FCB,
    bml_general_witness,
    bml_homogeneous_witness,
    homogeneous_fcb_witness,
)

_KIND_FLAGS = {"fcb": HOMOGENEOUS_FCB, "bml-hom": BML_HOMOGENEOUS, "bml-gen": BML_GENERAL}


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _num(value: float) -> str:
    return "%.12g" % value


def _cmd_analyze(args) -> int:
    p = fileio.load_polynomial(args.input)
    st = statistics(p)
    report = {
        "n": p.n,
        "degree": p.degree,
        "homogeneous": p.is_homogeneous(),
        "variance": st.variance,
        "influences": list(st.influences),
        "max_influence": st.max_influence,
        "argmax_variable": st.argmax_variable,
        "sup_norm": sup_norm_bruteforce(p),
        "spectral_l1": spectral_l1(p),
    }
    if args.greedy is not None:
        y = [int(tok) for tok in args.greedy.split(",")]
        budget = args.budget if args.budget is not None else p.n
        rest, queried = _greedy_walk(p, y, budget)
        report["greedy"] = {
            "estimate": rest.constant_term,
            "queried": queried,
            "budget": budget,
            "residual_variance": statistics(rest).variance,
        }
    if args.format == "csv":
        lines = []
        for key, value in report.items():
            if key == "influences":
                lines.extend(f"influence_{i + 1},{_num(v)}" for i, v in enumerate(value))
            elif key == "greedy":
                lines.extend(f"greedy_{k},{v}" for k, v in value.items())
            else:
                lines.append(f"{key},{value if isinstance(value, (bool, int)) else _num(value)}")
        print("\n".join(lines))
    else:
        _emit(report)
    return 0


def _cmd_fcb(args) -> int:
    p = fileio.load_polynomial(args.input)
    prob = build_fcb_sdp(p, args.d)
    sol = solve_sdp(prob, tol=args.tol, max_iters=args.max_iters)
    _, primal, dual, _, _ = sol.history[-1]  # the last iteration is always a check
    _emit(
        {
            "value": sol.value,
            "lower": sol.lower,
            "upper": sol.upper,
            "gap": sol.upper - sol.lower,
            "primal_residual": primal,
            "dual_residual": dual,
            "localizer_min_eig_slack": sol.localizer_min_eig_slack,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "rho": sol.rho,
            "penalty_changes": sol.penalty_changes,
        }
    )
    if not sol.converged:
        return 1
    if args.extract_witness:
        fileio.save_witness(extract_witness(sol, prob), args.extract_witness)
    return 0


def _cmd_witness(args) -> int:
    kind = _KIND_FLAGS[args.kind]
    if kind == HOMOGENEOUS_FCB:
        cert = homogeneous_fcb_witness(fileio.load_polynomial(args.input))
        extra = {"verify_bb": verify_bb(cert.witness, checks.CERT_TOL)}
    else:
        p = fileio.load_bml(args.input)
        cert = bml_homogeneous_witness(p, args.s) if kind == BML_HOMOGENEOUS else bml_general_witness(p)
        extra = {"max_sigma": sigma_max(cert.witness.A)}
    if args.out:
        fileio.save_certificate(cert, args.out)
    _emit(
        {
            "kind": cert.kind,
            "certified_value": cert.certified_value,
            "implied_bound": cert.implied_bound,
            "s_or_D": cert.s_or_d,
            "witness_dim": cert.witness.m,
            **extra,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    qsim._check_extractable(args.n, args.queries, args.workspace)  # before drawing (n+1)*w-dimensional unitaries
    alg = qsim.random_algorithm(args.n, args.queries, args.workspace, args.seed)
    p = qsim.extract_polynomial(alg)
    report: dict = {"degree": p.degree, "degree_bound": 2 * args.queries, "degree_ok": True}
    if args.check:
        report.update(qsim.check_characterization(alg))
    if args.out:
        fileio.save_polynomial(p, args.out)
    _emit({"polynomial": fileio.polynomial_payload(p), "report": report})
    return 0


def _cmd_check(args) -> int:
    suite = args.suite
    if args.hierarchy:
        if suite is not None and suite != "hierarchy":
            raise ValueError("--hierarchy conflicts with an explicit suite name")
        suite = "hierarchy"
    if suite is None:
        raise ValueError("choose a suite or pass --hierarchy")
    rows = checks.run_suite(suite, seed=args.seed, trials=args.trials)
    summary = checks.summarize(rows)
    all_passed = all(row.passed for row in rows)
    if args.format == "json":
        _emit(
            {
                "suite": suite,
                "seed": args.seed,
                "rows": [
                    {
                        "instance": r.instance,
                        "quantity": r.quantity,
                        "lhs": r.lhs,
                        "rhs": r.rhs,
                        "margin": r.margin,
                        "pass": r.passed,
                    }
                    for r in rows
                ],
                "summary": {k: list(v) for k, v in summary.items()},
                "pass": all_passed,
            }
        )
    else:
        print("instance,quantity,lhs,rhs,margin,pass")
        for r in rows:
            print(
                f"{r.instance},{r.quantity},{_num(r.lhs)},{_num(r.rhs)},"
                f"{_num(r.margin)},{int(r.passed)}"
            )
    for quantity, (passed, total) in sorted(summary.items()):
        print(f"{quantity}: {passed}/{total}", file=sys.stderr)
    print(f"overall: {'PASS' if all_passed else 'FAIL'}", file=sys.stderr)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcblab",
        description="Fourier completely bounded norms: statistics, SDP values, "
        "influence certificates, and query-algorithm simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="Fourier statistics of a polynomial file")
    sp.add_argument("input")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--greedy", metavar="SIGNS", help="comma-separated +-1 input to simulate classically")
    sp.add_argument("--budget", type=int, help="greedy query budget (default: all variables)")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("fcb", help="solve the fcb d-norm SDP for a polynomial file")
    sp.add_argument("input")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    sp.add_argument("--extract-witness", metavar="PATH")
    sp.set_defaults(func=_cmd_fcb)

    sp = sub.add_parser("witness", help="build an influence certificate")
    sp.add_argument("input")
    sp.add_argument("--kind", choices=tuple(_KIND_FLAGS), required=True)
    sp.add_argument("--s", type=int, default=1, help="block for bml-hom (default 1)")
    sp.add_argument("--out", metavar="PATH")
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("simulate", help="run a seeded quantum query algorithm and extract its polynomial")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--queries", type=int, required=True)
    sp.add_argument("--workspace", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--check", action="store_true", help="also verify degree and fcb <= 1")
    sp.add_argument("--out", metavar="PATH", help="write the polynomial file here")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser(
        "check",
        help="run a randomized property suite",
        description="CSV columns: instance,quantity,lhs,rhs,margin,pass "
        "(pass means lhs <= rhs; margin = rhs - lhs). An SDP row compares a certified "
        "end of the fcb interval with the opposite end or an exact bound, with no slack; "
        "the ends are sound up to eigenvalue rounding. The hierarchy suite's "
        "gap_at_top_level_report row is informational and never fails.",
    )
    sp.add_argument("suite", nargs="?", choices=checks.SUITES)
    sp.add_argument("--hierarchy", action="store_true", help="alias for the hierarchy suite")
    sp.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    sp.add_argument("--trials", type=int, help="override the per-suite instance count")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FcblabError, FileNotFoundError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
