"""Command-line interface.

Subcommands: construct, verify, certify, search, mub, channel, pauli.
Exit codes are a stable contract: 0 success/affirmative, 1 property-negative,
2 usage or format error (or a request too large to allocate), 3 inconclusive.
With ``--json`` the machine report is the only thing on standard output;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bases import (
    _complement,
    build_c23_first,
    build_c23_second,
    build_weyl_umeb,
    gram_matrix,
)
from .channel import analyze
from .errors import ContractViolationError, FileFormatError, NumericalFailureError
from .fileio import _dumps, _report_fields, basis_to_obj, load_basis, save_basis, save_state
from .mub import overlap_matrix
from .search import SearchConfig, _search, certify
from .states import weyl_operator
from .tolerances import EXACT_TOL, MAX_SPACE_DIM, ME_TOL, check_tol

__all__ = ["main"]


def _format_matrix(M: np.ndarray, indent: str = "  ") -> str:
    rows = []
    for row in M:
        rows.append(indent + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return "\n".join(rows)


def _emit_json(obj) -> None:
    print(_dumps(obj))


def _search_config(args) -> SearchConfig:
    return SearchConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)


def _tolerance(text: str) -> float:
    """The type of ``--tol``: a float that :func:`check_tol` admits."""
    try:
        value = float(text)
        check_tol(value)
    except (ValueError, ContractViolationError):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}") from None
    return value


def cmd_construct(args) -> int:
    if args.kind == "weyl":
        if args.d is None or args.dprime is None:
            print("error: --kind weyl requires --d and --dprime", file=sys.stderr)
            return 2
        if args.d * args.dprime > MAX_SPACE_DIM:
            raise ContractViolationError(
                f"d*dprime = {args.d * args.dprime} exceeds the limit of {MAX_SPACE_DIM}"
            )
        basis = build_weyl_umeb(args.d, args.dprime)
    elif args.kind == "c23-first":
        basis = build_c23_first()
    else:
        basis = build_c23_second()
    n_me = sum(basis.me_flags)
    summary = (
        f"{len(basis)} states ({n_me} maximally entangled) "
        f"in C{basis.d} x C{basis.dprime}"
    )
    if args.out:
        save_basis(args.out, basis)
        print(f"{summary} -> {args.out}")
    else:
        _emit_json(basis_to_obj(basis))
        print(summary, file=sys.stderr)
    return 0


@dataclass(eq=False)
class MemberCheck:
    """One member's row of a :class:`VerifyReport`: does its flag match it?"""

    index: int
    label: str | None
    me_deviation: float
    me_flag: bool
    consistent: bool


@dataclass(eq=False)
class VerifyReport:
    """What ``umeb verify`` measured: the Gram deviation and each member's flag."""

    gram_deviation: float
    tol: float
    states: list[MemberCheck]
    passed: bool


def cmd_verify(args) -> int:
    basis = load_basis(args.path, check_orthonormal=False)
    gram_dev = float(np.abs(gram_matrix(basis) - np.eye(len(basis))).max()) if len(basis) else 0.0
    rows = [
        MemberCheck(k, basis.labels[k] if basis.labels else None, float(dev), flag,
                    bool(dev <= ME_TOL) == flag)
        for k, (dev, flag) in enumerate(zip(basis.me_deviations(), basis.me_flags))
    ]
    passed = gram_dev <= args.tol and all(row.consistent for row in rows)
    report = VerifyReport(gram_dev, args.tol, rows, passed)
    if args.json:
        _emit_json(report)
    else:
        print(f"gram deviation: {gram_dev:.3e} (tol {args.tol:g})")
        for row in rows:
            name = f" ({row.label})" if row.label else ""
            print(
                f"state {row.index}{name}: me deviation {row.me_deviation:.3e}, "
                f"flag {str(row.me_flag).lower()}, "
                f"{'ok' if row.consistent else 'INCONSISTENT'}"
            )
        print(f"result: {'pass' if passed else 'fail'}")
    return 0 if passed else 1


def cmd_certify(args) -> int:
    report = certify(load_basis(args.path), _search_config(args))
    if args.json:
        _emit_json({**_report_fields(report), "seed": args.seed, "restarts": args.restarts})
    else:
        print(f"method: {report.method}")
        print(f"complement dimension: {report.complement_dimension}")
        print(
            f"support ranks: A-side {report.a_support_rank}, "
            f"B-side {report.b_support_rank}"
        )
        print(f"schmidt rank bound: {report.schmidt_rank_bound}")
        if report.method == "numeric-search":
            print(f"seed: {args.seed}, restarts: {args.restarts}")
            print(f"restarts used: {report.restarts_used}")
        if report.search_best_F is not None:
            print(f"search best F: {report.search_best_F:.12f}")
        print(f"verdict: {report.verdict}")
    return {"unextendible": 0, "extendible": 1, "inconclusive": 3}[report.verdict]


def cmd_search(args) -> int:
    basis = load_basis(args.path)
    Q = _complement(basis, me_only=not args.all_members).Q
    result = _search(Q @ Q.conj().T, Q, basis.d, basis.dprime, _search_config(args))
    if args.out:
        save_state(args.out, result.best_state)
        print(f"best state -> {args.out}", file=sys.stderr)
    if args.json:
        _emit_json({**_report_fields(result), "seed": args.seed})
    else:
        print(f"seed: {args.seed}, restarts: {args.restarts}")
        print(f"restarts used: {result.restarts_used}")
        print(f"restarts polished: {result.restarts_polished}")
        print(f"best F: {result.best_F:.12f}")
        print(f"sqrt(d) * s_min: {result.best_min_coeff_scaled:.12f}")
        print(f"iterations (best restart): {result.iterations_used}")
        print(f"converged: {str(result.converged).lower()}")
        print(f"verdict: {result.verdict}")
    return 0 if result.verdict == "found_me" else 1


def cmd_mub(args) -> int:
    basis_a = load_basis(args.path_a)
    basis_b = load_basis(args.path_b)
    report = overlap_matrix(basis_a, basis_b, tol=args.tol)
    if args.json:
        _emit_json(report)
    else:
        print(f"dimension: {report.dim}, target overlap: {report.target:.10f}")
        print(f"max deviation: {report.max_deviation:.3e} (tol {args.tol:g})")
        print(f"mutually unbiased: {'yes' if report.is_mub else 'no'}")
    return 0 if report.is_mub else 1


def cmd_channel(args) -> int:
    basis = load_basis(args.path)
    log_base = {"2": 2.0, "e": math.e}.get(args.log_base, float(basis.d))
    report = analyze(basis, log_base=log_base, me_only=not args.all_members)
    if args.json:
        _emit_json({"d": basis.d, "dprime": basis.dprime, **_report_fields(report)})
    else:
        print(f"complement state on C{basis.d} x C{basis.dprime}")
        print(f"trace-preserving deviation: {report.trace_preserving_deviation:.3e}")
        print(f"unitality deviation: {report.unitality_deviation:.6f}")
        print(f"entropy_A (B-side marginal): {report.entropy_A:.9f}")
        print(f"entropy_B (A-side marginal): {report.entropy_B:.9f}")
        print(f"log base: {report.log_base:g}")
        print("marginal_A:")
        print(_format_matrix(report.marginal_A))
        print("marginal_B:")
        print(_format_matrix(report.marginal_B))
    return 0


def cmd_pauli(args) -> int:
    if not (2 <= args.d and args.d * args.d <= MAX_SPACE_DIM):
        raise ContractViolationError(
            f"--d must satisfy 2 <= d and d*d <= {MAX_SPACE_DIM}, got {args.d}"
        )
    if (args.n is None) != (args.m is None):
        print("error: --n and --m must be given together", file=sys.stderr)
        return 2
    if args.n is not None:
        pairs = [(args.n, args.m)]
    else:
        pairs = [(n, m) for n in range(args.d) for m in range(args.d)]
    operators = [(n, m, weyl_operator(args.d, n, m)) for n, m in pairs]
    if args.json:
        _emit_json(
            {
                "d": args.d,
                "operators": [
                    {"n": n, "m": m, "entries": U}
                    for n, m, U in operators
                ],
            }
        )
    else:
        for n, m, U in operators:
            print(f"U[n={n}, m={m}] for d={args.d}:")
            print(_format_matrix(U))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umeb",
        description=(
            "Construct, verify, and certify unextendible maximally entangled "
            "bases; analyze the complement state as a channel; check mutual "
            "unbiasedness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a basis and write a basis file")
    c.add_argument("--kind", required=True, choices=["weyl", "c23-first", "c23-second"])
    c.add_argument("--d", type=int, help="A-side dimension (weyl kind)")
    c.add_argument("--dprime", type=int, help="B-side dimension (weyl kind)")
    c.add_argument("-o", "--out", help="output path (default: JSON to stdout)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check orthonormality and entanglement flags")
    v.add_argument("path")
    v.add_argument("--tol", type=_tolerance, default=EXACT_TOL, help="Gram deviation tolerance")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    # the arguments certify and search share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("path")
    run.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    run.add_argument("--max-iters", type=int, default=SearchConfig.max_iters)
    run.add_argument("--seed", type=int, default=SearchConfig.seed)
    run.add_argument("--json", action="store_true")

    ce = sub.add_parser("certify", parents=[run],
                        help="decide unextendibility of a basis file")
    ce.set_defaults(func=cmd_certify)

    s = sub.add_parser("search", parents=[run],
                       help="search the complement for an entangled state")
    s.add_argument("--all-members", action="store_true",
                   help="complement of all members, not just the flagged ones")
    s.add_argument("-o", "--out", help="write the best state as a state file")
    s.set_defaults(func=cmd_search)

    m = sub.add_parser("mub", help="check two complete bases for mutual unbiasedness")
    m.add_argument("path_a")
    m.add_argument("path_b")
    m.add_argument("--tol", type=_tolerance, default=EXACT_TOL)
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_mub)

    ch = sub.add_parser("channel", help="analyze the complement state as a channel")
    ch.add_argument("path")
    ch.add_argument("--log-base", choices=["2", "e", "d"], default="2")
    ch.add_argument("--all-members", action="store_true",
                    help="use all members as the subtracted set")
    ch.add_argument("--json", action="store_true")
    ch.set_defaults(func=cmd_channel)

    pa = sub.add_parser("pauli", help="print shift-phase operator entries")
    pa.add_argument("--d", type=int, required=True)
    pa.add_argument("--n", type=int)
    pa.add_argument("--m", type=int)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_pauli)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ContractViolationError, FileFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
