"""Command-line interface.

Subcommands: construct, verify, certify, search, mub, channel, pauli.
Exit codes are a stable contract: 0 success/affirmative, 1 property-negative,
3 inconclusive, and 2 for all else: a usage or format error, a request too large
to allocate, a numerical failure, or a bug (its traceback on standard error).
Each ``cmd_*`` function returns its exit code, its report (what ``--json``
writes) and its text: a callable that formats the lines printed without
``--json``, or None where the report is the output (``construct`` without
``-o``).  :func:`main` alone writes standard output, once the command has
returned.  With ``--json`` the machine report is the only thing on standard
output, and no text is formatted; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from .bases import (
    build_c23_first,
    build_c23_second,
    build_weyl_umeb,
    complement_projector,
)
from .channel import analyze
from .errors import ContractViolationError, FileFormatError, NumericalFailureError
from .fileio import _dumps, _report_fields, basis_to_obj, load_basis, save_basis, save_state
from .linalg import _gram_deviation
from .mub import overlap_matrix
from .search import SearchConfig, _search, certify
from .states import _weyl_operators, weyl_operator
from .tolerances import EXACT_TOL, MAX_SPACE_DIM, ME_TOL, check_tol

__all__ = ["main"]


def _format_matrix(M: np.ndarray) -> str:
    rows = []
    for row in M:
        rows.append("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return "\n".join(rows)


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


def cmd_construct(args) -> tuple:
    if args.kind == "weyl":
        if args.d is None or args.dprime is None:
            raise ContractViolationError("--kind weyl requires --d and --dprime")
        # the cap only for valid dimensions: build_weyl_umeb names invalid ones
        if 2 <= args.d < args.dprime and args.d * args.dprime > MAX_SPACE_DIM:
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
        return 0, None, lambda: [f"{summary} -> {args.out}"]
    print(summary, file=sys.stderr)
    return 0, basis_to_obj(basis), None  # no text: the document is the output


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


def cmd_verify(args) -> tuple:
    basis = load_basis(args.path, check_orthonormal=False)
    gram_dev = _gram_deviation(basis.amplitudes)
    rows = [
        MemberCheck(k, basis.labels[k] if basis.labels else None, float(dev), flag,
                    bool(dev <= ME_TOL) == flag)
        for k, (dev, flag) in enumerate(zip(basis.me_deviations(), basis.me_flags))
    ]
    passed = gram_dev <= args.tol and all(row.consistent for row in rows)

    def text():
        yield f"gram deviation: {gram_dev:.3e} (tol {args.tol:g})"
        for row in rows:
            name = f" ({row.label})" if row.label else ""
            yield (
                f"state {row.index}{name}: me deviation {row.me_deviation:.3e}, "
                f"flag {str(row.me_flag).lower()}, "
                f"{'ok' if row.consistent else 'INCONSISTENT'}"
            )
        yield f"result: {'pass' if passed else 'fail'}"

    return (0 if passed else 1), VerifyReport(gram_dev, args.tol, rows, passed), text


def cmd_certify(args) -> tuple:
    report = certify(load_basis(args.path), _search_config(args))

    def text():
        yield f"method: {report.method}"
        yield f"complement dimension: {report.complement_dimension}"
        yield (
            f"support ranks: A-side {report.a_support_rank}, "
            f"B-side {report.b_support_rank}"
        )
        yield f"schmidt rank bound: {report.schmidt_rank_bound}"
        if report.method == "numeric-search":
            yield f"seed: {args.seed}, restarts: {args.restarts}"
            yield f"restarts used: {report.restarts_used}"
        if report.search_best_F is not None:
            yield f"search best F: {report.search_best_F:.12f}"
        yield f"verdict: {report.verdict}"

    code = {"unextendible": 0, "extendible": 1, "inconclusive": 3}[report.verdict]
    return code, {**_report_fields(report), "seed": args.seed, "restarts": args.restarts}, text


def cmd_search(args) -> tuple:
    basis = load_basis(args.path)
    P = complement_projector(basis, me_only=not args.all_members)
    result = _search(P, basis.d, basis.dprime, _search_config(args))
    if args.out:
        save_state(args.out, result.best_state)
        print(f"best state -> {args.out}", file=sys.stderr)
    report = {**_report_fields(result), "seed": args.seed}
    return (0 if result.verdict == "found_me" else 1), report, lambda: [
        f"seed: {args.seed}, restarts: {args.restarts}",
        f"restarts used: {result.restarts_used}",
        f"restarts polished: {result.restarts_polished}",
        f"best F: {result.best_F:.12f}",
        f"sqrt(d) * s_min: {result.best_min_coeff_scaled:.12f}",
        f"iterations (best restart): {result.iterations_used}",
        f"converged: {str(result.converged).lower()}",
        f"verdict: {result.verdict}",
    ]


def cmd_mub(args) -> tuple:
    basis_a = load_basis(args.path_a)
    basis_b = load_basis(args.path_b)
    report = overlap_matrix(basis_a, basis_b, tol=args.tol)
    return (0 if report.is_mub else 1), report, lambda: [
        f"dimension: {report.dim}, target overlap: {report.target:.10f}",
        f"max deviation: {report.max_deviation:.3e} (tol {args.tol:g})",
        f"mutually unbiased: {'yes' if report.is_mub else 'no'}",
    ]


def cmd_channel(args) -> tuple:
    basis = load_basis(args.path)
    log_base = {"2": 2.0, "e": math.e}.get(args.log_base, float(basis.d))
    report = analyze(basis, log_base=log_base, me_only=not args.all_members)
    return 0, {"d": basis.d, "dprime": basis.dprime, **_report_fields(report)}, lambda: [
        f"complement state on C{basis.d} x C{basis.dprime}",
        f"trace-preserving deviation: {report.trace_preserving_deviation:.3e}",
        f"unitality deviation: {report.unitality_deviation:.6f}",
        f"entropy_A (B-side marginal): {report.entropy_A:.9f}",
        f"entropy_B (A-side marginal): {report.entropy_B:.9f}",
        f"log base: {report.log_base:g}",
        "marginal_A:",
        _format_matrix(report.marginal_A),
        "marginal_B:",
        _format_matrix(report.marginal_B),
    ]


def cmd_pauli(args) -> tuple:
    if not (2 <= args.d and args.d * args.d <= MAX_SPACE_DIM):
        raise ContractViolationError(
            f"--d must satisfy 2 <= d and d*d <= {MAX_SPACE_DIM}, got {args.d}"
        )
    if (args.n is None) != (args.m is None):
        raise ContractViolationError("--n and --m must be given together")
    if args.n is not None:
        operators = [(args.n, args.m, weyl_operator(args.d, args.n, args.m))]
    else:  # one stack, not d^2 calls that each build it
        operators = [(*divmod(k, args.d), U) for k, U in enumerate(_weyl_operators(args.d))]

    def text():
        for n, m, U in operators:
            yield f"U[n={n}, m={m}] for d={args.d}:"
            yield _format_matrix(U)

    report = {
        "d": args.d,
        "operators": [
            {"n": n, "m": m, "entries": U}
            for n, m, U in operators
        ],
    }
    return 0, report, text


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
    c.set_defaults(func=cmd_construct, json=False)

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
        code, report, text = args.func(args)
        print(_dumps(report) if args.json or text is None else "\n".join(text()))
        return code
    except (ContractViolationError, FileFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (NumericalFailureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
    except Exception:  # a bug: exit 2 with its traceback, never a verdict's code
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
