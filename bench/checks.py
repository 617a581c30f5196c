"""Correctness checks on the outputs the benchmark collects.

Every check recomputes what it needs with plain numpy, from the inputs the
benchmark generated, or tests a property the method must have.  None of them
compares against a stored copy of an earlier output.  A failed check raises
:class:`CheckError` with a message that names what was wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Acceptance threshold on ``1 - F`` of a reported witness; the default of
#: ``umebkit.SearchConfig.witness_tol``.
WITNESS_TOL = 1e-6


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def parse_json(stdout: str) -> dict:
    """The single JSON document a ``--json`` command printed."""
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not one JSON document: {exc}") from exc


def pairs_to_array(pairs) -> np.ndarray:
    """Nested ``[real, imag]`` pairs to a complex array, every bit kept
    (``re + 1j * im`` would turn a -0.0 real part into 0.0)."""
    arr = np.asarray(pairs, dtype=float)
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def weyl_amplitudes(d: int, dprime: int) -> np.ndarray:
    """Rows ``(U_nm (x) I)|Phi>`` ordered by ``(n, m)``, from the definition
    ``U_nm |p> = zeta^{n p} |p + m mod d>`` and ``|Phi> = sum_p |p>|p> / sqrt(d)``."""
    out = np.zeros((d * d, d * dprime), dtype=complex)
    p = np.arange(d)
    for n in range(d):
        for m in range(d):
            out[n * d + m, ((p + m) % d) * dprime + p] = (
                np.exp(2j * np.pi * n * p / d) / np.sqrt(d)
            )
    return out


def weyl_complement_frame(d: int, dprime: int) -> np.ndarray:
    """Orthonormal columns spanning the complement of the Weyl family.

    The family spans ``C^d (x) span{|0>..|d-1>}`` on B, so its complement is
    ``C^d (x) span{|d>..|d'-1>}``: the basis vectors with B index >= d.
    """
    idx = [i * dprime + j for i in range(d) for j in range(d, dprime)]
    return np.eye(d * dprime, dtype=complex)[:, idx]


def expect_weyl_verdict(d: int, dprime: int) -> str:
    """The paper's result: the family is a UMEB exactly when d'/2 < d."""
    return "unextendible" if 2 * d > dprime else "extendible"


def check_bits_equal(what: str, got: np.ndarray, want: np.ndarray) -> None:
    require(
        got.shape == want.shape and got.tobytes() == want.tobytes(),
        f"{what}: not bit-for-bit equal",
    )


def check_weyl_members(amps: np.ndarray, d: int, dprime: int, tol: float = 1e-12) -> None:
    dev = float(np.abs(amps - weyl_amplitudes(d, dprime)).max())
    require(dev <= tol, f"Weyl({d},{dprime}) members off the definition by {dev:.3e}")


def check_basis_properties(amps: np.ndarray, me_flags, d: int, dprime: int) -> None:
    """Orthonormal rows; flagged rows maximally entangled, the others product."""
    k = amps.shape[0]
    gram_dev = float(np.abs(amps.conj() @ amps.T - np.eye(k)).max())
    require(gram_dev <= 1e-12, f"basis Gram deviation {gram_dev:.3e}")
    for i, flag in enumerate(me_flags):
        s = np.linalg.svd(amps[i].reshape(d, dprime), compute_uv=False)
        if flag:
            dev = float(np.abs(s - 1 / np.sqrt(d)).max())
            require(dev <= 1e-12, f"member {i}: Schmidt deviation {dev:.3e}")
        else:
            require(s[1] <= 1e-12, f"member {i}: product member has Schmidt rank > 1")


def check_witness(
    amps: np.ndarray,
    d: int,
    dprime: int,
    *,
    frame: np.ndarray,
    members: np.ndarray | None = None,
    reported_F: float | None = None,
    found: bool = True,
    tol: float = 1e-9,
) -> float:
    """A searched state: unit norm, inside ``range(frame)``, orthogonal to
    ``members``, F recomputed from numpy's singular values and, when the
    search reported a find, maximally entangled within :data:`WITNESS_TOL`.
    Returns the recomputed F."""
    amps = np.asarray(amps, dtype=complex)
    require(amps.shape == (d * dprime,), f"witness has shape {amps.shape}")
    norm_dev = abs(float(np.linalg.norm(amps)) - 1.0)
    require(norm_dev <= tol, f"witness norm off by {norm_dev:.3e}")
    outside = float(np.linalg.norm(amps - frame @ (frame.conj().T @ amps)))
    require(outside <= tol, f"witness lies {outside:.3e} outside the searched subspace")
    if members is not None:
        overlap = float(np.abs(members.conj() @ amps).max())
        require(overlap <= tol, f"witness overlaps a member by {overlap:.3e}")
    s = np.linalg.svd(amps.reshape(d, dprime), compute_uv=False)
    F = float(s.sum() ** 2 / d)
    if reported_F is not None:
        require(abs(F - reported_F) <= 1e-9, f"reported F {reported_F!r} != recomputed {F!r}")
    if found:
        require(1.0 - F <= WITNESS_TOL, f"witness is not maximally entangled (1 - F = {1 - F:.3e})")
    return F


def check_certificate(
    fields: dict,
    d: int,
    dprime: int,
    *,
    members: np.ndarray,
    frame: np.ndarray,
    witness: np.ndarray | None,
    tol: float = 1e-9,
) -> None:
    """A certify report on the Weyl(d, d') family (or a slight tilt of it)."""
    verdict = expect_weyl_verdict(d, dprime)
    require(fields["verdict"] == verdict, f"verdict {fields['verdict']!r}, expected {verdict!r}")
    require(
        fields["b_support_rank"] == dprime - d,
        f"b_support_rank {fields['b_support_rank']}, expected {dprime - d}",
    )
    require(
        fields["complement_dimension"] == d * (dprime - d),
        f"complement dimension {fields['complement_dimension']}, expected {d * (dprime - d)}",
    )
    if verdict == "unextendible":
        require(witness is None, "an unextendible verdict carries a witness")
        require(fields["schmidt_rank_bound"] < d, "unextendible with Schmidt rank bound >= d")
    else:
        require(witness is not None, "an extendible verdict carries no witness")
        check_witness(
            witness, d, dprime, frame=frame, members=members,
            reported_F=fields["search_best_F"], tol=tol,
        )


def check_channel(
    entropy_A: float,
    entropy_B: float,
    d: int,
    dprime: int,
    *,
    marginal_A: np.ndarray | None = None,
    marginal_B: np.ndarray | None = None,
    tol: float = 1e-9,
) -> None:
    """Natural-log entropies ``log(d' - d)`` and ``log d`` of the complement state; with
    marginals given, the Weyl closed forms: the B-side operator is the
    projector on levels >= d over ``d' - d``, the A-side one is ``I/d``."""
    want_A = math.log(dprime - d)
    want_B = math.log(d)
    require(abs(entropy_A - want_A) <= tol, f"entropy_A {entropy_A!r}, expected {want_A!r}")
    require(abs(entropy_B - want_B) <= tol, f"entropy_B {entropy_B!r}, expected {want_B!r}")
    if marginal_A is not None:
        want = np.diag([0.0] * d + [1.0 / (dprime - d)] * (dprime - d))
        dev = float(np.abs(marginal_A - want).max())
        require(dev <= tol, f"marginal_A off its closed form by {dev:.3e}")
    if marginal_B is not None:
        dev = float(np.abs(marginal_B - np.eye(d) / d).max())
        require(dev <= tol, f"marginal_B off I/d by {dev:.3e}")


def check_overlaps(overlaps: np.ndarray, dim: int, *, unbiased: bool) -> None:
    """Every overlap ``1/sqrt(dim)`` for a MUB pair; identity magnitudes for a
    basis against itself."""
    want = np.full((dim, dim), 1 / np.sqrt(dim)) if unbiased else np.eye(dim)
    dev = float(np.abs(np.asarray(overlaps) - want).max())
    require(dev <= 1e-9, f"overlaps off target by {dev:.3e}")


def check_pauli(operators: list, d: int) -> None:
    """Entries of ``U_nm = sum_k zeta^{n k} |k+m mod d><k|`` for all (n, m)."""
    seen = set()
    for op in operators:
        n, m = op["n"], op["m"]
        want = np.zeros((d, d), dtype=complex)
        for k in range(d):
            want[(k + m) % d, k] = np.exp(2j * np.pi * n * k / d)
        dev = float(np.abs(pairs_to_array(op["entries"]) - want).max())
        require(dev <= 1e-12, f"U[{n},{m}] off the definition by {dev:.3e}")
        seen.add((n, m))
    require(len(seen) == d * d, f"{len(seen)} operators, expected {d * d}")
