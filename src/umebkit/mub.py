"""Mutual-unbiasedness verification for complete bases of the full space.

Two complete orthonormal bases of C^d (x) C^d' are mutually unbiased when
every cross overlap magnitude equals 1/sqrt(d*d') — the *full* space
dimension, since the bases are bases of the composite space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisSet
from .errors import ContractViolationError
from .linalg import _gram_deviation
from .tolerances import ADMIT_TOL, EXACT_TOL, check_tol

__all__ = ["OverlapReport", "overlap_matrix"]


@dataclass(eq=False)
class OverlapReport:
    """Cross-overlap magnitudes of two complete bases and the MU verdict."""

    dim: int
    target: float
    max_deviation: float
    is_mub: bool
    overlaps: np.ndarray


def overlap_matrix(B1: BasisSet, B2: BasisSet, tol: float = EXACT_TOL) -> OverlapReport:
    """All pairwise overlap magnitudes ``|<b_i|c_j>|`` of two complete bases.

    Both bases must be complete (d*d' members), live on the same (d, d'),
    and be orthonormal within 1e-6, the bound the basis loader admits.  The
    report's ``is_mub`` is whether every overlap is within ``tol`` of
    1/sqrt(d*d'); ``tol`` must be finite and at least 0.
    """
    check_tol(tol)
    if (B1.d, B1.dprime) != (B2.d, B2.dprime):
        raise ContractViolationError(
            f"dimension mismatch: ({B1.d}, {B1.dprime}) vs ({B2.d}, {B2.dprime})"
        )
    dim = B1.d * B1.dprime
    for name, B in (("first", B1), ("second", B2)):
        if len(B) != dim:
            raise ContractViolationError(
                f"{name} basis is incomplete: {len(B)} members, need {dim}"
            )
        dev = _gram_deviation(B.amplitudes)
        if dev > ADMIT_TOL:
            raise ContractViolationError(
                f"{name} basis is not orthonormal (Gram deviation {dev:.3e})"
            )
    overlaps = np.abs(B1.amplitudes.conj() @ B2.amplitudes.T)
    target = 1.0 / np.sqrt(dim)
    max_deviation = float(np.abs(overlaps - target).max())
    return OverlapReport(
        dim=dim,
        overlaps=overlaps,
        target=target,
        max_deviation=max_deviation,
        is_mub=max_deviation <= tol,
    )
