"""Dense complex linear-algebra kernel used by every other module.

Matrices are plain ``numpy.ndarray`` of complex dtype.  All functions are pure
and enforce their preconditions with :class:`ContractViolationError`.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .tolerances import EXACT_TOL, FACTOR_TOL, cite

__all__ = [
    "svd",
    "hermitian_eig",
    "partial_trace",
    "von_neumann_entropy",
]

#: Eigenvalues at or below this are exact zeros in :func:`von_neumann_entropy`.
EIGENVALUE_CLIP = 1e-12


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.size == 0:
        raise ContractViolationError(f"expected a nonempty 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ContractViolationError("matrix contains non-finite entries")
    return M


def svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``M = left @ diag(s) @ right_dagger`` with descending ``s``.

    The phase of each left singular vector is fixed so that its
    largest-magnitude component is real and nonnegative (the matching row of
    ``right_dagger`` absorbs the conjugate phase), which makes the
    decomposition deterministic for a fixed input.
    """
    M = _as_matrix(M)
    try:
        left, s, right_dagger = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    # Phase normalization: rotate column k of `left` and row k of `right_dagger`
    # by a common phase so the product is unchanged.
    for k in range(s.shape[0]):
        col = left[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if np.abs(pivot) > 0:
            phase = pivot / np.abs(pivot)
            left[:, k] = col * np.conj(phase)
            right_dagger[k, :] = right_dagger[k, :] * phase
    return left, s, right_dagger


def hermitian_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as columns.  The
    input is symmetrized before decomposition; deviations from Hermiticity
    beyond 1e-10 are rejected.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ContractViolationError(f"matrix is not square: {M.shape}")
    if np.abs(M - M.conj().T).max() > FACTOR_TOL:
        raise ContractViolationError(f"matrix is not Hermitian within {cite(FACTOR_TOL)}")
    H = (M + M.conj().T) / 2
    vals, vecs = np.linalg.eigh(H)
    return vals[::-1], vecs[:, ::-1]


def partial_trace(rho, d: int, dprime: int, side: str) -> np.ndarray:
    """Trace out one subsystem of an operator on C^d (x) C^dprime.

    The composite index convention is ``(i, j) -> i * dprime + j`` with ``i``
    on the A side.  ``side`` names the subsystem that is traced *out*:

    - ``side="B"`` returns the d x d operator on A,
      ``out[i, i'] = sum_j rho[i*dprime+j, i'*dprime+j]``;
    - ``side="A"`` returns the dprime x dprime operator on B,
      ``out[j, j'] = sum_i rho[i*dprime+j, i*dprime+j']``.
    """
    rho = _as_matrix(rho)
    n = d * dprime
    if rho.shape != (n, n):
        raise ContractViolationError(
            f"operator shape {rho.shape} does not match d*dprime = {n}"
        )
    r = rho.reshape(d, dprime, d, dprime)
    if side == "B":
        return np.einsum("ijkj->ik", r)
    if side == "A":
        return np.einsum("ijil->jl", r)
    raise ContractViolationError(f"side must be 'A' or 'B', got {side!r}")


def von_neumann_entropy(rho, log_base: float = 2.0) -> float:
    """Entropy -sum(lam * log(lam)) of a density matrix, in the given base.

    Eigenvalues at or below ``EIGENVALUE_CLIP`` count as exact zeros.  The
    input must be Hermitian and PSD with unit trace (checked at 1e-9), and
    ``log_base`` finite, above 0 and not 1.
    """
    rho = _as_matrix(rho)
    if abs(np.trace(rho).real - 1.0) > EXACT_TOL or abs(np.trace(rho).imag) > EXACT_TOL:
        raise ContractViolationError(f"density matrix trace is not 1 within {cite(EXACT_TOL)}")
    if np.abs(rho - rho.conj().T).max() > EXACT_TOL:
        raise ContractViolationError(
            f"density matrix is not Hermitian within {cite(EXACT_TOL)}"
        )
    vals, _ = hermitian_eig((rho + rho.conj().T) / 2)
    if vals.min() < -EXACT_TOL:
        raise ContractViolationError(
            f"density matrix has negative eigenvalue {vals.min():.3e}"
        )
    return _entropy(vals, log_base)


def _entropy(vals: np.ndarray, log_base: float) -> float:
    """:func:`von_neumann_entropy` of a density matrix with eigenvalues ``vals``."""
    if not (isfinite(log_base) and log_base > 0 and log_base != 1):
        raise ContractViolationError(
            f"log base must be finite, above 0 and not 1, got {log_base!r}"
        )
    vals = vals[vals > EIGENVALUE_CLIP]
    return float(-(vals * np.log(vals)).sum() / np.log(log_base)) + 0.0
