"""The two numerical kernels other modules share.

:func:`svd` is the phase-fixed SVD that ``states.schmidt`` takes its Schmidt
vectors from; ``_entropy`` is the von Neumann entropy of a spectrum, which
``channel.analyze`` reads off the complement frame.  Both are pure and
enforce their preconditions with :class:`ContractViolationError`.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import ContractViolationError, NumericalFailureError

__all__ = ["svd"]

#: Eigenvalues at or below this are exact zeros in ``_entropy``.
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


def _entropy(vals: np.ndarray, log_base: float) -> float:
    """Entropy ``-sum(lam * log(lam))``, in base ``log_base``, of a density
    matrix with eigenvalues ``vals``; ``log_base`` finite, above 0, not 1."""
    if not (isfinite(log_base) and log_base > 0 and log_base != 1):
        raise ContractViolationError(
            f"log base must be finite, above 0 and not 1, got {log_base!r}"
        )
    vals = vals[vals > EIGENVALUE_CLIP]
    return float(-(vals * np.log(vals)).sum() / np.log(log_base)) + 0.0
