"""The three numerical kernels other modules share.

``_schmidt_coefficients`` is the one computation of the Schmidt coefficients
of held states: every maximal-entanglement check, flag check and Schmidt rank
reads it, as does the search's best state; every orthonormality check reads
``_gram_deviation``.  ``_entropy`` is the von Neumann entropy of a spectrum,
which ``channel.analyze`` reads off the complement frame.  All are private
and pure; their callers hold states and spectra that earlier stages admitted.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import ContractViolationError

__all__ = []

#: Eigenvalues at or below this are exact zeros in ``_entropy``.
EIGENVALUE_CLIP = 1e-12


def _schmidt_coefficients(rows, d: int, dprime: int) -> np.ndarray:
    """Singular values, descending, of each row of ``rows`` reshaped to
    d x dprime: the Schmidt coefficients of each row as a state.

    ``rows`` is one amplitude vector or a stack of them; the result has one
    row of d values per vector.  A LAPACK failure to converge propagates as
    numpy raises it; ``umeb`` reports it as a numerical failure (exit 2).
    """
    return np.linalg.svd(np.reshape(rows, (-1, d, dprime)), compute_uv=False)


def _gram_deviation(rows: np.ndarray) -> float:
    """``max |conj(rows) rows^T - I|``, the largest deviation of the rows'
    Gram matrix from the identity; 0.0 for no rows, NaN for a NaN entry."""
    return float(np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max(initial=0.0))


def _entropy(vals: np.ndarray, log_base: float) -> float:
    """Entropy ``-sum(lam * log(lam))``, in base ``log_base``, of a density
    matrix with eigenvalues ``vals``; ``log_base`` finite, above 0, not 1.

    The sum in nats is clamped at 0: a pure spectrum whose eigenvalue rounds
    to ``1 + eps`` would give ``-eps``, and ``+ 0.0`` clears only ``-0.0``."""
    if not (isfinite(log_base) and log_base > 0 and log_base != 1):
        raise ContractViolationError(
            f"log base must be finite, above 0 and not 1, got {log_base!r}"
        )
    vals = vals[vals > EIGENVALUE_CLIP]
    return float(max(-(vals * np.log(vals)).sum(), 0.0) / np.log(log_base)) + 0.0
