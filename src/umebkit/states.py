"""Bipartite pure states, their maximal-entanglement checks, and the
shift-phase operator family.

A state of C^d (x) C^dprime is stored as a flat amplitude vector with the
A-major index convention ``|i>|j'> -> i * dprime + j``.  By convention A is
the smaller subsystem (d <= dprime), so the Schmidt coefficients are the d
singular values of the amplitudes reshaped to a d x dprime matrix
(``linalg._schmidt_coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import _gram_deviation, _schmidt_coefficients
from .tolerances import EXACT_TOL, ME_TOL, NORM_TOL, check_tol, cite

__all__ = [
    "BipartiteState",
    "schmidt_rank",
    "is_maximally_entangled",
    "weyl_operator",
    "standard_mes",
    "apply_local",
]


def _norm_errors(amplitudes: np.ndarray) -> np.ndarray:
    """``| ||row|| - 1 |`` per row of ``amplitudes`` (a scalar for one vector).

    The one norm-error computation of the admission chain: the loader,
    :class:`BipartiteState` and ``BasisSet`` all judge a vector by it, so
    none of them refuses a vector another one admitted.  Norms along the
    last axis round alike for one vector and for each row of a stack.
    """
    return np.abs(np.linalg.norm(amplitudes, axis=-1) - 1.0)


@dataclass(eq=False)
class BipartiteState:
    """Unit vector in C^d (x) C^dprime with explicit subsystem dimensions.

    Parameters
    ----------
    d : int
        Dimension of subsystem A, at least 2.
    dprime : int
        Dimension of subsystem B, at least ``d``.
    amplitudes : array_like of complex, length ``d * dprime``
        Flat amplitude vector, index convention ``|i>|j'> -> i*dprime + j``.
    """

    d: int
    dprime: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 2 <= self.d <= self.dprime:
            raise ContractViolationError(f"need 2 <= d <= dprime, got ({self.d}, {self.dprime})")
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != self.d * self.dprime:
            raise ContractViolationError(
                f"amplitude length {amp.shape[0]} != d*dprime = {self.d * self.dprime}"
            )
        if not np.all(np.isfinite(amp)):
            raise ContractViolationError("amplitudes contain non-finite entries")
        if _norm_errors(amp) > NORM_TOL:
            raise ContractViolationError(
                f"state norm {np.linalg.norm(amp):.12f} is not 1 within {cite(NORM_TOL)}"
            )
        self.amplitudes = amp


def _me_deviations(rows, d: int, dprime: int) -> np.ndarray:
    """Per row of ``rows`` (one amplitude vector or a stack of them), the
    largest distance of any of its d Schmidt coefficients from 1/sqrt(d)."""
    s = _schmidt_coefficients(rows, d, dprime)
    return np.abs(s - 1.0 / np.sqrt(d)).max(axis=1)


def schmidt_rank(psi: BipartiteState, tol: float = ME_TOL) -> int:
    """Number of Schmidt coefficients exceeding ``tol`` (finite, at least 0)."""
    check_tol(tol)
    return int((_schmidt_coefficients(psi.amplitudes, psi.d, psi.dprime) > tol).sum())


def is_maximally_entangled(
    psi: BipartiteState, tol: float = ME_TOL
) -> tuple[bool, float]:
    """Test whether every Schmidt coefficient equals 1/sqrt(d).

    Returns ``(flag, deviation)`` where ``deviation`` is the largest distance
    of any of the d coefficients from 1/sqrt(d) and ``flag`` is whether that
    deviation is within ``tol``, which must be finite and at least 0.
    """
    check_tol(tol)
    deviation = float(_me_deviations(psi.amplitudes, psi.d, psi.dprime)[0])
    return deviation <= tol, deviation


def _weyl_operators(d: int) -> np.ndarray:
    """The ``(d*d, d, d)`` stack of every :func:`weyl_operator`, ``U_nm`` at
    index ``n*d + m``: the one construction of the shift-phase family."""
    k = np.arange(d)
    m = k[:, None]
    ops = np.zeros((d, d, d, d), dtype=complex)
    # ops[n, m, k + m, k] = zeta^{n k}
    ops[:, m, (k + m) % d, k] = (np.exp(2j * np.pi / d) ** np.outer(k, k))[:, None, :]
    return ops.reshape(d * d, d, d)


def weyl_operator(d: int, n: int, m: int) -> np.ndarray:
    """The d x d shift-phase unitary ``sum_k zeta^{n k} |k+m mod d><k|``.

    ``zeta = exp(2 pi i / d)``.  The d^2 operators obtained for
    ``0 <= n, m < d`` form a trace-orthogonal basis of the operator space and
    generalize the Pauli matrices (up to phases at d = 2).  Returns a copy of
    entry ``n*d + m`` of the whole family's stack.
    """
    if not (0 <= n < d and 0 <= m < d):
        raise ContractViolationError(f"indices (n, m) = ({n}, {m}) out of range for d = {d}")
    return _weyl_operators(d)[n * d + m].copy()


def standard_mes(d: int, dprime: int) -> BipartiteState:
    """The canonical maximally entangled state ``sum_p |p>|p'> / sqrt(d)``."""
    if not 2 <= d <= dprime:
        raise ContractViolationError(f"need 2 <= d <= dprime, got ({d}, {dprime})")
    return BipartiteState(d, dprime, np.eye(d, dprime) / np.sqrt(d))


def apply_local(psi: BipartiteState, opA, opB) -> BipartiteState:
    """Apply the product operator ``opA (x) opB`` to a state.

    Both factors must be unitary within ``EXACT_TOL``, so the result is a unit
    state up to those errors and the state's own.  A result whose norm is off
    by more than ``NORM_TOL`` is renormalised; any other is kept bit for bit.
    """
    opA = np.asarray(opA, dtype=complex)
    opB = np.asarray(opB, dtype=complex)
    if opA.shape != (psi.d, psi.d) or opB.shape != (psi.dprime, psi.dprime):
        raise ContractViolationError(
            f"operator shapes {opA.shape}, {opB.shape} do not match "
            f"({psi.d}, {psi.d}), ({psi.dprime}, {psi.dprime})"
        )
    for name, op in (("A", opA), ("B", opB)):
        dev = _gram_deviation(op.T)
        if dev > EXACT_TOL:
            raise ContractViolationError(f"operator on side {name} is not unitary ({dev:.3e})")
    amp = (opA @ psi.amplitudes.reshape(psi.d, psi.dprime) @ opB.T).reshape(-1)
    if _norm_errors(amp) > NORM_TOL:
        amp = amp / np.linalg.norm(amp)
    return BipartiteState(psi.d, psi.dprime, amp)
