"""Analysis of the normalized complement state as a quantum channel.

For a basis whose d^2 maximally entangled members span a proper subspace of
C^d (x) C^d', the maximally mixed state on the complementary subspace is a
valid density matrix; under the state-map correspondence used here it defines
a trace-preserving channel from operators on A (d x d) to operators on B
(d' x d').  The fixed convention is

    Lambda(X) = d * Tr_A[(X^T (x) I_{d'}) rho]

with the transpose taken in the basis defining the states, chosen so that
"B-marginal = I_d / d" is literally equivalent to trace preservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import BasisSet, _complement, _Complement
from .errors import ContractViolationError
from .linalg import _entropy, partial_trace

__all__ = [
    "ChannelReport",
    "complement_state",
    "apply_channel",
    "analyze",
]


@dataclass(eq=False)
class ChannelReport:
    """Marginals, deviations, and entropies of the complement state.

    Following the index convention, ``marginal_A`` is the operator left on B
    after tracing out A (d' x d'), and ``marginal_B`` the operator left on A
    (d x d).  ``trace_preserving_deviation`` is the Frobenius distance of
    ``marginal_B`` from I_d/d, ``unitality_deviation`` that of ``marginal_A``
    from I_{d'}/d'.  ``rho_perp`` is the complement state itself (d*d' x d*d');
    it stays out of the ``--json`` report.
    """

    log_base: float
    trace_preserving_deviation: float
    unitality_deviation: float
    entropy_A: float
    entropy_B: float
    marginal_A: np.ndarray
    marginal_B: np.ndarray
    rho_perp: np.ndarray = field(metadata={"json": False})


def _frame(basis: BasisSet, me_only: bool) -> _Complement:
    """The complement of exactly d^2 chosen members in a larger space."""
    d, dprime = basis.d, basis.dprime
    count = sum(basis.me_flags) if me_only else len(basis)
    if count != d * d:
        raise ContractViolationError(f"need exactly d^2 = {d * d} members, got {count}")
    if d * dprime <= d * d:
        raise ContractViolationError("complement is empty: d*dprime must exceed d^2")
    return _complement(basis, me_only)


def complement_state(basis: BasisSet, me_only: bool = True) -> np.ndarray:
    """Maximally mixed density matrix ``Q Q^dag / m`` on the complement of
    exactly d^2 members (the maximally-entangled-flagged ones by default), Q
    its frame of ``m = d*d' - d^2`` columns, which must be positive."""
    Q = _frame(basis, me_only).Q
    return Q @ Q.conj().T / Q.shape[1]


def apply_channel(rho_choi, X, d: int, dprime: int) -> np.ndarray:
    """Apply the channel defined by a d*d' x d*d' state to a d x d operator."""
    rho_choi = np.asarray(rho_choi, dtype=complex)
    X = np.asarray(X, dtype=complex)
    n = d * dprime
    if rho_choi.shape != (n, n):
        raise ContractViolationError(f"state shape {rho_choi.shape} != ({n}, {n})")
    if X.shape != (d, d):
        raise ContractViolationError(f"input shape {X.shape} != ({d}, {d})")
    lifted = np.kron(X.T, np.eye(dprime, dtype=complex)) @ rho_choi
    return d * partial_trace(lifted, d, dprime, side="A")


def analyze(basis: BasisSet, log_base: float = 2.0, me_only: bool = True) -> ChannelReport:
    """Full complement-state report: marginals, deviations, entropies.

    All of it is read off the frame Q of :func:`complement_state`: ``rho_perp
    = Q Q^dag / m``, and each marginal is ``M M^dag / m``, of eigenvalues
    ``s**2 / m``, for the reshapes M of Q and their singular values s that
    the certificate counts ranks from; a basis builds Q and s once for both.
    Gram matrices of a frame orthonormal to machine precision, the marginals
    need no density-matrix check.  ``log_base`` must be finite, above 0, not 1.
    """
    d, dprime = basis.d, basis.dprime
    complement = _frame(basis, me_only)
    Q = complement.Q
    m = Q.shape[1]
    (M_A, M_B), (s_A, s_B) = complement.reshapes(), complement.singular_values
    # named for the side traced out: M_A M_A^dag = Tr_B(Q Q^dag) is marginal_B
    marginal_B, marginal_A = M_A @ M_A.conj().T / m, M_B @ M_B.conj().T / m
    return ChannelReport(
        rho_perp=Q @ Q.conj().T / m,
        marginal_A=marginal_A,
        marginal_B=marginal_B,
        trace_preserving_deviation=float(np.linalg.norm(marginal_B - np.eye(d) / d)),
        unitality_deviation=float(np.linalg.norm(marginal_A - np.eye(dprime) / dprime)),
        entropy_A=_entropy(s_B**2 / m, log_base),
        entropy_B=_entropy(s_A**2 / m, log_base),
        log_base=float(log_base),
    )
