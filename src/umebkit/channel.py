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

from .bases import BasisSet, complement_projector
from .errors import ContractViolationError
from .linalg import partial_trace, von_neumann_entropy

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


def complement_state(basis: BasisSet, me_only: bool = True) -> np.ndarray:
    """Maximally mixed density matrix on the complement of the basis members.

    Requires exactly d^2 members in the chosen selection (the
    maximally-entangled-flagged ones by default) and a strictly larger
    ambient space, so the normalizer ``d*d' - d^2`` is positive.
    """
    d, dprime = basis.d, basis.dprime
    count = sum(basis.me_flags) if me_only else len(basis)
    if count != d * d:
        raise ContractViolationError(f"need exactly d^2 = {d * d} members, got {count}")
    if d * dprime <= d * d:
        raise ContractViolationError("complement is empty: d*dprime must exceed d^2")
    P = complement_projector(basis, me_only=me_only)
    return P / (d * dprime - d * d)


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

    ``log_base`` must be finite, above 0 and not 1 (see
    :func:`~umebkit.linalg.von_neumann_entropy`).
    """
    d, dprime = basis.d, basis.dprime
    rho = complement_state(basis, me_only=me_only)
    marginal_B = partial_trace(rho, d, dprime, side="B")
    marginal_A = partial_trace(rho, d, dprime, side="A")
    return ChannelReport(
        rho_perp=rho,
        marginal_A=marginal_A,
        marginal_B=marginal_B,
        trace_preserving_deviation=float(
            np.linalg.norm(marginal_B - np.eye(d) / d)
        ),
        unitality_deviation=float(
            np.linalg.norm(marginal_A - np.eye(dprime) / dprime)
        ),
        entropy_A=von_neumann_entropy(marginal_A, log_base),
        entropy_B=von_neumann_entropy(marginal_B, log_base),
        log_base=float(log_base),
    )
