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
from .linalg import _entropy

__all__ = ["ChannelReport", "analyze"]


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


def analyze(basis: BasisSet, log_base: float = 2.0, me_only: bool = True) -> ChannelReport:
    """Full complement-state report: marginals, deviations, entropies.

    The complement is that of exactly d^2 members (the flagged ones by
    default, all with ``me_only=False``) in a space with ``d*d' > d^2``, and
    all of it is read off its frame Q of m columns: ``rho_perp = Q Q^dag /
    m``, and each marginal is ``M M^dag / m``, of eigenvalues ``s**2 / m``,
    for the reshapes M of Q and their singular values s that the
    certificate counts ranks from; a basis builds Q and s once for both.
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
