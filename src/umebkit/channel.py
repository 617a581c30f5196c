"""Analysis of the normalized complement state as a quantum channel.

For chosen members of a basis that span a proper subspace of C^d (x) C^d',
the maximally mixed state on the complementary subspace is a valid density
matrix; under the state-map correspondence used here it defines a completely
positive map from operators on A (d x d) to operators on B (d' x d').  The
map is trace-preserving exactly when ``trace_preserving_deviation`` is 0,
which holds for every selection of maximally entangled members: each has
A-marginal I_d/d, so k of them leave Tr_B P = (d' - k/d) I_d for the
complement projector P.  The fixed convention is

    Lambda(X) = d * Tr_A[(X^T (x) I_{d'}) rho]

with the transpose taken in the basis defining the states, chosen so that
"B-marginal = I_d / d" is literally equivalent to trace preservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import BasisSet, _complement, complement_projector
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


def analyze(basis: BasisSet, log_base: float = 2.0, me_only: bool = True) -> ChannelReport:
    """Full complement-state report: marginals, deviations, entropies.

    The complement is that of the chosen members (the flagged ones by
    default, all with ``me_only=False``), of any number whose complement is
    not empty, and all of it is read off its frame Q of m > 0 columns:
    ``rho_perp = Q Q^dag / m``, and each marginal is ``M M^dag / m``, of
    eigenvalues ``w / m``, for the reshapes M of Q and the eigenvalues w of
    ``M M^dag`` that the certificate counts ranks from; a basis builds Q,
    ``M M^dag`` and w once for both.
    Gram matrices of a frame orthonormal to machine precision, the marginals
    need no density-matrix check.  ``log_base`` must be finite, above 0, not 1.
    """
    d, dprime = basis.d, basis.dprime
    complement = _complement(basis, me_only)
    m = complement.Q.shape[1]
    if m == 0:
        raise ContractViolationError(
            f"complement is empty: the {d * dprime} chosen members span all of "
            f"C{d} x C{dprime}"
        )
    (tr_B, tr_A), ((w_A, _), (w_B, _)) = complement.marginals, complement.spectra
    # named for the side traced out: Tr_B(Q Q^dag) is marginal_B
    marginal_B, marginal_A = tr_B / m, tr_A / m
    return ChannelReport(
        rho_perp=complement_projector(basis, me_only) / m,
        marginal_A=marginal_A,
        marginal_B=marginal_B,
        trace_preserving_deviation=float(np.linalg.norm(marginal_B - np.eye(d) / d)),
        unitality_deviation=float(np.linalg.norm(marginal_A - np.eye(dprime) / dprime)),
        entropy_A=_entropy(w_B / m, log_base),
        entropy_B=_entropy(w_A / m, log_base),
        log_base=float(log_base),
    )
