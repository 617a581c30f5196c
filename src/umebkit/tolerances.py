"""The tolerance policy: every bound that more than one stage reads, named once.

A state or basis passes through a chain of stages, and each stage admits
what the stage before it admitted:

1. **Loader** (``fileio``).  A file may declare ``d*dprime`` up to
   :data:`MAX_SPACE_DIM`.  A state norm off by more than :data:`ADMIT_TOL`
   is rejected; one off by more than :data:`NORM_TOL` is renormalised; a
   basis whose Gram matrix deviates from the identity by more than
   :data:`ADMIT_TOL` is rejected.  Missing entanglement flags are set where
   the member's Schmidt coefficients lie within :data:`ME_TOL` of
   ``1/sqrt(d)``.
2. **States and bases** (``BipartiteState``, ``BasisSet``).  Every held
   vector has unit norm within :data:`NORM_TOL`, judged by the same norm the
   loader judges by, so every vector the loader keeps is admitted here.
   Checks that read a quantity this bound admitted derive their own bound
   from it: the squared Schmidt coefficients of such a vector sum to 1
   within :data:`NORM_SQ_TOL`, which ``SchmidtDecomposition`` and
   ``overlap_constraint_matrix`` accept.  ``BasisSet.validate`` holds a
   basis to :data:`EXACT_TOL` on its Gram matrix and :data:`ME_TOL` on its
   flags.
3. **Frame, certificate and mub**.  The complement frame and ``mub`` admit
   members whose Gram matrix is within :data:`ADMIT_TOL` of the identity,
   as the loader does; the certificate refuses a flagged member only when
   its Schmidt coefficients are off by more than :data:`ADMIT_TOL`, and
   counts the singular values of the frame's two reshapes above
   :data:`RANK_CUT`.  The frame is orthonormal to machine precision even at
   the admission limit.
4. **Channel and search**.  They read that frame unchecked: the channel's
   marginals and entropies come from the certificate's reshapes, and
   ``certify`` hands the search the frame's projector.  The search checks a
   projector only where a caller hands it in, to
   ``max_entanglement_in_subspace``, at :data:`EXACT_TOL`.  A search state
   with ``1 - F`` at most :data:`WITNESS_TOL` parks, and is a witness once
   the search's exact test or polish accepts it (``search.POLISH_TOL``).

Checks of operators a caller hands in (the unitaries of ``apply_local`` and
``overlap_constraint_matrix``, the projector of
``max_entanglement_in_subspace``, a density matrix) use :data:`EXACT_TOL`;
the two checks next to a factorisation, of the orthonormality of the SVD's
Schmidt vectors and of the Hermiticity of ``hermitian_eig``'s input, use the
tighter :data:`FACTOR_TOL`.  Constants
that one algorithm owns (the search's convergence and collapse thresholds
and its Gram cutoff, the entropy's eigenvalue clip) stay named in their own
module.
"""

from __future__ import annotations

import sys

__all__ = [
    "NORM_TOL",
    "ADMIT_TOL",
    "ME_TOL",
    "EXACT_TOL",
    "FACTOR_TOL",
    "RANK_CUT",
    "WITNESS_TOL",
    "MAX_SPACE_DIM",
    "NORM_SQ_TOL",
    "cite",
]

#: Largest ``d*dprime`` a file, ``umeb construct`` or ``umeb pauli`` accepts:
#: later stages build ``d*dprime x d*dprime`` matrices.
MAX_SPACE_DIM = 1024

#: Bound on ``| ||psi|| - 1 |`` for every held state and basis row; the loader
#: and ``apply_local`` renormalise a vector whose norm is off by more.
NORM_TOL = 1e-9

#: The loader's admission bound: the largest norm error it renormalises and
#: the largest Gram deviation it accepts.  The complement frame, ``mub`` and
#: the certificate's flag check accept the same.
ADMIT_TOL = 1e-6

#: Bound on a maximally entangled state's Schmidt-coefficient deviation from
#: ``1/sqrt(d)``; also ``schmidt_rank``'s default cut.
ME_TOL = 1e-8

#: Bound for properties that hold exactly in exact arithmetic: ``validate``'s
#: Gram bound, the ``--tol`` default of ``verify`` and ``mub``, and the
#: unitary, Hermitian, idempotent and unit-trace checks.
EXACT_TOL = 1e-9

#: Bound on the orthonormality of computed Schmidt vectors and on the
#: Hermiticity ``hermitian_eig`` requires of its input.
FACTOR_TOL = 1e-10

#: Singular values of the reshaped complement frame above this count towards
#: a support rank.
RANK_CUT = 1e-5

#: Default search park threshold: a state with ``1 - F`` at most this goes to
#: the exact test and the polish, which decide whether it is a witness.
WITNESS_TOL = 1e-6

#: Bound on ``|sum(s**2) - 1|`` for the Schmidt coefficients ``s`` of a vector
#: admitted at :data:`NORM_TOL`: its squared norm lies within
#: ``(1 + NORM_TOL)**2 - 1`` of 1, and the allowance for the round-off of an
#: SVD or a sum of squares over up to :data:`MAX_SPACE_DIM` entries is that
#: many machine epsilons.
NORM_SQ_TOL = (1 + NORM_TOL) ** 2 - 1 + MAX_SPACE_DIM * sys.float_info.epsilon


def cite(tol: float) -> str:
    """``tol`` as error messages write it: ``1e-9``, not ``1e-09``."""
    return f"{tol:g}".replace("e-0", "e-")
