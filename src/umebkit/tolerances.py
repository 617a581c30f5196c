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
   loader judges by, so every vector the loader keeps is admitted here, and
   the loader builds its basis with the ``BasisSet`` constructor.
   Checks that read a quantity this bound admitted derive their own bound
   from it: the squared Schmidt coefficients of such a vector sum to 1
   within :data:`NORM_SQ_TOL`, which ``overlap_constraint_matrix`` accepts.
   ``BasisSet.validate`` holds a basis to :data:`EXACT_TOL` on its Gram
   matrix and :data:`ME_TOL` on its flags.  Every flag check, deviation
   and Schmidt rank reads the Schmidt coefficients of one kernel,
   ``linalg._schmidt_coefficients``, and every Gram deviation one more,
   ``linalg._gram_deviation``.
3. **Frame and member checks, and mub**.  The complement frame and ``mub``
   admit members whose Gram matrix is within :data:`ADMIT_TOL` of the
   identity, as the loader does, and the certificates refuse a flagged
   member only when its Schmidt coefficients are off by more than
   :data:`ADMIT_TOL`.  The frame is orthonormal to machine precision even
   at the admission limit.
4. **Certificate, channel and search**.  They read that frame alone,
   unchecked.  The support-rank cut counts its two marginals' eigenvalues
   above ``RANK_CUT**2``, which give the channel's entropies too.
   The product-block witness needs the d-th eigenvalue of the B marginal to
   be d, and itself to lie in the frame's range, both within
   :data:`EXACT_TOL`.  ``certify`` hands the search the frame's projector;
   only one handed to ``max_entanglement_in_subspace`` is checked, at
   :data:`EXACT_TOL`.  A witness, closed-form or searched, is within
   ``search.POLISH_TOL`` of maximal entanglement, and where the search
   parks a row for its exact test and polish is its own ladder,
   ``search.PARK_STEP``.

Checks of operators a caller hands in (the unitaries of ``apply_local`` and
``overlap_constraint_matrix``, the projector of
``max_entanglement_in_subspace``) use :data:`EXACT_TOL`; a tolerance a
caller hands in must be finite and at least 0 (:func:`check_tol`).
Constants that one algorithm owns (the search's convergence and collapse
thresholds, its Gram cutoff and its park ladder, the entropy's eigenvalue
clip) stay named in their own module.
"""

from __future__ import annotations

import sys

from .errors import ContractViolationError

__all__ = [
    "NORM_TOL",
    "ADMIT_TOL",
    "ME_TOL",
    "EXACT_TOL",
    "RANK_CUT",
    "MAX_SPACE_DIM",
    "NORM_SQ_TOL",
    "cite",
    "check_tol",
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
#: unitary, Hermitian and idempotent checks.
EXACT_TOL = 1e-9

#: Singular values of the reshaped complement frame above this count towards
#: a support rank: the marginals' eigenvalues above its square.
RANK_CUT = 1e-5

#: Bound on ``|sum(s**2) - 1|`` for the Schmidt coefficients ``s`` of a vector
#: admitted at :data:`NORM_TOL`: its squared norm lies within
#: ``(1 + NORM_TOL)**2 - 1`` of 1, and the allowance for the round-off of an
#: SVD or a sum of squares over up to :data:`MAX_SPACE_DIM` entries is that
#: many machine epsilons.
NORM_SQ_TOL = (1 + NORM_TOL) ** 2 - 1 + MAX_SPACE_DIM * sys.float_info.epsilon


def cite(tol: float) -> str:
    """``tol`` as error messages write it: ``1e-9``, not ``1e-09``."""
    return f"{tol:g}".replace("e-0", "e-")


def check_tol(tol: float) -> None:
    """Refuse a caller's tolerance that is not finite or is below 0."""
    if not 0 <= tol < float("inf"):
        raise ContractViolationError(f"tol must be finite and at least 0, got {tol!r}")
