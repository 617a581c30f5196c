"""Construction of orthonormal maximally-entangled families and their
unextendibility certificates.

Two families are provided: the shift-phase family of d^2 states
``(U_nm (x) I)|Phi>`` for any 2 <= d < d', and two closed-form complete bases
of C^2 (x) C^3 whose first four members are maximally entangled and whose
last two are product states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import _gram_deviation
from .states import BipartiteState, _me_deviations, _norm_errors, _weyl_operators, standard_mes
from .tolerances import (
    ADMIT_TOL, EXACT_TOL, ME_TOL, NORM_SQ_TOL, NORM_TOL, RANK_CUT, cite,
)

__all__ = [
    "BasisSet",
    "CertificateReport",
    "build_weyl_umeb",
    "build_c23_first",
    "build_c23_second",
    "gram_matrix",
    "complement_projector",
    "support_rank_certificate",
    "overlap_constraint_matrix",
    "C3_UNBIASED",
]

#: I and the Pauli matrices: the A-side unitaries of both 2 (x) 3 bases.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                   dtype=complex)
_C23_LABELS = ("me0", "me1", "me2", "me3", "aux0", "aux1")

#: Orthonormal basis of C^3 (rows) in which every component has magnitude
#: 1/sqrt(3), i.e. a basis unbiased to the computational one.  The second
#: 2 (x) 3 construction pairs the A-side levels with these vectors.
C3_UNBIASED = (1.0 / np.sqrt(3)) * np.array(
    [
        [1.0, (1.0 + np.sqrt(3) * 1j) / 2, 1.0],
        [(-np.sqrt(3) + 1j) / 2, 1j, -1j],
        [-1.0, 1.0, (1.0 + np.sqrt(3) * 1j) / 2],
    ],
    dtype=complex,
)


class BasisSet:
    """Ordered collection of bipartite states sharing one (d, dprime) space.

    The members are held as one ``(k, d*dprime)`` array, ``amplitudes``, whose
    rows are the member amplitude vectors; ``states`` gives them back as
    :class:`BipartiteState` objects.  Construction enforces, in one pass over
    the rows, what every member state must satisfy (``2 <= d <= dprime``, rows
    of length ``d*dprime``, finite entries, unit norms within 1e-9) and the
    structural consistency of the set (matching label/flag lengths, string
    labels); orthonormality and the correctness of the per-state entanglement
    flags are semantic invariants checked by :meth:`validate`, so that
    deliberately broken sets can still be represented and measured (e.g. by
    :func:`gram_matrix`).  The constructor is the only way to build a basis,
    and a basis never changes: ``d``, ``dprime``, ``amplitudes`` (a read-only
    copy), ``me_flags`` and ``labels`` (tuples, or None) cannot be assigned.

    Parameters
    ----------
    d, dprime : int
        Subsystem dimensions, shared by every member.
    states : list of BipartiteState, or numpy array of shape (k, d*dprime)
        The members in contractual order, as states or as the rows of one
        amplitude array (copied).
    me_flags : sequence of bool
        Per-member flag: maximally entangled member or auxiliary product
        member.
    labels : sequence of str, optional
        Short display names, parallel to ``states``.
    """

    def __init__(self, d: int, dprime: int, states, me_flags, labels=None) -> None:
        if not 2 <= d <= dprime:
            raise ContractViolationError(f"need 2 <= d <= dprime, got ({d}, {dprime})")
        if isinstance(states, np.ndarray):
            amplitudes = np.array(states, dtype=complex)
        else:
            for s in states:
                if (s.d, s.dprime) != (d, dprime):
                    raise ContractViolationError(
                        f"member dimensions ({s.d}, {s.dprime}) != ({d}, {dprime})"
                    )
            amplitudes = np.array([s.amplitudes for s in states], dtype=complex)
            amplitudes = amplitudes.reshape(len(states), d * dprime)
        n = d * dprime
        if amplitudes.ndim != 2 or amplitudes.shape[1] != n:
            raise ContractViolationError(
                f"member amplitudes of shape {amplitudes.shape} are not rows of "
                f"length d*dprime = {n}"
            )
        if not np.isfinite(amplitudes).all():
            raise ContractViolationError("member amplitudes contain non-finite entries")
        norm_err = _norm_errors(amplitudes)
        off = np.flatnonzero(norm_err > NORM_TOL)
        if off.size:
            raise ContractViolationError(
                f"member {off[0]} has norm off by {norm_err[off[0]]:.3e}, "
                f"more than {cite(NORM_TOL)}"
            )
        if len(me_flags) != len(amplitudes):
            raise ContractViolationError("me_flags length does not match states")
        if labels is not None and len(labels) != len(amplitudes):
            raise ContractViolationError("labels length does not match states")
        if labels is not None and not all(isinstance(x, str) for x in labels):
            raise ContractViolationError("labels must be strings")
        # a list, not a generator: tuple(generator) would fill CPython's tuple free lists
        vars(self).update(d=d, dprime=dprime, amplitudes=_frozen(amplitudes),
                          me_flags=tuple([bool(f) for f in me_flags]),
                          labels=None if labels is None else tuple(labels),
                          _complements={})  # me_only -> its _complement

    def _unchanged(self, name, *value):
        raise AttributeError(f"a BasisSet never changes: to change {name!r}, build another")

    __setattr__ = __delattr__ = _unchanged

    @property
    def states(self) -> list:
        """The members as :class:`BipartiteState` objects over ``amplitudes``."""
        return [BipartiteState(self.d, self.dprime, a) for a in self.amplitudes]

    def __len__(self) -> int:
        return len(self.amplitudes)

    def me_deviations(self) -> np.ndarray:
        """Per member, the deviation that :func:`is_maximally_entangled` reports."""
        return _me_deviations(self.amplitudes, self.d, self.dprime)

    def validate(self) -> None:
        """Check orthonormality and flag consistency; raise on violation.

        The Gram matrix must be within ``EXACT_TOL`` (1e-9) of the identity,
        as ``umeb verify`` demands by default, and a member must be flagged
        exactly when its Schmidt coefficients lie within ``ME_TOL`` (1e-8) of
        ``1/sqrt(d)``, the rule by which the loader sets missing flags.
        """
        dev = _gram_deviation(self.amplitudes)
        if dev > EXACT_TOL:
            raise ContractViolationError(
                f"basis is not orthonormal: Gram deviation {dev:.3e} > {cite(EXACT_TOL)}"
            )
        for k, dev in enumerate(self.me_deviations()):
            if (dev <= ME_TOL) != self.me_flags[k]:
                raise ContractViolationError(
                    f"me_flags[{k}] = {self.me_flags[k]} inconsistent with state "
                    f"(measured {dev <= ME_TOL})"
                )


@dataclass(eq=False)
class CertificateReport:
    """Outcome of an unextendibility analysis, read off a complement's frame.

    ``b_support_rank`` and ``a_support_rank`` are the ranks of the B-side and
    A-side marginals of the complement projector; any state of the complement
    has Schmidt rank at most ``schmidt_rank_bound = min(d, a_rank, b_rank)``.
    A bound below d proves no maximally entangled state fits, hence
    ``unextendible``.  ``method`` names what decided: ``support-rank``,
    ``product-block`` (a witness in closed form on the eigenspace of the B
    marginal at d) or ``numeric-search``.  ``witness`` is present exactly
    when the verdict is ``extendible``.  ``search_best_F`` and
    ``restarts_used`` are present exactly when a search ran, so never under
    ``support-rank`` or ``product-block``: the witness's F on ``extendible``
    (the first state the search accepted as exact) or the whole search's
    best F on ``inconclusive``, and the restarts drawn and ascended without
    collapse.
    """

    method: str
    complement_dimension: int
    b_support_rank: int
    a_support_rank: int
    schmidt_rank_bound: int
    verdict: str
    witness: BipartiteState | None = None
    search_best_F: float | None = None
    restarts_used: int | None = None


def _turned(ops: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Rows ``(U (x) I)|base>`` for each U of the ``(k, d, d)`` stack ``ops``,
    ``base`` a d x d' amplitude matrix: one 2-D product ``U base I^T`` of the
    k*d stacked operator rows, bit for bit what ``apply_local`` makes member by
    member; ``I^T`` sets the signed zeros the written files carry."""
    rows = ops.reshape(-1, base.shape[0]) @ base @ np.eye(base.shape[1], dtype=complex).T
    return rows.reshape(len(ops), -1)


def build_weyl_umeb(d: int, dprime: int) -> BasisSet:
    """The d^2 orthonormal maximally entangled states ``(U_nm (x) I)|Phi>``.

    Members are ordered by (n, m) lexicographic and labelled ``"nm"``.  For
    d'/2 < d < d' this set is unextendible; for d <= d'/2 it is constructed
    all the same but its complement does contain maximally entangled states.
    ``Phi`` is ``eye(d, d') / sqrt(d)``, the amplitudes of :func:`standard_mes`
    without its checks of a constant, and ``U_nm`` the kept shift-phase stack.
    """
    if not 2 <= d < dprime:
        raise ContractViolationError(f"need 2 <= d < dprime, got ({d}, {dprime})")
    phi = np.eye(d, dprime, dtype=complex) / np.sqrt(d)
    labels = [f"{n}{m}" for n in range(d) for m in range(d)]
    return BasisSet(d, dprime, _turned(_weyl_operators(d), phi), [True] * (d * d), labels)


def _c23_basis(base: np.ndarray, aux: np.ndarray) -> BasisSet:
    """The four members ``(sigma (x) I)|base>`` and the two product rows ``aux``."""
    rows = np.vstack([_turned(_PAULIS, base), aux])
    return BasisSet(2, 3, rows, me_flags=[True] * 4 + [False] * 2, labels=list(_C23_LABELS))


def build_c23_first() -> BasisSet:
    """First complete 2 (x) 3 basis: four Pauli-rotated Bell-type members on
    the upper 2 x 2 block plus two product members on the last B level."""
    aux = np.zeros((2, 2, 3), dtype=complex)
    aux[:, :, 2] = [[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]]
    return _c23_basis(standard_mes(2, 3).amplitudes.reshape(2, 3), aux.reshape(2, 6))


def build_c23_second() -> BasisSet:
    """Second complete 2 (x) 3 basis, built on the :data:`C3_UNBIASED` B-side
    basis; mutually unbiased to the first one as a basis of C^6."""
    xp, yp, zp = C3_UNBIASED
    a, b = (1.0 + np.sqrt(3) * 1j) / 2, (np.sqrt(3) - 1j) / 2
    aux = np.array([np.concatenate([a * zp, b * zp]), np.concatenate([b * zp, a * zp])])
    return _c23_basis(np.array([xp, yp]) / np.sqrt(2), aux / np.sqrt(2))


def gram_matrix(basis: BasisSet) -> np.ndarray:
    """Matrix of pairwise inner products ``G[i, j] = <state_i|state_j>``."""
    if not len(basis):
        raise ContractViolationError("gram_matrix needs a nonempty basis")
    return basis.amplitudes.conj() @ basis.amplitudes.T


class _Complement:
    """A complement as its orthonormal frame ``Q`` (n x m, read-only), all
    that ``certify`` decides from; a basis builds one per member selection
    (:func:`_complement`).  Its ``marginals`` and their ``spectra`` are kept,
    read-only, from their first use; the :meth:`projector` and the
    :meth:`reshapes`, up to 1 + n/m times Q's memory, are not."""

    def __init__(self, Q: np.ndarray, d: int, dprime: int) -> None:
        self.Q, self.d, self.dprime = _frozen(Q), d, dprime

    def reshapes(self) -> tuple:
        """Q with the A and with the B index leading, ``(M_A, M_B)``, of shapes
        d x d'm and d' x dm.  ``M M^dag`` is the marginal of ``Q Q^dag`` on
        the leading side, of eigenvalues the squared singular values of M."""
        d, dprime, m = self.d, self.dprime, self.Q.shape[1]
        Q3 = self.Q.reshape(d, dprime, m)
        return Q3.reshape(d, dprime * m), Q3.transpose(1, 0, 2).reshape(dprime, d * m)

    def projector(self) -> np.ndarray:
        """The projector ``Q Q^dag`` onto the complement."""
        return self.Q @ self.Q.conj().T

    @functools.cached_property
    def marginals(self) -> tuple:
        """``(M_A M_A^dag, M_B M_B^dag) = (Tr_B P, Tr_A P)``, P the projector."""
        return tuple(_frozen(M @ M.conj().T) for M in self.reshapes())

    @functools.cached_property
    def spectra(self) -> tuple:
        """``((w_A, V_A), (w_B, V_B))``: the ``eigh`` of each marginal, w the
        squared singular values of the reshapes, ascending."""
        return tuple(tuple(_frozen(a) for a in np.linalg.eigh(M)) for M in self.marginals)

    def support_rank(self) -> CertificateReport:
        """The support-rank cut: a state of the complement has Schmidt rank at
        most ``min(rank Tr_B P, rank Tr_A P)``, the marginals' eigenvalues
        above ``RANK_CUT**2``; a bound below d proves ``unextendible``."""
        r_a, r_b = (int((w > RANK_CUT**2).sum()) for w, _ in self.spectra)
        bound = min(self.d, r_a, r_b)
        return CertificateReport(
            method="support-rank", complement_dimension=self.Q.shape[1], b_support_rank=r_b,
            a_support_rank=r_a, schmidt_rank_bound=bound,
            verdict="unextendible" if bound < self.d else "inconclusive")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _complement(basis: BasisSet, me_only: bool = True) -> _Complement:
    """The complement of the k chosen members: the flagged ones by default
    (their span is what unextendibility is about), all with ``me_only=False``.

    The members must be orthonormal within 1e-6, which the build checks; the
    frame Q (n x (n - k)), from a Householder QR of their columns, is then
    orthonormal to machine precision even at that limit.  A basis never
    changes, so it keeps the complement of each selection once built.
    """
    if me_only in basis._complements:
        return basis._complements[me_only]
    d, dprime = basis.d, basis.dprime
    A = basis.amplitudes[np.array(basis.me_flags, dtype=bool)] if me_only else basis.amplitudes
    gram_dev = _gram_deviation(A)
    if gram_dev > ADMIT_TOL:
        raise ContractViolationError(
            f"selected members are not orthonormal (deviation {gram_dev:.3e})"
        )
    # A^T = Q R: Q's columns past the k members span the x with conj(A) x = 0
    # (a QR of A^dag's, x with A x = 0); copied, not to keep the n x n Q alive
    Q = np.linalg.qr(A.T, mode="complete")[0][:, len(A):].copy()
    basis._complements[me_only] = _Complement(Q, d, dprime)
    return basis._complements[me_only]


def _flagged_complement(basis: BasisSet) -> _Complement:
    """The complement of the flagged members, once each of them is maximally
    entangled within ``ADMIT_TOL`` and they leave a complement (a complete
    basis is not a UMEB): the member checks of every certificate."""
    complement = _complement(basis)
    flagged = np.array(basis.me_flags, dtype=bool)
    false_flags = np.flatnonzero(flagged & (basis.me_deviations() > ADMIT_TOL))
    if len(false_flags):
        raise ContractViolationError(
            f"member {false_flags[0]} is flagged maximally entangled but is not"
        )
    if complement.Q.shape[1] == 0:
        raise ContractViolationError(
            f"the {len(basis)} members span all of C{basis.d} x C{basis.dprime}: "
            f"a UMEB has fewer than d*dprime = {basis.d * basis.dprime} members"
        )
    return complement


def complement_projector(basis: BasisSet, me_only: bool = True) -> np.ndarray:
    """Projector ``Q Q^dag`` onto the :func:`_complement`, Q its frame."""
    return _complement(basis, me_only).projector()


def support_rank_certificate(basis: BasisSet) -> CertificateReport:
    """Analytic unextendibility certificate: the support-rank cut
    (:meth:`_Complement.support_rank`) on the complement of the flagged
    members, ``inconclusive`` where it is silent; ``certify`` then decides."""
    return _flagged_complement(basis).support_rank()


def overlap_constraint_matrix(U, lambdas) -> tuple[np.ndarray, float]:
    """The d^2 x d^2 coefficient matrix of the orthogonality constraints that
    a candidate extension state must satisfy, with its determinant magnitude.

    A candidate ``psi`` with Schmidt data (U, V, lambda), amplitude matrix
    ``X = U W V^T`` with W = diag(sqrt(lambda)), has overlap ``Tr(U_nm^dag U
    W v^T) / sqrt(d)`` with member nm, ``(U_nm (x) I)|Phi>``, v the upper
    d x d block of V.  So row nm of M is vec(U_nm^dag U W), row-major, from
    the family's one stack, and ``M vec(v) = sqrt(d) *
    (<member_nm|psi>)_nm``: psi is orthogonal to all d^2 members iff M v = 0.
    Returns ``(M, det_magnitude)``: the rows vec(U_nm^dag) are orthogonal with
    norm sqrt(d) and M is their matrix times ``I_d (x) U W``, so ``|det M| =
    d^{d^2/2} * prod(lambda)^{d/2} * |det U|^d`` — strictly positive, which
    is what rules the extension out.
    ``U`` must be unitary within ``EXACT_TOL``, and ``lambdas`` positive with
    a sum within ``NORM_SQ_TOL`` of 1, which the squared Schmidt coefficients
    of every admitted state meet.
    """
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if U.shape != (d, d):
        raise ContractViolationError(f"U must be square, got {U.shape}")
    if not _gram_deviation(U.T) <= EXACT_TOL:
        raise ContractViolationError(f"U is not unitary within {cite(EXACT_TOL)}")
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != (d,):
        raise ContractViolationError(f"lambdas must have length d = {d}")
    if not (lambdas.min() > 0 and abs(lambdas.sum() - 1.0) <= NORM_SQ_TOL):
        raise ContractViolationError("lambdas must be positive and sum to 1")

    M = _weyl_operators(d).conj().transpose(0, 2, 1) @ (U * np.sqrt(lambdas))
    det_magnitude = float(
        d ** (d * d / 2)
        * np.prod(lambdas) ** (d / 2)
        * abs(np.linalg.det(U)) ** d
    )
    return M.reshape(d * d, d * d), det_magnitude
