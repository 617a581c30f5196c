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
    """Outcome of an unextendibility analysis of a basis' complement.

    ``b_support_rank`` and ``a_support_rank`` are the ranks of the B-side and
    A-side marginals of the complement projector; any state of the complement
    has Schmidt rank at most ``schmidt_rank_bound = min(d, a_rank, b_rank)``.
    A bound below d proves no maximally entangled state fits, hence
    ``unextendible``.  ``method`` names what decided: ``support-rank``,
    ``product-block`` (a witness in closed form, see ``search.certify``) or
    ``numeric-search``.  ``witness`` is present exactly when the verdict is
    ``extendible``.  ``search_best_F`` and ``restarts_used`` are present
    exactly when a search ran, so never under ``support-rank`` or
    ``product-block``: the witness's F on ``extendible`` (the first state
    the search accepted as exact) or the whole search's best F on
    ``inconclusive``, and the restarts drawn and ascended without collapse.
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
    ``base`` a d x d' amplitude matrix: one stacked product ``U base I^T``, the
    product ``apply_local`` makes member by member, bit for bit."""
    return (ops @ base @ np.eye(base.shape[1], dtype=complex).T).reshape(len(ops), -1)


def build_weyl_umeb(d: int, dprime: int) -> BasisSet:
    """The d^2 orthonormal maximally entangled states ``(U_nm (x) I)|Phi>``.

    Members are ordered by (n, m) lexicographic and labelled ``"nm"``.  For
    d'/2 < d < d' this set is unextendible; for d <= d'/2 it is constructed
    all the same but its complement does contain maximally entangled states.
    """
    if not 2 <= d < dprime:
        raise ContractViolationError(f"need 2 <= d < dprime, got ({d}, {dprime})")
    phi = standard_mes(d, dprime).amplitudes.reshape(d, dprime)
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
    """The complement of one member selection of a basis, built once by
    :func:`_complement`: its orthonormal frame ``Q``, read-only, and, computed
    on first use, the ``singular_values`` of its two :meth:`reshapes`.

    The projector ``Q Q^dag`` and the reshapes are formed again at each use:
    kept too, they would hold 2 + n/m times Q's memory, n x m, for as long
    as the basis lives.
    """

    def __init__(self, Q: np.ndarray, d: int, dprime: int) -> None:
        self.Q, self._dims = _frozen(Q), (d, dprime)

    def reshapes(self) -> tuple:
        """Q with the A and with the B index leading, ``(M_A, M_B)``, of shapes
        d x d'm and d' x dm.  ``M M^dag`` is the marginal of ``Q Q^dag`` on
        the leading side, of eigenvalues the squared singular values of M."""
        d, dprime = self._dims
        m = self.Q.shape[1]
        Q3 = self.Q.reshape(d, dprime, m)
        return Q3.reshape(d, dprime * m), Q3.transpose(1, 0, 2).reshape(dprime, d * m)

    @functools.cached_property
    def singular_values(self) -> tuple:
        """``(s_A, s_B)``, the singular values of ``(M_A, M_B)``."""
        return tuple(_frozen(np.linalg.svd(M, compute_uv=False)) for M in self.reshapes())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _complement(basis: BasisSet, me_only: bool = True) -> _Complement:
    """The complement of the k chosen members: the flagged ones by default
    (their span is what unextendibility is about), all with ``me_only=False``.

    The members must be orthonormal within 1e-6, which the build checks; the
    frame Q (n x (n - k)), their SVD null space, is then orthonormal to
    machine precision even at that limit.  A basis never changes, so it keeps
    the complement of each selection once built.
    """
    if me_only in basis._complements:
        return basis._complements[me_only]
    d, dprime = basis.d, basis.dprime
    A = basis.amplitudes[np.array(basis.me_flags, dtype=bool)] if me_only else basis.amplitudes
    k = len(A)
    gram_dev = _gram_deviation(A)
    if gram_dev > ADMIT_TOL:
        raise ContractViolationError(
            f"selected members are not orthonormal (deviation {gram_dev:.3e})"
        )
    # A = U S Vh: the rows of Vh past k span the kets x with conj(A) x = 0;
    # copied, so that the n x n Vh is not kept alive with them
    Q = np.linalg.svd(A)[2][k:].copy().T if k else np.eye(d * dprime, dtype=complex)
    basis._complements[me_only] = _Complement(Q, d, dprime)
    return basis._complements[me_only]


def complement_projector(basis: BasisSet, me_only: bool = True) -> np.ndarray:
    """Projector ``Q Q^dag`` onto the :func:`_complement`, Q its frame."""
    Q = _complement(basis, me_only).Q
    return Q @ Q.conj().T


def support_rank_certificate(basis: BasisSet) -> CertificateReport:
    """Analytic unextendibility certificate from the complement's marginals.

    Every state in the complement of the flagged members has Schmidt rank at
    most ``min(rank Tr_B P, rank Tr_A P)``, P the complement projector; when
    that bound is below d, no maximally entangled state (Schmidt rank d) fits
    and the basis is certified unextendible.  Otherwise the verdict is
    ``inconclusive``, and ``certify`` decides with a closed-form witness or
    a numeric search.  A complete basis (empty complement) is not a UMEB and
    is rejected.
    """
    complement = _complement(basis)
    flagged = np.array(basis.me_flags, dtype=bool)
    false_flags = np.flatnonzero(flagged & (basis.me_deviations() > ADMIT_TOL))
    if len(false_flags):
        raise ContractViolationError(
            f"member {false_flags[0]} is flagged maximally entangled but is not"
        )
    d, dprime, m = basis.d, basis.dprime, complement.Q.shape[1]
    if m == 0:
        raise ContractViolationError(
            f"the {len(basis)} members span all of C{d} x C{dprime}: "
            f"a UMEB has fewer than d*dprime = {d * dprime} members"
        )
    # A marginal's eigenvalues above RANK_CUT**2 are its s above RANK_CUT.
    r_a, r_b = (int((s > RANK_CUT).sum()) for s in complement.singular_values)
    bound = min(d, r_a, r_b)
    verdict = "unextendible" if bound < d else "inconclusive"
    return CertificateReport(
        method="support-rank",
        complement_dimension=m,
        b_support_rank=r_b,
        a_support_rank=r_a,
        schmidt_rank_bound=bound,
        verdict=verdict,
    )


def overlap_constraint_matrix(U, lambdas) -> tuple[np.ndarray, float]:
    """The d^2 x d^2 coefficient matrix of the orthogonality constraints that
    a candidate extension state must satisfy, with its determinant magnitude.

    A candidate with Schmidt data (U, V, lambda) is orthogonal to all d^2
    shift-phase family members iff M v = 0, where v collects the entries of
    the upper d x d block of V row-major and M factors as

        (C (x) I_d) . blockdiag(I, A, ..., A^{d-1}) . (I_d (x) U) . (I_d (x) W)

    with C[r, c] = zeta^{-rc}, A the cyclic shift, and W = diag(sqrt(lambda)).
    Returns ``(M, det_magnitude)`` where the magnitude is computed from the
    factor determinants, ``d^{d^2/2} * prod(lambda)^{d/2} * |det U|^d`` — a
    strictly positive number, which is what rules the extension out.
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

    zeta = np.exp(2j * np.pi / d)
    C = np.array([[zeta ** (-r * c) for c in range(d)] for r in range(d)])
    A = np.zeros((d, d), dtype=complex)
    for i in range(d):
        A[i, (i + 1) % d] = 1.0
    shift_blocks = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        shift_blocks[k * d : (k + 1) * d, k * d : (k + 1) * d] = np.linalg.matrix_power(A, k)
    W = np.diag(np.sqrt(lambdas))
    M = np.kron(C, np.eye(d)) @ shift_blocks @ np.kron(np.eye(d), U @ W)
    det_magnitude = float(
        d ** (d * d / 2)
        * np.prod(lambdas) ** (d / 2)
        * abs(np.linalg.det(U)) ** d
    )
    return M, det_magnitude
