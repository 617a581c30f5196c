import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import BasisSet, build_c23_first, build_c23_second, build_weyl_umeb
from umebkit.mub import overlap_matrix
from umebkit.states import BipartiteState


def full_basis_from_columns(cols, d, dprime):
    states = [BipartiteState(d, dprime, cols[:, k]) for k in range(cols.shape[1])]
    flags = [False] * len(states)
    return BasisSet(d, dprime, states, me_flags=flags)


def computational_basis(d, dprime):
    return full_basis_from_columns(np.eye(d * dprime, dtype=complex), d, dprime)


def fourier_basis(d, dprime):
    n = d * dprime
    omega = np.exp(2j * np.pi / n)
    cols = np.array([[omega ** (j * k) for k in range(n)] for j in range(n)]).T
    return full_basis_from_columns(cols / np.sqrt(n), d, dprime)


def test_c23_pair_is_mutually_unbiased():
    rep = overlap_matrix(build_c23_first(), build_c23_second())
    assert rep.dim == 6
    assert rep.is_mub
    assert rep.max_deviation <= 1e-9
    assert np.abs(rep.overlaps - 1 / np.sqrt(6)).max() <= 1e-9


def test_self_overlap_is_identity_pattern():
    basis = build_c23_first()
    rep = overlap_matrix(basis, basis)
    assert not rep.is_mub
    assert np.abs(rep.overlaps - np.eye(6)).max() < 1e-9


def test_computational_vs_fourier():
    rep = overlap_matrix(computational_basis(2, 3), fourier_basis(2, 3))
    assert rep.is_mub
    assert np.abs(rep.overlaps - 1 / np.sqrt(6)).max() < 1e-12


def test_overlap_rows_are_normalized():
    rep = overlap_matrix(build_c23_first(), build_c23_second())
    sums = (rep.overlaps**2).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    sums = (rep.overlaps**2).sum(axis=0)
    assert np.abs(sums - 1.0).max() < 1e-9


def test_overlap_symmetry():
    a, b = build_c23_first(), build_c23_second()
    r1 = overlap_matrix(a, b)
    r2 = overlap_matrix(b, a)
    assert np.abs(r1.overlaps - r2.overlaps.T).max() < 1e-12


def test_overlap_invariant_under_common_unitary():
    rng = np.random.default_rng(51)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, r = np.linalg.qr(g)
    U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    a, b = build_c23_first(), build_c23_second()

    def rotate(basis):
        states = [
            BipartiteState(2, 3, U @ s.amplitudes) for s in basis.states
        ]
        return BasisSet(2, 3, states, me_flags=[False] * 6)

    r1 = overlap_matrix(a, b)
    r2 = overlap_matrix(rotate(a), rotate(b))
    assert np.abs(r1.overlaps - r2.overlaps).max() < 1e-10


def test_overlap_matrix_rejects_incomplete_or_mismatched():
    with pytest.raises(ContractViolationError):
        overlap_matrix(build_weyl_umeb(2, 3), build_c23_first())  # 4 members
    with pytest.raises(ContractViolationError):
        overlap_matrix(computational_basis(2, 3), computational_basis(2, 4))
    # complete but not orthonormal: the loader refuses such a file, the library
    # call refuses the basis at the same ADMIT_TOL
    cols = np.eye(6, dtype=complex)
    cols[:, 1] = (cols[:, 0] + cols[:, 1]) / np.sqrt(2)
    with pytest.raises(ContractViolationError, match="second basis is not orthonormal"):
        overlap_matrix(build_c23_first(), full_basis_from_columns(cols, 2, 3))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_overlap_matrix_refuses_a_tol_that_is_not_finite_or_is_negative(tol):
    first, second = build_c23_first(), build_c23_second()
    with pytest.raises(ContractViolationError, match="tol must be finite and at least 0"):
        overlap_matrix(first, second, tol=tol)
    assert overlap_matrix(first, second, tol=0.0).max_deviation >= 0.0
