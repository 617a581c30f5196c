import warnings

import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.linalg import hermitian_eig, partial_trace, svd, von_neumann_entropy


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_svd_identity():
    left, s, right_dagger = svd(np.eye(3))
    assert np.abs(s - 1.0).max() < 1e-12


def test_svd_diagonal_sorted():
    _, s, _ = svd(np.diag([3.0, 4.0]))
    assert np.allclose(s, [4.0, 3.0], atol=1e-12)


def test_svd_standard_mes_reshape():
    X = np.zeros((2, 3))
    X[0, 0] = X[1, 1] = 1 / np.sqrt(2)
    _, s, _ = svd(X)
    assert np.abs(s - 1 / np.sqrt(2)).max() < 1e-12


def test_svd_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = rng.integers(1, 9)
        cols = rng.integers(1, 9)
        M = random_complex(rng, (rows, cols))
        left, s, right_dagger = svd(M)
        rec = left @ np.diag(s) @ right_dagger
        assert np.abs(rec - M).max() <= 1e-10 * np.linalg.norm(M)
        assert np.all(np.diff(s) <= 1e-12)
        k = min(rows, cols)
        assert np.abs(left.conj().T @ left - np.eye(k)).max() < 1e-10
        assert np.abs(right_dagger @ right_dagger.conj().T - np.eye(k)).max() < 1e-10


def test_svd_singular_values_unitary_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = random_complex(rng, (4, 6))
        U = random_unitary(rng, 4)
        V = random_unitary(rng, 6)
        _, s1, _ = svd(M)
        _, s2, _ = svd(U @ M @ V)
        assert np.abs(s1 - s2).max() < 1e-10


def test_svd_phase_convention():
    # largest-magnitude component of each left singular vector is real >= 0
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = random_complex(rng, (5, 7))
        left, _, _ = svd(M)
        for k in range(left.shape[1]):
            pivot = left[np.argmax(np.abs(left[:, k])), k]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real >= 0


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    M = random_complex(rng, (4, 4))
    out1 = svd(M.copy())
    out2 = svd(M.copy())
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)


def test_svd_rejects_nonfinite():
    M = np.eye(2, dtype=complex)
    M[0, 0] = np.nan
    with pytest.raises(ContractViolationError):
        svd(M)


def test_hermitian_eig_examples():
    vals, _ = hermitian_eig(np.eye(2) / 2)
    assert np.allclose(vals, [0.5, 0.5], atol=1e-12)

    proj = np.zeros((3, 3), dtype=complex)
    proj[2, 2] = 1.0
    vals, _ = hermitian_eig(proj)
    assert np.allclose(vals, [1.0, 0.0, 0.0], atol=1e-12)

    vals, _ = hermitian_eig(np.diag([2.0, -1.0]))
    assert np.allclose(vals, [2.0, -1.0], atol=1e-12)


def test_hermitian_eig_residual_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = rng.integers(2, 8)
        A = random_complex(rng, (n, n))
        H = A + A.conj().T
        vals, vecs = hermitian_eig(H)
        assert np.abs(H @ vecs - vecs * vals).max() < 1e-9
        assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-10
        assert np.all(np.diff(vals) <= 1e-12)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ContractViolationError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_kron_block_swap():
    sx = np.array([[0, 1], [1, 0]])
    v = np.arange(4.0)
    out = np.kron(sx, np.eye(2)) @ v
    assert np.allclose(out, [2, 3, 0, 1])


def test_kron_weyl_diag():
    # the (n=1, m=0) shift-phase operator at d=2 is diag(1, -1)
    U = np.diag([1.0, -1.0])
    assert np.allclose(np.kron(U, np.eye(3)), np.diag([1, 1, 1, -1, -1, -1]))


def test_partial_trace_mes():
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[4] = 1 / np.sqrt(2)  # (|00'> + |11'>)/sqrt(2) at (2, 3)
    rho = np.outer(psi, psi.conj())
    out = partial_trace(rho, 2, 3, side="B")
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product():
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 0.0, 1.0]))
    out = partial_trace(rho, 2, 3, side="A")
    assert np.abs(out - np.diag([0.0, 0.0, 1.0])).max() < 1e-12


def test_partial_trace_maximally_mixed():
    out = partial_trace(np.eye(6) / 6, 2, 3, side="B")
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_preserves_trace_and_is_linear():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = random_complex(rng, (12, 12))
        rho = A + A.conj().T
        for side in ("A", "B"):
            out = partial_trace(rho, 3, 4, side=side)
            assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        B = random_complex(rng, (12, 12))
        sigma = B + B.conj().T
        lhs = partial_trace(rho + 2 * sigma, 3, 4, side="B")
        rhs = partial_trace(rho, 3, 4, side="B") + 2 * partial_trace(sigma, 3, 4, side="B")
        assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ContractViolationError):
        partial_trace(np.eye(6), 2, 4, side="B")
    with pytest.raises(ContractViolationError):
        partial_trace(np.eye(6), 2, 3, side="C")


def test_entropy_examples():
    proj = np.zeros((3, 3), dtype=complex)
    proj[2, 2] = 1.0
    assert von_neumann_entropy(proj, 2.0) == 0.0
    assert abs(von_neumann_entropy(np.eye(2) / 2, 2.0) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.eye(3) / 3, 2.0) - np.log2(3)) < 1e-12


def test_entropy_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 7)
        A = random_complex(rng, (n, n))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        S = von_neumann_entropy(rho, 2.0)
        assert -1e-9 <= S <= np.log2(n) + 1e-9


@pytest.mark.parametrize("log_base", [-2.0, 0.0, 1.0, float("nan"), float("inf")])
def test_entropy_refuses_a_log_base_it_cannot_use(log_base):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy could warn
        with pytest.raises(ContractViolationError, match="log base"):
            von_neumann_entropy(np.eye(2) / 2, log_base)


def test_entropy_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        von_neumann_entropy(np.diag([1.5, -0.5]), 2.0)
    with pytest.raises(ContractViolationError):
        von_neumann_entropy(np.eye(2), 2.0)  # trace 2
