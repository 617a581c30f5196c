import warnings

import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.linalg import _entropy, svd


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


def test_kron_block_swap():
    sx = np.array([[0, 1], [1, 0]])
    v = np.arange(4.0)
    out = np.kron(sx, np.eye(2)) @ v
    assert np.allclose(out, [2, 3, 0, 1])


def test_kron_weyl_diag():
    # the (n=1, m=0) shift-phase operator at d=2 is diag(1, -1)
    U = np.diag([1.0, -1.0])
    assert np.allclose(np.kron(U, np.eye(3)), np.diag([1, 1, 1, -1, -1, -1]))


def test_entropy_examples():
    assert _entropy(np.array([0.0, 0.0, 1.0]), 2.0) == 0.0
    assert abs(_entropy(np.full(2, 1 / 2), 2.0) - 1.0) < 1e-12
    assert abs(_entropy(np.full(3, 1 / 3), 2.0) - np.log2(3)) < 1e-12


def test_entropy_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 7)
        A = random_complex(rng, (n, n))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        S = _entropy(np.linalg.eigvalsh(rho), 2.0)
        assert -1e-9 <= S <= np.log2(n) + 1e-9


@pytest.mark.parametrize("log_base", [-2.0, 0.0, 1.0, float("nan"), float("inf")])
def test_entropy_refuses_a_log_base_it_cannot_use(log_base):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy could warn
        with pytest.raises(ContractViolationError, match="log base"):
            _entropy(np.full(2, 1 / 2), log_base)
