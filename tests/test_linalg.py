import warnings

import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.linalg import _entropy, _gram_deviation, _schmidt_coefficients
from umebkit.states import weyl_operator

from helpers import random_complex, random_unitary


def test_svd_identity():
    s = _schmidt_coefficients(np.eye(3).reshape(-1), 3, 3)
    assert s.shape == (1, 3)
    assert np.abs(s - 1.0).max() < 1e-12


def test_svd_diagonal_sorted():
    s = _schmidt_coefficients(np.diag([3.0, 4.0]).reshape(-1), 2, 2)[0]
    assert np.allclose(s, [4.0, 3.0], atol=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(50):
        d, extra = rng.integers(1, 6, size=2)
        rows = random_complex(rng, (rng.integers(1, 5), d * (d + extra)))
        s = _schmidt_coefficients(rows, d, d + extra)
        assert s.shape == (len(rows), d)
        assert np.all(np.diff(s, axis=1) <= 0)


def test_svd_standard_mes_reshape():
    X = np.zeros((2, 3))
    X[0, 0] = X[1, 1] = 1 / np.sqrt(2)
    s = _schmidt_coefficients(X.reshape(-1), 2, 3)
    assert np.abs(s - 1 / np.sqrt(2)).max() < 1e-12


def test_svd_singular_values_unitary_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = random_complex(rng, (4, 6))
        U = random_unitary(rng, 4)
        V = random_unitary(rng, 6)
        s1 = _schmidt_coefficients(M.reshape(-1), 4, 6)
        s2 = _schmidt_coefficients((U @ M @ V).reshape(-1), 4, 6)
        assert np.abs(s1 - s2).max() < 1e-10


def test_svd_deterministic():
    # a row's values do not depend on the call or on the rows stacked with it
    rng = np.random.default_rng(3)
    rows = random_complex(rng, (5, 12))
    stacked = _schmidt_coefficients(rows.copy(), 3, 4)
    assert stacked.tobytes() == _schmidt_coefficients(rows.copy(), 3, 4).tobytes()
    for row, s in zip(rows, stacked):
        assert _schmidt_coefficients(row, 3, 4)[0].tobytes() == s.tobytes()


def test_gram_deviation_is_each_inline_form_bit_for_bit():
    rng = np.random.default_rng(5)
    rows = random_unitary(rng, 6)[:4] * (1 + 1e-7)
    assert _gram_deviation(rows) == np.abs(rows.conj() @ rows.T - np.eye(4)).max()
    U = random_unitary(rng, 5) + 1e-9
    assert _gram_deviation(U.T) == np.abs(U.conj().T @ U - np.eye(5)).max()  # columns
    assert _gram_deviation(np.zeros((0, 6), dtype=complex)) == 0.0
    rows[1, 2] = np.nan
    assert np.isnan(_gram_deviation(rows))


def test_kron_block_swap():
    # the (n=0, m=1) shift-phase operator at d=2 is the shift [[0, 1], [1, 0]];
    # on A of the A-major index i * d' + j it swaps the two blocks of d'
    sx = weyl_operator(2, 0, 1)
    v = np.arange(4.0)
    out = np.kron(sx, np.eye(2)) @ v
    assert np.allclose(out, [2, 3, 0, 1])


def test_kron_weyl_diag():
    # the (n=1, m=0) shift-phase operator at d=2 is diag(1, -1)
    U = weyl_operator(2, 1, 0)
    assert np.allclose(np.kron(U, np.eye(3)), np.diag([1, 1, 1, -1, -1, -1]))


def test_entropy_examples():
    assert _entropy(np.array([0.0, 0.0, 1.0]), 2.0) == 0.0
    assert abs(_entropy(np.full(2, 1 / 2), 2.0) - 1.0) < 1e-12
    assert abs(_entropy(np.full(3, 1 / 3), 2.0) - np.log2(3)) < 1e-12


def test_entropy_of_a_pure_spectrum_rounded_above_1_is_0():
    # 1 + eps has log eps > 0, so the sum alone would be -eps, not 0
    for log_base in (2.0, np.e, 3.0, 0.5):
        assert _entropy(np.array([1e-17, 1.0 + 2.0**-52]), log_base) == 0.0


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
