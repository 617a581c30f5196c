import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import build_weyl_umeb
from umebkit.linalg import _schmidt_coefficients
from umebkit.states import (
    BipartiteState,
    _weyl_operators,
    apply_local,
    is_maximally_entangled,
    schmidt_rank,
    standard_mes,
    weyl_operator,
)

from helpers import SWEEP_SHAPES, random_unitary

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def basis_state(d, dprime, i, j):
    amp = np.zeros(d * dprime, dtype=complex)
    amp[i * dprime + j] = 1.0
    return BipartiteState(d, dprime, amp)


def test_state_validation():
    with pytest.raises(ContractViolationError):
        BipartiteState(2, 3, np.ones(6))  # not normalized
    with pytest.raises(ContractViolationError):
        BipartiteState(3, 2, np.zeros(6))  # d > dprime
    with pytest.raises(ContractViolationError):
        BipartiteState(1, 6, np.ones(6) / np.sqrt(6))  # d too small
    with pytest.raises(ContractViolationError):
        BipartiteState(2, 3, np.ones(5) / np.sqrt(5))  # wrong length
    with pytest.raises(ContractViolationError, match="non-finite"):
        BipartiteState(2, 3, [np.nan, 1, 0, 0, 0, 0])


def test_reshape_examples():
    # amplitudes are read A-major, i*dprime + j: |0>|0'> + |0>|1'> is a
    # product state, |0>|0'> + |1>|1'> is not
    amp = np.zeros(6, dtype=complex)
    amp[0] = amp[1] = 1 / np.sqrt(2)
    assert schmidt_rank(BipartiteState(2, 3, amp)) == 1
    assert schmidt_rank(standard_mes(2, 3)) == 2
    s = _schmidt_coefficients(standard_mes(3, 4).amplitudes, 3, 4)
    assert np.abs(s - 1 / np.sqrt(3)).max() < 1e-12


def schmidt_coefficients(psi):
    return _schmidt_coefficients(psi.amplitudes, psi.d, psi.dprime)[0]


def test_schmidt_coefficients():
    s = schmidt_coefficients(standard_mes(2, 3))
    assert np.abs(s - 1 / np.sqrt(2)).max() < 1e-12

    prod = BipartiteState(2, 3, np.array([0, 0, 0.6, 0, 0, 0.8]))
    s = schmidt_coefficients(prod)
    assert np.allclose(s, [1.0, 0.0], atol=1e-12)

    s = schmidt_coefficients(standard_mes(3, 5))
    assert np.abs(s - 1 / np.sqrt(3)).max() < 1e-12


def test_schmidt_rank():
    assert schmidt_rank(standard_mes(2, 3)) == 2
    assert schmidt_rank(basis_state(2, 3, 0, 2)) == 1
    amp = np.zeros(6, dtype=complex)
    amp[0], amp[4] = np.sqrt(0.99), np.sqrt(0.01)
    assert schmidt_rank(BipartiteState(2, 3, amp)) == 2
    # the rank counts the kernel's values above tol, at every tol
    rng = np.random.default_rng(14)
    for d, dprime in [(2, 3), (3, 5)]:
        for _ in range(10):
            amp = rng.normal(size=d * dprime) + 1j * rng.normal(size=d * dprime)
            psi = BipartiteState(d, dprime, amp / np.linalg.norm(amp))
            s = schmidt_coefficients(psi)
            for tol in (0.0, 1e-8, *s):
                assert schmidt_rank(psi, tol) == (s > tol).sum()


def test_is_maximally_entangled():
    flag, dev = is_maximally_entangled(standard_mes(2, 3))
    assert flag and dev < 1e-12

    # product state: coefficients (1, 0), so the worst coefficient is the
    # vanishing one, a distance 1/sqrt(2) from the target
    flag, dev = is_maximally_entangled(basis_state(2, 3, 0, 2))
    assert not flag
    assert abs(dev - 1 / np.sqrt(2)) < 1e-12


def test_weyl_operator_small_cases():
    assert np.abs(weyl_operator(3, 0, 0) - np.eye(3)).max() < 1e-15
    assert np.abs(weyl_operator(2, 0, 1) - SIGMA[0]).max() < 1e-15
    # direct expansion: |1><0| - |0><1|
    assert np.abs(weyl_operator(2, 1, 1) - np.array([[0, -1], [1, 0]])).max() < 1e-15


def test_weyl_operator_unitary_and_orthogonal():
    for d in range(2, 9):
        ops = [weyl_operator(d, n, m) for n in range(d) for m in range(d)]
        for U in ops:
            assert np.abs(U.conj().T @ U - np.eye(d)).max() < 1e-12
        for a, A in enumerate(ops):
            for b, B in enumerate(ops):
                t = np.trace(A.conj().T @ B)
                expect = d if a == b else 0.0
                assert abs(t - expect) < 1e-12


def test_weyl_composition_closes_up_to_phase():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5):
        for _ in range(10):
            n1, m1, n2, m2 = rng.integers(0, d, size=4)
            prod = weyl_operator(d, n1, m1) @ weyl_operator(d, n2, m2)
            target = weyl_operator(d, (n1 + n2) % d, (m1 + m2) % d)
            # prod = phase * target for a unimodular phase
            ratio = np.trace(target.conj().T @ prod) / d
            assert abs(abs(ratio) - 1.0) < 1e-12
            assert np.abs(prod - ratio * target).max() < 1e-12


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("check", [schmidt_rank, is_maximally_entangled])
def test_schmidt_checks_refuse_a_tol_that_is_not_finite_or_is_negative(check, tol):
    phi = standard_mes(2, 3)
    with pytest.raises(ContractViolationError, match="tol must be finite and at least 0"):
        check(phi, tol=tol)
    assert schmidt_rank(phi, tol=0.0) == 2 and is_maximally_entangled(phi, tol=0.0)[1] >= 0.0


def test_weyl_operator_range_check():
    with pytest.raises(ContractViolationError):
        weyl_operator(2, 2, 0)
    with pytest.raises(ContractViolationError):
        weyl_operator(2, 0, -1)


def test_kept_shift_phase_table_is_read_only():
    table = _weyl_operators(3)
    with pytest.raises(ValueError):
        table[4, 0, 1] = 0.0
    with pytest.raises(ValueError):
        table *= 2
    assert _weyl_operators(3) is table and np.array_equal(table[5], weyl_operator(3, 1, 2))


def test_weyl_operator_is_a_writable_copy_of_one_slice():
    table = _weyl_operators(4)
    expect = table[2 * 4 + 3].copy()
    U = weyl_operator(4, 2, 3)
    assert U.flags.writeable and not np.shares_memory(U, table)
    U[:] = 0.0
    assert np.array_equal(weyl_operator(4, 2, 3), expect)
    assert np.array_equal(_weyl_operators(4)[2 * 4 + 3], expect)


def test_one_shift_phase_table_is_kept_and_the_sweep_builds_one_per_d():
    assert _weyl_operators.cache_info().maxsize == 1
    _weyl_operators.cache_clear()
    for d, dprime in SWEEP_SHAPES:
        build_weyl_umeb(d, dprime)
    info = _weyl_operators.cache_info()
    assert len(SWEEP_SHAPES) == 49 and (info.misses, info.hits) == (5, 44)


def test_weyl_operator_of_a_float_dimension_is_refused_after_the_int_one():
    weyl_operator(3, 1, 1)
    with pytest.raises(TypeError):
        weyl_operator(3.0, 1, 1)


def test_standard_mes():
    phi = standard_mes(2, 3)
    expect = np.zeros(6)
    expect[0] = expect[4] = 1 / np.sqrt(2)
    assert np.allclose(phi.amplitudes, expect)

    bell = standard_mes(2, 2)
    assert np.allclose(bell.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    for d in range(2, 9):
        for dprime in range(d, 9):
            flag, dev = is_maximally_entangled(standard_mes(d, dprime))
            assert flag and dev <= 1e-12

    with pytest.raises(ContractViolationError):
        standard_mes(3, 2)


def test_apply_local():
    phi0 = standard_mes(2, 3)
    phi1 = apply_local(phi0, SIGMA[0], np.eye(3))
    expect = np.zeros(6)
    expect[3] = expect[1] = 1 / np.sqrt(2)  # (|10'> + |01'>)/sqrt(2)
    assert np.allclose(phi1.amplitudes, expect)

    same = apply_local(phi0, np.eye(2), np.eye(3))
    assert np.allclose(same.amplitudes, phi0.amplitudes)


def test_apply_local_weyl_pattern():
    # (U_{12} (x) I) on the standard state at (3, 4): amplitude
    # zeta^p / sqrt(3) lands at A-index (p+2) mod 3, B-index p
    out = apply_local(standard_mes(3, 4), weyl_operator(3, 1, 2), np.eye(4))
    zeta = np.exp(2j * np.pi / 3)
    expect = np.zeros(12, dtype=complex)
    for p in range(3):
        expect[((p + 2) % 3) * 4 + p] = zeta**p / np.sqrt(3)
    assert np.abs(out.amplitudes - expect).max() < 1e-12


def test_apply_local_admits_what_its_checks_admit():
    # a state and a unitary each off by just under their bounds: the product
    # is off by more than NORM_TOL, and is renormalised rather than refused
    psi = BipartiteState(2, 3, standard_mes(2, 3).amplitudes * (1 + 0.999e-9))
    out = apply_local(psi, (1 + 0.49e-9) * np.eye(2), np.eye(3))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-15
    assert np.abs(out.amplitudes - standard_mes(2, 3).amplitudes).max() <= 1e-15
    # a result within NORM_TOL keeps its bits
    psi = BipartiteState(2, 3, standard_mes(2, 3).amplitudes * (1 + 0.5e-9))
    assert apply_local(psi, np.eye(2), np.eye(3)).amplitudes.tobytes() == psi.amplitudes.tobytes()


def test_apply_local_rejects_bad_operators():
    phi0 = standard_mes(2, 3)
    with pytest.raises(ContractViolationError):
        apply_local(phi0, np.eye(3), np.eye(3))  # wrong A-side shape
    with pytest.raises(ContractViolationError):
        apply_local(phi0, 2 * np.eye(2), np.eye(3))  # not unitary


def test_schmidt_invariant_under_local_unitaries():
    rng = np.random.default_rng(13)
    for _ in range(20):
        amp = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = BipartiteState(3, 4, amp / np.linalg.norm(amp))
        U = random_unitary(rng, 3)
        V = random_unitary(rng, 4)
        s1 = schmidt_coefficients(psi)
        s2 = schmidt_coefficients(apply_local(psi, U, V))
        assert np.abs(s1 - s2).max() < 1e-10
    moved = apply_local(standard_mes(3, 4), random_unitary(rng, 3), random_unitary(rng, 4))
    assert is_maximally_entangled(moved)[0]
