import json

import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import (
    BasisSet,
    C3_UNBIASED,
    build_c23_first,
    build_c23_second,
    build_weyl_umeb,
    complement_projector,
    gram_matrix,
    overlap_constraint_matrix,
    support_rank_certificate,
)
from umebkit.fileio import basis_to_obj
from umebkit.states import (
    BipartiteState,
    apply_local,
    is_maximally_entangled,
    schmidt_rank,
    standard_mes,
    weyl_operator,
)

from helpers import SWEEP_SHAPES, listed, random_unitary

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def pauli_bell_states():
    """The four sigma-rotated Bell-type states of C^2 (x) C^3."""
    phi0 = standard_mes(2, 3)
    return [phi0] + [apply_local(phi0, s, np.eye(3)) for s in SIGMA]


def test_weyl_family_23_matches_pauli_set_up_to_phase():
    basis = build_weyl_umeb(2, 3)
    assert len(basis) == 4
    assert basis.labels == ("00", "01", "10", "11")
    for w in basis.states:
        best = max(
            abs(np.vdot(p.amplitudes, w.amplitudes)) for p in pauli_bell_states()
        )
        assert abs(best - 1.0) < 1e-12


def test_weyl_family_shapes_and_flags():
    for d, dprime in [(2, 3), (3, 4), (2, 4)]:
        basis = build_weyl_umeb(d, dprime)
        assert len(basis) == d * d
        assert all(basis.me_flags)
        G = gram_matrix(basis)
        assert np.abs(G - np.eye(d * d)).max() < 1e-10
        for s in basis.states:
            flag, dev = is_maximally_entangled(s)
            assert flag and dev < 1e-10
        basis.validate()


def test_weyl_family_rejects_square_or_reversed():
    with pytest.raises(ContractViolationError):
        build_weyl_umeb(3, 3)
    with pytest.raises(ContractViolationError):
        build_weyl_umeb(4, 3)


def test_c23_first_members():
    basis = build_c23_first()
    assert np.allclose(basis.states[0].amplitudes, standard_mes(2, 3).amplitudes)
    assert basis.me_flags == (True,) * 4 + (False,) * 2
    assert schmidt_rank(basis.states[4]) == 1
    assert schmidt_rank(basis.states[5]) == 1
    assert np.abs(gram_matrix(basis) - np.eye(6)).max() < 1e-12


def test_c23_second_members():
    basis = build_c23_second()
    assert np.abs(gram_matrix(basis) - np.eye(6)).max() < 1e-12
    for k, s in enumerate(basis.states):
        flag, _ = is_maximally_entangled(s)
        assert flag == (k < 4)
    assert schmidt_rank(basis.states[4]) == 1


def test_c3_unbiased_rows():
    G = C3_UNBIASED.conj() @ C3_UNBIASED.T
    assert np.abs(G - np.eye(3)).max() < 1e-12
    assert np.abs(np.abs(C3_UNBIASED) - 1 / np.sqrt(3)).max() < 1e-12


def test_cross_overlap_of_lead_members():
    a = build_c23_first().states[0]
    b = build_c23_second().states[0]
    assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1 / np.sqrt(6)) < 1e-12


def test_gram_matrix_duplicate():
    phi0 = standard_mes(2, 3)
    pair = BasisSet(2, 3, [phi0, phi0], me_flags=[True, True])
    G = gram_matrix(pair)
    assert np.allclose(G, np.ones((2, 2)))
    with pytest.raises(ContractViolationError, match="nonempty basis"):
        gram_matrix(BasisSet(2, 3, [], me_flags=[]))


def test_gram_matrix_weyl34():
    G = gram_matrix(build_weyl_umeb(3, 4))
    assert np.abs(G - np.eye(9)).max() < 1e-12


def test_complement_projector_23():
    P = complement_projector(build_weyl_umeb(2, 3))
    # complement is C^2 (x) |2'>
    expect = np.kron(np.eye(2), np.diag([0.0, 0.0, 1.0]))
    assert np.abs(P - expect).max() < 1e-12
    assert np.abs(P @ P - P).max() < 1e-9


def test_complement_projector_complete_basis_vanishes():
    P = complement_projector(build_c23_first(), me_only=False)
    assert np.abs(P).max() < 1e-12


def test_complement_projector_34():
    P = complement_projector(build_weyl_umeb(3, 4))
    expect = np.kron(np.eye(3), np.diag([0.0, 0.0, 0.0, 1.0]))
    assert np.abs(P - expect).max() < 1e-12


def test_complement_projector_rejects_nonorthonormal():
    phi0 = standard_mes(2, 3)
    pair = BasisSet(2, 3, [phi0, phi0], me_flags=[True, True])
    with pytest.raises(ContractViolationError):
        complement_projector(pair)


def test_support_rank_certificate_conclusive_cases():
    rep = support_rank_certificate(build_weyl_umeb(2, 3))
    assert rep.method == "support-rank"
    assert rep.complement_dimension == 2
    assert rep.b_support_rank == 1
    assert rep.a_support_rank == 2
    assert rep.schmidt_rank_bound == 1
    assert rep.verdict == "unextendible"
    assert rep.witness is None

    rep = support_rank_certificate(build_weyl_umeb(4, 7))
    assert rep.b_support_rank == 3
    assert rep.schmidt_rank_bound == 3
    assert rep.verdict == "unextendible"


def test_support_rank_certificate_inconclusive_case():
    rep = support_rank_certificate(build_weyl_umeb(2, 4))
    assert rep.b_support_rank == 2
    assert rep.schmidt_rank_bound == 2
    assert rep.verdict == "inconclusive"


def test_support_rank_certificate_rejects_false_flag():
    prod = np.zeros(6, dtype=complex)
    prod[2] = 1.0
    bad = BasisSet(2, 3, [BipartiteState(2, 3, prod)], me_flags=[True])
    with pytest.raises(ContractViolationError):
        support_rank_certificate(bad)


def test_constraint_matrix_fixed_points():
    M, det_formula = overlap_constraint_matrix(np.eye(2), [0.5, 0.5])
    assert M.shape == (4, 4)
    assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-10
    assert abs(det_formula - 1.0) < 1e-12

    M, det_formula = overlap_constraint_matrix(SIGMA[0], [0.9, 0.1])
    assert abs(det_formula - 0.36) < 1e-12
    assert abs(abs(np.linalg.det(M)) - 0.36) < 1e-10


def test_constraint_matrix_random_determinants():
    rng = np.random.default_rng(21)
    for d in (2, 3):
        for _ in range(10):
            U = random_unitary(rng, d)
            lams = rng.dirichlet(np.ones(d))
            M, det_formula = overlap_constraint_matrix(U, lams)
            det_numeric = abs(np.linalg.det(M))
            assert abs(det_numeric - det_formula) <= 1e-8 * det_formula
            assert det_formula > 0


@pytest.mark.parametrize("d, dprime", [(2, 3), (3, 4), (3, 5), (4, 7)])
def test_constraint_matrix_gives_the_overlaps_with_the_members(d, dprime):
    # psi = sum_i sqrt(lambda_i) |u_i>|v_i> has amplitude matrix
    # X = U diag(sqrt(lambda)) V^T; with v the upper d x d block of V read
    # row-major, M v = sqrt(d) * <member_nm|psi> for every member nm
    rng = np.random.default_rng(d * dprime)
    members = build_weyl_umeb(d, dprime).amplitudes
    for _ in range(5):
        U, V = random_unitary(rng, d), random_unitary(rng, dprime)[:, :d]
        lams = rng.dirichlet(np.ones(d))
        X = U @ np.diag(np.sqrt(lams)) @ V.T
        M, _ = overlap_constraint_matrix(U, lams)
        overlaps = members.conj() @ X.ravel()
        assert np.abs(M @ V[:d].ravel() - np.sqrt(d) * overlaps).max() <= 1e-13


def test_constraint_matrix_rejects_bad_inputs():
    with pytest.raises(ContractViolationError):
        overlap_constraint_matrix(np.eye(2), [0.9, 0.2])  # sum != 1
    with pytest.raises(ContractViolationError):
        overlap_constraint_matrix(np.eye(2), [1.0, 0.0])  # zero entry
    with pytest.raises(ContractViolationError):
        overlap_constraint_matrix(2 * np.eye(2), [0.5, 0.5])  # not unitary
    with pytest.raises(ContractViolationError):
        overlap_constraint_matrix(np.eye(2), [0.2, 0.3, 0.5])  # wrong length
    with pytest.raises(ContractViolationError, match="U must be square"):
        overlap_constraint_matrix(np.eye(2, 3), [0.5, 0.5])


@pytest.mark.parametrize("U, lambdas", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), [0.5, 0.5]),
    (np.eye(2), [np.nan, 0.5]),
])
def test_constraint_matrix_refuses_a_nan(U, lambdas):
    # every comparison with a NaN is false, so the checks must ask for what passes
    with pytest.raises(ContractViolationError):
        overlap_constraint_matrix(U, lambdas)


def test_weyl_family_full_sweep_up_to_7():
    # every (d, dprime) with dprime/2 < d < dprime <= 7
    for dprime in range(3, 8):
        for d in range(2, dprime):
            if 2 * d <= dprime:
                continue
            basis = build_weyl_umeb(d, dprime)
            assert np.abs(gram_matrix(basis) - np.eye(d * d)).max() <= 1e-10
            for s in basis.states:
                _, dev = is_maximally_entangled(s)
                assert dev <= 1e-10
            rep = support_rank_certificate(basis)
            assert rep.verdict == "unextendible"
            assert rep.b_support_rank == dprime - d


def test_basisset_structural_checks():
    phi0 = standard_mes(2, 3)
    with pytest.raises(ContractViolationError):
        BasisSet(2, 4, [phi0], me_flags=[True])  # dimension mismatch
    with pytest.raises(ContractViolationError):
        BasisSet(2, 3, [phi0], me_flags=[True, False])  # flag length
    with pytest.raises(ContractViolationError):
        BasisSet(2, 3, [phi0], me_flags=[True], labels=["a", "b"])


def test_basisset_validate_catches_semantic_breaks():
    phi0 = standard_mes(2, 3)
    dup = BasisSet(2, 3, [phi0, phi0], me_flags=[True, True])
    with pytest.raises(ContractViolationError):
        dup.validate()

    prod = np.zeros(6, dtype=complex)
    prod[2] = 1.0
    mislabeled = BasisSet(2, 3, [BipartiteState(2, 3, prod)], me_flags=[True])
    with pytest.raises(ContractViolationError):
        mislabeled.validate()


def test_validate_cites_its_bound_as_every_refusal_does():
    phi0 = standard_mes(2, 3)
    with pytest.raises(ContractViolationError) as refusal:
        BasisSet(2, 3, [phi0, phi0], me_flags=[True, True]).validate()
    assert str(refusal.value) == "basis is not orthonormal: Gram deviation 1.000e+00 > 1e-9"


@pytest.mark.parametrize("d, dprime", SWEEP_SHAPES + [(2, 3), (8, 9), (5, 20), (2, 512), (31, 33)])
def test_weyl_family_matches_member_by_member_reference(d, dprime):
    # the one 2-D product must reproduce apply_local bit for bit, signed zeros
    # included, since they reach the written files; the last shapes stack up
    # to 31 * 31 * 31 = 29 791 operator rows
    phi = standard_mes(d, dprime)
    eye = np.eye(dprime)
    reference = [apply_local(phi, weyl_operator(d, n, m), eye).amplitudes
                 for n in range(d) for m in range(d)]
    ref_basis = BasisSet(d, dprime, [BipartiteState(d, dprime, a) for a in reference],
                         me_flags=[True] * (d * d),
                         labels=[f"{n}{m}" for n in range(d) for m in range(d)])
    basis = build_weyl_umeb(d, dprime)
    assert basis.amplitudes.tobytes() == np.array(reference).tobytes()
    assert json.dumps(listed(basis_to_obj(basis))) == json.dumps(listed(basis_to_obj(ref_basis)))


def test_basisset_array_way_in_checks_every_row():
    amps = build_weyl_umeb(2, 3).amplitudes
    basis = BasisSet(2, 3, amps, me_flags=[True] * 4)
    assert np.array_equal(basis.amplitudes, amps) and not basis.amplitudes.flags.writeable
    with pytest.raises(ContractViolationError):
        BasisSet(2, 3, amps[:, :5], me_flags=[True] * 4)  # wrong row length
    with pytest.raises(ContractViolationError):
        BasisSet(2, 3, amps.reshape(-1), me_flags=[True] * 24)  # not a stack of rows
    bad = amps.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ContractViolationError):
        BasisSet(2, 3, bad, me_flags=[True] * 4)  # non-finite entry
    off = amps.copy()
    off[3] *= 1 + 2e-9
    with pytest.raises(ContractViolationError):
        BasisSet(2, 3, off, me_flags=[True] * 4)  # norm off by more than 1e-9
    off = amps.copy()
    off[3] *= 1 + 5e-10
    BasisSet(2, 3, off, me_flags=[True] * 4)  # within 1e-9
    with pytest.raises(ContractViolationError):
        BasisSet(3, 2, amps, me_flags=[True] * 4)  # d > dprime
    with pytest.raises(ContractViolationError):
        BasisSet(1, 6, amps, me_flags=[True] * 4)  # d < 2
    for labels in ([np.int64(i) for i in range(4)], ["a", "b", None, "d"]):
        with pytest.raises(ContractViolationError, match="labels must be strings"):
            BasisSet(2, 3, amps, me_flags=[True] * 4, labels=labels)  # the loader's rule
    empty = BasisSet(2, 3, np.zeros((0, 6)), me_flags=[])
    assert len(empty) == 0 and empty.amplitudes.shape == (0, 6)
