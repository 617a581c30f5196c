"""The complement frame: files the loader admits run through every stage,
complete bases are refused, and the certificate and the search are
invariant under the symmetries of the problem."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umebkit import ContractViolationError
from umebkit.bases import (
    BasisSet,
    _complement,
    _Complement,
    build_c23_second,
    build_weyl_umeb,
    complement_projector,
    support_rank_certificate,
)
from umebkit.channel import analyze
from umebkit.cli import main
from umebkit.fileio import load_basis, save_basis
from umebkit.search import SearchConfig, certify, max_entanglement_in_subspace
from umebkit.states import BipartiteState, apply_local, standard_mes
from umebkit.tolerances import RANK_CUT

from helpers import random_unitary

PAULIS = [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
]
#: Weyl shapes (d, d') with d < d' and d*d' <= 20.
SMALL_WEYL_SHAPES = [(d, dp) for d in range(2, 5) for dp in range(d + 1, 11) if d * dp <= 20]


def tilted_weyl24(tmp_path, tilt=3e-7):
    """Weyl(2,4) file with member 0 turned by ``tilt`` toward member 1: its
    Gram deviation is about ``tilt``, within the loader's 1e-6 admission."""
    amps = build_weyl_umeb(2, 4).amplitudes.copy()
    amps[0] = math.cos(tilt) * amps[0] + math.sin(tilt) * amps[1]
    path = tmp_path / "weyl-2-4-tilted.json"
    save_basis(path, BasisSet(2, 4, [BipartiteState(2, 4, a) for a in amps], [True] * 4))
    return path, amps


def bell_basis():
    phi = standard_mes(2, 2)
    states = [apply_local(phi, sigma, np.eye(2)) for sigma in PAULIS]
    return BasisSet(2, 2, states, me_flags=[True] * 4)


def run_json(argv, capsys):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None


def test_tilted_file_is_certified(tmp_path, capsys):
    path, amps = tilted_weyl24(tmp_path)
    code, doc = run_json(["certify", str(path), "--seed", "1"], capsys)
    assert code == 1
    assert doc["verdict"] == "extendible"
    witness = np.array([complex(*z) for z in doc["witness"]["amplitudes"]])
    assert np.abs(amps.conj() @ witness).max() <= 1e-6


def test_tilted_file_is_searched(tmp_path, capsys):
    path, _ = tilted_weyl24(tmp_path)
    code, doc = run_json(["search", str(path), "--seed", "1"], capsys)
    assert code == 0
    assert doc["verdict"] == "found_me"


def test_tilted_file_channel(tmp_path, capsys):
    path, _ = tilted_weyl24(tmp_path)
    code, doc = run_json(["channel", str(path), "--log-base", "e"], capsys)
    assert code == 0
    assert abs(doc["entropy_A"] - math.log(2)) <= 1e-5


def test_frame_projector_is_idempotent_on_tilted_members(tmp_path):
    P = complement_projector(load_basis(tilted_weyl24(tmp_path)[0]))
    assert np.abs(P @ P - P).max() < 1e-14
    assert np.abs(P - P.conj().T).max() < 1e-14
    assert abs(np.trace(P).real - 4) < 1e-12


@pytest.mark.parametrize("case", ["c23-second", "turned-weyl35", "tilted-weyl24"])
def test_the_frame_is_the_complement_of_the_members_not_of_their_conjugates(tmp_path, case):
    # the flagged members of the second 2 x 3 basis and a Weyl basis turned by
    # a random local unitary span no space closed under complex conjugation,
    # so a frame of the conjugates' complement would fail the first bound; the
    # tilted Weyl(2,4) rows sit at a Gram deviation of 3e-7, near the frame's
    # 1e-6 admission, where the frame must still be orthonormal
    if case == "c23-second":
        basis = build_c23_second()
    elif case == "turned-weyl35":
        weyl, rng = build_weyl_umeb(3, 5), np.random.default_rng(35)
        local = np.kron(random_unitary(rng, 3), random_unitary(rng, 5))
        basis = BasisSet(3, 5, weyl.amplitudes @ local.T, weyl.me_flags)
    else:
        basis = BasisSet(2, 4, tilted_weyl24(tmp_path)[1], [True] * 4)
    members = basis.amplitudes[np.array(basis.me_flags)]
    Q = _complement(basis).Q
    assert Q.shape == (members.shape[1], members.shape[1] - len(members))
    assert np.abs(members.conj() @ Q).max() <= 1e-14
    assert np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() <= 1e-14


@pytest.mark.parametrize("t_a", [3e-5, 3e-6])
@pytest.mark.parametrize("t_b", [3e-5, 3e-6])
def test_the_rank_cut_on_eigenvalues_counts_what_the_cut_on_singular_values_counts(t_a, t_b):
    # a frame of C^3 (x) C^5 with two columns, (|00> + |11> + t_a |22>) and
    # (|03> + t_b |14>), normalised and turned by a random local unitary: the
    # singular values of its B reshape are about 0.7, 0.7, t_a, 0.7, t_b and
    # those of its A reshape about 1, 0.7, t_a, each small one on one side of
    # RANK_CUT; the support ranks count the marginals' eigenvalues above
    # RANK_CUT**2, and must count what the singular values above RANK_CUT count
    columns = np.zeros((2, 3, 5), dtype=complex)
    columns[0, [0, 1, 2], [0, 1, 2]] = 1.0, 1.0, t_a
    columns[1, [0, 1], [3, 4]] = 1.0, t_b
    columns /= np.linalg.norm(columns, axis=(1, 2), keepdims=True)
    rng = np.random.default_rng([round(1e7 * t_a), round(1e7 * t_b)])
    local = np.kron(random_unitary(rng, 3), random_unitary(rng, 5))
    complement = _Complement(local @ columns.reshape(2, 15).T, 3, 5)
    report = complement.support_rank()
    r_a, r_b = (int((np.linalg.svd(M, compute_uv=False) > RANK_CUT).sum())
                for M in complement.reshapes())
    assert (r_a, r_b) == (2 + (t_a > RANK_CUT), 3 + (t_a > RANK_CUT) + (t_b > RANK_CUT))
    assert (report.a_support_rank, report.b_support_rank) == (r_a, r_b)
    assert report.schmidt_rank_bound == min(3, r_a, r_b)
    assert report.verdict == ("inconclusive" if t_a > RANK_CUT else "unextendible")


def test_complete_basis_is_not_a_umeb():
    bell = bell_basis()
    with pytest.raises(ContractViolationError, match="fewer than"):
        support_rank_certificate(bell)
    with pytest.raises(ContractViolationError, match="fewer than"):
        certify(bell, SearchConfig(restarts=2))


def test_certify_rejects_complete_basis_file(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_basis(path, bell_basis())
    assert main(["certify", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fewer than" in captured.err


def weyl_and_moved(shape, data):
    """Weyl(d, d') and a copy moved by the symmetries of the problem: a random
    local unitary U_A (x) U_B, a member permutation and per-member phases."""
    d, dprime = shape
    basis = build_weyl_umeb(d, dprime)
    k = len(basis)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    UA, UB = random_unitary(rng, d), random_unitary(rng, dprime)
    order = data.draw(st.permutations(range(k)), label="order")
    angles = data.draw(st.lists(st.floats(0, 2 * np.pi), min_size=k, max_size=k), label="phases")
    members = basis.states
    moved = [apply_local(members[j], UA, UB) for j in order]
    moved = [BipartiteState(d, dprime, np.exp(1j * a) * s.amplitudes)
             for a, s in zip(angles, moved)]
    return basis, BasisSet(d, dprime, moved, me_flags=[True] * k)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SMALL_WEYL_SHAPES), data=st.data())
def test_certificate_invariant_under_symmetries(shape, data):
    basis, moved = weyl_and_moved(shape, data)
    fields = ("complement_dimension", "a_support_rank", "b_support_rank",
              "schmidt_rank_bound", "verdict")
    before = support_rank_certificate(basis)
    after = support_rank_certificate(moved)
    assert [getattr(after, f) for f in fields] == [getattr(before, f) for f in fields]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SMALL_WEYL_SHAPES), data=st.data())
def test_certify_and_channel_invariant_under_symmetries(shape, data):
    basis, moved = weyl_and_moved(shape, data)
    config = SearchConfig(restarts=8)
    before, after = certify(basis, config), certify(moved, config)
    assert after.verdict == before.verdict
    if after.witness is not None:
        assert np.abs(moved.amplitudes.conj() @ after.witness.amplitudes).max() <= 1e-9
    fields = ("entropy_A", "entropy_B", "trace_preserving_deviation", "unitality_deviation")
    channel_before, channel_after = analyze(basis), analyze(moved)
    for f in fields:
        assert abs(getattr(channel_after, f) - getattr(channel_before, f)) <= 1e-12, f


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SMALL_WEYL_SHAPES), data=st.data())
def test_product_block_invariant_under_symmetries(shape, data):
    # U_A (x) U_B maps the product block C^d (x) W of the complement to
    # C^d (x) U_B W: the moved basis is certified the same way, by its
    # product block exactly when d <= d'/2
    basis, moved = weyl_and_moved(shape, data)
    d, dprime = shape
    config = SearchConfig(restarts=8)
    before, after = certify(basis, config), certify(moved, config)
    assert (after.method, after.verdict) == (before.method, before.verdict)
    assert (after.method == "product-block") == (2 * d <= dprime)
    if after.witness is not None:
        assert np.abs(moved.amplitudes.conj() @ after.witness.amplitudes).max() <= 1e-12
        s = np.linalg.svd(after.witness.amplitudes.reshape(d, dprime), compute_uv=False)
        assert np.abs(s - 1.0 / np.sqrt(d)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SMALL_WEYL_SHAPES), data=st.data())
def test_search_best_F_invariant_under_symmetries(shape, data):
    # the most entangled state in the complement of Weyl(d, d') has
    # F = (d' - d)/d, or 1 (an ME state) once d <= d'/2
    basis, moved = weyl_and_moved(shape, data)
    d, dprime = shape
    config = SearchConfig(restarts=8)
    before, after = (
        max_entanglement_in_subspace(complement_projector(b), d, dprime, config).best_F
        for b in (basis, moved)
    )
    assert abs(after - before) <= 1e-9
    assert abs(before - min(1.0, (dprime - d) / d)) <= 1e-9
