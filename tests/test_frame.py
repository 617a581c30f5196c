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
    build_weyl_umeb,
    complement_projector,
    support_rank_certificate,
)
from umebkit.channel import analyze
from umebkit.cli import main
from umebkit.fileio import load_basis, save_basis
from umebkit.search import SearchConfig, certify, max_entanglement_in_subspace
from umebkit.states import BipartiteState, apply_local, standard_mes

PAULIS = [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
]
#: Weyl shapes (d, d') with d < d' and d*d' <= 20.
SMALL_WEYL_SHAPES = [(d, dp) for d in range(2, 5) for dp in range(d + 1, 11) if d * dp <= 20]


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
