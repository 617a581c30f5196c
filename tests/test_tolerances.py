"""The tolerance policy: each stage admits what the stage before it admitted,
and every cross-module bound is named once, in ``umebkit.tolerances``."""

import ast
import json
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest

import umebkit
from umebkit.bases import BasisSet, build_weyl_umeb, overlap_constraint_matrix
from umebkit.fileio import load_basis, load_state
from umebkit.states import BipartiteState, is_maximally_entangled, schmidt_rank
from umebkit.tolerances import NORM_TOL

#: Off by just under NORM_TOL: the largest norm error a state may carry.
EDGE = 0.999e-9


def random_state(rng, d, dprime):
    amp = rng.normal(size=d * dprime) + 1j * rng.normal(size=d * dprime)
    return amp / np.linalg.norm(amp)


def edge_cases():
    """(d, d', unit vector): maximally entangled members and a generic
    full-rank state."""
    rng = np.random.default_rng(3)
    return [
        pytest.param(2, 3, build_weyl_umeb(2, 3).amplitudes[1], id="weyl23"),
        pytest.param(3, 4, build_weyl_umeb(3, 4).amplitudes[5], id="weyl34"),
        pytest.param(4, 7, build_weyl_umeb(4, 7).amplitudes[11], id="weyl47"),
        pytest.param(3, 5, random_state(rng, 3, 5), id="random35"),
    ]


def schmidt_outcome(psi):
    """Every Schmidt-stage reading of ``psi``: the ME flag, the rank and the
    determinant magnitude of its overlap constraint matrix."""
    U, s, _ = np.linalg.svd(psi.amplitudes.reshape(psi.d, psi.dprime), full_matrices=False)
    flag, _ = is_maximally_entangled(psi)
    _, det = overlap_constraint_matrix(U, s**2)
    return flag, schmidt_rank(psi), det


@pytest.mark.parametrize("sign", [1, -1], ids=["long", "short"])
@pytest.mark.parametrize("d, dprime, amp", edge_cases())
def test_states_at_the_norm_edge_pass_every_schmidt_stage(d, dprime, amp, sign):
    off = amp * (1 + sign * EDGE)
    as_state = BipartiteState(d, dprime, off)
    as_member = BasisSet(d, dprime, off[None], me_flags=[False]).states[0]
    flag, rank, det = schmidt_outcome(BipartiteState(d, dprime, amp))
    assert det > 0
    for psi in (as_state, as_member):
        edge_flag, edge_rank, edge_det = schmidt_outcome(psi)
        assert (edge_flag, edge_rank) == (flag, rank)
        assert edge_det == pytest.approx(det, rel=1e-7)


def write_state_and_basis(tmp_path, d, dprime, amp):
    pairs = [[float(z.real), float(z.imag)] for z in amp]
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"format": "umeb-state/1", "d": d, "dprime": dprime,
                                 "amplitudes": pairs}))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"format": "umeb-basis/1", "d": d, "dprime": dprime,
                                 "states": [pairs], "me_flags": [False]}))
    return state, basis


def admitted(make) -> bool:
    try:
        make()
    except umebkit.ContractViolationError:
        return False
    return True


def test_loader_states_and_bases_judge_norms_alike(tmp_path):
    # vectors whose norm error steps through NORM_TOL one rounding at a time:
    # the loader keeps a vector exactly when BipartiteState and BasisSet admit
    # it, and renormalises it otherwise, so no later stage refuses it
    rng = np.random.default_rng(5)
    d, dprime = 3, 4
    for _ in range(20):
        unit = random_state(rng, d, dprime)
        for k in range(-6, 7):
            amp = unit * (1 + NORM_TOL + k * np.finfo(float).eps)
            by_state = admitted(lambda: BipartiteState(d, dprime, amp))
            assert admitted(lambda: BasisSet(d, dprime, amp[None], me_flags=[False])) == by_state
            state_path, basis_path = write_state_and_basis(tmp_path, d, dprime, amp)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = load_state(state_path)
                members = load_basis(basis_path).states
            assert len(caught) == (0 if by_state else 2)
            kept = np.array_equal(loaded.amplitudes, amp)
            assert kept == by_state
            assert np.array_equal(members[0].amplitudes, loaded.amplitudes)


#: Values that only ``tolerances.py`` may spell out, and the constants one
#: module owns, which it spells out once.
POLICY_VALUES = {1e-5, 1e-6, 1e-8, 1e-9, 1e-10, 1024}
OWNED_VALUES = {1e-12, 1e-14}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(umebkit.__file__).parent.glob("*.py") if p.name != "tolerances.py"),
    ids=lambda p: p.name,
)
def test_bounds_are_named_once(path):
    with open(path, "rb") as fh:
        numbers = [ast.literal_eval(tok.string) for tok in tokenize.tokenize(fh.readline)
                   if tok.type == tokenize.NUMBER]
    assert not POLICY_VALUES.intersection(numbers)
    for value in OWNED_VALUES:
        assert numbers.count(value) <= 1, value
