import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umebkit import ContractViolationError, bases, channel
from umebkit.bases import (
    BasisSet,
    build_c23_first,
    build_c23_second,
    build_weyl_umeb,
    complement_projector,
)
from umebkit.channel import analyze
from umebkit.search import certify
from umebkit.states import _weyl_operators

from helpers import SWEEP_SHAPES, random_unitary


def test_complement_state_23():
    rho = analyze(build_weyl_umeb(2, 3)).rho_perp
    expect = np.kron(np.eye(2), np.diag([0.0, 0.0, 1.0])) / 2
    assert np.abs(rho - expect).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_complement_state_member_count_checks():
    # any count of members is analysed; only an empty complement is refused
    with pytest.raises(ContractViolationError, match="complement is empty: the 6 chosen"):
        analyze(build_c23_first(), me_only=False)  # all 6 members span C2 x C3
    # the four flagged members leave a complement
    rho = analyze(build_c23_first()).rho_perp
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_analyze_23():
    rep = analyze(build_weyl_umeb(2, 3), log_base=2.0)
    assert np.abs(rep.marginal_B - np.eye(2) / 2).max() < 1e-12
    assert np.abs(rep.marginal_A - np.diag([0.0, 0.0, 1.0])).max() < 1e-12
    assert rep.trace_preserving_deviation < 1e-12
    assert abs(rep.unitality_deviation - np.sqrt(6) / 3) < 1e-12
    assert abs(rep.entropy_A - 0.0) < 1e-9
    assert abs(rep.entropy_B - 1.0) < 1e-9


@pytest.mark.parametrize("log_base", [2.0, math.e, 2.0 / 3.0])
def test_a_pure_marginal_has_entropy_exactly_0(log_base):
    # Weyl(2,3) and the (2,5) block selection of the snapshot's b2_5.json:
    # the B-side marginal is pure, and its eigenvalue rounds to 1 + eps
    weyl = build_weyl_umeb(2, 5).amplitudes.reshape(4, 2, 5)
    moved = np.zeros_like(weyl)
    moved[:, :, 2:] = weyl[:, :, :3]  # up two B levels
    rows = np.concatenate([weyl, moved]).reshape(8, 10)
    for basis in (build_weyl_umeb(2, 3), BasisSet(2, 5, rows, [True] * 8)):
        rep = analyze(basis, log_base=log_base)
        assert rep.entropy_A == 0.0 and math.copysign(1.0, rep.entropy_A) == 1.0
        assert abs(rep.entropy_B - math.log(2, log_base)) <= 1e-12


def test_analyze_34():
    rep = analyze(build_weyl_umeb(3, 4), log_base=2.0)
    assert abs(rep.entropy_A - 0.0) < 1e-9
    assert abs(rep.entropy_B - np.log2(3)) < 1e-9
    assert rep.unitality_deviation > 0.1


def test_analyze_24_boundary():
    rep = analyze(build_weyl_umeb(2, 4), log_base=2.0)
    assert abs(rep.entropy_A - 1.0) < 1e-9
    assert abs(rep.entropy_B - 1.0) < 1e-9
    assert np.abs(rep.marginal_A - np.diag([0.0, 0.0, 0.5, 0.5])).max() < 1e-12


def test_analyze_log_bases():
    basis = build_weyl_umeb(2, 3)
    rep_e = analyze(basis, log_base=np.e)
    assert abs(rep_e.entropy_B - np.log(2)) < 1e-9
    rep_d = analyze(basis, log_base=2.0)
    assert abs(rep_d.entropy_B - 1.0) < 1e-9


@pytest.mark.parametrize("log_base", [-2.0, 0.0, 1.0, float("nan"), float("inf")])
def test_analyze_refuses_a_log_base_it_cannot_use(log_base):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="log base"):
            analyze(build_weyl_umeb(2, 3), log_base=log_base)


def test_entropy_formulas_across_family():
    # every (d, dprime) with dprime/2 < d < dprime <= 7
    for dprime in range(3, 8):
        for d in range(2, dprime):
            if 2 * d <= dprime:
                continue
            rep = analyze(build_weyl_umeb(d, dprime), log_base=2.0)
            assert abs(rep.entropy_A - np.log2(dprime - d)) < 1e-9
            assert abs(rep.entropy_B - np.log2(d)) < 1e-9
            assert rep.trace_preserving_deviation < 1e-10
            assert rep.unitality_deviation > 0.1
            expect_A = np.diag([0.0] * d + [1.0] * (dprime - d)) / (dprime - d)
            assert np.abs(rep.marginal_A - expect_A).max() < 1e-10
            assert np.abs(rep.marginal_B - np.eye(d) / d).max() < 1e-10


def _reference_entropy(marginal, log_base):
    """Entropy of a density matrix from its eigenvalues, those at or below
    1e-12 counted as exact zeros."""
    vals = np.linalg.eigvalsh(marginal)
    vals = vals[vals > 1e-12]
    return float(-(vals * np.log(vals)).sum() / np.log(log_base)) + 0.0


def _reference_report(basis, log_base, me_only):
    """The report through the projector: the complement state, its two
    partial traces and their entropies."""
    d, dprime = basis.d, basis.dprime
    rho = complement_projector(basis, me_only=me_only) / (d * dprime - d * d)
    r = rho.reshape(d, dprime, d, dprime)
    marginal_B, marginal_A = np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)
    return {
        "rho_perp": rho,
        "marginal_A": marginal_A,
        "marginal_B": marginal_B,
        "trace_preserving_deviation": float(np.linalg.norm(marginal_B - np.eye(d) / d)),
        "unitality_deviation": float(np.linalg.norm(marginal_A - np.eye(dprime) / dprime)),
        "entropy_A": _reference_entropy(marginal_A, log_base),
        "entropy_B": _reference_entropy(marginal_B, log_base),
        "log_base": float(log_base),
    }


def _reference_cases():
    """Every sweep shape, its copy under a random local unitary (both also
    with ``me_only=False``), and the two 2 (x) 3 bases."""
    rng = np.random.default_rng(14)
    for d, dprime in SWEEP_SHAPES:
        weyl = build_weyl_umeb(d, dprime)
        X = weyl.amplitudes.reshape(-1, d, dprime)
        UA, UB = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                  for n in (d, dprime))
        turned = BasisSet(d, dprime, (UA @ X @ UB.T).reshape(d * d, -1), weyl.me_flags)
        for basis in (weyl, turned):
            yield basis, True
            yield basis, False
    yield build_c23_first(), True
    yield build_c23_second(), True


def test_analyze_matches_the_partial_trace_route(monkeypatch):
    cases = [(basis, me_only, log_base)
             for basis, me_only in _reference_cases() for log_base in (2.0, math.e)]
    assert len(cases) == 2 * (4 * len(SWEEP_SHAPES) + 2)
    want = [_reference_report(basis, log_base, me_only) for basis, me_only, log_base in cases]

    formed = []

    def counted(*args, **kwargs):
        formed.append(args)
        return complement_projector(*args, **kwargs)

    monkeypatch.setattr(channel, "complement_projector", counted)
    for (basis, me_only, log_base), ref in zip(cases, want):
        rep = analyze(basis, log_base=log_base, me_only=me_only)
        assert rep.rho_perp.tobytes() == ref["rho_perp"].tobytes()
        for key, value in ref.items():
            assert np.abs(getattr(rep, key) - value).max() <= 1e-14, (basis.d, basis.dprime, key)
    assert len(formed) == len(cases)  # Q Q^dag is formed once per report


def block_selection(d, dprime):
    """The q = d' // d copies of Weyl(d, d) on B levels jd ... jd + d - 1:
    q d^2 maximally entangled members whose complement is C^d (x) the last
    r = d' - qd levels."""
    blocks = []
    for j in range(dprime // d):
        base = np.zeros((d, dprime), dtype=complex)
        base[range(d), range(j * d, (j + 1) * d)] = 1 / np.sqrt(d)
        blocks.append(bases._turned(_weyl_operators(d), base))
    rows = np.vstack(blocks)
    return BasisSet(d, dprime, rows, [True] * len(rows))


@settings(max_examples=15, deadline=None)
@given(shape=st.sampled_from([(2, 5), (3, 8), (4, 11)]), data=st.data())
def test_a_block_selection_is_analysed_in_closed_form(shape, data):
    # not d^2 members, yet trace-preserving: each ME member has A-marginal I/d
    d, dprime = shape
    basis = block_selection(d, dprime)
    basis.validate()
    k = len(basis)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    local = np.kron(random_unitary(rng, d), random_unitary(rng, dprime))
    order = data.draw(st.permutations(range(k)), label="order")
    moved = BasisSet(d, dprime, basis.amplitudes[order] @ local.T, [True] * k)
    for b in (basis, moved):
        rep = analyze(b, log_base=math.e)
        assert rep.trace_preserving_deviation <= 1e-12
        assert abs(rep.entropy_A - math.log(dprime % d)) <= 1e-12
        assert abs(rep.entropy_B - math.log(d)) <= 1e-12
        assert certify(b).verdict == "unextendible"
