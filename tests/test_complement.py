"""The complement of a basis is built once per member selection and shared:
one frame SVD and one pair of spectra SVDs, the same bits on a fresh basis
and on a reused one, a fresh frame once the inputs change, and read-only
shared arrays."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import (
    BasisSet,
    _complement,
    build_c23_first,
    build_weyl_umeb,
    complement_projector,
    support_rank_certificate,
)
from umebkit.channel import analyze
from umebkit.search import SearchConfig, certify

CONFIG = SearchConfig(restarts=8, seed=1)
BUILDERS = {"weyl24": lambda: build_weyl_umeb(2, 4), "weyl34": lambda: build_weyl_umeb(3, 4),
            "weyl36": lambda: build_weyl_umeb(3, 6), "c23": build_c23_first}


@pytest.fixture
def svd_calls(monkeypatch):
    """The ``np.linalg.svd`` calls made from ``umebkit.bases``, by function."""
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a generator expression's caller
            caller = caller.f_back
        if caller.f_globals["__name__"] == "umebkit.bases":
            calls.append(caller.f_code.co_name)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def frame_and_spectra(calls):
    return calls.count("_complement"), calls.count("singular_values")


@pytest.mark.parametrize("shape", [(2, 4), (3, 4), (3, 6)])
def test_certify_then_analyze_takes_one_frame_and_one_pair_of_spectra(svd_calls, shape):
    basis = build_weyl_umeb(*shape)
    certify(basis, CONFIG)
    analyze(basis)
    assert frame_and_spectra(svd_calls) == (1, 2)
    support_rank_certificate(basis)
    complement_projector(basis)
    certify(basis, CONFIG)
    analyze(basis, log_base=math.e)
    assert frame_and_spectra(svd_calls) == (1, 2)
    analyze(basis, me_only=False)  # another selection: its own complement
    assert frame_and_spectra(svd_calls) == (2, 4)


def report_bytes(report) -> bytes:
    """Every field of a report, arrays and states by their bytes."""
    parts = []
    for f in fields(report):
        value = getattr(report, f.name)
        value = getattr(value, "amplitudes", value)
        parts.append(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return b"|".join(parts)


def run(basis, step: str, me_only: bool) -> bytes:
    if step == "certify":
        return report_bytes(certify(basis, CONFIG))
    if step == "analyze":
        return report_bytes(analyze(basis, me_only=me_only))
    return complement_projector(basis, me_only).tobytes()


STEPS = ("certify", "analyze", "projector")


@pytest.mark.parametrize("name", ["weyl24", "weyl34", "weyl36", "c23"])
@pytest.mark.parametrize("me_only", [True, False])
def test_reports_are_the_same_bits_on_a_fresh_and_a_reused_basis(name, me_only):
    build = BUILDERS[name]
    steps = [s for s in STEPS if me_only or s != "certify"]  # certify takes the flagged
    if name == "c23" and not me_only:  # 6 members, not d^2: only the projector
        steps = ["projector"]
    fresh = {step: run(build(), step, me_only) for step in steps}
    for order in (steps, steps[::-1]):
        basis = build()
        assert {step: run(basis, step, me_only) for step in order} == fresh
        assert {step: run(basis, step, me_only) for step in order} == fresh


def test_reassigned_flags_give_a_fresh_frame(svd_calls):
    basis = build_weyl_umeb(2, 4)
    assert _complement(basis).Q.shape == (8, 4)
    basis.me_flags = [True, True, True, False]
    Q = _complement(basis).Q
    assert Q.shape == (8, 5)
    assert np.array_equal(Q, _complement(BasisSet(2, 4, basis.amplitudes,
                                                   [True, True, True, False])).Q)
    basis.me_flags[3] = True  # changed in place: the flags at the call count
    assert _complement(basis).Q.shape == (8, 4)
    basis.me_flags = [True] * 4  # the same flags again: the same complement
    assert _complement(basis).Q.shape == (8, 4)
    assert frame_and_spectra(svd_calls)[0] == 4


def test_reassigned_amplitudes_give_a_fresh_frame():
    basis, other = build_weyl_umeb(2, 4), build_weyl_umeb(2, 4)
    certify(basis, CONFIG)
    before = _complement(basis)
    amps = basis.amplitudes.copy()
    amps[[0, 1]] = amps[[1, 0]]
    basis.amplitudes = other.amplitudes = amps
    assert _complement(basis) is not before
    assert _complement(basis) is _complement(basis)
    assert np.array_equal(complement_projector(basis), complement_projector(other))
    assert report_bytes(certify(basis, CONFIG)) == report_bytes(certify(other, CONFIG))


def test_checks_still_run_on_a_reused_complement():
    basis = build_c23_first()
    analyze(basis)
    with pytest.raises(ContractViolationError, match="exactly d\\^2"):
        analyze(basis, me_only=False)  # 6 members, not 4
    with pytest.raises(ContractViolationError, match="complement is empty"):
        analyze(BasisSet(2, 2, build_weyl_umeb(2, 3).amplitudes[:, [0, 1, 3, 4]], [True] * 4))
    basis.me_flags = [True] * 5 + [False]  # a product member flagged
    with pytest.raises(ContractViolationError, match="flagged maximally entangled"):
        certify(basis, CONFIG)


def test_the_shared_arrays_are_read_only():
    basis = build_weyl_umeb(3, 4)
    complement = _complement(basis)
    for a in (complement.Q, _complement(basis).Q, *complement.singular_values):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    for a in (complement_projector(basis), analyze(basis).rho_perp, *complement.reshapes()):
        assert a.flags.writeable  # a new array of its own at every call
