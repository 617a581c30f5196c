"""The complement of a basis is built once per member selection and shared:
one frame QR and one eigendecomposition of each marginal, the same bits on a
fresh basis and on a reused one, a basis that cannot change under its kept
frame, and read-only shared arrays."""

import math
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

from helpers import record_linalg

CONFIG = SearchConfig(restarts=8, seed=1)
BUILDERS = {"weyl24": lambda: build_weyl_umeb(2, 4), "weyl34": lambda: build_weyl_umeb(3, 4),
            "weyl36": lambda: build_weyl_umeb(3, 6), "c23": build_c23_first}


@pytest.fixture
def decompositions(monkeypatch):
    """The ``np.linalg`` ``qr``, ``eigh`` and ``svd`` calls, as they are made."""
    return record_linalg(monkeypatch, "qr", "eigh", "svd")


def frame_and_spectra(recorded):
    """The frame QRs and the marginals' eigendecompositions; any other
    decomposition ``umebkit.bases`` made fails the count."""
    calls = [(c.name, c.function) for c in recorded if c.module == "umebkit.bases"]
    frames, spectra = calls.count(("qr", "_complement")), calls.count(("eigh", "spectra"))
    assert frames + spectra == len(calls), calls
    return frames, spectra


@pytest.mark.parametrize("shape", [(2, 4), (3, 4), (3, 6)])
def test_certify_then_analyze_takes_one_frame_and_one_pair_of_spectra(decompositions, shape):
    basis = build_weyl_umeb(*shape)
    certify(basis, CONFIG)
    analyze(basis)
    assert frame_and_spectra(decompositions) == (1, 2)
    support_rank_certificate(basis)
    complement_projector(basis)
    certify(basis, CONFIG)
    analyze(basis, log_base=math.e)
    assert frame_and_spectra(decompositions) == (1, 2)
    analyze(basis, me_only=False)  # another selection: its own complement
    assert frame_and_spectra(decompositions) == (2, 4)


LINALG = ("qr", "eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "solve", "lstsq",
          "inv", "pinv", "cholesky", "det", "slogdet", "matrix_rank")


@pytest.mark.parametrize("shape", [(3, 4), (2, 4), (3, 6)])
def test_past_the_member_checks_certify_and_analyze_take_one_qr_and_two_eighs(monkeypatch,
                                                                             shape):
    # every numpy.linalg decomposition or solve, from any module: the frame's
    # QR, the member checks' one stacked SVD of Schmidt coefficients, then
    # one eigh of each marginal, read by the rank cut, the product block
    # (Weyl(2,4) and (3,6), extendible) and the entropies, and nothing more
    d, dprime = shape
    basis, calls = build_weyl_umeb(d, dprime), record_linalg(monkeypatch, *LINALG)
    certify(basis, CONFIG)
    analyze(basis)
    k, n = d * d, d * dprime
    assert [(c.name, c.shape) for c in calls] == [("qr", (n, k)), ("svd", (k, d, dprime)),
                                                  ("eigh", (d, d)), ("eigh", (dprime, dprime))]


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


def test_a_basis_never_changes_so_its_frame_is_kept(decompositions):
    basis = build_weyl_umeb(2, 4)
    kept = _complement(basis)
    other_flags, swapped = [True, True, True, False], basis.amplitudes[[1, 0, 2, 3]]
    for name, value in [("d", 3), ("dprime", 5), ("amplitudes", swapped),
                        ("me_flags", other_flags), ("labels", None)]:
        with pytest.raises(AttributeError):
            setattr(basis, name, value)
        with pytest.raises(AttributeError):
            delattr(basis, name)
    with pytest.raises(ValueError):
        basis.amplitudes[0] = swapped[0]
    with pytest.raises(TypeError):
        basis.me_flags[3] = False
    with pytest.raises(TypeError):
        basis.labels[0] = "x"
    assert _complement(basis) is _complement(basis) is kept
    assert frame_and_spectra(decompositions)[0] == 1


def test_reassigned_flags_give_a_fresh_frame(decompositions):
    # flags cannot be reassigned on a basis; a basis built with other flags
    # gets its own frame, that of a fresh build, and the first keeps its own
    basis = build_weyl_umeb(2, 4)
    kept = _complement(basis)
    assert kept.Q.shape == (8, 4)
    other_flags = [True, True, True, False]
    with pytest.raises(AttributeError):
        basis.me_flags = other_flags
    fewer = BasisSet(2, 4, basis.amplitudes, other_flags)
    Q = _complement(fewer).Q
    assert Q.shape == (8, 5)
    assert np.array_equal(Q, _complement(BasisSet(2, 4, basis.amplitudes.copy(), other_flags)).Q)
    other_flags[3] = True  # the list it was built from: the basis keeps its own flags
    assert _complement(fewer).Q.shape == (8, 5)
    assert _complement(BasisSet(2, 4, basis.amplitudes, [True] * 4)).Q.shape == (8, 4)
    assert _complement(basis) is kept
    assert frame_and_spectra(decompositions)[0] == 4


def test_reassigned_amplitudes_give_a_fresh_frame():
    # rows cannot be reassigned on a basis; a basis built over swapped rows
    # gets its own frame and the same bits as a fresh build over those rows
    basis = build_weyl_umeb(2, 4)
    certify(basis, CONFIG)
    before = _complement(basis)
    amps = basis.amplitudes.copy()
    amps[[0, 1]] = amps[[1, 0]]
    with pytest.raises(AttributeError):
        basis.amplitudes = amps
    moved, fresh = BasisSet(2, 4, amps, [True] * 4), BasisSet(2, 4, amps, [True] * 4)
    certify(moved, CONFIG)
    assert _complement(moved) is not before
    assert _complement(moved) is _complement(moved)
    assert _complement(basis) is before
    assert np.array_equal(complement_projector(moved), complement_projector(fresh))
    assert report_bytes(certify(moved, CONFIG)) == report_bytes(certify(fresh, CONFIG))


def test_rows_edited_after_the_build_do_not_reach_the_basis():
    # a basis holds its own read-only copy of the rows, so editing the array it
    # was built from cannot leave its kept frame stale
    basis = build_weyl_umeb(2, 4)
    amps = basis.amplitudes.copy()
    with pytest.raises(AttributeError):
        basis.amplitudes = amps
    built = BasisSet(2, 4, amps, basis.me_flags)  # a copy of amps, read-only
    Q = _complement(built).Q
    amps[0] = Q[:, 0]
    assert np.array_equal(built.amplitudes, basis.amplitudes)
    assert np.linalg.norm(complement_projector(built) @ built.amplitudes[0]) < 1e-12
    assert np.array_equal(complement_projector(built), complement_projector(basis))


def test_members_are_judged_once_per_build(decompositions, monkeypatch):
    # a kept frame was built from the same basis, so it passed its check
    basis = build_weyl_umeb(2, 4)
    kept = _complement(basis)
    monkeypatch.setattr("umebkit.bases.ADMIT_TOL", -1.0)  # now every check refuses
    assert _complement(basis) is kept
    with pytest.raises(ContractViolationError, match="not orthonormal"):
        _complement(BasisSet(2, 4, basis.amplitudes, basis.me_flags))  # a new build
    assert frame_and_spectra(decompositions)[0] == 1


def test_checks_still_run_on_a_reused_complement():
    basis = build_c23_first()
    analyze(basis)
    with pytest.raises(ContractViolationError, match="complement is empty"):
        analyze(basis, me_only=False)  # all 6 members span C2 x C3
    with pytest.raises(ContractViolationError, match="complement is empty"):
        analyze(BasisSet(2, 2, build_weyl_umeb(2, 3).amplitudes[:, [0, 1, 3, 4]], [True] * 4))
    product_flagged = BasisSet(2, 3, basis.amplitudes, [True] * 5 + [False])
    with pytest.raises(ContractViolationError, match="flagged maximally entangled"):
        certify(product_flagged, CONFIG)


def test_the_shared_arrays_are_read_only():
    basis = build_weyl_umeb(3, 4)
    complement = _complement(basis)
    for a in (complement.Q, _complement(basis).Q, *complement.marginals,
              *(a for spectrum in complement.spectra for a in spectrum)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    for a in (complement_projector(basis), complement.projector(), analyze(basis).rho_perp,
              analyze(basis).marginal_A):
        assert a.flags.writeable  # a new array of its own at every call
    for a in complement.reshapes():  # a view of Q is read-only, as Q is; a copy is its own
        assert not (a.flags.writeable and np.shares_memory(a, complement.Q))
