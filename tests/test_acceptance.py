"""End-to-end acceptance suite.

One test per exit criterion.  Each accumulates its sub-checks as failure
messages, always prints a single ``criterion N (<name>): PASS|FAIL`` line,
and then asserts that nothing failed (run with ``-s`` to see the lines on a
green run).  Tolerances are pinned here on purpose; do not loosen them.
"""

import json

import numpy as np

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
from umebkit.channel import analyze
from umebkit.cli import main
from umebkit.fileio import load_basis, save_basis
from umebkit.mub import overlap_matrix
from umebkit.search import SearchConfig, _ascend, max_entanglement_in_subspace
from umebkit.states import (
    BipartiteState,
    is_maximally_entangled,
    schmidt_rank,
    standard_mes,
    weyl_operator,
)

WEYL_CASES = [(2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7)]


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def _finish(num, name, failures):
    print(f"criterion {num:2d} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_01_first_2x3_basis():
    failures = []
    basis = build_c23_first()
    _check(failures, len(basis) == 6, f"expected 6 states, got {len(basis)}")
    gram_dev = np.abs(gram_matrix(basis) - np.eye(6)).max()
    _check(failures, gram_dev <= 1e-12, f"gram deviation {gram_dev:.3e}")
    for k in range(4):
        _, dev = is_maximally_entangled(basis.states[k])
        _check(failures, dev <= 1e-12, f"state {k} me deviation {dev:.3e}")
    for k in (4, 5):
        rank = schmidt_rank(basis.states[k], 1e-8)
        _check(failures, rank == 1, f"state {k} schmidt rank {rank}")
    _finish(1, "first-2x3-basis", failures)


def test_criterion_02_second_2x3_basis():
    failures = []
    basis = build_c23_second()
    gram_dev = np.abs(gram_matrix(basis) - np.eye(6)).max()
    _check(failures, gram_dev <= 1e-12, f"gram deviation {gram_dev:.3e}")
    for k in range(4):
        _, dev = is_maximally_entangled(basis.states[k])
        _check(failures, dev <= 1e-12, f"state {k} me deviation {dev:.3e}")
    for k in (4, 5):
        rank = schmidt_rank(basis.states[k], 1e-8)
        _check(failures, rank == 1, f"state {k} schmidt rank {rank}")
    bdev = np.abs(C3_UNBIASED.conj() @ C3_UNBIASED.T - np.eye(3)).max()
    _check(failures, bdev <= 1e-12, f"B-side basis gram deviation {bdev:.3e}")
    _finish(2, "second-2x3-basis", failures)


def test_criterion_03_mutual_unbiasedness():
    failures = []
    report = overlap_matrix(build_c23_first(), build_c23_second(), tol=1e-9)
    _check(failures, report.overlaps.shape == (6, 6), "wrong overlap shape")
    dev = np.abs(report.overlaps - 1 / np.sqrt(6)).max()
    _check(failures, dev <= 1e-9, f"overlap deviation {dev:.3e}")
    _check(failures, report.is_mub, "is_mub is false")
    _finish(3, "mutual-unbiasedness", failures)


def test_criterion_04_weyl_family():
    failures = []
    for d, dprime in WEYL_CASES:
        basis = build_weyl_umeb(d, dprime)
        _check(failures, len(basis) == d * d, f"({d},{dprime}): {len(basis)} states")
        gram_dev = np.abs(gram_matrix(basis) - np.eye(d * d)).max()
        _check(failures, gram_dev <= 1e-10, f"({d},{dprime}): gram {gram_dev:.3e}")
        for k, s in enumerate(basis.states):
            _, dev = is_maximally_entangled(s)
            _check(failures, dev <= 1e-10, f"({d},{dprime}) state {k}: me {dev:.3e}")
        ops = [weyl_operator(d, n, m) for n in range(d) for m in range(d)]
        for a, A in enumerate(ops):
            for b, B in enumerate(ops):
                t = np.trace(A.conj().T @ B)
                expect = d if a == b else 0.0
                _check(
                    failures,
                    abs(t - expect) <= 1e-12,
                    f"({d},{dprime}): trace orthogonality ({a},{b})",
                )
    _finish(4, "weyl-family", failures)


def test_criterion_05_unextendibility_certificates():
    failures = []
    rng = np.random.default_rng(2024)
    for d, dprime in WEYL_CASES:
        basis = build_weyl_umeb(d, dprime)
        report = support_rank_certificate(basis)
        _check(
            failures,
            report.verdict == "unextendible",
            f"({d},{dprime}): verdict {report.verdict}",
        )
        _check(
            failures,
            report.b_support_rank == dprime - d,
            f"({d},{dprime}): r_B {report.b_support_rank} != {dprime - d}",
        )
        _check(failures, dprime - d <= d - 1, f"({d},{dprime}): rank budget broken")
        P = complement_projector(basis)
        for _ in range(100):
            g = rng.normal(size=d * dprime) + 1j * rng.normal(size=d * dprime)
            pg = P @ g
            psi = pg / np.linalg.norm(pg)
            rank = schmidt_rank(BipartiteState(d, dprime, psi), 1e-8)
            _check(
                failures,
                rank <= dprime - d,
                f"({d},{dprime}): complement state rank {rank} > {dprime - d}",
            )
    _finish(5, "unextendibility-certificates", failures)


def test_criterion_06_search_negative_control():
    failures = []
    P = complement_projector(build_weyl_umeb(2, 3))
    result = max_entanglement_in_subspace(P, 2, 3, SearchConfig(restarts=64, seed=42))
    _check(failures, result.restarts_used == 64, "restart count")
    _check(failures, result.best_F <= 0.5 + 1e-9, f"best_F {result.best_F:.12f}")
    _check(failures, result.verdict == "none_found", f"verdict {result.verdict}")
    _finish(6, "search-negative-control", failures)


def test_criterion_07_search_positive_control():
    failures = []
    for d, dprime in [(2, 4), (2, 5)]:
        P = complement_projector(build_weyl_umeb(d, dprime))
        result = max_entanglement_in_subspace(
            P, d, dprime, SearchConfig(restarts=64, seed=42)
        )
        _check(
            failures,
            result.verdict == "found_me",
            f"({d},{dprime}): verdict {result.verdict}",
        )
        _check(
            failures,
            1.0 - result.best_F <= 1e-6,
            f"({d},{dprime}): 1-F = {1.0 - result.best_F:.3e}",
        )
        flag, dev = is_maximally_entangled(result.best_state, 1e-6)
        _check(failures, flag, f"({d},{dprime}): witness me deviation {dev:.3e}")
    _finish(7, "search-positive-control", failures)


def test_criterion_08_channel_2x3():
    failures = []
    report = analyze(build_weyl_umeb(2, 3), log_base=2.0)
    dev = np.abs(report.marginal_B - np.eye(2) / 2).max()
    _check(failures, dev <= 1e-12, f"B marginal deviation {dev:.3e}")
    dev = np.abs(report.marginal_A - np.diag([0.0, 0.0, 1.0])).max()
    _check(failures, dev <= 1e-12, f"A-side marginal deviation {dev:.3e}")
    _check(failures, abs(report.entropy_A) <= 1e-9, f"entropy_A {report.entropy_A}")
    _check(
        failures, abs(report.entropy_B - 1.0) <= 1e-9, f"entropy_B {report.entropy_B}"
    )
    _check(
        failures,
        report.unitality_deviation >= 0.8,
        f"unitality deviation {report.unitality_deviation}",
    )
    _check(
        failures,
        abs(report.unitality_deviation - np.sqrt(6) / 3) <= 1e-12,
        "unitality deviation != sqrt(6)/3",
    )
    _finish(8, "channel-2x3", failures)


def test_criterion_09_entropy_formulas():
    failures = []
    for d, dprime in WEYL_CASES:
        basis = build_weyl_umeb(d, dprime)
        for base, log in ((2.0, np.log2), (np.e, np.log)):
            report = analyze(basis, log_base=base)
            _check(
                failures,
                abs(report.entropy_A - log(dprime - d)) <= 1e-9,
                f"({d},{dprime}) base {base:g}: entropy_A {report.entropy_A}",
            )
            _check(
                failures,
                abs(report.entropy_B - log(d)) <= 1e-9,
                f"({d},{dprime}) base {base:g}: entropy_B {report.entropy_B}",
            )
    _finish(9, "entropy-formulas", failures)


def test_criterion_10_constraint_determinant():
    failures = []
    rng = np.random.default_rng(77)
    for d in (2, 3):
        for trial in range(50):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(g)
            U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            lams = rng.dirichlet(np.ones(d))
            M, det_formula = overlap_constraint_matrix(U, lams)
            det_numeric = abs(np.linalg.det(M))
            _check(
                failures,
                abs(det_numeric - det_formula) <= 1e-8 * det_formula,
                f"d={d} trial {trial}: numeric {det_numeric} vs formula {det_formula}",
            )
            floor = np.prod(lams) ** (d / 2) * d ** (d / 2) * (1 - 1e-12)
            _check(
                failures,
                det_numeric >= floor,
                f"d={d} trial {trial}: determinant below floor",
            )
    M, _ = overlap_constraint_matrix(np.eye(2), [0.5, 0.5])
    _check(
        failures,
        abs(abs(np.linalg.det(M)) - 1.0) <= 1e-10,
        "identity case determinant != 1",
    )
    _finish(10, "constraint-determinant", failures)


def test_criterion_11_optimizer_properties():
    failures = []
    rng = np.random.default_rng(88)
    dims = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    checked = 0
    while checked < 100:
        d, dprime = dims[checked % len(dims)]
        n = d * dprime
        rank = int(rng.integers(1, n))
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        q, _ = np.linalg.qr(g)
        P = q @ q.conj().T
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        ps = P @ s
        if np.linalg.norm(ps) < 1e-10:
            continue
        out = _ascend(P, ps / np.linalg.norm(ps), d, dprime, 300)
        _check(failures, out is not None, f"subspace {checked}: ascent collapsed")
        if out is not None:
            _, history, _ = out
            worst = float(np.diff(np.asarray(history)).min()) if len(history) > 1 else 0.0
            _check(
                failures,
                worst >= -1e-12,
                f"subspace {checked}: F decreased by {-worst:.3e}",
            )
        checked += 1

    P = complement_projector(build_weyl_umeb(2, 4))
    config = SearchConfig(restarts=16, seed=1234)
    r1 = max_entanglement_in_subspace(P, 2, 4, config)
    r2 = max_entanglement_in_subspace(P, 2, 4, config)
    _check(failures, r1.verdict == r2.verdict, "verdict not reproducible")
    _check(failures, r1.best_F == r2.best_F, "best_F not bitwise reproducible")
    _check(
        failures,
        np.array_equal(r1.best_state.amplitudes, r2.best_state.amplitudes),
        "best state not bitwise reproducible",
    )
    _finish(11, "optimizer-properties", failures)


def test_criterion_12_cli_contract(tmp_path, capsys):
    failures = []

    def run(argv, expect):
        code = main(argv)
        captured = capsys.readouterr()
        _check(
            failures,
            code == expect,
            f"{' '.join(argv)} -> exit {code}, expected {expect} "
            f"(stderr: {captured.err.strip()[:120]})",
        )
        return captured

    # round trip: save, load, resave; amplitudes must survive bit for bit
    w34 = tmp_path / "w34.json"
    run(["construct", "--kind", "weyl", "--d", "3", "--dprime", "4", "-o", str(w34)], 0)
    basis = build_weyl_umeb(3, 4)
    loaded = load_basis(w34)
    same = all(
        np.array_equal(a.amplitudes, b.amplitudes)
        for a, b in zip(basis.states, loaded.states)
    )
    _check(failures, same, "round trip altered amplitudes")
    again = tmp_path / "again.json"
    save_basis(again, loaded)
    _check(
        failures,
        w34.read_text() == again.read_text(),
        "serialized files differ after reload",
    )
    gram_dev_delta = abs(
        np.abs(gram_matrix(loaded) - np.eye(9)).max()
        - np.abs(gram_matrix(basis) - np.eye(9)).max()
    )
    _check(failures, gram_dev_delta <= 1e-12, "gram deviation changed in round trip")

    # scripted scenario matrix
    first = tmp_path / "c23_first.json"
    second = tmp_path / "c23_second.json"
    run(["construct", "--kind", "c23-first", "-o", str(first)], 0)
    run(["construct", "--kind", "c23-second", "-o", str(second)], 0)
    run(["construct", "--kind", "weyl", "--d", "3", "--dprime", "3"], 2)

    run(["verify", str(first)], 0)
    dup = tmp_path / "dup.json"
    phi0 = standard_mes(2, 3)
    save_basis(dup, BasisSet(2, 3, [phi0, phi0], me_flags=[True, True]))
    run(["verify", str(dup)], 1)
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"format": "umeb-basis/1", "d": 2,')
    run(["verify", str(trunc)], 2)

    w23 = tmp_path / "w23.json"
    w24 = tmp_path / "w24.json"
    w47 = tmp_path / "w47.json"
    save_basis(w23, build_weyl_umeb(2, 3))
    save_basis(w24, build_weyl_umeb(2, 4))
    save_basis(w47, build_weyl_umeb(4, 7))
    run(["certify", str(w23)], 0)
    captured = run(["certify", str(w24), "--restarts", "8", "--json"], 1)
    doc = json.loads(captured.out)
    _check(failures, doc["witness"] is not None, "extendible JSON lacks witness")
    run(["certify", str(w47)], 0)

    run(["search", str(w23)], 1)
    empty = tmp_path / "empty.json"
    save_basis(empty, BasisSet(2, 2, [], me_flags=[]))
    run(["search", str(empty), "--restarts", "4"], 0)
    run(["search", str(w24), "--restarts", "8"], 0)

    run(["mub", str(first), str(second)], 0)
    run(["mub", str(first), str(first)], 1)
    run(["mub", str(first), str(w24)], 2)

    run(["channel", str(w23)], 0)
    run(["channel", str(first)], 0)
    run(["channel", str(first), "--all-members"], 2)

    _finish(12, "cli-contract", failures)
