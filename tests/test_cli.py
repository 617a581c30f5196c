import contextlib
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from umebkit.bases import (
    BasisSet, CertificateReport, build_c23_first, build_c23_second, build_weyl_umeb,
    complement_projector, gram_matrix,
)
from umebkit.channel import ChannelReport, analyze
from umebkit.cli import MemberCheck, VerifyReport, _build_parser, main
from umebkit.fileio import _dumps, load_basis, load_state, save_basis
from umebkit.mub import OverlapReport, overlap_matrix
from umebkit.search import SearchConfig, SearchResult, certify, max_entanglement_in_subspace
from umebkit.states import is_maximally_entangled, standard_mes, weyl_operator

from helpers import random_unitary, record_linalg, weyl_less


def test_construct_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "w34.json"
    assert main(["construct", "--kind", "weyl", "--d", "3", "--dprime", "4", "-o", str(out)]) == 0
    capsys.readouterr()
    basis = load_basis(out)
    assert len(basis.states) == 9
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "gram deviation" in text
    assert "result: pass" in text
    assert text.splitlines()[-1] == "result: pass"  # the report ends on its result


def test_construct_to_stdout_is_valid_json(tmp_path, capsys):
    assert main(["construct", "--kind", "c23-first"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["format"] == "umeb-basis/1"
    assert len(doc["states"]) == 6
    assert sum(doc["me_flags"]) == 4
    # summary goes to stderr, not mixed into the JSON
    assert "states" in captured.err


def test_construct_rejects_bad_dims(capsys):
    assert main(["construct", "--kind", "weyl", "--d", "3", "--dprime", "3"]) == 2
    assert main(["construct", "--kind", "weyl"]) == 2
    assert capsys.readouterr().err.endswith("error: --kind weyl requires --d and --dprime\n")
    # invalid dimensions are named as such, not as a product over the size cap
    for d, dprime in [("-3", "-400"), ("1", "2000")]:
        assert main(["construct", "--kind", "weyl", "--d", d, "--dprime", dprime]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need 2 <= d < dprime, got ({d}, {dprime})\n"


def test_construct_refuses_weyl_beyond_the_space_limit(tmp_path, capsys):
    # d*d' = 1056 > 1024, the limit the loader would refuse the file at
    out = tmp_path / "big.json"
    argv = ["construct", "--kind", "weyl", "--d", "32", "--dprime", "33"]
    assert main(argv + ["-o", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: d*dprime = 1056 exceeds the limit of 1024")
    assert "Traceback" not in captured.err
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_verify_flags_duplicate_state(tmp_path, capsys):
    phi0 = standard_mes(2, 3)
    dup = BasisSet(2, 3, [phi0, phi0], me_flags=[True, True])
    path = tmp_path / "dup.json"
    save_basis(path, dup)
    assert main(["verify", str(path)]) == 1
    assert "result: fail" in capsys.readouterr().out


def test_verify_rejects_truncated_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"format": "umeb-basis/1", "d": 2')
    assert main(["verify", str(path)]) == 2
    capsys.readouterr()
    path.write_text("[]")  # valid JSON, but not a document
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: top level must be an object\n"


def test_certify_exit_codes(tmp_path, capsys):
    for d, dprime, expect in [(2, 3, 0), (2, 4, 1), (4, 7, 0)]:
        path = tmp_path / f"w{d}{dprime}.json"
        save_basis(path, build_weyl_umeb(d, dprime))
        code = main(["certify", str(path), "--restarts", "8", "--json"])
        captured = capsys.readouterr()
        assert code == expect, (d, dprime, captured.err)
        doc = json.loads(captured.out)
        if expect == 1:
            assert doc["verdict"] == "extendible"
            assert doc["witness"]["format"] == "umeb-state/1"
        else:
            assert doc["verdict"] == "unextendible"
            assert doc["witness"] is None


def test_search_negative_and_positive(tmp_path, capsys):
    neg = tmp_path / "w23.json"
    save_basis(neg, build_weyl_umeb(2, 3))
    code = main(["search", str(neg), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"] == "none_found"
    assert doc["best_F"] <= 0.5 + 1e-9
    assert doc["seed"] == 42

    pos = tmp_path / "w24.json"
    save_basis(pos, build_weyl_umeb(2, 4))
    witness_path = tmp_path / "witness.json"
    code = main(["search", str(pos), "--restarts", "8", "-o", str(witness_path), "--json"])
    capsys.readouterr()
    assert code == 0
    witness = load_state(witness_path)
    flag, _ = is_maximally_entangled(witness, 1e-6)
    assert flag


def test_search_empty_basis_full_space(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    save_basis(empty, BasisSet(2, 2, [], me_flags=[]))
    assert main(["search", str(empty), "--restarts", "4"]) == 0
    assert "found_me" in capsys.readouterr().out


def test_search_of_an_empty_complement_exits_2(tmp_path, capsys):
    first = tmp_path / "c23.json"
    save_basis(first, build_c23_first())  # its 6 members span C2 x C3
    assert main(["search", str(first), "--all-members"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: projector has rank 0: nothing to search\n"


@pytest.mark.parametrize("d, dprime, all_members", [(2, 4, False), (3, 4, False), (2, 5, True)])
def test_search_searches_the_complement_frame_it_builds(tmp_path, capsys, monkeypatch,
                                                       d, dprime, all_members):
    from umebkit.bases import _complement
    from umebkit.search import _search

    path = tmp_path / "basis.json"
    basis = build_weyl_umeb(d, dprime)
    if all_members:  # two members, unflagged: only --all-members subtracts them
        basis = BasisSet(d, dprime, basis.amplitudes[:2], [False, False])
    save_basis(path, basis)
    eighs = record_linalg(monkeypatch, "eigh")
    flags = ["--all-members"] if all_members else []
    code = main(["search", str(path), "--seed", "1", "--json", *flags])
    doc = json.loads(capsys.readouterr().out)
    assert not any(len(c.shape) == 2 for c in eighs)  # no eigendecomposition of the projector
    Q = _complement(load_basis(path), me_only=not all_members).Q
    result = _search(Q @ Q.conj().T, d, dprime, SearchConfig(seed=1))
    assert doc["verdict"] == result.verdict and doc["best_F"] == result.best_F
    assert code == (0 if result.verdict == "found_me" else 1)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1e-9", "1e400", "NaN", "abc"])
def test_tol_refuses_a_value_that_is_not_finite_or_is_negative(tmp_path, capsys, bad):
    w23, first, second = (tmp_path / f"{name}.json" for name in ("w23", "first", "second"))
    save_basis(w23, build_weyl_umeb(2, 3))
    save_basis(first, build_c23_first())
    save_basis(second, build_c23_second())
    cases = [(["verify", str(w23), "--json"], 0),  # orthonormal: passes at a good tol
             (["mub", str(first), str(second)], 0),  # the paper's unbiased pair
             (["mub", str(first), str(first)], 1)]  # no basis is unbiased to itself
    for argv, code in cases:
        assert main(argv + [f"--tol={bad}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: must be finite and at least 0, got '{bad}'" in captured.err
        assert main(argv + ["--tol", "1e-9"]) == code
        assert main(argv + ["--tol", "0.0"]) in (0, 1)
        capsys.readouterr()


def test_search_options_default_to_search_config():
    config = SearchConfig()
    for command in ("certify", "search"):
        args = _build_parser().parse_args([command, "b.json"])
        assert (args.restarts, args.max_iters, args.seed) == (
            config.restarts, config.max_iters, config.seed)


def test_mub_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["construct", "--kind", "c23-first", "-o", str(a)]) == 0
    assert main(["construct", "--kind", "c23-second", "-o", str(b)]) == 0
    assert main(["mub", str(a), str(b)]) == 0
    capsys.readouterr()
    assert main(["mub", str(a), str(a)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "mutually unbiased: no"

    w24 = tmp_path / "w24.json"
    save_basis(w24, build_weyl_umeb(2, 4))
    assert main(["mub", str(a), str(w24)]) == 2  # mismatched dims
    capsys.readouterr()


def test_channel_values_and_member_selection(tmp_path, capsys):
    w23 = tmp_path / "w23.json"
    save_basis(w23, build_weyl_umeb(2, 3))
    assert main(["channel", str(w23), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["entropy_A"]) < 1e-9
    assert abs(doc["entropy_B"] - 1.0) < 1e-9
    assert doc["unitality_deviation"] > 0.8

    first = tmp_path / "c23.json"
    assert main(["construct", "--kind", "c23-first", "-o", str(first)]) == 0
    capsys.readouterr()
    assert main(["channel", str(first)]) == 0
    capsys.readouterr()
    assert main(["channel", str(first), "--all-members"]) == 2


def test_channel_log_base_d(tmp_path, capsys):
    w35 = tmp_path / "w35.json"
    save_basis(w35, build_weyl_umeb(3, 5))
    assert main(["channel", str(w35), "--log-base", "d", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["entropy_B"] - 1.0) < 1e-9  # log_3(3)
    assert abs(doc["log_base"] - 3.0) < 1e-12


def test_pauli_single_and_all(capsys):
    assert main(["pauli", "--d", "2", "--n", "1", "--m", "1"]) == 0
    text = capsys.readouterr().out
    assert "-1.000000" in text

    assert main(["pauli", "--d", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["operators"]) == 9

    assert main(["pauli", "--d", "2", "--n", "2", "--m", "0"]) == 2
    assert main(["pauli", "--d", "2", "--n", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("d", ["0", "-3", "1", "33"])
def test_pauli_dimension_out_of_range_exits_2(capsys, d):
    # d >= 2 as everywhere else; d*d <= 1024, the loader's limit on d*d'
    assert main(["pauli", "--d", d, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --d must satisfy")
    assert "Traceback" not in captured.err


def test_pauli_largest_dimension_runs(capsys):
    assert main(["pauli", "--d", "32", "--n", "1", "--m", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.array(doc["operators"][0]["entries"]).shape == (32, 32, 2)


def test_missing_file_is_usage_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("command", ["search", "certify"])
@pytest.mark.parametrize("seed", [2**63, 2**64])
def test_seeds_beyond_philox_keys_exit_2(tmp_path, capsys, command, seed):
    w24 = tmp_path / "w24.json"
    save_basis(w24, build_weyl_umeb(2, 4))
    assert main([command, str(w24), "--seed", str(seed)]) == 2
    assert "seed must be an integer in [0, 2**63)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search", "certify"])
def test_a_search_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch, command):
    import umebkit.search as search

    # what numpy raises for --restarts 1000000000000 on Weyl(3,4), whose
    # second run draws every start at once; exit 1 would read as none_found
    def refuse(seed, rows, n):
        refused.append(rows)
        raise MemoryError("Unable to allocate 175. TiB for an array")

    # Weyl(5,6) without its last member: certify searches it too, and at the
    # default seed 42 no row of the first run is accepted.  An unpatched
    # search first keeps the first stage's draw at (42, 30), so the draw
    # refused is the second run's, which is never kept
    less, refused = tmp_path / "s5_6-less.json", []
    save_basis(less, weyl_less(5, 6))
    search._first_stage_draws.cache_clear()
    assert main([command, str(less), "--json"]) == {"search": 0, "certify": 1}[command]
    capsys.readouterr()
    monkeypatch.setattr(search, "_restart_starts", refuse)
    assert main([command, str(less), "--json"]) == 2
    assert refused == [range(8, 64)]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 175. TiB for an array\n"


def test_parser_is_built_once_and_calls_share_no_state(tmp_path, capsys):
    w24 = tmp_path / "w24.json"
    save_basis(w24, build_weyl_umeb(2, 4))
    assert _build_parser() is _build_parser()
    assert main(["search", str(w24), "--restarts", "4", "--json", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1
    assert main(["search", str(w24), "--restarts", "4", "--seed", "2"]) == 0
    assert capsys.readouterr().out.startswith("seed: 2, restarts: 4\n")
    assert main(["search", str(w24), "--restarts", "4"]) == 0
    assert capsys.readouterr().out.startswith("seed: 42, restarts: 4\n")


def test_reports_count_the_restarts_that_ran_and_were_polished(tmp_path, capsys):
    w24, w34, less = (tmp_path / f"{name}.json" for name in ("w24", "w34", "s3_5-less"))
    save_basis(w24, build_weyl_umeb(2, 4))
    save_basis(w34, build_weyl_umeb(3, 4))
    save_basis(less, weyl_less(3, 5))
    # an easy witness comes from certify's first stage of 8 restarts
    assert main(["certify", str(less), "--json", "--seed", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "numeric-search"
    assert (doc["restarts_used"], doc["seed"], doc["restarts"]) == (8, 1, 64)
    assert main(["certify", str(less), "--seed", "1"]) == 1
    assert "seed: 1, restarts: 64\nrestarts used: 8\n" in capsys.readouterr().out
    # --restarts 1 runs its one restart; --restarts 9 stops after its first
    # stage of 8, which finds the witness
    for restarts, used in ((1, 1), (9, 8)):
        argv = ["certify", str(less), "--json", "--seed", "1", "--restarts", str(restarts)]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"] is not None and 1.0 - doc["search_best_F"] <= 1e-6, doc
        assert doc["restarts_used"] == used, doc
    # the product block decides Weyl(2,4): a witness, and no search ran
    assert main(["certify", str(w24), "--json", "--seed", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "product-block" and doc["witness"] is not None
    assert doc["restarts_used"] is None and doc["search_best_F"] is None
    assert main(["certify", str(w24), "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "method: product-block\n" in out and "restarts" not in out
    # the certificate decides Weyl(3,4): no search ran
    assert main(["certify", str(w34), "--json", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["restarts_used"] is None and doc["restarts"] == 64
    # the search runs the same first stage: each of its 8 restarts parks at
    # its second F evaluation, the exact test accepts it, and the run ends
    assert main(["search", str(w24), "--json", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "found_me" and 1.0 - doc["best_F"] <= 1e-12
    assert (doc["restarts_used"], doc["restarts_polished"]) == (8, 8)
    # the search's work counts stay out of its --json report
    assert not {"evaluations", "evaluations_after_park", "polish_steps"} & doc.keys()
    assert main(["search", str(w24), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "seed: 1, restarts: 64\nrestarts used: 8\nrestarts polished: 8\n" in out
    # a search of Weyl(3,4)'s complement finds nothing in any of its 64 restarts
    assert main(["search", str(w34), "--json", "--seed", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "none_found"
    assert (doc["restarts_used"], doc["restarts_polished"]) == (64, 0)


def _json_fields(report_type) -> list:
    return [f.name for f in fields(report_type) if f.metadata.get("json", True)]


def test_json_reports_follow_their_dataclasses(tmp_path, capsys):
    w24, first, second = (tmp_path / f"{name}.json" for name in ("w24", "first", "second"))
    save_basis(w24, build_weyl_umeb(2, 4))
    save_basis(first, build_c23_first())
    save_basis(second, build_c23_second())
    cases = [
        (["certify", str(w24), "--restarts", "4"],
         _json_fields(CertificateReport) + ["seed", "restarts"]),
        (["search", str(w24), "--restarts", "4"], _json_fields(SearchResult) + ["seed"]),
        (["mub", str(first), str(second)], _json_fields(OverlapReport)),
        (["channel", str(w24)], ["d", "dprime"] + _json_fields(ChannelReport)),
        (["pauli", "--d", "2"], ["d", "operators"]),
        (["verify", str(w24)], _json_fields(VerifyReport)),
    ]
    docs = []
    for argv, keys in cases:
        assert main(argv + ["--json"]) in (0, 1), argv
        out = capsys.readouterr().out
        docs.append(json.loads(out))
        assert list(docs[-1]) == keys, argv
        # the text contract of every report: the stdlib's indent-2 text
        assert out == json.dumps(docs[-1], indent=2) + "\n", argv
    certify_doc, search_doc, mub_doc, channel_doc, pauli_doc, verify_doc = docs
    assert [list(row) for row in verify_doc["states"]] == [_json_fields(MemberCheck)] * 4
    assert certify_doc["witness"]["format"] == "umeb-state/1"
    assert search_doc["best_state"]["format"] == "umeb-state/1"
    assert np.array(mub_doc["overlaps"]).shape == (6, 6)
    assert "rho_perp" in {f.name for f in fields(ChannelReport)}
    assert "rho_perp" not in channel_doc
    assert np.array(channel_doc["marginal_A"]).shape == (4, 4, 2)
    assert [list(op) for op in pauli_doc["operators"]] == [["n", "m", "entries"]] * 4
    assert np.array(pauli_doc["operators"][0]["entries"]).shape == (2, 2, 2)


def test_mub_admits_a_basis_the_loader_admits(tmp_path, capsys):
    second = build_c23_second()
    amps = second.amplitudes.copy()
    amps[0] += 3e-7 * amps[1]  # tilt member 0 toward member 1
    amps[0] /= np.linalg.norm(amps[0])
    first, tilted = tmp_path / "first.json", tmp_path / "tilted.json"
    save_basis(first, build_c23_first())
    save_basis(tilted, BasisSet(2, 3, amps, second.me_flags, second.labels))
    assert len(load_basis(tilted)) == 6
    assert main(["mub", str(first), str(tilted), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert 1e-9 < doc["max_deviation"] < 2e-7
    assert main(["mub", str(first), str(tilted), "--tol", "1e-6"]) == 0
    save_basis(tilted, build_c23_second())
    assert main(["mub", str(first), str(tilted)]) == 0
    capsys.readouterr()


def test_verify_json_keeps_its_hand_written_bytes(tmp_path, capsys):
    # every member's me_deviation is the same float in verify --json,
    # BasisSet.me_deviations and is_maximally_entangled: one kernel reads them
    phi0 = standard_mes(2, 3)
    rng = np.random.default_rng(8)
    random_rows = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0].T
    cases = [build_weyl_umeb(3, 4), build_c23_first(), BasisSet(2, 2, [], me_flags=[]),
             BasisSet(2, 3, [phi0, phi0], me_flags=[True, False]),
             BasisSet(2, 3, random_rows, me_flags=[False] * 3), build_weyl_umeb(3, 5)]
    for basis in cases:
        for state, dev in zip(basis.states, basis.me_deviations()):
            assert is_maximally_entangled(state)[1] == dev
        path = tmp_path / "b.json"
        save_basis(path, basis)
        k = len(basis)
        gram_dev = float(np.abs(gram_matrix(basis) - np.eye(k)).max()) if k else 0.0
        rows = [{"index": i, "label": basis.labels[i] if basis.labels else None,
                 "me_deviation": float(dev), "me_flag": flag,
                 "consistent": bool(dev <= 1e-8) == flag}
                for i, (dev, flag) in enumerate(zip(basis.me_deviations(), basis.me_flags))]
        passed = gram_dev <= 1e-9 and all(row["consistent"] for row in rows)
        assert main(["verify", str(path), "--json"]) == (0 if passed else 1)
        expected = {"gram_deviation": gram_dev, "tol": 1e-9, "states": rows, "passed": passed}
        out = capsys.readouterr().out
        assert out == json.dumps(expected, indent=2) + "\n"
        if basis is cases[0]:  # Weyl(3,4) passes: every member within 1e-8 of maximal
            doc = json.loads(out)
            assert doc["passed"] and all(
                m["consistent"] and m["me_deviation"] <= 1e-8 for m in doc["states"]), doc


LAPACK_FAILURES = [
    ("svd", ["verify", "w34.json", "--json"]),
    ("svd", ["certify", "w34.json"]),
    ("svd", ["certify", "w24.json"]),
    ("svd", ["certify", "w24.json", "--seed", "1"]),
    ("svd", ["search", "w34.json"]),
    ("svd", ["search", "w24.json"]),
    ("qr", ["certify", "w34.json"]),
    ("qr", ["search", "w34.json"]),
    ("qr", ["channel", "w34.json"]),
    ("eigh", ["channel", "w34.json"]),
    ("eigh", ["certify", "s3_5-less.json"]),
    ("eigh", ["search", "w34.json"]),
    ("eigh", ["search", "w24.json"]),
]


@pytest.mark.parametrize("patched, argv", LAPACK_FAILURES,
                         ids=[f"{patched}-{'_'.join(argv)}" for patched, argv in LAPACK_FAILURES])
def test_a_lapack_failure_exits_2_as_a_numerical_failure(tmp_path, capsys, monkeypatch,
                                                         patched, argv):
    # a LAPACK failure is a numerical failure (exit 2), not a verdict (exit 1 or 3)
    monkeypatch.chdir(tmp_path)
    save_basis("w34.json", build_weyl_umeb(3, 4))
    save_basis("w24.json", build_weyl_umeb(2, 4))
    save_basis("s3_5-less.json", weyl_less(3, 5))

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{patched} did not converge")

    monkeypatch.setattr(np.linalg, patched, diverge)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {patched} did not converge\n"


def test_a_bug_exits_2_with_its_traceback(tmp_path, capsys, monkeypatch):
    # an unexpected exception is not a verdict: exit 2, never the 1 of an escape
    w34 = tmp_path / "w34.json"
    save_basis(w34, build_weyl_umeb(3, 4))

    def broken(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr("umebkit.cli.analyze", broken)
    assert main(["channel", str(w34), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("ZeroDivisionError: division by zero\n")

    # the report is written inside main's error handling too
    def unserialisable(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    monkeypatch.setattr("umebkit.cli._dumps", unserialisable)
    assert main(["verify", str(w34), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith(
        "TypeError: Object of type VerifyReport is not JSON serializable\n")


WITH_JSON = [
    ["verify", "w24.json"],
    ["certify", "w24.json", "--restarts", "4", "--seed", "1"],
    ["search", "w24.json", "--restarts", "4", "--seed", "1", "-o", "best.json"],
    ["mub", "c23.json", "c23.json"],
    ["channel", "w34.json"],
    ["pauli", "--d", "2"],
]
ONE_PER_COMMAND = [
    ["construct", "--kind", "c23-first"],
    ["construct", "--kind", "weyl", "--d", "2", "--dprime", "4", "-o", "w.json"],
    *WITH_JSON,
    *([*argv, "--json"] for argv in WITH_JSON),
]


@pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=[" ".join(argv) for argv in ONE_PER_COMMAND])
def test_main_alone_writes_stdout(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_basis("w24.json", build_weyl_umeb(2, 4))
    save_basis("w34.json", build_weyl_umeb(3, 4))
    save_basis("c23.json", build_c23_first())
    args = _build_parser().parse_args(argv)
    code, report, text = args.func(args)
    assert capsys.readouterr().out == ""  # the command printed no report
    assert main(argv) == code
    printed = _dumps(report) if "--json" in argv or text is None else "\n".join(text())
    assert capsys.readouterr().out == printed + "\n"


def test_json_formats_no_text(tmp_path, capsys, monkeypatch):
    w34 = str(tmp_path / "w34.json")
    save_basis(w34, build_weyl_umeb(3, 4))
    argvs = [["channel", w34, "--json"], ["pauli", "--d", "3", "--json"]]
    before = []
    for argv in argvs:
        assert main(argv) == 0
        before.append(capsys.readouterr().out)

    def broken(*args, **kwargs):
        raise AssertionError("text formatted")

    monkeypatch.setattr("umebkit.cli._format_matrix", broken)
    assert [main(argv) for argv in argvs] == [0, 0]
    assert capsys.readouterr().out == "".join(before)
    assert main(["channel", w34]) == 2  # the text does call it: a bug, with nothing printed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("AssertionError: text formatted\n")


@st.composite
def admitted_bases(draw):
    """Bases the loader admits: random orthonormal members, Weyl subsets and
    the two 2 x 3 bases under random local unitaries, and complete bases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "weyl", "complete", "c23"]))
    if kind == "c23":
        basis = draw(st.sampled_from([build_c23_first, build_c23_second]))()
        local = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
        return BasisSet(2, 3, basis.amplitudes @ local.T, basis.me_flags)
    d = draw(st.integers(2, 3))
    dprime = draw(st.integers(d + (kind == "weyl"), 5))
    n = d * dprime
    if kind == "random":
        rows = random_unitary(rng, n)[: draw(st.integers(1, n - 1))]
        return BasisSet(d, dprime, rows, [False] * len(rows))
    if kind == "complete":
        return BasisSet(d, dprime, random_unitary(rng, n), [False] * n)
    members = draw(st.one_of(st.just(list(range(d * d))),
                             st.sets(st.integers(0, d * d - 1), min_size=1).map(sorted)))
    local = np.kron(random_unitary(rng, d), random_unitary(rng, dprime))
    rows = build_weyl_umeb(d, dprime).amplitudes[members] @ local.T
    return BasisSet(d, dprime, rows, [True] * len(rows))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(basis=admitted_bases())
def test_every_stage_processes_an_admitted_file(tmp_path, basis):
    path = str(tmp_path / "admitted.json")
    save_basis(path, basis)
    load_basis(path)  # the file is admitted
    run = ["--json", "--restarts", "4", "--max-iters", "50"]
    for argv in (["verify", path, "--json"], ["certify", path, *run], ["search", path, *run],
                 ["search", path, "--all-members", *run], ["channel", path, "--json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
        if argv[0] == "channel":  # no draw has an empty complement of its flagged members
            assert code == 0, err.getvalue()
        if code == 2:
            assert out.getvalue() == "", argv
        else:
            json.loads(out.getvalue())  # one JSON document


def test_json_report_arrays_read_back_bit_for_bit(tmp_path, capsys):
    w24, first, second = (tmp_path / f"{name}.json" for name in ("w24", "first", "second"))
    save_basis(w24, build_weyl_umeb(2, 4))
    save_basis(first, build_c23_first())
    save_basis(second, build_c23_second())

    def report(*argv):
        assert main([*argv, "--json"]) in (0, 1), argv
        return json.loads(capsys.readouterr().out)

    basis, config = load_basis(w24), SearchConfig(restarts=4, seed=1)
    channel = analyze(basis)
    channel_doc = report("channel", str(w24))
    cases = [
        (report("certify", str(w24), "--restarts", "4", "--seed", "1")["witness"]["amplitudes"],
         certify(basis, config).witness.amplitudes),
        (report("search", str(w24), "--restarts", "4", "--seed", "1")["best_state"]["amplitudes"],
         max_entanglement_in_subspace(complement_projector(basis), 2, 4, config)
         .best_state.amplitudes),
        (report("mub", str(first), str(second))["overlaps"],
         overlap_matrix(load_basis(first), load_basis(second)).overlaps),
        (channel_doc["marginal_A"], channel.marginal_A),
        (channel_doc["marginal_B"], channel.marginal_B),
    ] + [(op["entries"], weyl_operator(3, op["n"], op["m"]))
         for op in report("pauli", "--d", "3")["operators"]]
    for written, value in cases:
        # complex values are written as [re, im] pairs; bytes tell -0.0 from 0.0
        want = np.stack([value.real, value.imag], -1) if np.iscomplexobj(value) else value
        got = np.array(written)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
