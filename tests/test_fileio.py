import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from umebkit import ContractViolationError, FileFormatError
from umebkit.bases import BasisSet, build_c23_first, build_c23_second, build_weyl_umeb, gram_matrix
from umebkit.cli import main
from umebkit.fileio import basis_to_obj, load_basis, load_state, save_basis, save_state
from umebkit.states import BipartiteState, standard_mes


def test_state_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = BipartiteState(3, 4, amp / np.linalg.norm(amp))
    path = tmp_path / "state.json"
    save_state(path, psi)
    back = load_state(path)
    assert back.d == 3 and back.dprime == 4
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_basis_roundtrip_bitwise(tmp_path):
    basis = build_c23_second()
    path = tmp_path / "basis.json"
    save_basis(path, basis)
    back = load_basis(path)
    assert back.labels == basis.labels
    assert back.me_flags == basis.me_flags
    for a, b in zip(back.states, basis.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    dev_before = np.abs(gram_matrix(basis) - np.eye(6)).max()
    dev_after = np.abs(gram_matrix(back) - np.eye(6)).max()
    assert dev_after == dev_before


def test_state_norm_admission_rules(tmp_path):
    psi = standard_mes(2, 3)
    doc = {
        "format": "umeb-state/1",
        "d": 2,
        "dprime": 3,
        "amplitudes": [[float(z.real), float(z.imag)] for z in psi.amplitudes],
    }

    # slightly off norm: renormalized with a warning
    doc_warn = dict(doc)
    doc_warn["amplitudes"] = [[re * (1 + 1e-7), im] for re, im in doc["amplitudes"]]
    p = tmp_path / "warn.json"
    p.write_text(json.dumps(doc_warn))
    with pytest.warns(UserWarning):
        back = load_state(p)
    assert abs(np.linalg.norm(back.amplitudes) - 1.0) < 1e-12

    # badly off norm: rejected
    doc_bad = dict(doc)
    doc_bad["amplitudes"] = [[re * 1.1, im] for re, im in doc["amplitudes"]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc_bad))
    with pytest.raises(FileFormatError):
        load_state(p)


def test_state_format_checks(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_state(p)

    p.write_text(json.dumps({"format": "something-else", "d": 2, "dprime": 3}))
    with pytest.raises(FileFormatError):
        load_state(p)

    p.write_text(
        json.dumps(
            {"format": "umeb-state/1", "d": 2, "dprime": 3, "amplitudes": [[1.0, 0.0]]}
        )
    )
    with pytest.raises(FileFormatError):
        load_state(p)


def test_basis_orthonormality_gate(tmp_path):
    phi0 = standard_mes(2, 3)
    dup = BasisSet(2, 3, [phi0, phi0], me_flags=[True, True])
    p = tmp_path / "dup.json"
    save_basis(p, dup)
    with pytest.raises(FileFormatError):
        load_basis(p)
    back = load_basis(p, check_orthonormal=False)
    assert len(back.states) == 2


def test_basis_me_flags_recomputed(tmp_path):
    basis = build_weyl_umeb(2, 3)
    p = tmp_path / "w.json"
    save_basis(p, basis)
    doc = json.loads(p.read_text())
    del doc["me_flags"]
    p.write_text(json.dumps(doc))
    back = load_basis(p)
    assert back.me_flags == [True, True, True, True]


def test_basis_rejects_malformed_fields(tmp_path):
    basis = build_weyl_umeb(2, 3)
    p = tmp_path / "w.json"
    save_basis(p, basis)
    doc = json.loads(p.read_text())

    broken = dict(doc)
    broken["states"] = doc["states"][:1] + [doc["states"][1][:-1]]  # ragged
    p.write_text(json.dumps(broken))
    with pytest.raises(FileFormatError):
        load_basis(p)

    broken = dict(doc)
    broken["me_flags"] = [True, False]
    p.write_text(json.dumps(broken))
    with pytest.raises(FileFormatError):
        load_basis(p)

    broken = dict(doc)
    broken["d"] = 0
    p.write_text(json.dumps(broken))
    with pytest.raises(FileFormatError):
        load_basis(p)


def test_empty_basis_roundtrip(tmp_path):
    empty = BasisSet(2, 2, [], me_flags=[])
    p = tmp_path / "empty.json"
    save_basis(p, empty)
    back = load_basis(p)
    assert back.states == []
    assert back.d == 2 and back.dprime == 2


def test_basis_load_builds_no_member_states(tmp_path, monkeypatch):
    import umebkit.states

    p = tmp_path / "w.json"
    save_basis(p, build_weyl_umeb(3, 5))
    built = []
    real_init = umebkit.states.BipartiteState.__post_init__
    monkeypatch.setattr(umebkit.states.BipartiteState, "__post_init__",
                        lambda self: built.append(self) or real_init(self))
    back = load_basis(p)
    assert len(back) == 9 and built == []


#: JSON values that are wrong wherever the format expects something else.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=3), st.just({"re": 1.0}),
)


VALID_DOCS = [json.dumps(basis_to_obj(b)) for b in (build_weyl_umeb(2, 3), build_c23_first())]


@st.composite
def mutated_basis_docs(draw):
    """A valid ``umeb-basis/1`` document with one or two fields broken."""
    doc = json.loads(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(
            ["field", "number", "pair", "length", "norm", "drop", "labels", "flags"]
        ))
        if kind == "field":  # a top-level field of the wrong type or value
            doc[draw(st.sampled_from(["format", "d", "dprime", "states"]))] = draw(JUNK)
            continue
        states = doc["states"]
        if not (isinstance(states, list) and states and all(isinstance(x, list) for x in states)):
            continue
        k = len(states)
        if kind == "number":  # a real or imaginary part replaced by junk
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, 5))
            if j < len(states[i]) and isinstance(states[i][j], list) and len(states[i][j]) == 2:
                states[i][j] = list(states[i][j])
                states[i][j][draw(st.integers(0, 1))] = draw(JUNK)
        elif kind == "pair":  # an amplitude that is not a pair
            i = draw(st.integers(0, k - 1))
            if states[i]:
                states[i][0] = draw(st.one_of(JUNK, st.lists(st.floats(0, 1), max_size=4)))
        elif kind == "length":  # a state one amplitude short or long
            i = draw(st.integers(0, k - 1))
            states[i] = states[i][:-1] if draw(st.booleans()) else states[i] + [[0.0, 0.0]]
        elif kind == "norm":  # a state scaled off unit norm
            i, f = draw(st.integers(0, k - 1)), draw(st.floats(1e-3, 10.0))
            states[i] = [[f * x if type(x) in (int, float) else x for x in p]
                         if isinstance(p, list) else p for p in states[i]]
        elif kind == "drop":  # fewer states than labels and flags
            del states[draw(st.integers(0, k - 1))]
        else:  # labels or flags of the wrong type or length
            key = "labels" if kind == "labels" else "me_flags"
            doc[key] = draw(st.one_of(JUNK, st.lists(JUNK, min_size=k, max_size=k + 1)))
    return doc


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_basis_docs())
def test_malformed_basis_files_end_in_exit_2(tmp_path, doc):
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(doc))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        try:
            load_basis(p)
            loaded = True
        except (FileFormatError, ContractViolationError):
            loaded = False
        rc = main(["certify", str(p), "--restarts", "4"])
    assert "Traceback" not in err.getvalue()
    assert rc in ((0, 1, 2, 3) if loaded else (2,))


def test_out_of_range_number_exits_2_without_traceback(tmp_path):
    doc = basis_to_obj(build_weyl_umeb(2, 3))
    doc["states"][1][2][0] = 10**400  # valid JSON, but no double holds it
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError):
        load_basis(p)
    proc = subprocess.run([sys.executable, "-m", "umebkit", "certify", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "out of floating-point range" in proc.stderr


def test_oversized_dimensions_exit_2_without_traceback(tmp_path):
    p = tmp_path / "vast.json"
    p.write_text(json.dumps({"format": "umeb-basis/1", "d": 4294967296,
                             "dprime": 4294967296, "states": []}))
    with pytest.raises(FileFormatError):
        load_basis(p)
    proc = subprocess.run([sys.executable, "-m", "umebkit", "verify", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "exceeds the limit of 1024" in proc.stderr
    at_limit = tmp_path / "empty-32-32.json"
    save_basis(at_limit, BasisSet(32, 32, [], me_flags=[]))
    basis = load_basis(at_limit)
    assert (basis.d, basis.dprime, len(basis)) == (32, 32, 0)
