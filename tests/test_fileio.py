import contextlib
import io
import json
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from umebkit import ContractViolationError, FileFormatError
from umebkit.bases import (
    BasisSet, CertificateReport, build_c23_first, build_c23_second, build_weyl_umeb, gram_matrix,
)
from umebkit.channel import analyze
from umebkit.cli import main
from umebkit.fileio import (
    _dumps, _read_states, basis_to_obj, load_basis, load_state, save_basis, save_state,
    state_to_obj,
)
from umebkit.states import BipartiteState, _norm_errors, standard_mes
from umebkit.tolerances import ADMIT_TOL, ME_TOL, NORM_TOL, cite

from helpers import SWEEP_SHAPES, listed


def test_state_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = BipartiteState(3, 4, amp / np.linalg.norm(amp))
    path = tmp_path / "state.json"
    save_state(path, psi)
    assert path.read_bytes() == (json.dumps(listed(state_to_obj(psi)), indent=2) + "\n").encode()
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
    assert back.me_flags == (True, True, True, True)


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


@pytest.mark.parametrize("edit", ["as saved", "no flags or labels", "rows renormalised", "empty"])
def test_loaded_basis_is_the_public_constructors_bit_for_bit(tmp_path, edit):
    # the loader builds its basis with the public constructor, setting missing
    # flags by the rule validate() holds them to
    doc = listed(basis_to_obj(BasisSet(2, 2, [], me_flags=[]) if edit == "empty"
                              else build_c23_second()))
    if edit == "no flags or labels":
        del doc["me_flags"], doc["labels"]
    elif edit == "rows renormalised":
        for i, scale in [(1, 1 + 2e-7), (4, 1 - 3e-8)]:
            doc["states"][i] = [[x * scale for x in p] for p in doc["states"][i]]
    p = tmp_path / "b.json"
    p.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = load_basis(p)
        rows = _read_states(doc["states"], doc["d"] * doc["dprime"], p)
    flags = doc.get("me_flags")
    if flags is None:
        unflagged = BasisSet(doc["d"], doc["dprime"], rows, [False] * len(rows))
        flags = [bool(dev <= ME_TOL) for dev in unflagged.me_deviations()]
    built = BasisSet(doc["d"], doc["dprime"], rows, flags, doc.get("labels"))
    assert vars(loaded).keys() == vars(built).keys()
    assert (loaded.d, loaded.dprime, loaded.me_flags, loaded.labels) == (
        built.d, built.dprime, built.me_flags, built.labels)
    a, b = loaded.amplitudes, built.amplitudes
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert not a.flags.writeable


BUILDERS = {f"weyl({d},{dp})": (lambda d=d, dp=dp: build_weyl_umeb(d, dp)) for d, dp in SWEEP_SHAPES}
BUILDERS.update({"c23-first": build_c23_first, "c23-second": build_c23_second})


@pytest.mark.parametrize("name", list(BUILDERS))
def test_saved_basis_is_the_stdlib_indent_2_text(tmp_path, name):
    basis = BUILDERS[name]()
    p = tmp_path / "b.json"
    save_basis(p, basis)
    assert p.read_bytes() == (json.dumps(listed(basis_to_obj(basis)), indent=2) + "\n").encode()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1e308, -1e308,
               float("nan"), float("inf"), -float("inf")]
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(EDGE_FLOATS + [0.5, -2.25]).map(np.float64),
)
STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t\r", "\x00\x1f\x7f", "\u2028", "é", "𝄞", "a/b"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.sampled_from([2**63, -(2**64), 10**40]), FLOATS, STRINGS)
PAIRS = st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=5)


@st.composite
def regular_arrays(draw):
    """Nested lists of floats of one shape, such as a basis's (k, n, 2) pairs."""
    def build(shape):
        if not shape:
            return draw(FLOATS)
        return [build(shape[1:]) for _ in range(shape[0])]
    return build(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))


MIXED_ROWS = st.lists(
    st.one_of(st.lists(FLOATS, min_size=2, max_size=2), st.lists(FLOATS, max_size=3),
              st.lists(SCALARS, max_size=3), SCALARS),
    max_size=5)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, st.lists(FLOATS, max_size=5), st.lists(STRINGS, max_size=3),
              PAIRS, regular_arrays(), MIXED_ROWS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=DOCUMENTS)
def test_writer_matches_the_stdlib_indent_2_text(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(1), np.bool_(True), np.complex128(1), np.float32(1.0), (1.0, 2.0), {1.0},
    {1: 2}, {"ok": [[1.0, 2.0], [np.int64(3), 4.0]]}, b"bytes",
])
def test_writer_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        _dumps(value)


ARRAYS = [np.array([1.0]), np.array([]), np.array(2.5), np.array([[0.0, -0.0], [5e-324, 1e308]]),
          np.array([np.nan, np.inf, -np.inf]), np.arange(6).reshape(2, 3), np.array([True, False]),
          np.array([1 + 2j, -0.0 - 0.0j]), np.array([[0.1j, -1.0], [np.nan + 0j, 1e16]]),
          np.zeros((2, 0), dtype=complex),
          # arrays written from their buffers: a strided slice, a transposed
          # (Fortran-order) matrix, a read-only basis array, a 3-D complex
          # array and a 2-D array with one NaN, which goes the general way
          np.linspace(-1.0, 1.0, 13)[1::4], (np.arange(6.0).reshape(2, 3) / 7).T,
          build_weyl_umeb(2, 3).amplitudes,
          (np.arange(12) / 3 - 1j * np.arange(12)[::-1] / 7).reshape(2, 3, 2),
          np.array([[0.5, -0.0], [np.nan, 1e-7]])]


@pytest.mark.parametrize("a", ARRAYS)
def test_writer_writes_an_array_as_the_stdlib_writes_its_list(a):
    listed = np.stack([a.real, a.imag], -1).tolist() if np.iscomplexobj(a) else a.tolist()
    text = _dumps(a)
    assert text == json.dumps(listed, indent=2)
    back = np.array(json.loads(text), dtype=a.real.dtype)  # -0.0 and NaN bits included
    assert back.tobytes() == (a.view(a.real.dtype) if np.iscomplexobj(a) else a).tobytes()
    assert _dumps({"a": [a]}) == json.dumps({"a": [listed]}, indent=2)


def test_writer_writes_a_report_as_its_json_fields():
    witness = standard_mes(2, 3)
    report = CertificateReport("numeric-search", 2, 2, 3, 2, "extendible", witness, 1.0, 8)
    expected = {f.name: getattr(report, f.name) for f in fields(report)}
    expected["witness"] = listed(state_to_obj(witness))
    assert _dumps(report) == json.dumps(expected, indent=2)
    # a field marked metadata={"json": False} is left out
    channel = analyze(build_weyl_umeb(2, 3))
    assert "rho_perp" not in json.loads(_dumps(channel))


def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    p = tmp_path / "w.json"
    save_basis(p, build_weyl_umeb(2, 3))
    before = p.read_bytes()
    with monkeypatch.context() as m:  # a document the writer refuses: labels left a tuple
        m.setattr("umebkit.fileio.basis_to_obj", lambda basis: {"labels": basis.labels})
        with pytest.raises(TypeError):
            save_basis(p, build_weyl_umeb(2, 3))
    assert p.read_bytes() == before

    s = tmp_path / "s.json"
    save_state(s, standard_mes(2, 3))
    before = s.read_bytes()
    psi = standard_mes(2, 3)
    psi.d = np.int64(2)
    with pytest.raises(TypeError):
        save_state(s, psi)
    assert s.read_bytes() == before


#: The most that saving Weyl(31,33), the largest basis the loader admits
#: (15.7 MB of amplitudes, a 42 MB file), may raise the peak RSS by, in MB.
#: Written from the amplitude buffer the save measured +100 MB; through
#: nested float lists it measured +274 MB.
SAVE_RSS_BUDGET_MB = 150
#: The most that loading that file may raise the peak RSS by, in MB: about
#: twice the +183 MB measured (the stdlib parser's nested lists of floats).
LOAD_RSS_BUDGET_MB = 370
#: The most that ``umeb pauli --d 32 --json`` (a 62 MB report of 1024
#: operators) may raise the peak RSS by, in MB.  With every piece of the
#: text appended to one list and joined once it measured +137 MB; joining
#: each container's text from its items' texts measured +196 MB.
PAULI_RSS_BUDGET_MB = 165

#: Each child prints the rise of its own peak RSS, in KiB, over what it held
#: before the measured call.
ENVELOPE_CHILD = """
import resource, sys
from umebkit.bases import build_weyl_umeb
from umebkit.fileio import save_basis
basis = build_weyl_umeb(31, 33)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
save_basis(sys.argv[1], basis)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

LOAD_CHILD = """
import resource, sys
from umebkit.bases import build_weyl_umeb
from umebkit.fileio import load_basis
basis = build_weyl_umeb(31, 33)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
loaded = load_basis(sys.argv[1])
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
assert loaded.amplitudes.tobytes() == basis.amplitudes.tobytes()
assert (loaded.me_flags, loaded.labels) == (basis.me_flags, basis.labels)
print(rise)
"""

PAULI_CHILD = """
import contextlib, os, resource
from umebkit.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    assert main(["pauli", "--d", "32", "--json"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def rss_rise_mb(child: str, *args) -> float:
    """The peak-RSS rise, in MB, that ``child`` measures in a fresh process,
    so that the peak is its call's and not an earlier test's."""
    proc = subprocess.run([sys.executable, "-c", child, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


@pytest.fixture(scope="module")
def largest_basis_file(tmp_path_factory):
    """The Weyl(31,33) file a spawned child saves, and the child's rise."""
    path = tmp_path_factory.mktemp("envelope") / "w31-33.json"
    return path, rss_rise_mb(ENVELOPE_CHILD, str(path))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_saving_the_largest_basis_stays_in_its_memory_budget(largest_basis_file):
    path, rise = largest_basis_file
    assert path.stat().st_size == 42_268_490
    assert rise < SAVE_RSS_BUDGET_MB


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_loading_the_largest_basis_stays_in_its_memory_budget(largest_basis_file):
    # the child asserts that the loaded basis is the built one bit for bit
    path, _ = largest_basis_file
    assert rss_rise_mb(LOAD_CHILD, str(path)) < LOAD_RSS_BUDGET_MB


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_the_largest_pauli_report_stays_in_its_memory_budget():
    assert rss_rise_mb(PAULI_CHILD) < PAULI_RSS_BUDGET_MB


def _reference_read_states(raw_states, n: int, path) -> np.ndarray:
    """The loader's states, read as it read them before whole-array checks:
    one state at a time, each pair checked in a Python loop, each norm judged
    on its own."""
    rows = []
    for i, pairs in enumerate(raw_states):
        what = f"{path}: state {i}"
        if not isinstance(pairs, list) or len(pairs) != n:
            raise FileFormatError(f"{what}: expected {n} amplitude pairs")
        for k, pair in enumerate(pairs):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in pair)):
                raise FileFormatError(f"{what}: amplitude {k} is not a [real, imag] pair")
        try:
            amp = np.array(pairs, dtype=float).view(complex).reshape(-1)
        except OverflowError as exc:
            raise FileFormatError(f"{what}: amplitude out of floating-point range") from exc
        if not np.all(np.isfinite(amp)):
            raise FileFormatError(f"{what}: non-finite amplitude")
        err = _norm_errors(amp)
        if err > ADMIT_TOL:
            raise FileFormatError(
                f"{what}: norm {np.linalg.norm(amp):.9f} is off by more than {cite(ADMIT_TOL)}"
            )
        if err > NORM_TOL:
            warnings.warn(f"{what}: norm off by {err:.3e}; renormalizing")
            amp = amp / np.linalg.norm(amp)
        rows.append(amp)
    return np.array(rows, dtype=complex).reshape(len(rows), n)


def _outcome(read, raw_states, n: int) -> tuple:
    """What ``read`` makes of the states: the error text or the rows' bytes,
    and the warnings on the way, in order."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            result = read(json.loads(json.dumps(raw_states)), n, "f.json").tobytes()
        except FileFormatError as exc:
            result = str(exc)
    return result, [str(w.message) for w in seen]


#: Amplitudes that are not ``[real, imag]`` pairs of numbers, or not finite.
BAD_AMPLITUDES = {
    "not a list": 0.5, "length 1": [0.5], "length 3": [0.5, 0.0, 0.0],
    "bool": [True, 0.0], "str": [0.5, "0"], "null": [None, 0.0],
    "nested list": [[0.5], 0.0], "dict": [0.5, {"im": 0.0}],
    "out of range": [0.5, 10**400], "nan": [float("nan"), 0.0], "inf": [0.5, float("inf")],
}


@pytest.mark.parametrize("kind", list(BAD_AMPLITUDES))
def test_loader_names_the_first_bad_amplitude_as_the_pair_loop(tmp_path, kind):
    states = listed(basis_to_obj(build_weyl_umeb(3, 4)))["states"]
    for i, j in [(0, 0), (0, 7), (5, 0), (8, 11)]:
        raw = json.loads(json.dumps(states))
        raw[i][j] = BAD_AMPLITUDES[kind]
        reference = _outcome(_reference_read_states, raw, 12)
        assert isinstance(reference[0], str)
        assert _outcome(_read_states, raw, 12) == reference, (kind, i, j)
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"format": "umeb-basis/1", "d": 3, "dprime": 4, "states": raw}))
        with pytest.raises(FileFormatError) as exc:
            load_basis(p)
        assert str(exc.value) == reference[0].replace("f.json", str(p))


def test_loader_meets_faults_in_state_order():
    states = listed(basis_to_obj(build_weyl_umeb(3, 4)))["states"]
    cases = []
    for scale in (1 + 1e-7, 1.01):  # renormalised, refused
        raw = json.loads(json.dumps(states))
        raw[2] = [[x * scale for x in p] for p in raw[2]]
        raw[6][3] = [True, 0.0]  # a malformed state after the norm fault
        cases.append(raw)
        raw = json.loads(json.dumps(raw))
        raw[1] = raw[1][:-1]  # and one before it
        cases.append(raw)
        raw = json.loads(json.dumps(raw))
        raw[1] = "state"
        cases.append(raw)
    for raw in cases:
        assert _outcome(_read_states, raw, 12) == _outcome(_reference_read_states, raw, 12)


def test_norm_edge_states_warn_once_per_row_in_order(tmp_path):
    states = listed(basis_to_obj(build_weyl_umeb(3, 5)))["states"]
    for i, scale in [(7, 1 - 3e-8), (1, 1 + 2e-7), (4, 1 + 5e-10), (8, 1 + 9e-7)]:
        states[i] = [[x * scale for x in p] for p in states[i]]
    rows, seen = _outcome(_read_states, states, 15)
    assert (rows, seen) == _outcome(_reference_read_states, states, 15)
    assert [w.split(": ")[1] for w in seen] == ["state 1", "state 7", "state 8"]
    p = tmp_path / "edge.json"
    p.write_text(json.dumps({"format": "umeb-basis/1", "d": 3, "dprime": 5, "states": states}))
    with warnings.catch_warnings(record=True) as loaded:
        warnings.simplefilter("always")
        basis = load_basis(p)
    assert [str(w.message) for w in loaded] == [w.replace("f.json", str(p)) for w in seen]
    assert basis.amplitudes.tobytes() == rows


#: JSON values that are wrong wherever the format expects something else.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=3), st.just({"re": 1.0}),
)


VALID_DOCS = [json.dumps(listed(basis_to_obj(b)))
              for b in (build_weyl_umeb(2, 3), build_c23_first())]


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
                j = draw(st.sampled_from([0, len(states[i]) - 1, len(states[i]) // 2]))
                states[i][j] = draw(st.one_of(JUNK, st.lists(st.floats(0, 1), max_size=4)))
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
    d, dprime, states = doc["d"], doc["dprime"], doc["states"]
    if (type(d) is int and type(dprime) is int and 2 <= d <= dprime and d * dprime <= 1024
            and isinstance(states, list)):
        n = d * dprime
        assert _outcome(_read_states, states, n) == _outcome(_reference_read_states, states, n)


def test_out_of_range_number_exits_2_without_traceback(tmp_path):
    doc = listed(basis_to_obj(build_weyl_umeb(2, 3)))
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
