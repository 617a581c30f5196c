"""Each correctness check of the benchmark rejects a deliberately corrupted
output, and accepts the program's real one."""

import dataclasses
import json
import math

import numpy as np
import pytest

import umebkit
from checks import (
    CheckError,
    check_bits_equal,
    check_certificate,
    check_channel,
    check_overlaps,
    check_pauli,
    check_weyl_members,
    check_witness,
    pairs_to_array,
    weyl_amplitudes,
    weyl_complement_frame,
)
from workloads import CliOutput, build, fingerprint


def _me_witness_24():
    """(|0>|2'> + |1>|3'>)/sqrt(2): maximally entangled, in the Weyl(2,4) complement."""
    w = np.zeros(8, dtype=complex)
    w[0 * 4 + 2] = w[1 * 4 + 3] = 1 / np.sqrt(2)
    return w


def test_weyl_amplitudes_match_the_package():
    for d, dprime in [(2, 3), (3, 5), (4, 7)]:
        amps = np.array([s.amplitudes for s in umebkit.build_weyl_umeb(d, dprime).states])
        check_weyl_members(amps, d, dprime)
        amps[1, 0] += 1e-9
        with pytest.raises(CheckError):
            check_weyl_members(amps, d, dprime)


def test_pairs_keep_negative_zero_and_bits_compare_it():
    arr = pairs_to_array([[-0.0, 1.0], [0.5, -0.0]])
    assert np.signbit(arr.real[0]) and np.signbit(arr.imag[1])
    flipped = arr.copy()
    flipped.real[0] = 0.0
    check_bits_equal("same", arr, arr.copy())
    with pytest.raises(CheckError):
        check_bits_equal("sign of zero", arr, flipped)


def test_witness_check():
    members, frame = weyl_amplitudes(2, 4), weyl_complement_frame(2, 4)
    w = _me_witness_24()
    assert check_witness(w, 2, 4, frame=frame, members=members, reported_F=1.0) == pytest.approx(1.0)
    changed = w.copy()
    changed[2] *= 1 + 1e-4  # one amplitude changed
    with pytest.raises(CheckError):
        check_witness(changed, 2, 4, frame=frame, members=members)
    outside = (w + 1e-6 * members[0]) / np.linalg.norm(w + 1e-6 * members[0])
    with pytest.raises(CheckError):
        check_witness(outside, 2, 4, frame=frame, members=members)
    with pytest.raises(CheckError):
        check_witness(w, 2, 4, frame=frame, members=members, reported_F=0.999)
    product = np.zeros(8, dtype=complex)
    product[2] = 1.0
    with pytest.raises(CheckError):  # inside the subspace, but not entangled
        check_witness(product, 2, 4, frame=frame, members=members)
    check_witness(product, 2, 4, frame=frame, members=members, reported_F=0.5, found=False)


def test_certificate_check():
    members, frame = weyl_amplitudes(2, 4), weyl_complement_frame(2, 4)
    good = {"verdict": "extendible", "b_support_rank": 2, "complement_dimension": 4,
            "schmidt_rank_bound": 2, "search_best_F": 1.0}
    kw = dict(members=members, frame=frame)
    check_certificate(good, 2, 4, witness=_me_witness_24(), **kw)
    for key, bad in [("verdict", "unextendible"), ("b_support_rank", 1),
                     ("complement_dimension", 5), ("search_best_F", 0.9)]:
        with pytest.raises(CheckError):
            check_certificate({**good, key: bad}, 2, 4, witness=_me_witness_24(), **kw)
    with pytest.raises(CheckError):
        check_certificate(good, 2, 4, witness=None, **kw)


def test_channel_check():
    chan = umebkit.analyze(umebkit.build_weyl_umeb(3, 5), log_base=math.e)
    args = (chan.entropy_A, chan.entropy_B, 3, 5)
    check_channel(*args, marginal_A=chan.marginal_A, marginal_B=chan.marginal_B)
    with pytest.raises(CheckError):
        check_channel(chan.entropy_A + 1e-8, chan.entropy_B, 3, 5)
    with pytest.raises(CheckError):
        check_channel(chan.entropy_A, math.log(2), 3, 5)
    bad = chan.marginal_A.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(CheckError):
        check_channel(*args, marginal_A=bad)


def test_overlap_check():
    first = np.array([s.amplitudes for s in umebkit.build_c23_first().states])
    second = np.array([s.amplitudes for s in umebkit.build_c23_second().states])
    overlaps = np.abs(first.conj() @ second.T)
    check_overlaps(overlaps, 6, unbiased=True)
    off = overlaps.copy()
    off[2, 3] += 1e-8
    with pytest.raises(CheckError):
        check_overlaps(off, 6, unbiased=True)
    check_overlaps(np.abs(first.conj() @ first.T), 6, unbiased=False)
    with pytest.raises(CheckError):
        check_overlaps(np.abs(first.conj() @ first.T), 6, unbiased=True)


def test_pauli_check():
    ops = [{"n": n, "m": m, "entries": [[[z.real, z.imag] for z in row]
                                        for row in umebkit.weyl_operator(3, n, m)]}
           for n in range(3) for m in range(3)]
    check_pauli(ops, 3)
    ops[4]["entries"][1][0] = [0.0, 1.0]  # U[1,1] maps |0> to |1> with weight 1
    with pytest.raises(CheckError):
        check_pauli(ops, 3)
    with pytest.raises(CheckError):
        check_pauli(ops[:8], 3)


def _cli_outputs(tmp_path, names):
    """Outputs of the named paper-cli operations, running the ones before them."""
    ops = build("paper-cli", 5, tmp_path).ops
    outputs = {}
    for op in ops:
        outputs[op.name] = (op, op.run())
        if all(n in outputs for n in names):
            return {n: outputs[n] for n in names}
    raise AssertionError(f"operations not found: {names}")


def _edit_json(out: CliOutput, edit) -> CliOutput:
    doc = json.loads(out.stdout)
    edit(doc)
    return CliOutput(out.rc, json.dumps(doc), out.stderr)


def test_cli_checks_reject_corrupted_outputs(tmp_path):
    names = ["certify weyl(2,4)", "search weyl(2,4)", "channel weyl(3,5)",
             "mub first second", "verify weyl(3,4)", "construct weyl(4,7)"]
    outs = _cli_outputs(tmp_path, names)
    for op, out in outs.values():
        op.check(out)

    def bump_amplitude(key):
        def edit(doc):
            doc[key]["amplitudes"][2][0] += 1e-4
        return edit

    def set_key(key, value):
        def edit(doc):
            doc[key] = value
        return edit

    def bump_overlap(doc):
        doc["overlaps"][1][4] += 1e-8

    corruptions = [
        ("certify weyl(2,4)", bump_amplitude("witness")),
        ("certify weyl(2,4)", set_key("b_support_rank", 3)),
        ("search weyl(2,4)", bump_amplitude("best_state")),
        ("search weyl(2,4)", set_key("best_F", 0.99)),
        ("channel weyl(3,5)", set_key("entropy_A", math.log(3))),
        ("channel weyl(3,5)", set_key("entropy_B", math.log(2))),
        ("mub first second", bump_overlap),
        ("verify weyl(3,4)", set_key("passed", False)),
    ]
    for name, edit in corruptions:
        op, out = outs[name]
        with pytest.raises(CheckError):
            op.check(_edit_json(out, edit))
    op, out = outs["channel weyl(3,5)"]
    with pytest.raises(CheckError):  # wrong exit code
        op.check(CliOutput(1, out.stdout, out.stderr))
    with pytest.raises(CheckError):  # two documents on stdout
        op.check(CliOutput(0, out.stdout + out.stdout, out.stderr))

    op, out = outs["construct weyl(4,7)"]
    path = tmp_path / "weyl-4-7.json"
    doc = json.loads(path.read_text())
    doc["states"][3][5][1] = math.nextafter(doc["states"][3][5][1], 1.0)  # one bit
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckError):
        op.check(out)


def test_repeat_fingerprint_sees_one_bit(tmp_path):
    op = build("search-hard", 3, tmp_path, smoke=True).ops[0]
    res = op.run()
    op.check(res)
    with pytest.raises(CheckError):  # a search that gives up on a subspace holding one
        op.check(dataclasses.replace(res, verdict="none_found"))
    before = fingerprint(op, res)
    assert fingerprint(op, op.run()) == before
    res.best_state.amplitudes[0] = complex(
        math.nextafter(res.best_state.amplitudes[0].real, 2.0), res.best_state.amplitudes[0].imag)
    assert fingerprint(op, res) != before
