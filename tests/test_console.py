"""The CLI contract where no other test module pins it: the largest pauli
report, the lines that text reports show their result on, natural-log
entropies, and what only a fresh interpreter shows: ``python -m umebkit``,
the interpreter's own exit path, a real allocation failure, and output bytes
that do not depend on what an earlier call in the same process kept."""

import json
import math
import resource
import subprocess
import sys

import numpy as np
import pytest

from umebkit.bases import build_weyl_umeb
from umebkit.cli import main
from umebkit.fileio import save_basis
from umebkit.states import weyl_operator

#: The address space of the child that asks for 175 TiB: the allocation
#: fails at once, whatever the user address space of the machine.
ADDRESS_LIMIT = 8 << 30


def spawn(*args, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter with this process's
    environment; stdout and stderr are captured as bytes."""
    return subprocess.run([sys.executable, *args], capture_output=True, preexec_fn=preexec_fn)


@pytest.fixture
def w34(tmp_path):
    path = tmp_path / "w34.json"
    save_basis(path, build_weyl_umeb(3, 4))
    return str(path)


def test_cli_runs_as_module(tmp_path):
    out = tmp_path / "w23.json"
    proc = spawn("-m", "umebkit", "construct", "--kind", "weyl",
                 "--d", "2", "--dprime", "3", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc = spawn("-m", "umebkit", "verify", str(out))
    assert proc.returncode == 0, proc.stderr


DIVERGE = """\
import sys, numpy, umebkit.cli
def diverge(*args, **kwargs):
    raise numpy.linalg.LinAlgError("{name} did not converge")
numpy.linalg.{name} = diverge
sys.exit(umebkit.cli.main({argv!r}))
"""


@pytest.mark.parametrize("patched, command", [("svd", "certify"), ("eigh", "channel")])
def test_a_lapack_failure_exits_2_through_the_interpreter(w34, patched, command):
    # certify's member checks take an SVD, channel's marginal spectra an
    # eigh; exit 2 must survive sys.exit, which the in-process tests never take
    proc = spawn("-c", DIVERGE.format(name=patched, argv=[command, w34]))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr == f"numerical failure: {patched} did not converge\n".encode()


def limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = ADDRESS_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_a_real_allocation_failure_exits_2(w34):
    # 10^12 restarts of Weyl(3,4)'s complement: the second stage draws every
    # start at once, 175 TiB, and numpy's MemoryError is an error (exit 2),
    # not none_found (exit 1)
    proc = spawn("-m", "umebkit", "search", w34, "--restarts", "1000000000000", "--json",
                 preexec_fn=limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: Unable to allocate 175. TiB"), proc.stderr


def test_a_fresh_process_writes_the_bytes_of_an_in_process_call(tmp_path, capsys):
    # one interpreter keeps the shift-phase table of the last d it built:
    # (3,4), then (4,5), then (3,4) again, and pauli --d 3, must each give
    # the bytes of the same call in a fresh process
    def construct(d, dprime, name):
        return ["construct", "--kind", "weyl", "--d", str(d), "--dprime", str(dprime),
                "-o", str(tmp_path / name)]

    for argv in (construct(3, 4, "w34a.json"), construct(4, 5, "w45a.json"),
                 construct(3, 4, "w34b.json")):
        assert main(argv) == 0
    capsys.readouterr()
    assert main(["pauli", "--d", "3", "--json"]) == 0
    pauli = capsys.readouterr().out.encode()
    for argv in (construct(3, 4, "w34.json"), construct(4, 5, "w45.json")):
        assert spawn("-m", "umebkit", *argv).returncode == 0
    proc = spawn("-m", "umebkit", "pauli", "--d", "3", "--json")
    assert proc.returncode == 0 and proc.stdout == pauli
    fresh34, fresh45 = ((tmp_path / name).read_bytes() for name in ("w34.json", "w45.json"))
    assert (tmp_path / "w34a.json").read_bytes() == fresh34
    assert (tmp_path / "w45a.json").read_bytes() == fresh45
    assert (tmp_path / "w34b.json").read_bytes() == fresh34


def test_pauli_reports_every_operator_at_the_largest_dimension(capsys):
    # d * d = 1024, the limit: all of them read from one shift-phase stack
    assert main(["pauli", "--d", "32", "--json"]) == 0

    def as_array(obj):  # one operator's entries at a time: 62 MB of text
        if "entries" in obj:
            obj["entries"] = np.array(obj["entries"])
        return obj

    doc = json.loads(capsys.readouterr().out, object_hook=as_array)
    ops = doc["operators"]
    assert doc["d"] == 32
    assert [(op["n"], op["m"]) for op in ops] == [(n, m) for n in range(32) for m in range(32)]
    last = ops[-1]["entries"]
    assert np.array_equal(last[..., 0] + 1j * last[..., 1], weyl_operator(32, 31, 31))


def test_text_reports_show_their_result(w34, capsys):
    assert main(["certify", w34]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: unextendible"
    assert main(["channel", w34]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("marginal_") for line in lines) == 2  # both marginals
    assert main(["pauli", "--d", "2", "--n", "0", "--m", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "U[n=0, m=1] for d=2:"


def test_channel_entropies_in_the_natural_log(w34, capsys):
    # the complement of Weyl(3,4) is C^3 (x) |3>: the state it leaves on B is
    # pure (entropy_A 0) and the one on A is I_3 / 3 (entropy_B log 3)
    assert main(["channel", w34, "--json", "--log-base", "e"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["entropy_A"]) <= 1e-12 and abs(doc["entropy_B"] - math.log(3)) <= 1e-12, doc
