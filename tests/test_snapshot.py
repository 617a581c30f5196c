"""Every call of ``scripts/snapshot.py`` keeps its exit code, and its
search section adds up.

The script fingerprints the CLI by the bytes of each call's streams and
files, which depend on the BLAS build; this test pins what does not, the
call and its exit code, against ``tests/data/snapshot_exit_codes.txt``.  A
change that moves an exit code on purpose rewrites that file from the call
lines alone with

    PYTHONPATH=src python scripts/snapshot.py | sed -n 's/ | out .*//p' \\
        > tests/data/snapshot_exit_codes.txt

The whole call set runs in-process in about 1.3 s, and the search section
at seed 1 in 2.5-4.5 s (one BLAS thread).
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_CODES = ROOT / "tests" / "data" / "snapshot_exit_codes.txt"


def load_snapshot():
    spec = importlib.util.spec_from_file_location("snapshot", ROOT / "scripts" / "snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return snapshot


def test_every_snapshot_call_keeps_its_exit_code(tmp_path, monkeypatch, capsys):
    snapshot = load_snapshot()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    snapshot.main_calls()
    lines = capsys.readouterr().out.splitlines()
    got = [" | ".join(line.split(" | ")[:2]) for line in lines]
    want = EXIT_CODES.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    assert not moved, moved[:10]


def test_search_section_finds_every_hard_witness_and_sums_its_totals(capsys):
    snapshot = load_snapshot()
    snapshot.search_calls(1)
    lines = capsys.readouterr().out.splitlines()
    hard = len(snapshot.HARD_CASES) * snapshot.SUBSPACES_PER_CASE
    assert (hard, len(lines)) == (20, 77)  # then 56 fixed-seed reports and the totals
    # bench/workloads.py's search_hard requires found_me on every one of them
    assert [line.split()[-2] for line in lines[:hard]] == ["found_me"] * hard
    sums = dict.fromkeys(("evaluations", "after_park", "polish_steps", "polished"), 0)
    for line in lines[:hard]:
        # "<case> #j  evaluations N  after_park N  polish_steps N  polished N  <verdict> <sha>"
        tokens = line.split("#")[1].split()
        for key, value in zip(tokens[1:9:2], tokens[2:9:2]):
            sums[key] += int(value)
    assert json.loads(lines[-1]) == {"seed": 1, "searches": hard, **sums}
