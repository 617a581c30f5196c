"""Every call of ``scripts/snapshot.py`` keeps its exit code.

The script fingerprints the CLI by the bytes of each call's streams and
files, which depend on the BLAS build; this test pins what does not, the
call and its exit code, against ``tests/data/snapshot_exit_codes.txt``.  A
change that moves an exit code on purpose rewrites that file with

    PYTHONPATH=src python scripts/snapshot.py | sed 's/ | out .*//' \\
        > tests/data/snapshot_exit_codes.txt

The whole call set runs in-process in about 1.3 s (one BLAS thread).
"""

import importlib.util
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
