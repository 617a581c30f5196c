"""Every committed benchmark trajectory file carries the fields a reader
compares across changes."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
#: A trajectory file keeps each pair's metrics, not its per-operation samples.
MAX_BYTES = 150_000


def test_bench_files_are_found():
    assert len(BENCH_FILES) >= 2


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_carries_the_trajectory_fields(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(doc, dict)
    for key in ("label", "claim", "machine", "summary", "pairs"):
        assert key in doc, f"{path.name} has no {key!r}"
    assert path.name == f"BENCH_{doc['label']}.json"
    assert isinstance(doc["pairs"], list) and doc["pairs"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_leaves_out_the_raw_samples(path):
    assert path.stat().st_size <= MAX_BYTES, f"{path.name} is over {MAX_BYTES} bytes"
