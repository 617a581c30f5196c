"""The benchmark runs every workload end to end, reports exactly the metrics
BENCHMARK.json declares, and refuses to run without the package."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import umebkit
from tracing import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TILTED = {"certify tilted weyl(2,4)", "search tilted weyl(2,4)", "channel tilted weyl(2,4)"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run(name):
    result = run.run_workload(name, 2, 0.0, trace=True, smoke=True)
    assert result["correct"], result["error"]
    assert result["passes"] == 2
    assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        metric = (result["end_to_end"] | result["per_layer"])[spec["name"]]
        assert metric["unit"] == spec["unit"]
    assert result["end_to_end"]["setup_s"]["value"] > 0
    assert result["per_layer"]["search.searches"]["value"] > 0
    if name == "paper-cli":
        assert {f["op"] for f in result["failed_ops"]} == TILTED
        assert result["failed"] == 3 * result["passes"]
        assert result["per_layer"]["cli.report_bytes"]["value"] > 0
    else:
        assert result["failed"] == 0


def test_last_line_is_the_result(capsys):
    assert run.main(["--workload", "paper-cli", "--seed", "3", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] * 46 == 3 * last["attempted"]
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_only_the_tilted_operations_may_fail(tmp_path):
    from checks import CheckError
    from workloads import Failed, build

    ops = build("paper-cli", 1, tmp_path, smoke=True).ops
    tilted = [op for op in ops if op.name in TILTED]
    assert [op.expected_to_fail for op in ops].count(True) == len(tilted) == 3
    run.check_first_pass(tilted, [Failed("rejected")] * 3)
    other = next(op for op in ops if not op.expected_to_fail)
    with pytest.raises(CheckError, match="failed unexpectedly"):
        run.check_first_pass([other], [Failed("rejected")])


def test_tracer_restores_every_function():
    before = (umebkit.linalg.svd, umebkit.search.svd, umebkit.certify, umebkit.cli.load_basis)
    with Tracer() as tracer:
        assert umebkit.search.svd is not before[1]
        umebkit.certify(umebkit.build_weyl_umeb(2, 4), umebkit.SearchConfig(restarts=2))
    after = (umebkit.linalg.svd, umebkit.search.svd, umebkit.certify, umebkit.cli.load_basis)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.calls["search.certify"] == 1
    assert tracer.calls_by_caller["linalg.svd", "search"] >= 2
    assert tracer.self_s["search.certify"] < tracer.total_s["search.certify"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
