"""Benchmark of umebkit: one workload per run, or every workload in smoke mode.

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

A run builds the workload's inputs from ``--seed``, times a fresh-interpreter
import of the workload's entry module, then runs the workload's fixed list of
operations in whole passes, in a closed loop with one caller.  The first pass
warms up and is checked in full; later passes are timed until ``--seconds``
have passed, and each must reproduce the first bit for bit.  With ``--trace
1`` the package's public functions are traced and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of standard output is
one JSON object; the full result, with the machine facts, is written under
``bench/out/``.
"""

from __future__ import annotations

import os

# OpenBLAS defaults to one thread per core; at these matrix sizes (d*d' <= 49)
# extra threads only add synchronisation and noise.  Pin it before numpy loads,
# in this process and in every process it spawns.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckError  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("paper-cli", "certify-sweep", "search-hard")
SETUP_SPAWNS = 12
#: Wall seconds of a fresh ``python -c "import numpy"`` on the reference
#: machine in its fast state; the spawn-time counterpart of
#: :data:`hostspeed.REFERENCE_S`.
REFERENCE_NUMPY_SPAWN_S = 0.18
#: Longest stretch of operations between two samples of the host's slowness.
SAMPLE_EVERY_S = 0.1


def import_package():
    """Import umebkit from this checkout's ``src``, and nowhere else."""
    if not (SRC / "umebkit" / "__init__.py").is_file():
        print(f"error: no umebkit package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import umebkit

    if Path(umebkit.__file__).resolve().parent != SRC / "umebkit":
        print(f"error: umebkit was imported from {umebkit.__file__}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(module: str, spawns: int) -> tuple[list, list]:
    """Wall seconds of ``python -c "import <module>"`` in fresh interpreters,
    with the spawn slowness around each: every spawn sits between two spawns
    of ``python -c "import numpy"``, and their mean time over
    :data:`REFERENCE_NUMPY_SPAWN_S` is its slowness.  Start-up time does not
    follow the numpy kernel of :mod:`hostspeed`; it follows other start-ups."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def spawn(name):
        start = perf_counter()
        # No timeout: with one, subprocess polls the child in 50 ms sleeps.
        subprocess.run([sys.executable, "-c", f"import {name}"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    times, neighbours = [], [spawn("numpy")]
    for _ in range(spawns):
        times.append(spawn(module))
        neighbours.append(spawn("numpy"))
    slowness = [(a + b) / 2 / REFERENCE_NUMPY_SPAWN_S for a, b in zip(neighbours, neighbours[1:])]
    return times, slowness


def blas_facts() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": _openblas_threads(),
            "env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


# workloads imports umebkit, so it is imported inside the functions that need
# it, after import_package() has put this checkout's src first on the path.


def run_pass(ops, tracer, speed) -> dict:
    """Run every operation once, back to back; checks come afterwards.  The
    host slowness is sampled before the pass, after it, and between
    operations whenever :data:`SAMPLE_EVERY_S` have passed; each operation
    is charged the mean of the samples just before and just after it."""
    from workloads import CliOutput, Failed

    outputs, latencies, cpu, before = [], [], [], []
    samples = [speed.slowness()]
    last = perf_counter()
    for op in ops:
        if perf_counter() - last >= SAMPLE_EVERY_S:
            samples.append(speed.slowness())
            last = perf_counter()
        before.append(len(samples) - 1)
        cpu0, start = process_time(), perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = Failed(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - start)
        cpu.append(process_time() - cpu0)
        outputs.append(out)
    samples.append(speed.slowness())
    if tracer is not None:
        tracer.counters["cli.report_bytes"] += sum(
            len(o.stdout.encode()) for o in outputs if isinstance(o, CliOutput))
    slowness = [(samples[i] + samples[i + 1]) / 2 for i in before]
    return {"outputs": outputs, "latencies": latencies, "cpu": cpu, "slowness": slowness}


def check_first_pass(ops, outputs) -> None:
    from workloads import Failed, fingerprint

    for op, out in zip(ops, outputs):
        try:
            if not isinstance(out, Failed):
                op.check(out)
            elif not op.expected_to_fail:
                raise CheckError(f"failed unexpectedly: {out.message}")
            if op.repeat_of is not None:
                earlier = outputs[op.repeat_of]
                if fingerprint(op, out) != fingerprint(ops[op.repeat_of], earlier):
                    raise CheckError("a repeat with the same seed gave another result")
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"{op.name}: {type(exc).__name__}: {exc}") from exc


def check_repeat(ops, reference, outputs) -> None:
    from workloads import fingerprint

    for op, ref, out in zip(ops, reference, outputs):
        if fingerprint(op, out) != fingerprint(op, ref):
            raise CheckError(f"{op.name}: differs from the first pass with the same seed")


def end_to_end(setup: tuple, passes: list, normalise: bool) -> tuple[dict, list]:
    """The end-to-end metrics; with ``normalise`` every time is divided by
    the host slowness measured around it.  Also returns the sorted latencies."""

    def scaled(times, slowness):
        return [t / s for t, s in zip(times, slowness)] if normalise else list(times)

    setup_times = scaled(*setup)
    lat = [scaled(p["latencies"], p["slowness"]) for p in passes]
    cpu = [scaled(p["cpu"], p["slowness"]) for p in passes]
    latencies = sorted(x for pass_lat in lat for x in pass_lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(len(x) / sum(x) for x in lat), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "cpu_per_op_ms": (1000.0 * sum(map(sum, cpu)) / len(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, latencies


def tail(latencies: list):
    """Highest percentile with ten samples beyond it, from 40 samples up."""
    n = len(latencies)
    if n < 40:
        return None
    return {"value": 1000.0 * latencies[n - 11], "unit": "ms",
            "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_passes(ops, seconds: float, tracer, speed) -> tuple[list, str | None]:
    """A warm-up pass, checked in full, then timed passes until ``seconds``
    have passed (at least one).  Returns the passes and the first failed
    check, if any."""
    from workloads import Failed

    passes = [run_pass(ops, None, speed)]
    try:
        check_first_pass(ops, passes[0]["outputs"])
        if tracer is not None:
            tracer.reset()
        start = perf_counter()
        while len(passes) < 2 or perf_counter() - start < seconds:
            passes.append(run_pass(ops, tracer, speed))
            check_repeat(ops, passes[0]["outputs"], passes[-1]["outputs"])
            # Keep only what the metrics need, so that memory held by the
            # benchmark does not grow with the number of passes.
            passes[-1]["outputs"] = [out if isinstance(out, Failed) else None
                                     for out in passes[-1]["outputs"]]
    except CheckError as exc:
        return passes, str(exc)
    return passes, None


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run; returns the full result, with ``correct`` false on a failed check."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "machine": machine_facts()}
    speed = HostSpeed()
    try:
        start = perf_counter()
        wl = workloads.build(name, seed, workdir, smoke)
        result["input_setup_s"] = perf_counter() - start
        setup = measure_setup(wl.entry_module, 1 if smoke else SETUP_SPAWNS)
        with Tracer() if trace else nullcontext() as tracer:
            passes, error = run_passes(wl.ops, seconds, tracer, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = wl.ops
    timed = passes[1:] or passes
    failed = [(op.name, out.message) for p in passes for op, out in zip(ops, p["outputs"])
              if isinstance(out, workloads.Failed)]
    metrics, latencies = end_to_end(setup, timed, normalise=True)
    raw, raw_latencies = end_to_end(setup, timed, normalise=False)
    slowness = statistics.median(x for p in timed for x in p["slowness"])
    result.update({
        "correct": error is None, "error": error,
        "attempted": len(ops) * len(passes), "failed": len(failed),
        "failed_ops": [{"op": n, "message": m} for n, m in sorted(set(failed))],
        "ops_per_pass": len(ops), "passes": len(passes), "timed_passes": len(timed),
        "host_slowness": {"median": slowness, "setup": setup[1],
                          "pass_medians": [statistics.median(p["slowness"]) for p in timed]},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_tail_ms": tail(latencies),
        "end_to_end_raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "op_tail_ms_raw": tail(raw_latencies),
        "pass_s_raw": [sum(p["latencies"]) for p in timed],
        "setup_spawns_s_raw": setup[0],
    })
    if trace:
        layer = tracer.layer_metrics(len(ops) * len(timed), slowness)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        spans = OUT / f"{result_stem(result)}.spans.jsonl"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def result_stem(result: dict) -> str:
    suffix = "smoke" if result["smoke"] else f"seed{result['seed']}-trace{result['trace']}"
    return f"{result['workload']}-{suffix}"


def summary_line(result: dict) -> str:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def write_result(result: dict) -> Path:
    path = OUT / f"{result_stem(result)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, reduced restarts, one timed pass, traced")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import_package()

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            result = run_workload(name, args.seed, 0.0, trace=True, smoke=True)
            write_result(result)
            ok &= result["correct"]
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} error={result['error']}")
        return 0 if ok else 1

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_result(result)
    for item in result["failed_ops"]:
        print(f"failed: {item['op']}: {item['message']}", file=sys.stderr)
    if not result["correct"]:
        print(f"check failed: {result['error']}", file=sys.stderr)
    print(f"result -> {path.relative_to(ROOT)}", file=sys.stderr)
    print(summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
