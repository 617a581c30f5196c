"""Print a fingerprint of the package's behaviour: one line per ``umeb`` call,
then one line per seeded search.

    PYTHONPATH=src python scripts/snapshot.py --seed 1 > head.snap

Each call line holds the call, its exit code and the sha256 of its stdout and
of its stderr; a call that writes a file adds the sha256 of that file.  The
calls cover every subcommand with its refusals on the Weyl bases (2,3) to
(4,6) and both 2 x 3 bases, and ``certify --json`` and ``search --json``
(seeds 1, 7 and 42) and ``channel --json`` on the 49 shapes with
``2 <= d < d'`` and ``d*d' <= 49``, then the loader's missing-flags rule, on
copies of the (3,4) Weyl basis and the first 2 x 3 basis written without
``me_flags`` and ``labels``, and last selections of other than d^2 members:
the (3,5) Weyl basis without its last member, and the (2,5) Weyl basis with
a copy moved up two B levels, whose complement is C^2 x the last B level.
They run in-process, in a fresh temporary directory, with relative file
names and 80 terminal columns, so no line depends on the checkout's path or
the terminal.

Then :func:`search_calls` runs ``max_entanglement_in_subspace`` with 64
restarts on the 20 random subspaces of the benchmark's ``search-hard``
workload, drawn from ``--seed`` (default 1; it moves no call line) as
``bench/workloads.py`` draws them, and prints per search the work its
``SearchResult`` reports: ``evaluations``, ``after_park``
(``evaluations_after_park``), ``polish_steps`` and ``polished``
(``restarts_polished``).  Then it prints 56 reports at fixed seeds, whatever
``--seed``: the four subspaces of each of the :data:`REPORT_CASES`, drawn
and searched (``max_iters`` 2000) at seeds 1 and 42.  Every search line ends
with its verdict and the sha256 of the result's ``--json`` text, so a moved
witness shows even where the counts hold.  The last line is one JSON line of
the search-hard totals.

Two checkouts compare by running this script with each one's ``src`` on
PYTHONPATH and diffing the outputs: an empty diff means the same exit codes,
the same bytes on every stream and file and the same seeded searches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from umebkit.cli import main
from umebkit.fileio import _dumps
from umebkit.search import SearchConfig, max_entanglement_in_subspace

#: The Weyl shapes whose every subcommand is called.
PAPER_SHAPES = [(d, dp) for d in range(2, 5) for dp in range(d + 1, 7)]
#: Every (d, d') with 2 <= d < d' and d * d' <= 49, as the benchmark sweeps them.
SWEEP_SHAPES = [(d, dp) for d in range(2, 8) for dp in range(d + 1, 25) if d * dp <= 49]
SWEEP_SEEDS = (1, 7, 42)
#: (d, d') and subspace rank k of the search-hard workload, 4 subspaces each.
HARD_CASES = [((3, 5), 10), ((4, 6), 16), ((5, 7), 26), ((6, 8), 37), ((7, 7), 43)]
#: (d, d') and k of the fixed reports: search-hard ranks and threshold ranks.
REPORT_CASES = [((3, 5), 5), ((3, 5), 10), ((4, 6), 16), ((5, 7), 13), ((5, 7), 26),
                ((3, 4), 5), ((4, 5), 9)]
REPORT_SEEDS = (1, 42)
SUBSPACES_PER_CASE = 4
LINE = "{:23s} evaluations {:5d}  after_park {:5d}  polish_steps {:4d}  polished {:2d}  {} {}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call(*argv: str, writes: str | None = None) -> None:
    """Run ``umeb argv`` and print its line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # an escaped exception is behaviour too
            code = type(exc).__name__
            print(f"{code}: {exc}", file=err)
    line = (f"{' '.join(argv)} | exit {code} | out {sha(out.getvalue().encode())} "
            f"| err {sha(err.getvalue().encode())}")
    if writes is not None:
        written = Path(writes)
        line += f" | file {sha(written.read_bytes()) if written.exists() else '-'}"
    print(line)


def basis_calls(path: str, complete: bool) -> None:
    """Every subcommand on one basis file; ``complete`` for the 2 x 3 bases."""
    call("verify", path)
    call("verify", path, "--json")
    call("verify", path, "--json", "--tol", "1e-16")
    call("certify", path)
    call("certify", path, "--json", "--seed", "1")
    call("certify", path, "--json", "--seed", "1", "--restarts", "1")
    call("search", path, "--seed", "1")
    call("search", path, "--json", "--seed", "7", "--restarts", "9")
    call("search", path, "--json", "--seed", "1", "--all-members")
    state = f"{path}.best.json"
    call("search", path, "--seed", "42", "-o", state, writes=state)
    for base in ("2", "e", "d"):
        call("channel", path, "--log-base", base)
        call("channel", path, "--json", "--log-base", base)
    call("channel", path, "--json", "--all-members")
    call("mub", path, path)
    if complete:
        call("mub", path, "c23-first.json", "--json")
    for argv in (["verify", path, "--tol", "abc"], ["verify", path, "--tol", "nan"],
                 ["certify", path, "--restarts", "0"], ["certify", path, "--seed", "-1"],
                 ["search", path, "--max-iters", "0"], ["search", path, "--seed", "x"],
                 ["channel", path, "--log-base", "10"]):
        call(*argv)


def main_calls() -> None:
    for kind in ("c23-first", "c23-second"):
        call("construct", "--kind", kind)
        call("construct", "--kind", kind, "-o", f"{kind}.json", writes=f"{kind}.json")
    for d, dp in PAPER_SHAPES:
        call("construct", "--kind", "weyl", "--d", str(d), "--dprime", str(dp))
        path = f"w{d}{dp}.json"
        call("construct", "--kind", "weyl", "--d", str(d), "--dprime", str(dp), "-o", path,
             writes=path)
    for kind in ("c23-first", "c23-second"):
        basis_calls(f"{kind}.json", complete=True)
    for d, dp in PAPER_SHAPES:
        basis_calls(f"w{d}{dp}.json", complete=False)
    call("mub", "c23-first.json", "c23-second.json")
    call("mub", "c23-first.json", "c23-second.json", "--json", "--tol", "1e-12")
    call("mub", "c23-first.json", "w23.json")
    call("mub", "c23-first.json", "c23-second.json", "--tol", "abc")
    for d in (2, 3, 4):
        call("pauli", "--d", str(d))
        call("pauli", "--d", str(d), "--json")
    call("pauli", "--d", "3", "--n", "1", "--m", "2", "--json")
    with open("bad.json", "w", encoding="utf-8") as f:
        f.write('{"format": "umeb-basis/1", "d": 2}\n')
    for argv in (["construct", "--kind", "weyl"],
                 ["construct", "--kind", "weyl", "--d", "4", "--dprime", "4"],
                 ["construct", "--kind", "weyl", "--d", "32", "--dprime", "33", "-o", "big.json"],
                 ["construct", "--kind", "other"],
                 ["pauli", "--d", "1"], ["pauli", "--d", "3", "--n", "1"],
                 ["verify", "missing.json"], ["verify", "bad.json"], ["certify", "bad.json"],
                 ["search", "w24.json", "--max-iters", "1"],
                 ["channel", "bad.json"], ["mub", "bad.json", "c23-first.json"], []):
        call(*argv)
    for d, dp in SWEEP_SHAPES:
        path = f"s{d}_{dp}.json"
        call("construct", "--kind", "weyl", "--d", str(d), "--dprime", str(dp), "-o", path,
             writes=path)
        for seed in SWEEP_SEEDS:
            call("certify", path, "--json", "--seed", str(seed))
            call("search", path, "--json", "--seed", str(seed))
        call("channel", path, "--json", "--log-base", "e")
    for kind in ("w34", "c23-first"):
        with open(f"{kind}.json", encoding="utf-8") as f:
            doc = json.load(f)
        del doc["me_flags"], doc["labels"]
        path = f"{kind}-unflagged.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
        call("verify", path)
        call("verify", path, "--json")
        call("certify", path, "--json", "--seed", "1")
        call("channel", path, "--json")
    with open("s3_5.json", encoding="utf-8") as f:
        less = json.load(f)
    for key in ("states", "me_flags", "labels"):
        del less[key][-1]
    with open("s2_5.json", encoding="utf-8") as f:
        blocks = json.load(f)
    # every amplitude up two B levels, i*5 + j -> i*5 + j + 2: the members
    # live on levels 0 and 1, so the entries shifted out or across are zeros
    blocks["states"] += [[[0.0, 0.0]] * 2 + row[:-2] for row in blocks["states"]]
    blocks["me_flags"] *= 2
    blocks["labels"] += [f"{label}+2" for label in blocks["labels"]]
    for path, doc in (("s3_5-less.json", less), ("b2_5.json", blocks)):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
        call("verify", path)
        call("channel", path)
        call("channel", path, "--json", "--log-base", "e")
        call("certify", path, "--json", "--seed", "1")
        call("certify", path, "--seed", "1")


def search_calls(seed: int) -> None:
    """Print one line per seeded search, then the search-hard totals.

    Subspace j of a case is the range of the QR of a complex Gaussian n x k
    matrix drawn from ``default_rng([seed, d, dprime, k, j])``."""
    runs = [("", seed, HARD_CASES, {})]
    runs += [(f"s{at} ", at, REPORT_CASES, {"max_iters": 2000}) for at in REPORT_SEEDS]
    totals = [0, 0, 0, 0]
    for label, at, cases, config in runs:
        for (d, dprime), k in cases:
            for j in range(SUBSPACES_PER_CASE):
                n = d * dprime
                rng = np.random.default_rng([at, d, dprime, k, j])
                q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
                r = max_entanglement_in_subspace(q @ q.conj().T, d, dprime,
                                                 SearchConfig(seed=at, **config))
                counts = (r.evaluations, r.evaluations_after_park, r.polish_steps,
                          r.restarts_polished)
                print(LINE.format(f"{label}({d},{dprime}) k={k} #{j}", *counts, r.verdict,
                                  sha(_dumps(r).encode())))
                if cases is HARD_CASES:
                    totals = [t + c for t, c in zip(totals, counts)]
    keys = ("evaluations", "after_park", "polish_steps", "polished")
    searches = len(HARD_CASES) * SUBSPACES_PER_CASE
    print(json.dumps({"seed": seed, "searches": searches, **dict(zip(keys, totals))}))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        main_calls()
        search_calls(seed)
