"""Print a fingerprint of the CLI's behaviour: one line per ``umeb`` call.

    PYTHONPATH=src python scripts/snapshot.py > head.snap

Each line holds the call, its exit code and the sha256 of its stdout and of
its stderr; a call that writes a file adds the sha256 of that file.  The
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
the terminal.  Two checkouts compare by running this script with each one's
``src`` on PYTHONPATH and diffing the outputs: an empty diff means the same
exit codes and the same bytes on every stream and file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from umebkit.cli import main

#: The Weyl shapes whose every subcommand is called.
PAPER_SHAPES = [(d, dp) for d in range(2, 5) for dp in range(d + 1, 7)]
#: Every (d, d') with 2 <= d < d' and d * d' <= 49, as the benchmark sweeps them.
SWEEP_SHAPES = [(d, dp) for d in range(2, 8) for dp in range(d + 1, 25) if d * dp <= 49]
SWEEP_SEEDS = (1, 7, 42)


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


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        main_calls()
