"""Count the work of seeded full searches: row evaluations and polish steps.

    PYTHONPATH=src python scripts/count_search_work.py --seed 1

Runs ``max_entanglement_in_subspace`` with 64 restarts on the 20 random
subspaces of the benchmark's ``search-hard`` workload, drawn from ``--seed``
as ``bench/workloads.py`` draws them, and prints per search the work its
``SearchResult`` reports: ``evaluations``, ``after_witness``
(``evaluations_after_park``), ``polish_steps`` and ``polished``
(``restarts_polished``).  Then it prints 56 reports at fixed seeds, whatever
``--seed``: the four subspaces of each of the :data:`REPORT_CASES`, drawn
and searched (``max_iters`` 2000) at seeds 1 and 42.  Every search line ends
with its verdict and the sha256 of the result's ``--json`` text, so a moved
witness shows even where the counts hold.  The last line is one JSON line of
the search-hard totals.  The output repeats from run to run, so two
checkouts compare by running this with each one's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

from umebkit.fileio import _dumps
from umebkit.search import SearchConfig, max_entanglement_in_subspace

#: (d, d') and subspace rank k of the search-hard workload, 4 subspaces each.
HARD_CASES = [((3, 5), 10), ((4, 6), 16), ((5, 7), 26), ((6, 8), 37), ((7, 7), 43)]
#: (d, d') and k of the fixed reports: search-hard ranks and threshold ranks.
REPORT_CASES = [((3, 5), 5), ((3, 5), 10), ((4, 6), 16), ((5, 7), 13), ((5, 7), 26),
                ((3, 4), 5), ((4, 5), 9)]
REPORT_SEEDS = (1, 42)
SUBSPACES_PER_CASE = 4
LINE = "{:23s} evaluations {:5d}  after_witness {:5d}  polish_steps {:4d}  polished {:2d}  {} {}"


def subspace_projector(seed: int, d: int, dprime: int, k: int, j: int) -> np.ndarray:
    """Projector onto the j-th random rank-k subspace: QR of a complex
    Gaussian matrix drawn from ``default_rng([seed, d, dprime, k, j])``."""
    n = d * dprime
    rng = np.random.default_rng([seed, d, dprime, k, j])
    q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    return q @ q.conj().T


def search(label: str, seed: int, d: int, dprime: int, k: int, j: int, **config) -> tuple:
    """Search the j-th subspace, print its line and return its counts."""
    P = subspace_projector(seed, d, dprime, k, j)
    r = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=seed, **config))
    counts = (r.evaluations, r.evaluations_after_park, r.polish_steps, r.restarts_polished)
    digest = hashlib.sha256(_dumps(r).encode()).hexdigest()
    print(LINE.format(f"{label}({d},{dprime}) k={k} #{j}", *counts, r.verdict, digest))
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    totals = [0, 0, 0, 0]
    for (d, dprime), k in HARD_CASES:
        for j in range(SUBSPACES_PER_CASE):
            counts = search("", args.seed, d, dprime, k, j)
            totals = [t + c for t, c in zip(totals, counts)]
    for seed in REPORT_SEEDS:
        for (d, dprime), k in REPORT_CASES:
            for j in range(SUBSPACES_PER_CASE):
                search(f"s{seed} ", seed, d, dprime, k, j, max_iters=2000)
    keys = ("evaluations", "after_witness", "polish_steps", "polished")
    searches = len(HARD_CASES) * SUBSPACES_PER_CASE
    print(json.dumps({"seed": args.seed, "searches": searches, **dict(zip(keys, totals))}))


if __name__ == "__main__":
    main()
