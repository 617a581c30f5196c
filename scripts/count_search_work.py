"""Count the work of seeded full searches: row evaluations and polish steps.

    PYTHONPATH=src python scripts/count_search_work.py --seed 1

Runs ``max_entanglement_in_subspace`` with 64 restarts on the 20 random
subspaces of the benchmark's ``search-hard`` workload, drawn from ``--seed``
as ``bench/workloads.py`` draws them, and counts per search:

- ``evaluations``: rows the ascent evaluates F on (rows passed to
  ``search._nearest_me_amplitudes`` outside ``search._polish``, which
  finishes each row in the iteration where it meets ``witness_tol`` and
  evaluates F again only on the rows it polishes);
- ``after_witness``: those evaluations of a row whose F already met
  ``witness_tol`` at an earlier one (a row the polish rejected ascends on);
- ``polish_steps``: Gauss-Newton steps of single rows (rows of the stacked
  solves in ``search._polish``); 0 where the package has no polish;
- ``polished``: the search's ``restarts_polished``, the rows the exact test
  or the polish accepted (in the iteration that ends the search).

It prints one line per search and then one JSON line of totals.  The counts
are exact and repeat from run to run, so two checkouts compare by running
this script with each one's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

import umebkit.search as search

#: (d, d') and subspace rank k of the search-hard workload, 4 subspaces each.
HARD_CASES = [((3, 5), 10), ((4, 6), 16), ((5, 7), 26), ((6, 8), 37), ((7, 7), 43)]
SUBSPACES_PER_CASE = 4


def subspace_projector(seed: int, d: int, dprime: int, k: int, j: int) -> np.ndarray:
    """Projector onto the j-th random rank-k subspace: QR of a complex
    Gaussian matrix drawn from ``default_rng([seed, d, dprime, k, j])``."""
    n = d * dprime
    rng = np.random.default_rng([seed, d, dprime, k, j])
    q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    return q @ q.conj().T


def count(seed: int) -> list[dict]:
    config = search.SearchConfig(seed=seed)
    counts, in_polish = {}, [False]
    nearest, ascend, solve = search._nearest_me_amplitudes, search._ascend_batch, np.linalg.solve
    polish = getattr(search, "_polish", None)

    def counting_nearest(x):
        m, s_min = nearest(x)
        if not in_polish[0]:
            flat = x.reshape(len(x), -1)
            F = np.abs(np.einsum("ij,ij->i", m.conj(), flat)) ** 2
            counts["evaluations"] += len(flat)
            counts["witness_evaluations"] += int(np.sum(1.0 - F <= config.witness_tol))
        return m, s_min

    def counting_ascend(*args, **kwargs):
        out = ascend(*args, **kwargs)
        counts["witness_rows"] += int(np.sum(1.0 - out[1] <= config.witness_tol))
        return out

    def counting_polish(*args):
        in_polish[0] = True
        try:
            return polish(*args)
        finally:
            in_polish[0] = False

    def counting_solve(a, b):
        if in_polish[0]:
            counts["polish_steps"] += len(a)
        return solve(a, b)

    search._nearest_me_amplitudes, search._ascend_batch = counting_nearest, counting_ascend
    np.linalg.solve = counting_solve
    if polish is not None:
        search._polish = counting_polish
    rows = []
    try:
        for (d, dprime), k in HARD_CASES:
            for j in range(SUBSPACES_PER_CASE):
                counts.update(evaluations=0, witness_evaluations=0, witness_rows=0, polish_steps=0)
                P = subspace_projector(seed, d, dprime, k, j)
                result = search.max_entanglement_in_subspace(P, d, dprime, config)
                rows.append({
                    "case": f"({d},{dprime}) k={k} #{j}",
                    "evaluations": counts["evaluations"],
                    "after_witness": counts["witness_evaluations"] - counts["witness_rows"],
                    "polish_steps": counts["polish_steps"],
                    "polished": getattr(result, "restarts_polished", 0),
                    "verdict": result.verdict,
                })
    finally:
        search._nearest_me_amplitudes, search._ascend_batch = nearest, ascend
        np.linalg.solve = solve
        if polish is not None:
            search._polish = polish
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rows = count(args.seed)
    for row in rows:
        print(f"{row['case']:18s} evaluations {row['evaluations']:5d}  after_witness "
              f"{row['after_witness']:5d}  polish_steps {row['polish_steps']:4d}  "
              f"polished {row['polished']:2d}  {row['verdict']}")
    totals = {key: sum(row[key] for row in rows)
              for key in ("evaluations", "after_witness", "polish_steps", "polished")}
    print(json.dumps({"seed": args.seed, "searches": len(rows), **totals}))


if __name__ == "__main__":
    main()
