"""Numerical search for a maximally entangled state inside a subspace.

The objective is the fully-entangled overlap ``F(psi) = (sum_p s_p)^2 / d``
(squared overlap of ``psi`` with its nearest maximally entangled state),
which equals 1 exactly on the maximally entangled states.  Each restart
alternates two closed-form projections — onto the subspace and onto the
maximally entangled set — so F never decreases within a restart.  The search
can only ever *find* witnesses; a failed search is reported as inconclusive,
never as a proof of absence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bases import BasisSet, CertificateReport, _complement_frame, _frame_certificate
from .errors import ContractViolationError, NumericalFailureError
from .linalg import svd
from .states import BipartiteState

__all__ = [
    "SearchConfig",
    "SearchResult",
    "nearest_me_state",
    "max_entanglement_in_subspace",
    "certify",
]


@dataclass(eq=False)
class SearchConfig:
    """Knobs for the restarted alternating-projection search.

    ``convergence_tol`` bounds the per-iteration objective change at which a
    restart stops; ``witness_tol`` is the acceptance threshold on ``1 - F``
    for declaring a witness found, and must be the looser of the two.
    ``seed`` makes the whole search deterministic: restart r draws its start
    from an independent counter-based stream keyed by ``(seed, r)``.
    """

    restarts: int = 64
    max_iters: int = 10000
    convergence_tol: float = 1e-12
    witness_tol: float = 1e-6
    seed: int = 42

    def __post_init__(self) -> None:
        if self.restarts <= 0 or self.max_iters <= 0:
            raise ContractViolationError("restarts and max_iters must be positive")
        if self.convergence_tol <= 0 or self.witness_tol <= 0:
            raise ContractViolationError("tolerances must be positive")
        if not self.witness_tol > self.convergence_tol:
            raise ContractViolationError("witness_tol must exceed convergence_tol")
        if self.seed < 0:
            raise ContractViolationError("seed must be a nonnegative integer")


@dataclass(eq=False)
class SearchResult:
    """Best state found over all restarts, with diagnostics.

    ``best_min_coeff_scaled`` is ``sqrt(d) * s_min`` of the best state —
    an alternative gauge of maximal entanglement that equals 1 exactly when
    F does.  ``iterations_used`` counts the iterations of the best restart,
    ``restarts_used`` the restarts that produced a candidate rather than
    collapsing.
    """

    best_state: BipartiteState
    best_F: float
    best_min_coeff_scaled: float
    iterations_used: int
    restarts_used: int
    converged: bool
    verdict: str


def _nearest_me_amplitudes(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest maximally entangled state to the reshaped state ``x`` (d x d').

    Returns the flat amplitudes together with the smallest singular value of
    ``x`` (whose vanishing signals a non-unique nearest point).  The polar
    factor ``L R^dag`` does not depend on the singular vectors' phases.
    """
    d = x.shape[0]
    left, s, right_dagger = np.linalg.svd(x, full_matrices=False)
    m = (left @ right_dagger) / np.sqrt(d)
    return m.reshape(-1), float(s[-1])


def nearest_me_state(psi: BipartiteState, return_uniqueness: bool = False):
    """Project a state onto the maximally entangled set.

    With SVD ``X = L S R^dag`` of the reshaped state, the result reshapes to
    ``L R^dag / sqrt(d)`` — the polar part of X, scaled; among maximally
    entangled states it maximizes ``|<m|psi>| = sum_p s_p / sqrt(d)``.  When
    X is rank deficient (smallest singular value <= 1e-14) the nearest point
    is not unique; the SVD's deterministic orthonormal completion is used,
    and with ``return_uniqueness=True`` a second return value reports
    ``False`` in that case.
    """
    m, s_min = _nearest_me_amplitudes(psi.amplitudes.reshape(psi.d, psi.dprime))
    state = BipartiteState(psi.d, psi.dprime, m)
    if return_uniqueness:
        return state, s_min > 1e-14
    return state


def _ascend(
    P: np.ndarray,
    psi0: np.ndarray,
    d: int,
    dprime: int,
    max_iters: int,
    convergence_tol: float,
) -> tuple[np.ndarray, list, bool] | None:
    """One restart: alternate subspace and nearest-ME projections from psi0.

    Returns ``(psi, F_history, converged)`` — psi stays inside range(P) and
    the recorded F values are non-decreasing — or None when the iteration
    collapses (the projected nearest-ME state vanishes).
    """
    psi = psi0
    history: list = []
    converged = False
    for _ in range(max_iters):
        m, _ = _nearest_me_amplitudes(psi.reshape(d, dprime))
        F = abs(np.vdot(m, psi)) ** 2
        history.append(F)
        if len(history) > 1 and abs(history[-1] - history[-2]) < convergence_tol:
            converged = True
            break
        pm = P @ m
        norm_pm = np.linalg.norm(pm)
        if norm_pm < 1e-14:
            return None
        psi = pm / norm_pm
    return psi, history, converged


def max_entanglement_in_subspace(
    P: np.ndarray, d: int, dprime: int, config: SearchConfig | None = None
) -> SearchResult:
    """Restarted search for the most entangled state in the range of P.

    P must be a Hermitian idempotent of size d*dprime with rank >= 1.  Each
    restart starts from a normalized projected complex-Gaussian vector and
    ascends F monotonically; the best restart wins (ties go to the earliest).
    The verdict is ``found_me`` iff ``1 - best_F <= witness_tol``.
    """
    if config is None:
        config = SearchConfig()
    P = np.asarray(P, dtype=complex)
    n = d * dprime
    if P.shape != (n, n):
        raise ContractViolationError(f"projector shape {P.shape} != ({n}, {n})")
    if np.abs(P - P.conj().T).max() > 1e-9 or np.abs(P @ P - P).max() > 1e-9:
        raise ContractViolationError("P is not a Hermitian projector within 1e-9")
    if np.trace(P).real < 0.5:
        raise ContractViolationError("projector has rank 0: nothing to search")

    best: tuple | None = None  # (F, amplitudes, iterations, converged)
    candidates = 0
    for r in range(config.restarts):
        rng = np.random.Generator(np.random.Philox(key=[config.seed, r]))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        pg = P @ g
        norm_pg = np.linalg.norm(pg)
        if norm_pg < 1e-14:
            continue
        out = _ascend(
            P, pg / norm_pg, d, dprime, config.max_iters, config.convergence_tol
        )
        if out is None:
            continue
        candidates += 1
        psi, history, converged = out
        F = history[-1]
        if best is None or F > best[0]:
            best = (F, psi, len(history), converged)
    if best is None:
        raise NumericalFailureError("every restart collapsed; no candidate found")

    F, psi, iters, converged = best
    state = BipartiteState(d, dprime, psi)
    _, s, _ = svd(psi.reshape(d, dprime))
    verdict = "found_me" if 1.0 - F <= config.witness_tol else "none_found"
    return SearchResult(
        best_state=state,
        best_F=float(F),
        best_min_coeff_scaled=float(np.sqrt(d) * s[-1]),
        iterations_used=iters,
        restarts_used=candidates,
        converged=converged,
        verdict=verdict,
    )


def certify(basis: BasisSet, config: SearchConfig | None = None) -> CertificateReport:
    """Decide extendibility of a basis: analytic certificate, then search.

    The support-rank certificate is conclusive whenever its Schmidt-rank
    bound is below d.  Otherwise the complement is searched; a maximally
    entangled state found there is returned as an ``extendible`` witness,
    and a fruitless search downgrades the verdict to ``inconclusive`` with
    the best overlap recorded.  The certificate and the search share one
    complement frame.
    """
    Q = _complement_frame(basis)
    report = _frame_certificate(basis, Q)
    if report.verdict == "unextendible":
        return report
    result = max_entanglement_in_subspace(Q @ Q.conj().T, basis.d, basis.dprime, config)
    if result.verdict == "found_me":
        return replace(
            report,
            method="numeric-search",
            verdict="extendible",
            witness=result.best_state,
            search_best_F=result.best_F,
        )
    return replace(
        report,
        method="numeric-search",
        verdict="inconclusive",
        search_best_F=result.best_F,
    )
