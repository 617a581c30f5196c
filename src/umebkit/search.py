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
    ``certify`` stops the whole search at the first iteration in which some
    restart meets ``witness_tol``; ``max_entanglement_in_subspace`` runs every
    restart to convergence and only judges its best F against it.
    ``seed`` makes the whole search deterministic: restart r draws its start
    from an independent counter-based stream keyed by ``(seed, r)``.  Seeds
    run from 0 to ``2**63 - 1``; numpy's Philox key parser reads larger ones
    through a float, so they would silently alias other seeds' streams.
    ``restarts``, ``max_iters`` and ``seed`` must be integers (Python or
    numpy, not bool): a float seed would be truncated to another seed's
    stream.
    """

    restarts: int = 64
    max_iters: int = 10000
    convergence_tol: float = 1e-12
    witness_tol: float = 1e-6
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractViolationError(f"{name} must be an integer, got {value!r}")
        if self.restarts <= 0 or self.max_iters <= 0:
            raise ContractViolationError("restarts and max_iters must be positive")
        if self.convergence_tol <= 0 or self.witness_tol <= 0:
            raise ContractViolationError("tolerances must be positive")
        if not self.witness_tol > self.convergence_tol:
            raise ContractViolationError("witness_tol must exceed convergence_tol")
        if not 0 <= self.seed < 2**63:
            raise ContractViolationError("seed must be an integer in [0, 2**63)")


@dataclass(eq=False)
class SearchResult:
    """Best state found over all restarts, with diagnostics.

    ``best_min_coeff_scaled`` is ``sqrt(d) * s_min`` of the best state —
    an alternative gauge of maximal entanglement that equals 1 exactly when
    F does.  ``iterations_used`` counts the iterations of the best restart,
    ``restarts_used`` the restarts that produced a candidate rather than
    collapsing.
    """

    verdict: str
    best_F: float
    best_min_coeff_scaled: float
    iterations_used: int
    restarts_used: int
    converged: bool
    best_state: BipartiteState


#: Norm below which a vector counts as vanished: a restart whose projection
#: falls below it collapses, and a nearest-ME point below it is not unique.
COLLAPSE_FLOOR = 1e-14


def _nearest_me_amplitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest maximally entangled states to a stack ``x`` of d x d' states.

    Returns the flat amplitudes together with the smallest singular value of
    each matrix (whose vanishing signals a non-unique nearest point).  The
    polar factor ``L R^dag`` does not depend on the singular vectors' phases,
    so one stacked SVD serves the whole stack.
    """
    d = x.shape[-2]
    left, s, right_dagger = np.linalg.svd(x, full_matrices=False)
    m = left @ right_dagger
    m /= np.sqrt(d)
    return m.reshape(*x.shape[:-2], -1), s[..., -1]


def nearest_me_state(psi: BipartiteState, return_uniqueness: bool = False):
    """Project a state onto the maximally entangled set.

    With SVD ``X = L S R^dag`` of the reshaped state, the result reshapes to
    ``L R^dag / sqrt(d)`` — the polar part of X, scaled; among maximally
    entangled states it maximizes ``|<m|psi>| = sum_p s_p / sqrt(d)``.  When
    X is rank deficient (smallest singular value <= ``COLLAPSE_FLOOR``) the
    nearest point is not unique; the SVD's deterministic completion is used,
    and with ``return_uniqueness=True`` a second return value reports False.
    """
    m, s_min = _nearest_me_amplitudes(psi.amplitudes.reshape(psi.d, psi.dprime))
    state = BipartiteState(psi.d, psi.dprime, m)
    if return_uniqueness:
        return state, bool(s_min > COLLAPSE_FLOOR)
    return state


def _ascend_batch(P, psi0, d, dprime, max_iters, convergence_tol, witness_tol=None):
    """Advance the rows of ``psi0`` (unit vectors in range(P)) together.

    One stacked SVD per iteration over the rows still advancing.  A row stops
    when F changes by less than ``convergence_tol``, when its projection
    vanishes (collapsed), or after ``max_iters`` F evaluations; a row that
    stops without collapsing keeps the state it was last evaluated at, so its
    recorded F is that state's F.  Given ``witness_tol``, the whole batch stops
    after the first F evaluation in which some row has ``1 - F <=
    witness_tol``, without projecting again.  Returns the states, their last
    F, per-row F evaluation counts, converged and collapsed flags, and per
    iteration the array of F evaluated on the rows then advancing.
    """
    R = psi0.shape[0]
    psi, F_last, iterations = psi0.copy(), np.full(R, -np.inf), np.zeros(R, dtype=int)
    converged, collapsed = np.zeros((2, R), dtype=bool)
    active, history = np.arange(R), []
    while active.size:
        x = psi[active]
        m, _ = _nearest_me_amplitudes(x.reshape(-1, d, dprime))
        F = np.abs(np.einsum("ij,ij->i", m.conj(), x)) ** 2
        done = np.abs(F - F_last[active]) < convergence_tol
        F_last[active] = F
        iterations[active] += 1
        history.append(F)
        converged[active[done]] = True
        if len(history) >= max_iters:
            break
        if witness_tol is not None and np.any(1.0 - F <= witness_tol):
            break
        active, pm = active[~done], m[~done] @ P.T
        norm_pm = np.linalg.norm(pm, axis=1)
        fell = norm_pm < COLLAPSE_FLOOR
        collapsed[active[fell]] = True
        active = active[~fell]
        psi[active] = pm[~fell] / norm_pm[~fell, None]
    return psi, F_last, iterations, converged, collapsed, history


def _ascend(P, psi0, d, dprime, max_iters, convergence_tol):
    """One restart: the batched ascent on the single row ``psi0``.

    Returns ``(psi, F_history, converged)``, or None when the row collapses."""
    psi, _, _, converged, collapsed, history = _ascend_batch(
        P, psi0[None], d, dprime, max_iters, convergence_tol
    )
    return None if collapsed[0] else (psi[0], [F[0] for F in history], bool(converged[0]))


def _restart_starts(seed: int, restarts: int, n: int) -> np.ndarray:
    """Row r: the complex Gaussian start ``g + 1j h`` of restart r, with g and
    h the first and next n standard normals of the Philox stream keyed
    ``[seed, r]``.

    Philox is counter-based: a stream is fixed by its key and a zero counter.
    So one bit generator, re-keyed per restart (counter, buffer and cached
    word cleared, as a fresh ``Philox(key=[seed, r])`` has them), reproduces
    every restart's stream bit for bit, without building a generator and a
    throwaway entropy-seeded ``SeedSequence`` per restart.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = np.array([seed, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # the buffer holds 4 words: position 4 means empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = np.empty((restarts, 2 * n))
    for r in range(restarts):
        key[1] = r
        bitgen.state = state
        rng.standard_normal(out=draws[r])
    return draws[:, :n] + 1j * draws[:, n:]


def max_entanglement_in_subspace(
    P: np.ndarray, d: int, dprime: int, config: SearchConfig | None = None
) -> SearchResult:
    """Restarted search for the most entangled state in the range of P.

    P must be a Hermitian idempotent of size d*dprime with rank >= 1.  Each
    restart starts from a normalized projected complex-Gaussian vector and
    ascends F monotonically; all restarts advance together until each has
    settled, and the best restart wins (ties go to the earliest).  The
    verdict is ``found_me`` iff ``1 - best_F <= witness_tol``.
    """
    return _search(P, d, dprime, config, first_witness=False)


def _search(P, d: int, dprime: int, config: SearchConfig | None,
            first_witness: bool) -> SearchResult:
    """The restarted search; with ``first_witness`` it stops the batch at the
    first F evaluation that meets ``witness_tol``, and the restart with the
    highest F at that point is the result."""
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

    pg = _restart_starts(config.seed, config.restarts, n) @ P.T
    norm_pg = np.linalg.norm(pg, axis=1)
    kept = norm_pg >= COLLAPSE_FLOOR
    pg = pg[kept] / norm_pg[kept, None]
    psi, F, iterations, converged, collapsed, _ = _ascend_batch(
        P, pg, d, dprime, config.max_iters, config.convergence_tol,
        config.witness_tol if first_witness else None,
    )
    if collapsed.all():
        raise NumericalFailureError("every restart collapsed; no candidate found")

    b = int(np.argmax(np.where(collapsed, -np.inf, F)))
    best = psi[b].copy()  # a view would keep the whole batch alive
    _, s, _ = svd(best.reshape(d, dprime))
    return SearchResult(
        best_state=BipartiteState(d, dprime, best),
        best_F=float(F[b]),
        best_min_coeff_scaled=float(np.sqrt(d) * s[-1]),
        iterations_used=int(iterations[b]),
        restarts_used=int((~collapsed).sum()),
        converged=bool(converged[b]),
        verdict="found_me" if 1.0 - F[b] <= config.witness_tol else "none_found",
    )


def certify(basis: BasisSet, config: SearchConfig | None = None) -> CertificateReport:
    """Decide extendibility of a basis: analytic certificate, then search.

    The support-rank certificate is conclusive whenever its Schmidt-rank
    bound is below d.  Otherwise the complement is searched, and the search
    stops at the first witness: the first iteration in which some restart
    has ``1 - F <= witness_tol``.  The restart with the highest F at that
    point is returned as the ``extendible`` witness, and ``search_best_F`` is
    its F (not the best F a search run to convergence would reach).  Since F
    never decreases along a restart, stopping early finds a witness exactly
    when the full search does.  A fruitless search downgrades the verdict to
    ``inconclusive`` with the best overlap recorded.  The certificate and the
    search share one complement frame.
    """
    Q = _complement_frame(basis)
    report = _frame_certificate(basis, Q)
    if report.verdict == "unextendible":
        return report
    result = _search(Q @ Q.conj().T, basis.d, basis.dprime, config, first_witness=True)
    found = result.verdict == "found_me"
    return replace(
        report,
        method="numeric-search",
        verdict="extendible" if found else "inconclusive",
        witness=result.best_state if found else None,
        search_best_F=result.best_F,
    )
