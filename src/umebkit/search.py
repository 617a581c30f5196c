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
from .tolerances import EXACT_TOL, WITNESS_TOL, cite

__all__ = [
    "SearchConfig",
    "SearchResult",
    "nearest_me_state",
    "max_entanglement_in_subspace",
    "certify",
]

#: Norm below which a vector counts as vanished: a restart whose projection
#: falls below it collapses, and a nearest-ME point below it is not unique.
COLLAPSE_FLOOR = 1e-14

#: Gram ratio ``w_min / w_max = (s_min / s_max)**2`` above which the nearest
#: maximally entangled point is taken from the eigendecomposition of the d x d
#: Gram matrix, and at or below which from the SVD.  The Gram route's error is
#: about ``eps * k**2`` in the point and ``eps * k`` in F, ``k = s_max / s_min``
#: (Higham, SIAM J. Sci. Stat. Comput. 7, 1986); with ``k`` up to 100, random
#: states at (2,3), (3,5) and (7,7) stay within about 1e-12 and 2e-14 of the
#: SVD's point and F.
GRAM_CUTOFF = 1e-4

#: Change of F between two iterations below which a restart has converged.
CONVERGENCE_TOL = 1e-12

#: Restarts a first-witness search (``certify``) runs first.  On every Weyl
#: shape with d <= d'/2 one of them meets the witness tolerance at its second
#: F evaluation (370 of 370 shape and seed pairs tried), and 8 rows cost about
#: half of what 64 do to draw and ascend; 8 keeps a margin for bad starts.
FIRST_STAGE = 8

#: F evaluations the first :data:`FIRST_STAGE` restarts get when more are
#: asked for (an easy witness shows at the second).  Without a witness by
#: then, every restart runs from its start, the first ones again.
FIRST_RUN_EVALS = 4

#: Largest ``max|d X X^dag - I|`` at which a parked row counts as maximally
#: entangled: the exact test's bound and the Gauss-Newton polish's target.
#: ``1 - F`` is quadratic in this residual, so a row that meets it has F = 1
#: to rounding.  Rows park with residuals near 2e-3, and two quadratic steps
#: mostly bring them below it (2.1 steps a row on random subspaces at
#: (3,5)-(7,7)), where a tighter bound would cost a third; rounding leaves at
#: most about 3e-14 on the exact witnesses of the Weyl complements.
#: (Gauss-Newton: Absil, Mahony & Sepulchre, Optimization Algorithms on
#: Matrix Manifolds, 2008; alternating projections converge only linearly:
#: Lewis, Luke & Malick, Found. Comput. Math. 9, 2009.)
POLISH_TOL = 1e-11

#: Parked rows polished together.  At (7,7) k=43 a row's real ``d^2 x 2k``
#: Jacobian and its complex product ``X B_j^dag`` take about 34 kB each and
#: ``J J^T`` 19 kB, so 8 rows keep a 64-restart search's traced peak near
#: 1.0 MiB (0.5 MiB without the polish).  4 rows read the same peak RSS in
#: the search-hard benchmark but about 7 % fewer searches a second; 16 add
#: about 1 MB of RSS for no further speed.
POLISH_CHUNK = 8


@dataclass(eq=False)
class SearchConfig:
    """Knobs for the restarted alternating-projection search.

    ``witness_tol`` (default ``WITNESS_TOL``, 1e-6) is the acceptance
    threshold on ``1 - F`` for declaring a witness found.  It must exceed
    :data:`CONVERGENCE_TOL`, the per-iteration change of F at which a
    restart stops, which is fixed rather than a knob.
    ``certify`` stops the whole search at the first iteration in which some
    restart meets ``witness_tol``: restarts 0-7 run first, for at most
    :data:`FIRST_RUN_EVALS` F evaluations, and if none meets it, all restarts run
    again from their starts;
    ``max_entanglement_in_subspace`` starts them all at once, parks each
    restart at its first F evaluation that meets it, polishes the parked
    ones (:func:`_polish`) and judges its best F against it.
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
    witness_tol: float = WITNESS_TOL
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractViolationError(f"{name} must be an integer, got {value!r}")
        if self.restarts <= 0 or self.max_iters <= 0:
            raise ContractViolationError("restarts and max_iters must be positive")
        if not self.witness_tol > CONVERGENCE_TOL:
            raise ContractViolationError(
                f"witness_tol must exceed the convergence tolerance {CONVERGENCE_TOL:g}"
            )
        if not 0 <= self.seed < 2**63:
            raise ContractViolationError("seed must be an integer in [0, 2**63)")


@dataclass(eq=False)
class SearchResult:
    """Best state found over all restarts, with diagnostics.

    ``best_min_coeff_scaled`` is ``sqrt(d) * s_min`` of the best state —
    an alternative gauge of maximal entanglement that equals 1 exactly when
    F does.  ``iterations_used`` counts the best restart's F evaluations in
    the ascent (a polished restart's up to the one where it parked), and
    ``converged`` says its F settled or its polish met :data:`POLISH_TOL`.
    ``restarts_used`` counts the restarts that produced a candidate rather
    than collapsing, ``restarts_polished`` those the polish stage finished.
    """

    verdict: str
    best_F: float
    best_min_coeff_scaled: float
    iterations_used: int
    restarts_used: int
    restarts_polished: int
    converged: bool
    best_state: BipartiteState


def _nearest_me_amplitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest maximally entangled states to a stack ``x`` of d x d' states.

    Returns the flat amplitudes together with the smallest singular value of
    each matrix (whose vanishing signals a non-unique nearest point).  The
    nearest point is the polar factor ``(x x^dag)^{-1/2} x = L R^dag`` of
    ``x = L S R^dag``, scaled by ``1/sqrt(d)``.  One stacked eigendecomposition
    ``x x^dag = U diag(w) U^dag`` of the d x d Gram matrices gives it as
    ``U diag(w^{-1/2}) U^dag x`` on each row with ``w_min / w_max`` above
    :data:`GRAM_CUTOFF`; the other rows (rank deficient or nearly so) take it
    from one stacked SVD as ``L R^dag``, which does not depend on the singular
    vectors' phases.  Each row's route and arithmetic depend on that row
    alone, never on the rest of the stack.
    """
    d, dprime = x.shape[-2:]
    xs = x.reshape(-1, d, dprime)
    w, U = np.linalg.eigh(xs @ xs.conj().transpose(0, 2, 1))
    gram = w[:, 0] > GRAM_CUTOFF * w[:, -1]
    rows = slice(None) if gram.all() else gram  # a slice takes views, not copies
    m, s_min = np.empty_like(xs), np.sqrt(np.maximum(w[:, 0], 0.0))
    Ug = U[rows]
    m[rows] = (Ug * w[rows, None, :] ** -0.5) @ (Ug.conj().transpose(0, 2, 1) @ xs[rows])
    if rows is gram:
        left, s, right_dagger = np.linalg.svd(xs[~gram], full_matrices=False)
        m[~gram] = left @ right_dagger
        s_min[~gram] = s[:, -1]
    m /= np.sqrt(d)
    return m.reshape(*x.shape[:-2], -1), s_min.reshape(x.shape[:-2])


def nearest_me_state(psi: BipartiteState, return_uniqueness: bool = False):
    """Project a state onto the maximally entangled set.

    With SVD ``X = L S R^dag`` of the reshaped state, the result reshapes to
    ``L R^dag / sqrt(d)`` — the polar part of X, scaled; among maximally
    entangled states it maximizes ``|<m|psi>| = sum_p s_p / sqrt(d)``.  It is
    computed from the Gram matrix ``X X^dag`` when X is well conditioned, and
    from the SVD otherwise (see :func:`_nearest_me_amplitudes`).  When X is
    rank deficient (smallest singular value <= ``COLLAPSE_FLOOR``) the nearest
    point is not unique; the SVD's deterministic completion is used, and with
    ``return_uniqueness=True`` a second return value reports False.
    """
    m, s_min = _nearest_me_amplitudes(psi.amplitudes.reshape(psi.d, psi.dprime))
    state = BipartiteState(psi.d, psi.dprime, m)
    if return_uniqueness:
        return state, bool(s_min > COLLAPSE_FLOOR)
    return state


def _project(rows: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``rows @ P.T``, each row rounded alike in a stack of any size.

    numpy multiplies a one-row stack through gemv, which rounds differently
    from the gemm that every larger stack takes, whatever its other rows; so
    a lone row is multiplied beside a zero row."""
    if len(rows) == 1:
        return (np.concatenate([rows, np.zeros_like(rows)]) @ P.T)[:1]
    return rows @ P.T


def _residual(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``H = X X^dag - I/d`` of each d x d' state X of a stack, and each
    ``max|d H|``, which vanishes exactly on the maximally entangled states."""
    d = xs.shape[-2]
    H = xs @ xs.conj().transpose(0, 2, 1)
    H[:, range(d), range(d)] -= 1.0 / d
    return H, d * np.abs(H).max(axis=(1, 2))


def _polish(P, x, F, d, dprime):
    """Finish parked rows ``x`` (unit vectors in range(P) whose F is ``F``).

    One test of ``max|d X X^dag - I| <= POLISH_TOL`` accepts the rows that
    are already exact, as they are; the others go to :func:`_gauss_newton`.
    A row it brings within the tolerance is accepted only if its F,
    evaluated as the ascent evaluates it, is not below its ``F``.
    Returns the states, their F and the accepted flags; a row not accepted
    keeps its state and F.
    """
    ok = _residual(x.reshape(-1, d, dprime))[1] <= POLISH_TOL
    todo = np.flatnonzero(~ok)
    if not todo.size:
        return x, F, ok
    polished, met = _gauss_newton(P, x[todo], d, dprime)
    polished, todo = polished[met], todo[met]
    if not todo.size:
        return x, F, ok
    m, _ = _nearest_me_amplitudes(polished.reshape(-1, d, dprime))
    F_new = np.abs(np.einsum("ij,ij->i", m.conj(), polished)) ** 2
    keep = F_new >= F[todo]
    todo, polished, F_new = todo[keep], polished[keep], F_new[keep]
    x, F = x.copy(), F.copy()
    x[todo], F[todo], ok[todo] = polished, F_new, True
    return x, F, ok


def _gauss_newton(P, x, d, dprime):
    """Minimum-norm Gauss-Newton on ``r = X X^dag - I/d`` from the rows of x.

    The unknowns are the coordinates c of ``X = sum_j c_j B_j``, the B_j an
    orthonormal frame of range(P) from ``eigh(P)``, and the rows go
    :data:`POLISH_CHUNK` at a time.  A Hermitian H is stored as the real
    ``Re H + Im H``, which keeps its norm, so the real ``d^2 x 2k`` Jacobian
    has the columns ``X B_j^dag + B_j X^dag`` (for ``Re c_j``) and
    ``i (B_j X^dag - X B_j^dag)`` (for ``Im c_j``); each step solves
    ``(J J^T) y = -r``, moves c by ``J^T y`` and renormalises it.  A row is
    done once ``max|d X X^dag - I| <= POLISH_TOL``, and fails once a step no
    longer halves it (or J J^T is singular).  Returns the states and the
    done flags; a failed row's state is its start.
    """
    w, V = np.linalg.eigh(P)
    Q = V[:, w > 0.5]
    k = Q.shape[1]
    # Bc[j d + b] = conj((1 + i) B_j)[b]: Bc X^T = ((1 - i) X B_j^dag)^T, every j at once
    Bc = ((1 - 1j) * Q.T.conj()).reshape(k * d, dprime)
    J = np.empty((min(POLISH_CHUNK, len(x)), 2, k, d, d))  # J^T: a row per real coordinate
    polished, met = x.copy(), np.zeros(len(x), dtype=bool)
    for rows in np.split(np.arange(len(x)), range(POLISH_CHUNK, len(x), POLISH_CHUNK)):
        c, live, err_last = x[rows] @ Q.conj(), np.arange(len(rows)), np.full(len(rows), np.inf)
        while live.size:
            X = (c[live] @ Q.T).reshape(-1, d, dprime)
            H, err = _residual(X)
            done = err <= POLISH_TOL
            met[rows[live[done]]] = True
            polished[rows[live[done]]] = X[done].reshape(-1, d * dprime)
            go = ~done & (err < err_last[live] / 2)
            err_last[live] = err
            live, X, H = live[go], X[go], H[go]
            if not live.size:
                break
            n = len(live)
            # W[i, j, b, a] = Z[a, b], Z = (1 - i) X_i B_j^dag; a Hermitian H is
            # stored as Re H + Im H = Re((1 - i) H), so the column of
            # X B_j^dag + B_j X^dag is Re Z - (Im Z)^T and that of
            # i (B_j X^dag - X B_j^dag) is (Re Z)^T + Im Z
            W = (Bc @ X.transpose(0, 2, 1)).reshape(n, k, d, d)
            np.subtract(W.real.swapaxes(2, 3), W.imag, out=J[:n, 0])
            np.add(W.real, W.imag.swapaxes(2, 3), out=J[:n, 1])
            del W  # freed before J J^T is formed: the polish's peak memory
            Jt = J[:n].reshape(n, 2 * k, d * d)
            try:
                y = np.linalg.solve(Jt.transpose(0, 2, 1) @ Jt,
                                    -(H.real + H.imag).reshape(n, -1, 1))
            except np.linalg.LinAlgError:
                break
            step = (Jt @ y)[..., 0]
            c_next = c[live] + step[:, :k] + 1j * step[:, k:]
            c[live] = c_next / np.linalg.norm(c_next, axis=1, keepdims=True)
    return polished, met


def _ascend_batch(P, psi0, d, dprime, max_iters, witness_tol=None, park_tol=None):
    """Advance the rows of ``psi0`` (unit vectors in range(P)) together.

    One stacked projection (:func:`_nearest_me_amplitudes`) per iteration
    over the rows still advancing.  A row stops when F changes by less than
    :data:`CONVERGENCE_TOL`, when its projection vanishes (collapsed), or after
    its own ``max_iters`` F evaluations; a row that stops without collapsing
    keeps the state it was last evaluated at, so its recorded F is that
    state's F.  Given ``witness_tol``, the whole batch stops after the first
    F evaluation in which some row has ``1 - F <= witness_tol``, without
    projecting again.  Given ``park_tol``, a row that would advance
    from an F evaluation with ``1 - F <= park_tol`` is parked instead, at
    the state evaluated; once no row advances, the parked rows are finished
    by one :func:`_polish`, and a row it does not accept resumes its ascent
    from where it was parked, never to park again.
    Returns the states, their last F, per-row F evaluation counts, converged
    and collapsed flags, per iteration the array of F evaluated on the rows
    then advancing, and the flags of the rows the polish accepted (which
    count as converged).
    """
    R = psi0.shape[0]
    psi, F_last, iterations = psi0.copy(), np.full(R, -np.inf), np.zeros(R, dtype=int)
    converged, collapsed, polished = np.zeros((3, R), dtype=bool)
    active, history, parked, ahead = np.arange(R), [], [], []
    while True:
        if not active.size and parked:
            rows, ahead = np.concatenate(parked), np.concatenate(ahead)
            psi[rows], F_last[rows], ok = _polish(P, psi[rows], F_last[rows], d, dprime)
            polished[rows] = converged[rows] = ok
            psi[rows[~ok]] = ahead[~ok]  # the states their ascent goes on from
            active, parked, ahead, park_tol = np.sort(rows[~ok]), [], [], None
        if not active.size:
            break
        x = psi[active]
        m, _ = _nearest_me_amplitudes(x.reshape(-1, d, dprime))
        F = np.abs(np.einsum("ij,ij->i", m.conj(), x)) ** 2
        done = np.abs(F - F_last[active]) < CONVERGENCE_TOL
        F_last[active] = F
        iterations[active] += 1
        history.append(F)
        converged[active[done]] = True
        if witness_tol is not None and np.any(1.0 - F <= witness_tol):
            break
        stop = done if len(history) < max_iters else done | (iterations[active] >= max_iters)
        active, pm = active[~stop], _project(m[~stop], P)
        norm_pm = np.linalg.norm(pm, axis=1)
        kept = norm_pm >= COLLAPSE_FLOOR
        collapsed[active[~kept]] = True
        active, pm = active[kept], pm[kept] / norm_pm[kept, None]
        if park_tol is not None:
            park = 1.0 - F_last[active] <= park_tol
            if park.any():
                parked.append(active[park])
                ahead.append(pm[park])
                active, pm = active[~park], pm[~park]
        psi[active] = pm
    return psi, F_last, iterations, converged, collapsed, history, polished


def _ascend(P, psi0, d, dprime, max_iters):
    """One restart: the batched ascent on the single row ``psi0``, bit for bit
    that row of any batch that does not park.

    Returns ``(psi, F_history, converged)``, or None when the row collapses."""
    psi, _, _, converged, collapsed, history, _ = _ascend_batch(P, psi0[None], d, dprime, max_iters)
    return None if collapsed[0] else (psi[0], [F[0] for F in history], bool(converged[0]))


def _restart_starts(seed: int, rows: range, n: int) -> np.ndarray:
    """Row i: the complex Gaussian start ``g + 1j h`` of restart ``rows[i]``,
    with g and h the first and next n standard normals of the Philox stream
    keyed ``[seed, rows[i]]``.

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
    draws = np.empty((len(rows), 2 * n))
    for i, r in enumerate(rows):
        key[1] = r
        bitgen.state = state
        rng.standard_normal(out=draws[i])
    return draws[:, :n] + 1j * draws[:, n:]


def max_entanglement_in_subspace(
    P: np.ndarray, d: int, dprime: int, config: SearchConfig | None = None
) -> SearchResult:
    """Restarted search for the most entangled state in the range of P.

    P must be a Hermitian idempotent of size d*dprime with rank >= 1.  Each
    restart starts from a normalized projected complex-Gaussian vector and
    ascends F monotonically; all restarts advance together until each has
    settled or parked within ``witness_tol``, the parked ones are polished
    (:func:`_polish`; F never decreases), and the best restart wins (ties go
    to the earliest).  The verdict is ``found_me`` iff
    ``1 - best_F <= witness_tol``.
    """
    P = np.asarray(P, dtype=complex)
    n = d * dprime
    if P.shape != (n, n):
        raise ContractViolationError(f"projector shape {P.shape} != ({n}, {n})")
    if np.abs(P - P.conj().T).max() > EXACT_TOL or np.abs(P @ P - P).max() > EXACT_TOL:
        raise ContractViolationError(f"P is not a Hermitian projector within {cite(EXACT_TOL)}")
    if np.trace(P).real < 0.5:
        raise ContractViolationError("projector has rank 0: nothing to search")
    return _search(P, d, dprime, config, first_witness=False)


def _search(P, d: int, dprime: int, config: SearchConfig | None,
            first_witness: bool) -> SearchResult:
    """The restarted search; with ``first_witness`` it stops the batch at the
    first F evaluation that meets ``witness_tol``, and the restart with the
    highest F at that point is the result, and its restarts run as
    :func:`certify` describes; without it, restarts park within
    ``witness_tol`` and are polished.  P is a complex Hermitian projector of
    rank >= 1, unchecked: the caller checked it or built it so."""
    if config is None:
        config = SearchConfig()
    n, R, tol = d * dprime, config.restarts, config.witness_tol

    def starts(rows: range) -> np.ndarray:  # projected; collapsed starts dropped
        pg = _project(_restart_starts(config.seed, rows, n), P)
        norm_pg = np.linalg.norm(pg, axis=1)
        kept = norm_pg >= COLLAPSE_FLOOR
        return pg[kept] / norm_pg[kept, None]

    if not first_witness:
        run = _ascend_batch(P, starts(range(R)), d, dprime, config.max_iters, None, tol)
    else:
        first = starts(range(min(FIRST_STAGE, R)))
        cap = config.max_iters if R <= FIRST_STAGE else min(FIRST_RUN_EVALS, config.max_iters)
        run = _ascend_batch(P, first, d, dprime, cap, tol)
        if R > FIRST_STAGE and not np.any(1.0 - run[1] <= tol):
            run = _ascend_batch(P, np.concatenate([first, starts(range(FIRST_STAGE, R))]),
                                d, dprime, config.max_iters, tol)
    psi, F, iterations, converged, collapsed, _, polished = run
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
        restarts_polished=int(polished.sum()),
        converged=bool(converged[b]),
        verdict="found_me" if 1.0 - F[b] <= tol else "none_found",
    )


def certify(basis: BasisSet, config: SearchConfig | None = None) -> CertificateReport:
    """Decide extendibility of a basis: analytic certificate, then search.

    The support-rank certificate is conclusive whenever its Schmidt-rank
    bound is below d.  Otherwise the complement is searched: restarts below
    :data:`FIRST_STAGE` run first, for at most :data:`FIRST_RUN_EVALS` F
    evaluations, and if none of them meets ``witness_tol``, all restarts run
    from their starts.  Each run stops at the first witness: the first
    iteration in which some restart has ``1 - F <= witness_tol``.  The
    restart with the highest F at that point is returned as the
    ``extendible`` witness and ``search_best_F`` is its F (not the converged
    best).  A restart ascends alike, bit for bit, in either run, and F never
    decreases along it, so stopping early finds a witness exactly when the
    full search does.  A fruitless search downgrades the verdict to
    ``inconclusive`` with the best overlap recorded.  The certificate and
    the search share one complement frame; it is orthonormal by
    construction and the certificate refuses an empty one, so its projector
    is not checked again.
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
        restarts_used=result.restarts_used,
    )
