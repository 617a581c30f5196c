"""Numerical search for a maximally entangled state inside a subspace.

The objective is the fully-entangled overlap ``F(psi) = (sum_p s_p)^2 / d``
(squared overlap of ``psi`` with its nearest maximally entangled state),
which equals 1 exactly on the maximally entangled states.  Each restart
alternates two closed-form projections — onto the subspace and onto the
maximally entangled set — so F never decreases within a restart.  A restart
that comes within :data:`PARK_STEP` of F = 1, at its second F evaluation or
later, is finished at once, by an exact test or a Gauss-Newton polish, and
the first iteration in which they accept one gives the witness: an exact
row, or else the first parked row the polish accepts, best F first.  A row
they reject ascends on and is tried again closer to F = 1.  The ascent only
brings a row near F = 1; the quadratic polish, not the linear tail of the
ascent, takes it the rest of the way.
The search can only ever *find* witnesses; a failed search is reported as
inconclusive, never as a proof of absence.  ``certify`` searches only where
neither the support-rank certificate nor a closed-form witness on a product
block of the complement decides.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .bases import BasisSet, CertificateReport, _Complement, _flagged_complement
from .errors import ContractViolationError, NumericalFailureError
from .linalg import _gram_deviation, _schmidt_coefficients
from .states import BipartiteState
from .tolerances import EXACT_TOL, cite

__all__ = [
    "SearchConfig",
    "SearchResult",
    "max_entanglement_in_subspace",
    "certify",
]

#: Norm below which a vector counts as vanished: a restart whose projection
#: falls below it collapses.
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

#: Restarts every search runs first.  On every Weyl shape with d <= d'/2 one
#: of them is accepted, exact, at its second F evaluation (370 of 370 shape
#: and seed pairs tried, seeds 1-10), with no Gauss-Newton step; so is one on
#: each of the 60 search-hard subspaces (seeds 1, 7 and 42), after at most 4
#: steps.  8 rows cost about half of what 64 do to draw and ascend; 8 keeps a
#: margin for bad starts.  Their draw is kept for the next search at the same
#: seed and dimension (:func:`_first_stage_draws`).
FIRST_STAGE = 8

#: F evaluations the first :data:`FIRST_STAGE` restarts get when more are
#: asked for.  Without an accepted witness by then, every restart runs from
#: its start, the first ones again.  An easy witness shows by the second:
#: the first run accepts one there on the benchmark's search-hard subspaces
#: (seeds 1, 7 and 42).  The cap is for the searches near the threshold rank,
#: whose rows the polish rejects at first: with rows parked from 1e-3, a cap
#: of 4 sent many search-hard searches to the second run (164 searches/s at
#: seed 1 against 276).  Uncapped, the searches that find nothing slow down:
#: a random (5,7) rank-12 subspace took 3.7 s, not 2.7.
FIRST_RUN_EVALS = 32

#: Largest ``max|d X X^dag - I|`` at which a parked row counts as maximally
#: entangled: the exact test's bound and the Gauss-Newton polish's target.
#: ``1 - F`` is quadratic in this residual, so a row that meets it has F = 1
#: to rounding.  Search-hard rows park at their second F evaluation with
#: ``1 - F`` of 4e-3 to 3e-2 and spectral residuals ``max|d w - 1|`` of 0.16
#: to 0.63, and four quadratic steps bring them below it (4.0 steps a row
#: on the 60 search-hard subspaces, (3,5)-(7,7) at seeds 1, 7 and 42, each
#: accepting the first row it polishes); a bound of 1e-14 costs 2 % more
#: steps there (30 % when rows parked at 1e-3).  Rounding leaves at most
#: about 3e-14 on the exact witnesses of the Weyl complements.
#: (Gauss-Newton: Absil, Mahony & Sepulchre, Optimization Algorithms on
#: Matrix Manifolds, 2008; alternating projections converge only linearly:
#: Lewis, Luke & Malick, Found. Comput. Math. 9, 2009.)
POLISH_TOL = 1e-11

#: The park ladder: a row parks for the exact test and the polish at its
#: first F evaluation after the first with ``1 - F <= PARK_STEP``, and a row
#: they reject ascends on and parks again at ``PARK_STEP**2`` (9e-4), then
#: ``PARK_STEP**3`` (2.7e-5), and so on.  On the search-hard subspaces most
#: rows (347 of 480 at seeds 1, 7 and 42) are within 3e-2 of F = 1 at their
#: second evaluation, and the polish converges quadratically from there,
#: where the ascent converges only linearly: a first rung of 1e-3 took 720 F
#: evaluations for the 20 searches at seed 1, and this one takes 320.  No row
#: parks at its first evaluation: a raw start has ``1 - F`` of 0.07-0.32 on
#: search-hard, and Gauss-Newton from the best one fails on 7 of 20 at seed
#: 1; and the Weyl complements with d <= d'/2 are exact at the second,
#: without a polish.  So a search with ``max_iters`` 1 could park no row,
#: and :class:`SearchConfig` refuses it.  Near the threshold rank the polish
#: stalls from the first rungs and succeeds from closer in: on eight random
#: (5,7) rank-13 subspaces, parking each row only once found 2 witnesses in
#: 14 s, and a ladder from 1e-3 found 8 in 2.7 s.
PARK_STEP = 3e-2


@dataclass(eq=False, frozen=True)
class SearchConfig:
    """The three knobs of the restarted alternating-projection search.

    Where a restart parks for the exact test and the polish (:data:`PARK_STEP`)
    and the change of F at which it stops (:data:`CONVERGENCE_TOL`) are
    fixed.  Both ``certify`` and ``max_entanglement_in_subspace`` run
    restarts 0-7 first, for at most :data:`FIRST_RUN_EVALS` F evaluations,
    and all restarts again from their starts only if none of the first is
    accepted; the first accepted restart ends the search.  No restart parks
    before its second F evaluation, so ``max_iters`` must be at least 2:
    with 1 no restart could be accepted.
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
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractViolationError(f"{name} must be an integer, got {value!r}")
        if self.restarts <= 0 or self.max_iters <= 0:
            raise ContractViolationError("restarts and max_iters must be positive")
        if self.max_iters == 1:
            raise ContractViolationError(
                "max_iters must be at least 2: no restart parks before its second F evaluation")
        if not 0 <= self.seed < 2**63:
            raise ContractViolationError("seed must be an integer in [0, 2**63)")


@dataclass(eq=False)
class SearchResult:
    """Best state found over all restarts, with diagnostics.

    ``best_min_coeff_scaled`` is ``sqrt(d) * s_min`` of the best state —
    an alternative gauge of maximal entanglement that equals 1 exactly when
    F does.  ``iterations_used`` counts the best restart's F evaluations in
    the ascent (an accepted restart's up to the one where it parked), and
    ``converged`` says its F settled or it was accepted.  ``restarts_used``
    counts the restarts of the search's last run that produced a candidate
    rather than collapsing, ``restarts_polished`` those accepted: every row
    the exact test passed in the accepting iteration, or else the one row
    the polish accepted (0 on ``none_found``).

    Three counts give the search's work, summed over its runs, and stay out
    of the ``--json`` report: ``evaluations``, the F evaluations of the
    ascent, one per row per iteration; ``evaluations_after_park``, those of
    rows after the evaluation they first parked at (a row the polish rejected
    ascends on); and ``polish_steps``, one per Gauss-Newton solve attempted
    (one row's step), a singular one too.
    """

    verdict: str
    best_F: float
    best_min_coeff_scaled: float
    iterations_used: int
    restarts_used: int
    restarts_polished: int
    converged: bool
    best_state: BipartiteState
    evaluations: int = field(metadata={"json": False})
    evaluations_after_park: int = field(metadata={"json": False})
    polish_steps: int = field(metadata={"json": False})


def _nearest_me_amplitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest maximally entangled states to a stack ``x`` of d x d' states.

    Returns the flat amplitudes together with the ascending spectrum ``w`` of
    each Gram matrix ``x x^dag`` (the squared singular values: the smallest
    vanishes where the nearest point is not unique, and ``max|d w - 1|``
    where x is maximally entangled).  The nearest point is the polar factor
    ``(x x^dag)^{-1/2} x = L R^dag`` of ``x = L S R^dag``, scaled by
    ``1/sqrt(d)``.  One stacked eigendecomposition ``x x^dag = U diag(w) U^dag``
    of the d x d Gram matrices gives it as ``U diag(w^{-1/2}) U^dag x`` on each
    row with ``w_min / w_max`` above :data:`GRAM_CUTOFF`; the other rows (rank
    deficient or nearly so) take it from one stacked SVD as ``L R^dag``, which
    does not depend on the singular vectors' phases, and their ``w`` from its
    singular values.  Each row's route and arithmetic depend on that row
    alone, never on the rest of the stack.
    """
    d, dprime = x.shape[-2:]
    xs = x.reshape(-1, d, dprime)
    w, U = np.linalg.eigh(xs @ xs.conj().transpose(0, 2, 1))
    gram = w[:, 0] > GRAM_CUTOFF * w[:, -1]
    rows = slice(None) if gram.all() else gram  # a slice takes views, not copies
    m, Ug = np.empty_like(xs), U[rows]
    m[rows] = (Ug * w[rows, None, :] ** -0.5) @ (Ug.conj().transpose(0, 2, 1) @ xs[rows])
    if rows is gram:
        left, s, right_dagger = np.linalg.svd(xs[~gram], full_matrices=False)
        m[~gram] = left @ right_dagger
        w[~gram] = s[:, ::-1] ** 2
    m /= np.sqrt(d)
    return m.reshape(*x.shape[:-2], -1), w.reshape(*x.shape[:-2], d)


def _project(rows: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit vectors along ``rows @ P.T`` of the rows whose projection
    does not vanish (norm :data:`COLLAPSE_FLOOR` or more), and the mask of
    those rows; each row is rounded alike in a stack of any size.

    numpy multiplies a one-row stack through gemv, which rounds differently
    from the gemm that every larger stack takes, whatever its other rows; so
    a lone row is multiplied beside a zero row."""
    pm = (np.concatenate([rows, np.zeros_like(rows)]) @ P.T)[:1] if len(rows) == 1 else rows @ P.T
    norm = np.linalg.norm(pm, axis=1)
    kept = norm >= COLLAPSE_FLOOR
    return pm[kept] / norm[kept, None], kept


def _polish(P, x, F, w, d, dprime):
    """Finish parked rows ``x`` (unit vectors in range(P) whose F is ``F``
    and whose Gram spectra are ``w``) on the columns of the projector P.

    A row with ``max|d w - 1| <= POLISH_TOL`` is exact and accepted as it
    is: that spectral bound is at least the entrywise ``max|d X X^dag - I|``.
    Only when no row is exact does :func:`_gauss_newton` run on P, one row
    at a time in descending F (ties go to the earlier row), and the first
    row it brings within the tolerance is accepted, with its F taken as
    ``(sum_p sqrt(w_p))^2 / d`` from the spectrum w of its d x d Gram
    matrix; the rows after it are not tried, since the batch ends on it.
    Returns the states, their F, the accepted flags and the Gauss-Newton
    steps taken; a row not accepted keeps its state and F.
    """
    ok = np.abs(d * w - 1.0).max(axis=1) <= POLISH_TOL
    if ok.any():
        return x, F, ok, 0
    steps = 0
    for r in np.argsort(-F, kind="stable"):
        polished, taken = _gauss_newton(P, x[r], d, dprime)
        steps += taken
        if polished is not None:
            X = polished.reshape(d, dprime)
            x, F = x.copy(), F.copy()
            x[r], ok[r] = polished, True
            F[r] = np.sqrt(np.linalg.eigvalsh(X @ X.conj().T)).sum() ** 2 / d
            break
    return x, F, ok, steps


def _gauss_newton(P, x, d, dprime):
    """Minimum-norm Gauss-Newton on ``r = X X^dag - I/d`` from the state x.

    The unknowns are the coordinates c of ``X = sum_j c_j B_j``, the B_j the
    k columns of P.  A Hermitian H is stored as the real ``Re H + Im H``,
    which keeps its norm, so the real ``d^2 x 2k`` Jacobian J has the columns
    ``X B_j^dag + B_j X^dag`` (for ``Re c_j``) and ``i (B_j X^dag - X
    B_j^dag)`` (for ``Im c_j``); each step solves the ``d^2 x d^2`` system
    ``(J J^T) y = -r`` and moves c by ``J^T y``.  X is scaled to unit norm
    at every evaluation, c with it.  The state is done once
    ``max|d X X^dag - I| <= POLISH_TOL``, and fails once a step no longer
    halves it (or J J^T is singular).  Returns the done state, or
    None, and the steps, one per solve attempted (a singular one too).

    Since ``P P^dag = P``, the columns of P are a Parseval frame of range(P),
    and this is the step an orthonormal frame Q of range(P) would take, in
    exact arithmetic: with J the Jacobian in X, ``J_P J_P^T = J P P^dag J^T
    = J Q Q^dag J^T``; and c starts at ``P x = x`` and every step ``J_P^T y``
    lies in range(P), so ``|c| = |X|`` throughout.  An orthonormal Q handed
    in as P takes the same steps in exact arithmetic, not on a stalled row:
    there J J^T is ill-conditioned, rounding moves the two trajectories
    apart, and they can stop a step or more apart, both rejecting the row.
    Scaling X rather than c keeps the frames alike for a P that is a
    projector only within its checks: on ``(1 + delta) Q Q^dag`` a unit c
    gives ``|X| = 1 + delta``, which would hold the residual near
    ``2 delta``, above the tolerance for any delta over about 5e-12.
    """
    k = P.shape[1]
    # Bc[j d + b] = conj((1 + i) B_j)[b]: Bc X^T = ((1 - i) X B_j^dag)^T, every j at once
    Bc = ((1 - 1j) * P.T.conj()).reshape(k * d, dprime)
    J = np.empty((2, k, d, d))  # J^T: a row per real coordinate
    Jt = J.reshape(2 * k, d * d)
    c, err_last, steps = x @ P.conj(), np.inf, 0
    while True:
        X = c @ P.T
        scale = np.linalg.norm(X)
        X, c = (X / scale).reshape(d, dprime), c / scale
        H = X @ X.conj().T
        H.flat[::d + 1] -= 1.0 / d  # the diagonal
        err = d * np.abs(H).max()
        if err <= POLISH_TOL:
            return X.reshape(-1), steps
        if not err < err_last / 2:
            return None, steps
        err_last = err
        # W[j, b, a] = Z[a, b], Z = (1 - i) X B_j^dag; a Hermitian H is
        # stored as Re H + Im H = Re((1 - i) H), so the column of
        # X B_j^dag + B_j X^dag is Re Z - (Im Z)^T and that of
        # i (B_j X^dag - X B_j^dag) is (Re Z)^T + Im Z
        W = (Bc @ X.T).reshape(k, d, d)
        np.subtract(W.real.swapaxes(1, 2), W.imag, out=J[0])
        np.add(W.real, W.imag.swapaxes(1, 2), out=J[1])
        steps += 1
        try:
            y = np.linalg.solve(Jt.T @ Jt, -(H.real + H.imag).reshape(-1))
        except np.linalg.LinAlgError:
            return None, steps
        step = Jt @ y
        c = c + step[:k] + 1j * step[k:]


#: One :func:`_ascend_batch` run: the states ``psi``, their last ``F``, per-row
#: F evaluation counts ``iterations``, ``converged`` and ``collapsed`` flags,
#: per iteration the array of F evaluated on the rows then advancing
#: (``history``), the ``accepted`` rows' flags (they count as converged, and
#: hold their polished states and F), the ``evaluations_after_park`` of rows
#: after the one they first parked at, and the Gauss-Newton ``polish_steps``.
_Run = collections.namedtuple("_Run", "psi F iterations converged collapsed history accepted "
                                      "evaluations_after_park polish_steps")


def _ascend_batch(P, psi0, d, dprime, max_iters, park=False):
    """Advance the rows of ``psi0`` (unit vectors in range(P)) together.

    One stacked projection (:func:`_nearest_me_amplitudes`) per iteration
    over the rows still advancing.  A row stops when F changes by less than
    :data:`CONVERGENCE_TOL`, when its projection vanishes (collapsed), or after
    its own ``max_iters`` F evaluations; a row that stops without collapsing
    keeps the state it was last evaluated at, so its recorded F is that
    state's F.  With ``park``, each row has a park threshold, at first
    :data:`PARK_STEP`: a row parks at an F evaluation after its first with
    ``1 - F`` at most its threshold, which then tightens by the factor
    :data:`PARK_STEP`, and :func:`_polish` tries the rows parked in one
    iteration on P in that iteration.  Without ``park`` no row parks.  The
    first iteration in which a row is accepted ends the whole batch, without
    projecting again, so :func:`_polish` stops at the first row it accepts;
    a row not accepted ascends on as if it had never parked, until it meets
    its tightened threshold.  Returns the batch's :class:`_Run`.
    """
    R = psi0.shape[0]
    psi, F_last, iterations = psi0.copy(), np.full(R, -np.inf), np.zeros(R, dtype=int)
    converged, collapsed, parked, accepted = np.zeros((4, R), dtype=bool)
    park_at = np.full(R, PARK_STEP if park else -np.inf)
    active, history, park_evals, polish_steps = np.arange(R), [], 0, 0
    while active.size:
        x = psi[active]
        m, w = _nearest_me_amplitudes(x.reshape(-1, d, dprime))
        F = np.abs(np.einsum("ij,ij->i", m.conj(), x)) ** 2
        done = np.abs(F - F_last[active]) < CONVERGENCE_TOL
        F_last[active] = F
        iterations[active] += 1
        history.append(F)
        converged[active[done]] = True
        parking = (1.0 - F <= park_at[active]) & (iterations[active] > 1)
        if parking.any():
            rows = active[parking]
            park_evals += int(iterations[rows[~parked[rows]]].sum())  # up to the first park
            parked[rows] = True
            park_at[rows] *= PARK_STEP
            psi[rows], F_last[rows], accepted[rows], steps = _polish(
                P, x[parking], F[parking], w[parking], d, dprime)
            polish_steps += steps
            if accepted.any():
                converged |= accepted
                break
        stop = done | (len(history) >= max_iters)  # every active row has len(history) evals
        pm, kept = _project(m[~stop], P)
        collapsed[active[~stop][~kept]] = True
        active = active[~stop][kept]
        psi[active] = pm
    return _Run(psi, F_last, iterations, converged, collapsed, history, accepted,
                int(iterations[parked].sum()) - park_evals, polish_steps)


def _ascend(P, psi0, d, dprime, max_iters):
    """One restart: the batched ascent on the single row ``psi0``, bit for bit
    that row of any batch that accepts no row.

    Returns ``(psi, F_history, converged)``, or None when the row collapses."""
    run = _ascend_batch(P, psi0[None], d, dprime, max_iters)
    return None if run.collapsed[0] else (run.psi[0], [F[0] for F in run.history],
                                          bool(run.converged[0]))


def _restart_starts(seed: int, rows: range, n: int) -> np.ndarray:
    """Row i: the complex Gaussian start ``g + 1j h`` of restart ``rows[i]``,
    with g and h the first and next n standard normals of the Philox stream
    keyed ``[seed, rows[i]]``.

    Philox is counter-based: a stream is fixed by its key and a zero counter.
    So one bit generator, re-keyed per restart (counter, buffer and cached
    word cleared, as a fresh ``Philox(key=[seed, r])`` has them), reproduces
    every restart's stream bit for bit, without building a generator and a
    throwaway entropy-seeded ``SeedSequence`` per restart.  It keeps
    nothing: :func:`_first_stage_draws` keeps the first stage's rows, and
    the second run's, up to ``restarts`` rows of ``n * 16`` bytes, are drawn
    again at every search.
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


@functools.lru_cache(maxsize=1)
def _first_stage_draws(seed: int, n: int) -> np.ndarray:
    """The starts of restarts 0 to :data:`FIRST_STAGE` - 1 at ``(seed, n)``:
    ``_restart_starts(seed, range(FIRST_STAGE), n)``, read-only.  The draw
    of the last ``(seed, n)`` asked for is kept for the next searches there;
    at most one is held, ``FIRST_STAGE * n * 16`` bytes (128 KiB at n =
    1024).  A search with fewer restarts reads the leading rows: restart r's
    start depends on ``(seed, r, n)`` alone."""
    draws = _restart_starts(seed, range(FIRST_STAGE), n)
    draws.flags.writeable = False
    return draws


def max_entanglement_in_subspace(
    P: np.ndarray, d: int, dprime: int, config: SearchConfig | None = None
) -> SearchResult:
    """Restarted search for the most entangled state in the range of P.

    Needs ``2 <= d <= dprime`` and a finite Hermitian idempotent P of size
    d*dprime with rank >= 1.  Each restart starts from a normalized
    projected complex-Gaussian vector and ascends F monotonically; the
    restarts run as :func:`_search` describes.
    The verdict is ``found_me`` iff the exact test or the polish accepted a
    restart, which is then the result; otherwise every restart has run to
    convergence (or ``max_iters``) and the best one is the result (ties go
    to the earliest), whatever its F.
    """
    if not 2 <= d <= dprime:
        raise ContractViolationError(f"need 2 <= d <= dprime, got ({d}, {dprime})")
    P = np.asarray(P, dtype=complex)
    n = d * dprime
    if P.shape != (n, n):
        raise ContractViolationError(f"projector shape {P.shape} != ({n}, {n})")
    if not (np.isfinite(P).all() and np.abs(P - P.conj().T).max() <= EXACT_TOL
            and np.abs(P @ P - P).max() <= EXACT_TOL):
        raise ContractViolationError(
            f"P is not a finite Hermitian projector within {cite(EXACT_TOL)}")
    return _search(P, d, dprime, config)


def _search(P, d: int, dprime: int, config: SearchConfig | None) -> SearchResult:
    """The restarted search of both callers, ended by the first accepted row.

    Restarts below :data:`FIRST_STAGE` run first, from the kept draw of
    :func:`_first_stage_draws`, for at most :data:`FIRST_RUN_EVALS` F
    evaluations when more are asked for; only if none of them is accepted do
    all restarts run again from their starts, the rest drawn anew, with the
    full ``max_iters``.  Each run parks and finishes rows as
    :func:`_ascend_batch` describes and stops in the first iteration that
    accepts a row: the rows the exact test passes there, or else the first
    parked row the polish accepts, best F first.  The result is the last
    run's ``accepted`` row with the highest ``F`` (ties go to the earliest),
    verdict ``found_me``; without one, its best row of all, ``none_found``.
    P is a complex Hermitian projector, unchecked (the caller checked it or
    built it so), whose columns the polish steps on; one of rank 0 (trace
    below 1/2) is refused.
    """
    if np.trace(P).real < 0.5:
        raise ContractViolationError("projector has rank 0: nothing to search")
    if config is None:
        config = SearchConfig()
    n, R = d * dprime, config.restarts
    first, _ = _project(_first_stage_draws(config.seed, n)[:R], P)
    cap = config.max_iters if R <= FIRST_STAGE else min(FIRST_RUN_EVALS, config.max_iters)
    runs = [_ascend_batch(P, first, d, dprime, cap, park=True)]
    if R > FIRST_STAGE and not runs[0].accepted.any():
        # the rest is projected and joined to the first stage unbound, so the
        # run's starts are held twice: here and as _ascend_batch's own copy
        starts = np.concatenate(
            [first, _project(_restart_starts(config.seed, range(FIRST_STAGE, R), n), P)[0]])
        runs.append(_ascend_batch(P, starts, d, dprime, config.max_iters, park=True))
    last = runs[-1]
    if last.collapsed.all():
        raise NumericalFailureError("every restart collapsed; no candidate found")
    candidates = last.accepted if last.accepted.any() else ~last.collapsed
    b = int(np.argmax(np.where(candidates, last.F, -np.inf)))
    best = last.psi[b].copy()  # a view would keep the whole batch alive
    return SearchResult(
        best_state=BipartiteState(d, dprime, best),
        best_F=float(last.F[b]),
        best_min_coeff_scaled=float(np.sqrt(d) * _schmidt_coefficients(best, d, dprime)[0, -1]),
        iterations_used=int(last.iterations[b]),
        restarts_used=int((~last.collapsed).sum()),
        restarts_polished=int(last.accepted.sum()),
        converged=bool(last.converged[b]),
        verdict="found_me" if last.accepted[b] else "none_found",
        evaluations=sum(int(run.iterations.sum()) for run in runs),
        evaluations_after_park=sum(run.evaluations_after_park for run in runs),
        polish_steps=sum(run.polish_steps for run in runs),
    )


def _product_block_witness(complement: _Complement) -> BipartiteState | None:
    """A maximally entangled state of the complement in closed form, or None.

    For P the projector and every unit ket w of B, ``<w|Tr_A P|w> = sum_a
    <a w|P|a w> <= d``, with equality iff ``C^d (x) w`` lies in the
    complement; so the largest W with ``C^d (x) W`` in it is the eigenspace
    of the B marginal ``Tr_A P`` at d.  When ``dim W >= d`` it holds the
    maximally entangled ``(1/sqrt(d)) sum_i |i>|w_i>`` for any orthonormal
    ``w_i`` of W.  The candidate is the top d eigenvectors of the d' x d'
    marginal (its kept ``spectra``), returned only if the d-th eigenvalue is
    d within ``EXACT_TOL`` (never so with m < d^2: the eigenvalues are at
    most d and sum to m, so the d-th is at most d - 1/d), ``max|d X X^dag - I| <=
    POLISH_TOL`` (what a search witness meets), and the state lies in the
    complement within ``EXACT_TOL``.  A local unitary ``U_A (x) U_B`` maps
    W to ``U_B W``, so it does not decide whether a witness is found.
    """
    d, dprime, Q = complement.d, complement.dprime, complement.Q
    values, vectors = complement.spectra[1]
    w = vectors[:, -d:].T
    x = w.reshape(-1) / np.sqrt(d)
    # max|d X X^dag - I| is the Gram deviation of the rows w
    if (d - values[-d] <= EXACT_TOL and _gram_deviation(w) <= POLISH_TOL
            and np.linalg.norm(x - Q @ (Q.conj().T @ x)) <= EXACT_TOL):
        return BipartiteState(d, dprime, x)
    return None


def _certify_complement(complement: _Complement,
                        config: SearchConfig | None) -> CertificateReport:
    """The certify decision from an orthonormal frame alone: the first rung
    that decides gives the report.  The support-rank cut
    (:meth:`_Complement.support_rank`) proves ``unextendible``.  Else
    :func:`_product_block_witness` gives an ``extendible`` witness in closed
    form, method ``product-block``, and no search runs (``search_best_F`` and
    ``restarts_used`` stay None; on Weyl shapes with d <= d'/2, W holds B
    levels d to d' - 1).  Else :func:`_search` runs on the frame's projector,
    unchecked: the first restart the exact test or the polish accepts is the
    ``extendible`` witness, method ``numeric-search``, with its F; a search
    that accepts none gives ``inconclusive`` and the best F of every restart
    run to convergence.
    """
    report = complement.support_rank()
    if report.verdict == "unextendible":
        return report
    witness = _product_block_witness(complement)
    if witness is not None:
        return replace(report, method="product-block", verdict="extendible", witness=witness)
    result = _search(complement.projector(), complement.d, complement.dprime, config)
    found = result.verdict == "found_me"
    return replace(
        report,
        method="numeric-search",
        verdict="extendible" if found else "inconclusive",
        witness=result.best_state if found else None,
        search_best_F=result.best_F,
        restarts_used=result.restarts_used,
    )


def certify(basis: BasisSet, config: SearchConfig | None = None) -> CertificateReport:
    """Decide extendibility of a basis: :func:`_certify_complement` on the
    complement of its flagged members, once they pass the member checks;
    the frame and its spectra are built once per basis, shared with
    ``analyze``."""
    return _certify_complement(_flagged_complement(basis), config)
