import dataclasses

import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import (
    BasisSet, _complement, _Complement, build_weyl_umeb, complement_projector,
)
from umebkit.search import (
    COLLAPSE_FLOOR,
    SearchConfig,
    _ascend,
    _ascend_batch,
    _certify_complement,
    _first_stage_draws,
    _nearest_me_amplitudes,
    _product_block_witness,
    _restart_starts,
    _search,
    certify,
    max_entanglement_in_subspace,
)
from umebkit.states import BipartiteState, is_maximally_entangled, standard_mes

from helpers import SWEEP_SHAPES, random_unitary, record_linalg, weyl_less

FAST = SearchConfig(restarts=8, max_iters=500)


def search_only(monkeypatch):
    """Silence certify's product-block test: certify then searches, as it
    does on every complement that holds no closed-form witness."""
    import umebkit.search as search

    monkeypatch.setattr(search, "_product_block_witness", lambda complement: None)


def random_subspace_projector(rng, n, rank):
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def record_runs(monkeypatch):
    """Record each ``_ascend_batch`` run of the search as (arguments, outputs)."""
    import umebkit.search as search

    real_batch, runs = search._ascend_batch, []

    def recording_batch(*args, **kwargs):
        out = real_batch(*args, **kwargs)
        runs.append((args, out))
        return out

    monkeypatch.setattr(search, "_ascend_batch", recording_batch)
    return runs


def record_polish(monkeypatch, runs=()):
    """Record each ``_polish`` call as (runs recorded before it, the F of the
    rows it was handed, its accepted flags)."""
    import umebkit.search as search

    real_polish, calls = search._polish, []

    def recording_polish(*args):
        out = real_polish(*args)
        calls.append((len(runs), args[2].copy(), out[2].copy()))
        return out

    monkeypatch.setattr(search, "_polish", recording_polish)
    return calls


def ladder_parks(out):
    """The parks of an ``_ascend_batch`` output ``out`` whose polish accepted
    no row, read from its F history: ``(i, rows, F)`` per iteration i at
    which some rows have ``1 - F`` at most their threshold, which starts at
    ``PARK_STEP`` and tightens by ``PARK_STEP`` at each park.  The rows
    evaluated at iteration i are those with more than i evaluations; no row
    parks at its first, iteration 0."""
    import umebkit.search as search

    iterations, history = out[2], out[5]
    threshold, parks = np.full(len(iterations), search.PARK_STEP), []
    for i, F in enumerate(history[1:], start=1):
        live = np.flatnonzero(iterations > i)
        park = 1.0 - F <= threshold[live]
        if park.any():
            parks.append((i, live[park], F[park]))
            threshold[live[park]] *= search.PARK_STEP
    return parks


def count_work(monkeypatch):
    """Count a search's work from outside it; the returned function gives
    the F evaluations of its recorded runs, those of rows that met
    ``PARK_STEP`` at an earlier one (the first evaluation aside, at which no
    row parks), and its solves, one Gauss-Newton step of one row each."""
    import umebkit.search as search

    runs, solves = record_runs(monkeypatch), record_linalg(monkeypatch, "solve")

    def counts():
        # a solve is recorded before it runs: a singular one counts too
        assert all(len(c.shape) == 2 for c in solves)  # one row's normal matrix: one step
        # F never falls within a run, so a row meets the tolerance at every
        # evaluation from the one it parked at, and with its last F; a row
        # parks at its second evaluation at the earliest
        met = sum(int(np.sum(1.0 - F <= search.PARK_STEP)) for _, out in runs for F in out[5][1:])
        rows = sum(int(np.sum((1.0 - out[1] <= search.PARK_STEP) & (out[2] > 1)))
                   for _, out in runs)
        return sum(int(out[2].sum()) for _, out in runs), met - rows, len(solves)

    return counts


def test_nearest_me_fixed_point():
    phi0 = standard_mes(2, 3)
    m, _ = _nearest_me_amplitudes(phi0.amplitudes.reshape(2, 3))
    assert abs(abs(np.vdot(m, phi0.amplitudes)) - 1.0) < 1e-12


def test_nearest_me_tilted_state():
    amp = np.zeros(6, dtype=complex)
    amp[0], amp[4] = np.sqrt(0.9), np.sqrt(0.1)
    m, _ = _nearest_me_amplitudes(amp.reshape(2, 3))
    assert abs(abs(np.vdot(m, standard_mes(2, 3).amplitudes)) - 1.0) < 1e-12
    overlap = abs(np.vdot(m, amp))
    assert abs(overlap - (np.sqrt(0.9) + np.sqrt(0.1)) / np.sqrt(2)) < 1e-12


def test_nearest_me_always_maximally_entangled():
    rng = np.random.default_rng(31)
    for _ in range(20):
        amp = rng.normal(size=12) + 1j * rng.normal(size=12)
        m, w = _nearest_me_amplitudes((amp / np.linalg.norm(amp)).reshape(3, 4))
        flag, dev = is_maximally_entangled(BipartiteState(3, 4, m))
        assert flag and dev < 1e-10
        assert w[0] > COLLAPSE_FLOOR**2  # the nearest point is unique


def test_nearest_me_rank_deficient_flagged():
    prod = np.zeros(6, dtype=complex)
    prod[2] = 1.0
    m, w = _nearest_me_amplitudes(prod.reshape(2, 3))
    assert not w[0] > COLLAPSE_FLOOR**2
    flag, _ = is_maximally_entangled(BipartiteState(2, 3, m))
    assert flag


def svd_polar(x):
    """The SVD route of the kernel: ``L R^dag / sqrt(d)``, flattened, and the
    ascending squared singular values, computed as the kernel computed them
    before the Gram route."""
    left, s, right_dagger = np.linalg.svd(x, full_matrices=False)
    m = left @ right_dagger
    m /= np.sqrt(x.shape[-2])
    return m.reshape(*x.shape[:-2], -1), s[..., ::-1] ** 2


def with_singular_values(rng, dprime, s):
    """A unit-norm d x d' state with Schmidt coefficients proportional to s."""
    d = len(s)
    left, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    right, _ = np.linalg.qr(rng.normal(size=(dprime, d)) + 1j * rng.normal(size=(dprime, d)))
    return (left * (np.asarray(s) / np.linalg.norm(s))) @ right.conj().T


def stacked(calls):
    """The shapes of the stacked (3-d) calls among recorded ``np.linalg`` calls."""
    return [c.shape for c in calls if len(c.shape) == 3]


@pytest.mark.parametrize("d, dprime", [(2, 3), (3, 5), (7, 7)])
def test_gram_polar_factor_matches_svd_down_to_the_cutoff(monkeypatch, d, dprime):
    import umebkit.search as search

    rng = np.random.default_rng([36, d, dprime])
    # s_min / s_max from 1 down to just above sqrt(GRAM_CUTOFF) = 1e-2; the
    # others spread log-uniformly between, or bunched at either end
    floor = np.sqrt(search.GRAM_CUTOFF) * (1 + 1e-6)
    ratios = np.concatenate([[1.0, floor], np.geomspace(1.0, floor, 58)])
    x = []
    for ratio in ratios:
        for middle in (rng.uniform(size=d - 2), np.zeros(d - 2), np.ones(d - 2)):
            x.append(with_singular_values(rng, dprime, ratio ** np.r_[0.0, middle, 1.0]))
    x = np.array(x)
    svds = record_linalg(monkeypatch, "svd")
    m, w = search._nearest_me_amplitudes(x)
    assert stacked(svds) == []  # every row took the Gram route
    reference, w_ref = svd_polar(x)
    assert np.abs(m - reference).max() <= 1e-11
    assert np.abs(w - w_ref).max() <= 1e-12
    flat = x.reshape(len(x), -1)
    F = np.abs(np.einsum("ij,ij->i", m.conj(), flat)) ** 2
    F_ref = np.abs(np.einsum("ij,ij->i", reference.conj(), flat)) ** 2
    assert np.abs(F - F_ref).max() <= 1e-13


def ill_conditioned_rows(rng, d, dprime):
    """Rows the kernel must leave on the SVD route: a basis product state, a
    random product state, a rank-deficient state and one just below the
    cutoff."""
    basis_product = np.zeros((d, dprime), dtype=complex)
    basis_product[0, 2] = 1.0
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    b = rng.normal(size=dprime) + 1j * rng.normal(size=dprime)
    product = np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    rank_deficient = with_singular_values(rng, dprime, np.r_[np.ones(d - 1), 0.0])
    below = with_singular_values(rng, dprime, np.r_[1.0, np.full(d - 1, 0.99e-2)])
    return np.array([basis_product, product, rank_deficient, below])


@pytest.mark.parametrize("d, dprime", [(2, 3), (3, 5), (4, 4)])
def test_rows_below_the_cutoff_keep_the_svd_route_bitwise(d, dprime):
    import umebkit.search as search

    rng = np.random.default_rng([37, d, dprime])
    bad = ill_conditioned_rows(rng, d, dprime)
    m, w = search._nearest_me_amplitudes(bad)
    reference, w_ref = svd_polar(bad)
    assert m.tobytes() == reference.tobytes() and w.tobytes() == w_ref.tobytes()
    # the three rank-deficient rows have no unique nearest point
    for row, ref, unique in zip(bad, reference, [False, False, False, True]):
        alone, w_alone = search._nearest_me_amplitudes(row)
        assert alone.tobytes() == ref.tobytes() == svd_polar(row)[0].tobytes()
        assert (w_alone[0] > COLLAPSE_FLOOR**2) == unique


@pytest.mark.parametrize("d, dprime", [(2, 3), (3, 5), (7, 7)])
def test_each_row_is_the_same_alone_and_in_a_mixed_stack(monkeypatch, d, dprime):
    import umebkit.search as search

    rng = np.random.default_rng([38, d, dprime])
    good = rng.normal(size=(3, d, dprime)) + 1j * rng.normal(size=(3, d, dprime))
    good /= np.linalg.norm(good, axis=(1, 2), keepdims=True)
    bad = ill_conditioned_rows(rng, d, dprime)
    mixed = np.concatenate([good[:1], bad[:2], good[1:], bad[2:]])
    svds = record_linalg(monkeypatch, "svd")
    m, w = search._nearest_me_amplitudes(mixed)
    assert stacked(svds) == [(4, d, dprime)]  # one stacked SVD, of the four bad rows
    for row, m_row, w_row in zip(mixed, m, w):
        alone, w_alone = search._nearest_me_amplitudes(row)
        assert alone.tobytes() == m_row.tobytes() and w_alone.tobytes() == w_row.tobytes()
    m_good, w_good = search._nearest_me_amplitudes(good)
    assert m_good.tobytes() == m[[0, 3, 4]].tobytes()
    assert w_good.tobytes() == w[[0, 3, 4]].tobytes()


def test_search_negative_control_23():
    P = complement_projector(build_weyl_umeb(2, 3))
    res = max_entanglement_in_subspace(P, 2, 3, FAST)
    assert res.verdict == "none_found"
    assert res.best_F <= 0.5 + 1e-9
    # a product-only complement pins F at exactly 1/d
    assert abs(res.best_F - 0.5) < 1e-9


def test_search_positive_control_24():
    P = complement_projector(build_weyl_umeb(2, 4))
    res = max_entanglement_in_subspace(P, 2, 4, FAST)
    assert res.verdict == "found_me"
    assert 1.0 - res.best_F <= 1e-6
    flag, _ = is_maximally_entangled(res.best_state, 1e-6)
    assert flag
    # witness stays in the subspace
    residual = np.linalg.norm(
        (np.eye(8) - P) @ res.best_state.amplitudes
    )
    assert residual <= 1e-8


def test_search_full_space():
    res = max_entanglement_in_subspace(np.eye(6), 2, 3, FAST)
    assert res.verdict == "found_me"
    assert res.best_F >= 1.0 - 1e-9


def test_search_rejects_bad_projector():
    with pytest.raises(ContractViolationError):
        max_entanglement_in_subspace(np.zeros((6, 6)), 2, 3, FAST)
    with pytest.raises(ContractViolationError):
        max_entanglement_in_subspace(0.5 * np.eye(6), 2, 3, FAST)
    with pytest.raises(ContractViolationError):
        max_entanglement_in_subspace(np.eye(4), 2, 3, FAST)


@pytest.mark.parametrize("d, dprime", [(3, 2), (1, 6), (6, 1)])
def test_search_refuses_dimensions_outside_2_le_d_le_dprime(monkeypatch, d, dprime):
    import umebkit.search as search

    def refuse(*args):
        raise AssertionError("the ascent ran")

    monkeypatch.setattr(search, "_ascend_batch", refuse)
    with pytest.raises(ContractViolationError, match=r"need 2 <= d <= dprime, got"):
        max_entanglement_in_subspace(np.eye(6), d, dprime, FAST)


@pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((0, 1), np.nan), ((0, 0), np.inf)])
def test_search_refuses_a_non_finite_projector(entry, value):
    # every comparison with a NaN is false, so the check must ask for what passes
    P = complement_projector(build_weyl_umeb(2, 4)).copy()
    P[entry] = value
    with pytest.raises(ContractViolationError, match="finite"):
        max_entanglement_in_subspace(P, 2, 4, FAST)


def test_search_deterministic():
    P = complement_projector(build_weyl_umeb(2, 4))
    a = max_entanglement_in_subspace(P, 2, 4, SearchConfig(restarts=4, seed=7))
    b = max_entanglement_in_subspace(P, 2, 4, SearchConfig(restarts=4, seed=7))
    assert a.best_F == b.best_F
    assert a.verdict == b.verdict
    assert np.array_equal(a.best_state.amplitudes, b.best_state.amplitudes)
    # no config is SearchConfig()
    default = max_entanglement_in_subspace(P, 2, 4)
    given = max_entanglement_in_subspace(P, 2, 4, SearchConfig())
    assert {**vars(default), "best_state": None} == {**vars(given), "best_state": None}
    assert default.best_state.amplitudes.tobytes() == given.best_state.amplitudes.tobytes()


def test_ascend_monotone_on_random_subspaces():
    rng = np.random.default_rng(32)
    for _ in range(10):
        P = random_subspace_projector(rng, 12, int(rng.integers(1, 6)))
        g = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi0 = P @ g
        psi0 /= np.linalg.norm(psi0)
        out = _ascend(P, psi0, 3, 4, 200)
        assert out is not None
        _, history, _ = out
        diffs = np.diff(np.asarray(history))
        assert diffs.min() >= -1e-12


def test_objective_diagnostics_agree():
    # F = 1 exactly when sqrt(d) * s_min = 1
    rng = np.random.default_rng(33)
    for _ in range(20):
        amp = rng.normal(size=12) + 1j * rng.normal(size=12)
        x = (amp / np.linalg.norm(amp)).reshape(3, 4)
        m, _ = _nearest_me_amplitudes(x)
        F = abs(np.vdot(m, x)) ** 2
        s = np.linalg.svd(x, compute_uv=False)
        assert (abs(F - 1.0) < 1e-9) == (abs(np.sqrt(3) * s[-1] - 1.0) < 1e-9)


def test_certify_routes():
    rep = certify(build_weyl_umeb(3, 4), FAST)
    assert rep.verdict == "unextendible"
    assert rep.method == "support-rank"
    assert rep.search_best_F is None

    # Weyl(2,4): the complement holds C^2 (x) B levels 2 and 3, and a
    # witness on it in closed form; no search runs
    rep = certify(build_weyl_umeb(2, 4), FAST)
    assert rep.verdict == "extendible"
    assert rep.method == "product-block"
    assert rep.witness is not None
    flag, _ = is_maximally_entangled(rep.witness, 1e-6)
    assert flag
    P = complement_projector(build_weyl_umeb(2, 4))
    assert np.linalg.norm((np.eye(8) - P) @ rep.witness.amplitudes) <= 1e-8
    assert rep.search_best_F is None and rep.restarts_used is None

    # Weyl(3,5) without its last member: a product block of dimension 2 < 3,
    # so the search finds the witness
    basis = weyl_less(3, 5)
    rep = certify(basis, FAST)
    assert rep.verdict == "extendible"
    assert rep.method == "numeric-search"
    assert rep.witness is not None
    flag, _ = is_maximally_entangled(rep.witness, 1e-6)
    assert flag
    P = complement_projector(basis)
    assert np.linalg.norm((np.eye(15) - P) @ rep.witness.amplitudes) <= 1e-8
    assert rep.search_best_F is not None and rep.restarts_used == 8

    rep = certify(build_weyl_umeb(2, 3), FAST)
    assert rep.verdict == "unextendible"


def test_search_config_validation():
    with pytest.raises(ContractViolationError):
        SearchConfig(restarts=0)
    # counts and seeds are integers: a float seed would run seed 1's stream
    for field in ("restarts", "max_iters", "seed"):
        for value in (2.5, 1.7, 3.0, True, "3", None):
            with pytest.raises(ContractViolationError, match=field):
                SearchConfig(**{field: value})
        config = SearchConfig(**{field: np.int64(3)})
        assert getattr(config, field) == 3
    SearchConfig(restarts=np.uint8(2), max_iters=np.int32(5), seed=np.uint64(2**63 - 1))
    with pytest.raises(TypeError):  # the park ladder is fixed, not a knob
        SearchConfig(witness_tol=1e-3)
    with pytest.raises(ContractViolationError):
        SearchConfig(seed=-1)
    # numpy's Philox reads these keys through a float (aliasing another
    # seed's stream) or overflows
    for seed in (2**63, 2**64):
        with pytest.raises(ContractViolationError):
            SearchConfig(seed=seed)


@pytest.mark.parametrize("field, value", [("restarts", 0), ("max_iters", 0), ("seed", 1.5),
                                          ("seed", -1), ("restarts", 8)])
def test_a_config_is_checked_once_and_never_changed(field, value):
    # a field assigned after the checks in __post_init__ would bypass them
    config = SearchConfig(seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    assert (config.restarts, config.max_iters, config.seed) == (64, 10000, 1)


@pytest.mark.parametrize(
    "seed, restarts, n",
    [(0, 1, 6), (0, 5, 12), (1, 64, 49), (42, 3, 20), (2**32 + 5, 4, 8), (2**63 - 1, 7, 35)],
)
def test_restart_starts_match_one_generator_per_restart(seed, restarts, n):
    starts = _restart_starts(seed, range(restarts), n)
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(key=[seed, r]))
        reference = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert starts[r].tobytes() == reference.tobytes()


@pytest.mark.parametrize("max_iters", [2, 5])
def test_best_F_is_the_F_of_best_state_at_max_iters(max_iters):
    # rank 20 is below the threshold rank 25 of (7,7): no row is accepted,
    # and every row is cut at max_iters (at rank 30 a row is accepted at
    # its fourth F evaluation)
    d, dprime, rank = 7, 7, 20
    n = d * dprime
    rng = np.random.default_rng([1, d, dprime, rank, 0])
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    result = max_entanglement_in_subspace(
        q @ q.conj().T, d, dprime, SearchConfig(max_iters=max_iters, seed=1)
    )
    assert result.verdict == "none_found"
    assert result.iterations_used == max_iters and not result.converged
    best = result.best_state.amplitudes
    F = abs(np.vdot(_nearest_me_amplitudes(best.reshape(d, dprime))[0], best)) ** 2
    assert abs(result.best_F - F) <= 1e-12


@pytest.mark.parametrize("d, dprime, seed", [(2, 4, 1), (2, 17, 42)])
def test_a_search_of_one_evaluation_parks_no_row(d, dprime, seed):
    # no row parks at its first F evaluation, so a run of one evaluation
    # accepts nothing, even where a start is within 1e-3 of F = 1 (Weyl(2,17)
    # at seed 42), and a search of max_iters 1 is refused; one evaluation
    # more and the witness is exact
    P = complement_projector(build_weyl_umeb(d, dprime))
    with pytest.raises(ContractViolationError, match="max_iters must be at least 2"):
        SearchConfig(max_iters=1, seed=seed)
    one = _ascend_batch(P, projected_starts(P, seed, range(8)), d, dprime, 1, park=True)
    F, iterations, accepted, polish_steps = one[1], one[2], one[6], one[8]
    assert iterations.tolist() == [1] * 8 and not accepted.any() and polish_steps == 0
    two = max_entanglement_in_subspace(P, d, dprime, SearchConfig(max_iters=2, seed=seed))
    assert two.verdict == "found_me" and two.evaluations == 16 and two.polish_steps == 0
    assert abs(1.0 - two.best_F) <= 1e-12
    if seed == 42:
        assert 1.0 - F.max() <= 1e-3


def test_restarts_used_counts_restarts_with_a_candidate(monkeypatch):
    import umebkit.search as search

    nearest = search._nearest_me_amplitudes
    stack_sizes = []

    def every_other_vanishes(x):
        m, s_min = nearest(x)
        stack_sizes.append(x.shape[0])
        if len(stack_sizes) == 1:
            m[1::2] = 0.0  # rows 1, 3, 5 project to zero and collapse
        return m, s_min

    monkeypatch.setattr(search, "_nearest_me_amplitudes", every_other_vanishes)
    P = complement_projector(build_weyl_umeb(2, 4))
    result = max_entanglement_in_subspace(P, 2, 4, SearchConfig(restarts=6, max_iters=500))
    assert stack_sizes[:2] == [6, 3]
    assert result.restarts_used == 3


@pytest.mark.parametrize("d, dprime, rank", [(3, 5, 8), (4, 6, 14)])
def test_batched_rows_match_single_runs(d, dprime, rank):
    rng = np.random.default_rng(34 + d)
    n = d * dprime
    P = random_subspace_projector(rng, n, rank)
    starts = (rng.normal(size=(16, n)) + 1j * rng.normal(size=(16, n))) @ P.T
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    psi, F, iterations, converged, collapsed = _ascend_batch(P, starts, d, dprime, 5000)[:5]
    for r in range(16):
        out = _ascend(P, starts[r], d, dprime, 5000)
        assert (out is None) == collapsed[r]
        if out is not None:
            _, history, single_converged = out
            assert abs(history[-1] - F[r]) <= 1e-10
            assert single_converged == converged[r]
    # the first row to converge keeps its state and F while the others advance
    r = int(np.argmin(np.where(converged, iterations, np.iinfo(int).max)))
    k = int(iterations[r])
    assert k < iterations.max()
    psi_k, F_k = _ascend_batch(P, starts, d, dprime, k)[:2]
    assert np.array_equal(psi_k[r], psi[r]) and F_k[r] == F[r]


def test_best_state_owns_its_amplitudes():
    # a view into the batch would keep every restart's state alive
    P = complement_projector(build_weyl_umeb(2, 4))
    amplitudes = max_entanglement_in_subspace(P, 2, 4, FAST).best_state.amplitudes
    root = amplitudes
    while root.base is not None:
        root = root.base
    assert root.nbytes == amplitudes.nbytes


def test_search_takes_one_stacked_eigh_per_iteration(monkeypatch):
    eighs, svds = record_linalg(monkeypatch, "eigh"), record_linalg(monkeypatch, "svd")
    runs = record_runs(monkeypatch)
    P = random_subspace_projector(np.random.default_rng(35), 24, 16)
    max_entanglement_in_subspace(P, 4, 6, SearchConfig(restarts=16, seed=3))
    iterations = runs[0][1][2]
    assert len(stacked(eighs)) <= iterations.max() + 1 < iterations.sum()
    # every state of this search is well conditioned: the one SVD is the
    # best state's Schmidt coefficients, without singular vectors
    assert stacked(svds) == [(1, 4, 6)]


def subspace_projector(seed, d, dprime, k, j=0):
    """Projector onto a random rank-k subspace of C^d (x) C^d', drawn as the
    benchmark's search workloads draw their j-th."""
    n = d * dprime
    rng = np.random.default_rng([seed, d, dprime, k, j])
    q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    return q @ q.conj().T


def weyl_complement(d, dprime):
    return complement_projector(build_weyl_umeb(d, dprime)), d, dprime


def range_frame(P):
    """An orthonormal frame of range(P): the eigenvectors of P at eigenvalue 1."""
    w, V = np.linalg.eigh(P)
    return V[:, w > 0.5]


# (3,5) k=5 sits at the threshold rank, where the first witness takes ~150
# iterations; (3,5) k=10 is a search-hard case; Weyl(2,3) has no witness.
STOP_CASES = {
    "(3,5) k=5": lambda: (subspace_projector(1, 3, 5, 5), 3, 5),
    "(3,5) k=10": lambda: (subspace_projector(1, 3, 5, 10), 3, 5),
    "weyl(2,4)": lambda: weyl_complement(2, 4),
    "weyl(2,3)": lambda: weyl_complement(2, 3),
}


@pytest.mark.parametrize("case", STOP_CASES)
def test_witness_stop_ends_the_batch_at_the_first_witness(monkeypatch, case):
    import umebkit.search as search

    P, d, dprime = STOP_CASES[case]()
    starts = _restart_starts(1, range(8), d * dprime) @ P.T
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    full = _ascend_batch(P, starts, d, dprime, 400)
    calls = record_polish(monkeypatch)
    stopped = _ascend_batch(P, starts, d, dprime, 400, park=True)
    full_history, history, accepted = full[5], stopped[5], stopped[6]
    # the polish is handed the rows the unstopped run parks, with their F,
    # and rejects them until it accepts one; the batch ends at that iteration
    parks = ladder_parks(full)[:len(calls)]
    assert [F.tobytes() for _, F, _ in calls] == [F.tobytes() for _, _, F in parks]
    assert not any(ok.any() for _, _, ok in calls[:-1])
    assert len(history) == (parks[-1][0] + 1 if calls else len(full_history))
    # up to the stop, the stopped run is the unstopped run, bit for bit, and
    # it ends as that run cut at max_iters there: on the states last
    # evaluated, except the accepted rows, which hold their finished states
    assert all(a.tobytes() == b.tobytes() for a, b in zip(history, full_history))
    cut = _ascend_batch(P, starts, d, dprime, len(history))
    for a, b in zip(stopped[:5], cut[:5]):
        assert a[~accepted].tobytes() == b[~accepted].tobytes()
    assert (stopped[2] == cut[2]).all() and stopped[3][accepted].all()
    if case == "weyl(2,3)":
        assert not calls and not ladder_parks(full) and not accepted.any()
    else:
        assert calls[-1][2].any()
        assert np.flatnonzero(accepted).tolist() == parks[-1][1][calls[-1][2]].tolist()
        for r in np.flatnonzero(accepted):
            assert 1.0 - cut[1][r] <= search.PARK_STEP
            assert me_residual(stopped[0][r], d, dprime) <= search.POLISH_TOL
            assert np.linalg.norm(stopped[0][r] - P @ stopped[0][r]) <= 1e-12
            assert abs(1.0 - stopped[1][r]) <= 1e-12


def _check_witness(state, P):
    """``state`` lies in range(P), is a unit vector, and has 1 - F <= PARK_STEP."""
    import umebkit.search as search

    amps = state.amplitudes
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
    assert np.linalg.norm(amps - P @ amps) <= 1e-9
    s = np.linalg.svd(amps.reshape(state.d, state.dprime), compute_uv=False)
    assert 1.0 - s.sum() ** 2 / state.d <= search.PARK_STEP


@pytest.mark.parametrize("d, dprime, k", [(3, 5, 4), (3, 5, 5), (3, 5, 10), (4, 6, 16),
                                          (5, 7, 26)])
def test_first_witness_search_agrees_with_full_search(d, dprime, k):
    import umebkit.search as search

    # the search against the same restarts ascended to convergence, unstopped:
    # it finds a witness iff the polish accepts one of the rows that end
    # within PARK_STEP of F = 1 (at (3,5) k=4, below the threshold rank, all
    # eight rows end within it, and the polish rejects each)
    P = subspace_projector(1, d, dprime, k)
    config = SearchConfig(restarts=8, max_iters=2000, seed=1)
    first = max_entanglement_in_subspace(P, d, dprime, config)
    psi, F, iterations = _ascend_batch(P, projected_starts(P, 1, range(8)), d, dprime, 2000)[:3]
    met = 1.0 - F <= search.PARK_STEP
    w = spectra(psi[met], d, dprime)[1]
    accepted = search._polish(P, psi[met], F[met], w, d, dprime)[2]
    assert (first.verdict == "found_me") == bool(accepted.any())
    assert met.any() and (k == 4) == (not accepted.any())
    if first.verdict == "found_me":
        _check_witness(first.best_state, P)
        assert me_residual(first.best_state.amplitudes, d, dprime) <= search.POLISH_TOL
        assert first.iterations_used <= iterations[met].max()
    else:  # no witness: the same full run
        b = int(np.argmax(F))
        assert first.best_F == F[b] and first.iterations_used == iterations[b]
        assert first.best_state.amplitudes.tobytes() == psi[b].tobytes()


@pytest.mark.parametrize("d, dprime", [(2, 4), (2, 5), (3, 6)])
def test_certify_stops_at_a_witness_the_full_search_confirms(monkeypatch, d, dprime):
    import umebkit.search as search

    # certify's search, with the product block that decides these shapes
    # silenced
    search_only(monkeypatch)
    runs = record_runs(monkeypatch)
    basis = build_weyl_umeb(d, dprime)
    P = complement_projector(basis)
    config = SearchConfig(restarts=16, seed=3)
    report = certify(basis, config)
    full = max_entanglement_in_subspace(P, d, dprime, config)
    assert report.verdict == "extendible" and full.verdict == "found_me"
    # F is 1 to rounding after two iterations; the full search parks every
    # row there, and its exact test accepts them without a third
    assert [len(out[5]) for _, out in runs] == [2, 2]
    _check_witness(report.witness, P)
    assert np.abs(basis.amplitudes.conj() @ report.witness.amplitudes).max() <= 1e-9
    F = np.linalg.svd(report.witness.amplitudes.reshape(d, dprime), compute_uv=False).sum() ** 2 / d
    assert abs(report.search_best_F - F) <= 1e-12
    assert 1.0 - report.search_best_F <= search.PARK_STEP


def projected_starts(P, seed, rows):
    """The starts of ``rows`` as ``_search`` projects and normalises them."""
    pg = _restart_starts(seed, rows, P.shape[0]) @ P.T
    return pg / np.linalg.norm(pg, axis=1, keepdims=True)


@pytest.mark.parametrize("seed, n", [(1, 15), (42, 49), (2**63 - 1, 6)])
def test_restart_starts_over_a_range_are_that_slice_of_the_full_draw(seed, n):
    full = _restart_starts(seed, range(64), n)
    for rows in (range(0, 8), range(8, 64), range(5, 6), range(64, 64)):
        part = _restart_starts(seed, rows, n)
        assert part.shape == (len(rows), n)
        assert part.tobytes() == full[rows.start:rows.stop].tobytes()


def test_the_first_stage_draw_is_kept_read_only_and_alone():
    import umebkit.search as search

    assert _first_stage_draws.cache_info().maxsize == 1
    kept = _first_stage_draws(5, 15)
    assert not kept.flags.writeable and kept.shape == (search.FIRST_STAGE, 15)
    assert kept.tobytes() == _restart_starts(5, range(search.FIRST_STAGE), 15).tobytes()
    with pytest.raises(ValueError):
        kept[0, 0] = 0
    assert _first_stage_draws(5, 15) is kept
    _first_stage_draws(5, 16)
    assert _first_stage_draws.cache_info().currsize == 1
    assert _first_stage_draws(5, 15) is not kept


# (3,5) k=5 at seed 3: every row of the first run parks in its 32 F
# evaluations and the polish rejects each, and the second run accepts one at
# its 47th (at seed 1 the first run accepts one at its fifth); (3,5) k=4 at
# seed 1: no witness, every row of either run parks and is rejected, and every
# row of the second run runs to its cap of 150 iterations (the first to
# converge needs 178).
@pytest.mark.parametrize("k", [5, 4])
def test_staged_rows_are_their_restarts_ascended_alone(monkeypatch, k):
    import umebkit.search as search

    d, dprime, R, max_iters = 3, 5, 24, 2000 if k == 5 else 150
    seed = 3 if k == 5 else 1
    P = subspace_projector(1, d, dprime, k)
    runs = record_runs(monkeypatch)
    calls = record_polish(monkeypatch, runs)
    config = SearchConfig(restarts=R, max_iters=max_iters, seed=seed)
    result = _search(P, d, dprime, config)
    (first_args, first), (args, second) = runs
    # the first run: restarts 0-7, capped at FIRST_RUN_EVALS F evaluations
    starts = projected_starts(P, seed, range(R))
    assert first_args[1].tobytes() == starts[:search.FIRST_STAGE].tobytes()
    assert first_args[4] == len(first[5]) == search.FIRST_RUN_EVALS
    # no row of it is accepted: every row that met the threshold was handed
    # to the polish at each of its parks, and rejected
    first_calls, parks = [c for c in calls if c[0] == 0], ladder_parks(first)
    assert not first[6].any() and not any(ok.any() for _, _, ok in first_calls)
    assert [F.tobytes() for _, F, _ in first_calls] == [F.tobytes() for _, _, F in parks]
    met = np.flatnonzero(1.0 - first[1] <= search.PARK_STEP)
    assert set(met) <= {r for _, rows, _ in parks for r in rows}
    assert len(met) == search.FIRST_STAGE
    # the second: every restart from its start, with the full max_iters
    assert args[1].tobytes() == starts.tobytes() and args[4] == max_iters
    psi, F, iterations, converged, collapsed, history, accepted = second[:7]
    assert not collapsed.any()
    assert min(map(len, history)) >= 2
    assert len(history) == iterations.max()
    # k=5: one row is polished and ends the run; k=4: the polish rejects
    # every row handed to it, of the 24 that end within PARK_STEP of F = 1
    met = 1.0 - F <= search.PARK_STEP
    assert accepted.sum() == (k == 5) and met.sum() >= 1 + 23 * (k == 4)
    second_calls = [c for c in calls if c[0] == 1]
    assert [ok.any() for _, _, ok in second_calls] == [False] * (len(second_calls) - 1) + [k == 5]
    b = int(np.argmax(F))
    assert accepted[b] or k == 4
    assert result.best_F == F[b] and result.iterations_used == iterations[b]
    assert result.best_state.amplitudes.tobytes() == psi[b].tobytes()
    assert result.restarts_used == R and result.restarts_polished == (k == 5)
    assert result.verdict == ("found_me" if k == 5 else "none_found")
    # each row of either run is its restart ascended alone and cut where that
    # run stopped it; the accepted row holds its polished state instead
    for out, rows in ((first, search.FIRST_STAGE), (second, R)):
        for r in np.flatnonzero(~out[6][:rows]):
            alone, alone_history, alone_converged = _ascend(
                P, starts[r], d, dprime, int(out[2][r])
            )
            assert alone.tobytes() == out[0][r].tobytes() and alone_history[-1] == out[1][r]
            assert (len(alone_history), alone_converged) == (out[2][r], out[3][r])


def test_a_late_row_keeps_its_full_max_iters(monkeypatch):
    import umebkit.search as search

    d, dprime = 3, 5
    max_iters = search.FIRST_RUN_EVALS + 8
    P = subspace_projector(1, d, dprime, 4)  # no row converges in 40 iterations
    runs = record_runs(monkeypatch)
    config = SearchConfig(restarts=16, max_iters=max_iters, seed=1)
    result = _search(P, d, dprime, config)
    assert [len(out[5]) for _, out in runs] == [search.FIRST_RUN_EVALS, max_iters]
    iterations, converged = runs[1][1][2:4]
    assert not converged.any()
    assert iterations.tolist() == [max_iters] * 16
    assert result.iterations_used == max_iters and result.verdict == "none_found"


@pytest.mark.parametrize("stages_collapsing", [1, 2])
def test_every_restart_collapsed_only_when_every_stage_has(monkeypatch, stages_collapsing):
    import umebkit.search as search
    from umebkit import NumericalFailureError

    P = complement_projector(build_weyl_umeb(2, 4))
    config = SearchConfig(restarts=16, seed=3)
    # restarts 0-7 (one stage) or all 16 (both) project to zero from their
    # starts and collapse, in whichever run they start
    doomed = projected_starts(P, config.seed, range(8 * stages_collapsing))
    nearest = search._nearest_me_amplitudes
    stack_sizes = []

    def vanishing(x):
        m, s_min = nearest(x)
        stack_sizes.append(x.shape[0])
        flat = x.reshape(len(x), -1)
        m[np.abs(flat[:, None] - doomed).max(axis=2).min(axis=1) <= 1e-12] = 0.0
        return m, s_min

    monkeypatch.setattr(search, "_nearest_me_amplitudes", vanishing)
    if stages_collapsing == 2:
        with pytest.raises(NumericalFailureError, match="every restart collapsed"):
            _search(P, 2, 4, config)
        assert stack_sizes == [8, 16]
    else:
        # the first run collapses at once, so the second runs all 16 restarts:
        # 0-7 collapse again, and 8-15 find a witness
        result = _search(P, 2, 4, config)
        assert result.verdict == "found_me" and result.restarts_used == 8
        assert stack_sizes == [8, 16, 8]


@pytest.mark.parametrize("seed", [1, 42])
def test_certify_verdicts_match_the_full_search_on_the_sweep(seed):
    config = SearchConfig(seed=seed)
    for d, dprime in SWEEP_SHAPES:
        basis = build_weyl_umeb(d, dprime)
        report = certify(basis, config)
        full = max_entanglement_in_subspace(complement_projector(basis), d, dprime, config)
        assert (report.verdict == "extendible") == (full.verdict == "found_me"), (d, dprime)
        assert (report.verdict == "extendible") == (2 * d <= dprime), (d, dprime)


EXTENDIBLE_SHAPES = [(d, dprime) for d, dprime in SWEEP_SHAPES if 2 * d <= dprime]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42])
def test_certify_of_an_extendible_sweep_shape_is_one_run_of_two_evaluations(monkeypatch, seed):
    # certify's search, with the product block that decides these shapes
    # silenced: on each of the 37 Weyl complements with d <= d'/2, restarts
    # 0-7 are accepted at their second F evaluation, exact, and restarts
    # 8-63 are never drawn; no row parks at its first, so the starts of
    # Weyl(2,17) and Weyl(2,24) at seed 42 within 1e-3 of F = 1 are not
    # polished there
    import umebkit.search as search

    search_only(monkeypatch)
    runs = record_runs(monkeypatch)
    assert len(EXTENDIBLE_SHAPES) == 37
    for d, dprime in EXTENDIBLE_SHAPES:
        runs.clear()
        report = certify(build_weyl_umeb(d, dprime), SearchConfig(seed=seed))
        assert [len(out[5]) for _, out in runs] == [2], (d, dprime)
        assert runs[0][1][2].tolist() == [2] * 8 and runs[0][1][8] == 0, (d, dprime)
        assert report.verdict == "extendible" and report.restarts_used == 8, (d, dprime)
        assert me_residual(report.witness.amplitudes, d, dprime) <= search.POLISH_TOL


def test_every_extendible_sweep_shape_is_certified_by_its_product_block():
    # the complement of Weyl(d, d') holds C^d (x) B levels d to d' - 1, and
    # once d <= d'/2 a maximally entangled state on it, found without a
    # search, so the witness is the same whatever the search config
    for d, dprime in EXTENDIBLE_SHAPES:
        basis = build_weyl_umeb(d, dprime)
        report = certify(basis, SearchConfig(seed=1))
        assert (report.method, report.verdict) == ("product-block", "extendible"), (d, dprime)
        assert report.search_best_F is None and report.restarts_used is None
        witness = report.witness.amplitudes
        assert np.abs(basis.amplitudes.conj() @ witness).max() <= 1e-12, (d, dprime)
        s = np.linalg.svd(witness.reshape(d, dprime), compute_uv=False)
        assert np.abs(s - 1.0 / np.sqrt(d)).max() <= 1e-12, (d, dprime)
        other = certify(basis, SearchConfig(restarts=1, max_iters=2, seed=42))
        assert other.witness.amplitudes.tobytes() == witness.tobytes()


def test_no_unextendible_sweep_shape_reaches_the_product_block(monkeypatch):
    import umebkit.search as search

    real, reached = search._product_block_witness, []

    def recording(complement):
        reached.append((complement.d, complement.dprime))
        return real(complement)

    monkeypatch.setattr(search, "_product_block_witness", recording)
    for d, dprime in SWEEP_SHAPES:
        report = certify(build_weyl_umeb(d, dprime), SearchConfig(seed=1))
        assert (report.method == "support-rank") == (2 * d > dprime), (d, dprime)
    assert reached == EXTENDIBLE_SHAPES


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_complement_without_a_product_block_falls_through_to_the_search(seed):
    rng = np.random.default_rng(seed)
    # random orthonormal rows, read as flagged: the B marginal of their
    # complement has no eigenvalue d = 3, so there is no candidate at all
    rows = random_unitary(rng, 15)[:3]
    assert _product_block_witness(_complement(BasisSet(3, 5, rows, [True] * 3))) is None
    # Weyl(2,5)'s members on B levels 0 and 1 and one more on levels 2 and 3,
    # (|0>|2> + |1>|3>)/sqrt(2), as they are and turned by a random local
    # unitary and permuted: only B level 4 has C^2 (x) it in the complement
    # (B-marginal eigenvalues 0, 0, 3/2, 3/2, 2), one ket, fewer than d = 2,
    # yet the complement holds (|0>|4> + |1>|2>)/sqrt(2), which the search
    # finds
    extra = np.zeros((2, 5), dtype=complex)
    extra[0, 2] = extra[1, 3] = 1.0 / np.sqrt(2)
    members = np.vstack([build_weyl_umeb(2, 5).amplitudes, extra.reshape(1, -1)])
    local = np.kron(random_unitary(rng, 2), random_unitary(rng, 5))
    for rows in (members, rng.permutation(members @ local.T)):
        basis = BasisSet(2, 5, rows, [True] * 5)
        assert _product_block_witness(_complement(basis)) is None
        report = certify(basis, SearchConfig(seed=seed))
        assert (report.method, report.verdict) == ("numeric-search", "extendible")
        assert np.abs(basis.amplitudes.conj() @ report.witness.amplitudes).max() <= 1e-9


def test_an_unflagged_basis_has_the_whole_space_as_its_product_block():
    # no member is flagged: the complement is all of C^3 (x) C^4, its frame
    # the identity, its B marginal 3 I, whose eigenvectors are the B levels,
    # and the witness pairs A level i with the last three B levels, i + 1
    rows = random_unitary(np.random.default_rng(5), 12)[:5]
    basis = BasisSet(3, 4, rows, [False] * 5)
    report = certify(basis, SearchConfig(seed=1))
    assert (report.method, report.verdict) == ("product-block", "extendible")
    assert report.complement_dimension == 12
    expected = np.zeros((3, 4))
    expected[[0, 1, 2], [1, 2, 3]] = 1.0 / np.sqrt(3)
    np.testing.assert_allclose(report.witness.amplitudes, expected.reshape(-1), rtol=0, atol=1e-15)


def decompositions_asked(calls):
    """The shapes handed to ``np.linalg.svd`` (with ``compute_uv``), to
    ``np.linalg.eigh`` and to ``np.linalg.qr``, by name, in the order of
    the recorded calls."""
    asked = {"svd": [], "eigh": [], "qr": []}
    for c in calls:
        if c.kwargs.get("compute_uv", True):
            asked[c.name].append(c.shape)
    return asked


def test_certify_of_a_large_shape_decomposes_nothing_past_its_frame_and_marginal(monkeypatch):
    # Weyl(22,46): 484 flagged members.  certify takes the frame from one
    # QR of the 1012 x 484 members as columns, and the ranks and the witness
    # from one eigh of each marginal, 22 x 22 and 46 x 46; no stack of the
    # members' d x d' matrices (10648 x 46, whose full U alone would take
    # 1.8 GB) is decomposed, and the witness takes no eigh of its own
    basis = build_weyl_umeb(22, 46)
    calls = record_linalg(monkeypatch, "svd", "eigh", "qr")
    report = certify(basis, SearchConfig(seed=1))
    assert (report.method, report.verdict) == ("product-block", "extendible")
    assert decompositions_asked(calls) == {
        "svd": [], "eigh": [(22, 22), (46, 46)], "qr": [(1012, 484)]}


def test_a_complement_of_fewer_than_d_squared_dimensions_adds_no_eigh(monkeypatch):
    # Weyl(3,5) without its last member: a complement of 15 - 8 = 7 < 9
    # dimensions holds no C^3 (x) W with dim W >= 3.  The eigenvalues of the
    # 5 x 5 B marginal are at most 3 and sum to 7, so the third is at most
    # 3 - 1/3 and the product-block test rejects; it reads the eigh the
    # support ranks read, so certify eigendecomposes the marginal once
    basis = weyl_less(3, 5)
    calls = record_linalg(monkeypatch, "svd", "eigh", "qr")
    complement = _complement(basis)
    assert _product_block_witness(complement) is None
    assert complement.spectra[1][0][-3] <= 3 - 1 / 3 + 1e-12
    assert certify(basis, SearchConfig(seed=1)).method == "numeric-search"
    assert decompositions_asked(calls)["eigh"].count((5, 5)) == 1


def product_block_frame(rng, d, dprime, r):
    """An orthonormal frame of ``C^d (x) W``, W the first r B levels, and d
    random vectors of ``C^d (x) W^perp`` (which hold no product block), turned
    by a random local unitary: every support rank is at least d, so the rank
    cut is silent, and the largest product block is ``C^d (x) U_B W``."""
    n = d * dprime
    block = np.zeros((d, dprime, d * r), dtype=complex)
    for a in range(d):
        block[a, range(r), range(a * r, (a + 1) * r)] = 1.0
    rest = np.zeros((d, dprime, d), dtype=complex)
    rest[:, r:] = rng.normal(size=(d, dprime - r, d)) + 1j * rng.normal(size=(d, dprime - r, d))
    Q = np.linalg.qr(np.concatenate([block, rest], axis=2).reshape(n, -1))[0]
    return np.kron(random_unitary(rng, d), random_unitary(rng, dprime)) @ Q


@pytest.mark.parametrize("d, dprime", [(2, 5), (3, 7)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_frame_is_certified_by_its_product_block_iff_it_holds_d_product_kets(d, dprime, seed):
    rng = np.random.default_rng([seed, d, dprime])
    for r in (d - 1, d, d + 1):
        Q = product_block_frame(rng, d, dprime, r)
        report = _certify_complement(_Complement(Q, d, dprime), SearchConfig(seed=seed))
        assert report.complement_dimension == d * r + d
        assert (report.method == "product-block") == (r >= d), (r, report.method)
        if r < d:
            assert report.method == "numeric-search"
            continue
        x = report.witness.amplitudes
        assert np.linalg.norm(x - Q @ (Q.conj().T @ x)) <= 1e-12
        s = np.linalg.svd(x.reshape(d, dprime), compute_uv=False)
        assert np.abs(s - 1.0 / np.sqrt(d)).max() <= 1e-12


def test_a_frame_turned_out_of_its_product_block_reaches_the_search():
    # the frame of Weyl(2,4)'s complement, C^2 (x) B levels 2 and 3, turned
    # by exp(1e-4 i H), H a random Hermitian of norm 1: as a basis its
    # members, turned alike, are 1e-4 from maximal entanglement, which the
    # certificate refuses; as a frame it has no product block of dimension
    # d^2 left, and the search decides
    rng = np.random.default_rng(7)
    G = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    values, vectors = np.linalg.eigh(G + G.conj().T)
    turn = (vectors * np.exp(1e-4j * values / np.abs(values).max())) @ vectors.conj().T
    weyl = build_weyl_umeb(2, 4)
    with pytest.raises(ContractViolationError, match="flagged maximally entangled"):
        certify(BasisSet(2, 4, weyl.amplitudes @ turn.T, [True] * 4))
    complement = _Complement(turn @ _complement(weyl).Q, 2, 4)
    assert _product_block_witness(complement) is None
    report = _certify_complement(complement, SearchConfig(seed=1))
    assert report.method == "numeric-search"


def test_fruitless_first_witness_search_keeps_the_full_best_F():
    P = subspace_projector(1, 3, 5, 4)
    config = SearchConfig(seed=1)  # 64 restarts: two runs
    first = _search(P, 3, 5, config)
    # the 64 restarts ascended together to convergence, never parked
    psi, F, iterations = _ascend_batch(P, projected_starts(P, 1, range(64)), 3, 5,
                                       config.max_iters)[:3]
    b = int(np.argmax(F))
    assert first.verdict == "none_found" and first.restarts_polished == 0
    assert first.best_F == F[b] and first.iterations_used == iterations[b]
    assert first.best_state.amplitudes.tobytes() == psi[b].tobytes()


def test_certify_of_the_sweep_takes_no_gauss_newton_step(monkeypatch):
    import umebkit.search as search

    def refuse(*args):
        raise AssertionError("certify called the Gauss-Newton polish")

    # with the product block silenced, every witness of an extendible sweep
    # shape that certify's search finds passes the exact test
    search_only(monkeypatch)
    monkeypatch.setattr(search, "_gauss_newton", refuse)
    for d, dprime in SWEEP_SHAPES:
        certify(build_weyl_umeb(d, dprime), SearchConfig(seed=1))


def me_residual(amplitudes, d, dprime):
    """``max|d X X^dag - I|`` of a state: 0 exactly when it is maximally entangled."""
    X = amplitudes.reshape(d, dprime)
    return np.abs(d * X @ X.conj().T - np.eye(d)).max()


@pytest.mark.parametrize("d, dprime, k", [(3, 5, 10), (7, 7, 43)])
def test_full_search_returns_a_polished_witness(d, dprime, k):
    import umebkit.search as search

    P = subspace_projector(1, d, dprime, k)
    result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=1))
    amplitudes = result.best_state.amplitudes
    assert result.verdict == "found_me" and result.converged
    # the first run of 8 restarts finds it, and stops at it
    assert result.restarts_used == 8 and result.restarts_polished >= 1
    assert me_residual(amplitudes, d, dprime) <= search.POLISH_TOL
    assert abs(np.linalg.norm(amplitudes) - 1.0) <= 1e-12
    assert np.linalg.norm(amplitudes - P @ amplitudes) <= 1e-12
    s = np.linalg.svd(amplitudes.reshape(d, dprime), compute_uv=False)
    assert abs(result.best_F - s.sum() ** 2 / d) <= 1e-12


# (3,5) k=10: every row parks; (3,5) k=5: some rows park and the others
# converge without a witness; Weyl(2,4): every row parks exactly.
@pytest.mark.parametrize("case", ["(3,5) k=10", "(3,5) k=5", "weyl(2,4)"])
def test_rows_the_polish_rejects_ascend_as_if_never_parked(monkeypatch, case):
    import umebkit.search as search

    P, d, dprime = STOP_CASES[case]()
    starts = projected_starts(P, 1, range(16))
    unparked = _ascend_batch(P, starts, d, dprime, 2000)
    polished = []

    def reject_all(P, x, F, w, d, dprime):
        polished.append(F.copy())
        return x, F, np.zeros(len(x), dtype=bool), 0

    monkeypatch.setattr(search, "_polish", reject_all)
    parked = _ascend_batch(P, starts, d, dprime, 2000, park=True)
    # each row that meets the tolerance parks, and parks again only when
    # 1 - F is at most PARK_STEP times the threshold it last parked at
    parks = ladder_parks(unparked)
    assert [F.tobytes() for F in polished] == [F.tobytes() for _, _, F in parks]
    first_park = {}
    for i, rows, _ in parks:
        for r in rows:
            first_park.setdefault(int(r), i)
    met = np.flatnonzero(1.0 - unparked[1] <= search.PARK_STEP)
    assert 0 < len(met) <= 16 and sorted(first_park) == met.tolist()
    assert sum(map(len, (rows for _, rows, _ in parks))) > len(met)  # some park twice
    # the evaluations after a row's first park count, and only those
    assert parked[7] == sum(int(unparked[2][r]) - i - 1 for r, i in first_park.items())
    assert not parked[6].any() and not unparked[6].any()
    for a, b in zip(parked[:6], unparked[:6]):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_a_row_the_polish_rejects_is_accepted_at_a_later_park(monkeypatch):
    import umebkit.search as search

    # (5,7) k=13 sits at the threshold rank: the polish rejects every row
    # parked at 1 - F <= PARK_STEP, and accepts a row parked again closer
    # in.  Parking each row only once, the search found nothing here.
    d, dprime = 5, 7
    P = subspace_projector(5, d, dprime, 13, j=1)
    runs = record_runs(monkeypatch)
    calls = record_polish(monkeypatch, runs)
    result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=1, max_iters=2000))
    assert result.verdict == "found_me" and result.evaluations_after_park > 0
    assert me_residual(result.best_state.amplitudes, d, dprime) <= search.POLISH_TOL
    assert not any(ok.any() for _, _, ok in calls[:-1]) and calls[-1][2].any()
    # the last run, replayed unparked to its stop, parks the rows handed to
    # the polish, and each accepted row had parked before
    args, out = runs[-1]
    last = [c for c in calls if c[0] == len(runs) - 1]
    parks = ladder_parks(_ascend_batch(*args[:4], len(out[5])))[:len(last)]
    assert [F.tobytes() for _, F, _ in last] == [F.tobytes() for _, _, F in parks]
    for r in parks[-1][1][last[-1][2]]:
        assert any(r in rows for _, rows, _ in parks[:-1])


def spectra(x, d, dprime):
    """The F of the rows of x and their Gram spectra, as the ascent evaluates them."""
    m, w = _nearest_me_amplitudes(x.reshape(-1, d, dprime))
    return np.abs(np.einsum("ij,ij->i", m.conj(), x)) ** 2, w


def rough_rows():
    """Eight rows of (3,5) k=10 after 12 F evaluations, with 1 - F of about
    1e-2 to 1e-4: none exact, and each a Gauss-Newton start."""
    P = subspace_projector(1, 3, 5, 10)
    rough = _ascend_batch(P, projected_starts(P, 1, range(8)), 3, 5, 12)[0]
    return P, rough, *spectra(rough, 3, 5)


def test_polish_accepts_exact_rows_as_they_are_and_polishes_the_rest():
    import umebkit.search as search

    P24, _, _ = weyl_complement(2, 4)
    exact = _ascend_batch(P24, projected_starts(P24, 1, range(8)), 2, 4, 2)[0]
    # F = 1 to rounding after two F evaluations: the spectra pass the exact
    # test, so no Gauss-Newton step is taken and no F evaluated
    F = np.full(8, 0.5)
    x, F_out, ok, steps = search._polish(P24, exact, F, spectra(exact, 2, 4)[1], 2, 4)
    assert ok.all() and x is exact and F_out is F and steps == 0
    # rows away from the maximally entangled set: exactly one is accepted,
    # the first in descending F that Gauss-Newton finishes on P
    P, rough, F, w = rough_rows()
    assert not (np.abs(3 * w - 1.0).max(axis=1) <= search.POLISH_TOL).any()
    x, F_out, ok, steps = search._polish(P, rough, F, w, 3, 5)
    assert ok.sum() == 1
    order = np.argsort(-F, kind="stable")
    tried = [search._gauss_newton(P, rough[r], 3, 5) for r in order]
    first = next(i for i, (state, _) in enumerate(tried) if state is not None)
    r = order[first]
    assert ok[r] and steps == sum(n for _, n in tried[:first + 1])
    assert x[r].tobytes() == tried[first][0].tobytes()
    assert me_residual(x[r], 3, 5) <= search.POLISH_TOL
    assert np.abs(x[r] - P @ x[r]).max() <= 1e-12 and abs(F_out[r] - 1.0) <= 1e-12
    # every other row, ranked after it or rejected before it, keeps its
    # state and F, and the inputs are not written
    others = np.arange(8) != r
    assert x[others].tobytes() == rough[others].tobytes()
    assert F_out[others].tobytes() == F[others].tobytes()
    assert F.tobytes() == spectra(rough, 3, 5)[0].tobytes()
    # near (3,4)'s threshold rank the polish stalls: every row keeps its
    # state and F
    P34 = subspace_projector(1, 3, 4, 5)
    stuck = _ascend_batch(P34, projected_starts(P34, 1, range(8)), 3, 4, 10000)[0]
    F = np.full(8, 0.5)
    x, F_out, ok, _ = search._polish(P34, stuck, F, spectra(stuck, 3, 4)[1], 3, 4)
    assert not ok.any() and x is stuck and F_out is F


def test_a_parked_row_polishes_to_the_same_bytes_alone_as_beside_others():
    import umebkit.search as search

    P, rough, F, w = rough_rows()
    accepted = 0
    for r in range(8):
        alone = search._polish(P, rough[r:r + 1], F[r:r + 1], w[r:r + 1], 3, 5)
        # beside the others, ranked first by raising its F above theirs
        F_first = F.copy()
        F_first[r] = 1.0
        beside = search._polish(P, rough, F_first, w, 3, 5)
        assert alone[2][0] == beside[2][r]
        if alone[2][0]:
            accepted += 1
            assert alone[0][0].tobytes() == beside[0][r].tobytes()
            assert alone[1][0].tobytes() == beside[1][r].tobytes()
            assert alone[3] == beside[3] and beside[2].sum() == 1
    assert accepted > 0


@pytest.mark.parametrize("reject", [0, 3, 8])
def test_the_polish_tries_rows_best_first_and_stops_at_the_first_accepted(monkeypatch, reject):
    import umebkit.search as search

    P, rough, _, w = rough_rows()
    F = np.array([0.2, 0.9, 0.5, 0.9, 0.1, 0.7, 0.5, 0.3])  # ties: rows 1 and 3, 2 and 6
    real, tried = search._gauss_newton, []

    def first_accepted_after(P, x, d, dprime):
        tried.append(int(np.flatnonzero((rough == x).all(axis=1))[0]))
        return real(P, x, d, dprime) if len(tried) > reject else (None, 1)

    monkeypatch.setattr(search, "_gauss_newton", first_accepted_after)
    x, F_out, ok, steps = search._polish(P, rough, F, w, 3, 5)
    best_first = [1, 3, 5, 2, 6, 7, 0, 4]
    assert tried == best_first[:reject + 1]
    assert np.flatnonzero(ok).tolist() == ([] if reject == 8 else [best_first[reject]])
    # a parked row that is exact is accepted as it is, and no row is tried
    tried.clear()
    w_exact = w.copy()
    w_exact[4] = 1.0 / 3
    assert search._polish(P, rough, F, w_exact, 3, 5)[2].tolist() == [i == 4 for i in range(8)]
    assert tried == []


def test_a_search_whose_parked_rows_all_fail_the_polish(monkeypatch):
    import umebkit.search as search

    # near (3,4)'s threshold rank no state of the subspace is maximally
    # entangled: rows park within PARK_STEP of F = 1, the polish stalls on
    # every one, they all ascend on as if never parked, and the search finds
    # nothing, although its best F is within PARK_STEP of 1
    P = subspace_projector(1, 3, 4, 5)
    config = SearchConfig(restarts=8, seed=1)
    parked = []
    real_polish = search._polish

    def recording_polish(*args):
        out = real_polish(*args)
        parked.append((len(args[1]), int(out[2].sum())))
        return out

    monkeypatch.setattr(search, "_polish", recording_polish)
    result = max_entanglement_in_subspace(P, 3, 4, config)
    assert sum(n for n, _ in parked) >= 1 and all(ok == 0 for _, ok in parked)
    assert result.verdict == "none_found" and result.restarts_polished == 0
    starts = projected_starts(P, 1, range(8))
    psi, F = _ascend_batch(P, starts, 3, 4, config.max_iters)[:2]
    b = int(np.argmax(F))
    assert 1.0 - F[b] <= search.PARK_STEP
    assert result.best_F == F[b]
    assert result.best_state.amplitudes.tobytes() == psi[b].tobytes()


def near_miss_projector():
    """The complement of 12 random orthonormal vectors of C^4 (x) C^5: 8
    dimensions, below the threshold rank 9 = ceil((d^2 + 1) / 2) at d = 4, so
    that, like a generic subspace of its size, it holds no maximally
    entangled state; yet its best F comes within 2.2e-8 of 1."""
    rng = np.random.default_rng(101)
    A = rng.standard_normal((20, 8)) + 1j * rng.standard_normal((20, 8))
    members = np.linalg.qr(A, mode="complete")[0][:, 8:].T
    return complement_projector(BasisSet(4, 5, members, [False] * 12), me_only=False)


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_a_near_miss_within_the_witness_tolerance_is_no_witness(monkeypatch, seed):
    counts = count_work(monkeypatch)
    result = max_entanglement_in_subspace(near_miss_projector(), 4, 5, SearchConfig(seed=seed))
    assert result.verdict == "none_found" and result.restarts_polished == 0
    assert 2.1e-8 <= 1.0 - result.best_F <= 2.3e-8
    # the rows the polish rejected ascend on: their work counts as any other
    work = (result.evaluations, result.evaluations_after_park, result.polish_steps)
    assert work == counts() and min(work) > 0


@pytest.mark.parametrize("k", [4, 5])
def test_the_threshold_rank_of_3_5_splits_found_from_none_found(k):
    import umebkit.search as search

    # k* = 5 at d = 3: the random subspace of rank 4 (as the benchmark draws
    # it, seed 1, j = 0) holds no maximally entangled state; that of rank 5
    # holds one, found exactly
    result = max_entanglement_in_subspace(subspace_projector(1, 3, 5, k), 3, 5,
                                          SearchConfig(seed=1))
    if k == 4:
        assert result.verdict == "none_found" and 1.0 - result.best_F > 1e-3
    else:
        assert result.verdict == "found_me"
        assert me_residual(result.best_state.amplitudes, 3, 5) <= search.POLISH_TOL


# (3,5) k=10: the first run parks and polishes; Weyl(6,8): no witness, so
# the search takes both runs
@pytest.mark.parametrize("case", ["(3,5) k=10", "weyl(6,8)"])
def test_the_search_counts_its_own_work(monkeypatch, case):
    P, d, dprime = {**STOP_CASES, "weyl(6,8)": lambda: weyl_complement(6, 8)}[case]()
    counts = count_work(monkeypatch)
    result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=1))
    evaluations, after_park, polish_steps = counts()
    assert (result.evaluations, result.evaluations_after_park, result.polish_steps) == (
        evaluations, after_park, polish_steps)
    if case == "weyl(6,8)":
        assert result.verdict == "none_found" and evaluations == 216 and polish_steps == 0
    else:
        assert result.verdict == "found_me" and polish_steps >= result.restarts_polished >= 1


def test_no_search_path_eigendecomposes_the_projector(monkeypatch, tmp_path, capsys):
    # the polish steps on the columns of P, so the library search and umeb
    # search eigendecompose only d x d Gram matrices (the ascent's stacked
    # ones and the polished row's), whether the witness is exact (Weyl(2,4),
    # and Weyl(2,17) at seed 42, at the second evaluation) or polished ((3,5)
    # k=10); certify, decided there by the product block, eigendecomposes
    # the d x d and d' x d' marginals once each, and nothing n x n either
    from umebkit.cli import main
    from umebkit.fileio import save_basis

    calls = record_linalg(monkeypatch, "eigh", "eigvalsh")
    for case, polished in (("weyl(2,4)", False), ("(3,5) k=10", True)):
        P, d, dprime = STOP_CASES[case]()
        calls.clear()
        result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=1))
        assert result.verdict == "found_me" and (result.polish_steps > 0) == polished
        shapes = [c.shape for c in calls]
        assert shapes and all(shape[-2:] == (d, d) for shape in shapes), case
    for dprime, seed in ((4, 1), (17, 42)):
        basis, path = build_weyl_umeb(2, dprime), tmp_path / f"w2{dprime}.json"
        save_basis(path, basis)
        calls.clear()
        report = certify(basis, SearchConfig(seed=seed))
        assert report.verdict == "extendible"
        assert [c.shape for c in calls] == [(2, 2), (dprime, dprime)]
        calls.clear()
        assert main(["search", str(path), "--seed", str(seed), "--json"]) == 0
        capsys.readouterr()
        shapes = [c.shape for c in calls]
        assert shapes and all(shape[-2:] == (2, 2) for shape in shapes), dprime
        assert (2, 2) not in shapes  # only a polished row's is 2-D


# the benchmark's search-hard subspaces: (d, d') and rank k, four of each
SEARCH_HARD = [((3, 5), 10), ((4, 6), 16), ((5, 7), 26), ((6, 8), 37), ((7, 7), 43)]


def test_each_search_hard_search_ends_at_its_first_polished_row():
    # no witness of these is exact: each search polishes parked rows best
    # first and keeps the first one accepted, at the rows' second F
    # evaluation in the first run (8 rows, 16 evaluations), within 4 steps
    for seed in (1, 7, 42):
        for (d, dprime), k in SEARCH_HARD:
            for j in range(4):
                P = subspace_projector(seed, d, dprime, k, j)
                result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=seed))
                case = (seed, d, dprime, k, j)
                assert result.verdict == "found_me" and result.restarts_polished == 1, case
                assert result.restarts_used == 8 and result.evaluations == 16, case
                assert 0 < result.polish_steps <= 4, case
                assert result.evaluations_after_park == 0, case  # no row ascends past its park


def test_search_hard_searches_draw_the_first_stage_once_per_shape():
    # in workload order the 4 searches at each (d, d') share one draw
    _first_stage_draws.cache_clear()
    for (d, dprime), k in SEARCH_HARD:
        for j in range(4):
            P = subspace_projector(1, d, dprime, k, j)
            max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=1))
    info = _first_stage_draws.cache_info()
    assert (info.misses, info.hits) == (5, 15)


def test_the_second_run_draws_its_restarts_anew_and_keeps_none(monkeypatch):
    import umebkit.search as search

    # (3,5) k=5 at seed 3 reaches the second run (see the staged test above)
    real, drawn = search._restart_starts, []

    def recording(seed, rows, n):
        drawn.append((seed, rows, n))
        return real(seed, rows, n)

    monkeypatch.setattr(search, "_restart_starts", recording)
    _first_stage_draws.cache_clear()
    P, config = subspace_projector(1, 3, 5, 5), SearchConfig(restarts=24, max_iters=2000, seed=3)
    for _ in range(2):
        assert _search(P, 3, 5, config).verdict == "found_me"
    assert drawn == [(3, range(0, 8), 15), (3, range(8, 24), 15), (3, range(8, 24), 15)]
    info = _first_stage_draws.cache_info()
    assert info.currsize == 1 and _first_stage_draws(3, 15).shape == (8, 15)


def test_no_row_is_polished_before_its_second_evaluation(monkeypatch):
    import umebkit.search as search

    # every row of a batch is evaluated once per iteration, so the
    # iterations of a batch so far are each row's F evaluations
    evaluations, polished_at = [0], []
    nearest, batch, polish = search._nearest_me_amplitudes, search._ascend_batch, search._polish

    def counting_batch(*args, **kwargs):
        evaluations[0] = 0
        return batch(*args, **kwargs)

    def counting_nearest(x):
        evaluations[0] += 1
        return nearest(x)

    def recording_polish(*args):
        polished_at.append(evaluations[0])
        return polish(*args)

    monkeypatch.setattr(search, "_ascend_batch", counting_batch)
    monkeypatch.setattr(search, "_nearest_me_amplitudes", counting_nearest)
    monkeypatch.setattr(search, "_polish", recording_polish)
    # the complements of Weyl(2,17) and (2,24) have starts within 1e-3 of
    # F = 1 at seed 42; they wait for the second evaluation, where they are
    # exact
    for dprime in (17, 24):
        polished_at.clear()
        _search(complement_projector(build_weyl_umeb(2, dprime)), 2, dprime,
                SearchConfig(seed=42))
        assert polished_at == [2], dprime
    # search-hard and (3,5) k=4, whose parked rows the polish rejects in both runs
    cases = [(subspace_projector(1, d, dprime, k, j), d, dprime)
             for (d, dprime), k in SEARCH_HARD for j in range(4)]
    for P, d, dprime in cases + [(subspace_projector(1, 3, 5, 4), 3, 5)]:
        polished_at.clear()
        _search(P, d, dprime, SearchConfig(seed=1))
        assert polished_at and min(polished_at) >= 2, (d, dprime)


def parked_rows(monkeypatch, P, d, dprime, seed):
    """The seeded search of range(P) and every row it hands to the polish."""
    import umebkit.search as search

    real, rows = search._polish, []

    def recording_polish(*args):
        rows.extend(args[1].copy())
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(search, "_polish", recording_polish)
        result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=seed))
    return result, rows


def gauss_newton_on_both_frames(P, rows, d, dprime):
    """Each row polished on the columns of P and on an orthonormal frame of
    range(P): both accept it or both reject it, and where they accept it
    they take the same steps and their states agree to 1e-12.  Returns the
    pairs of outcomes."""
    import umebkit.search as search

    Q = range_frame(P)
    pairs = [(search._gauss_newton(P, x, d, dprime), search._gauss_newton(Q, x, d, dprime))
             for x in rows]
    for (on_P, steps_P), (on_Q, steps_Q) in pairs:
        assert (on_P is None) == (on_Q is None)
        if on_P is not None:
            assert steps_P == steps_Q and np.abs(on_P - on_Q).max() <= 1e-12
    return pairs


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_gauss_newton_on_the_projector_steps_as_on_an_orthonormal_frame(monkeypatch, seed):
    import umebkit.search as search

    # P's columns are a Parseval frame of range(P) (P P^dag = P), so from
    # the rows each search-hard search parks, Gauss-Newton on them takes the
    # steps it takes on an orthonormal frame; the witness is maximally
    # entangled and lies in the subspace to rounding
    for (d, dprime), k in SEARCH_HARD:
        for j in range(4):
            P = subspace_projector(seed, d, dprime, k, j)
            result, rows = parked_rows(monkeypatch, P, d, dprime, seed)
            pairs = gauss_newton_on_both_frames(P, rows, d, dprime)
            assert any(on_P is not None for (on_P, _), _ in pairs), (d, dprime, k, j)
            assert all(steps_P == steps_Q for (_, steps_P), (_, steps_Q) in pairs)
            witness = result.best_state.amplitudes
            assert result.verdict == "found_me", (d, dprime, k, j)
            assert me_residual(witness, d, dprime) <= search.POLISH_TOL
            assert np.linalg.norm(witness - P @ witness) <= 1e-14, (d, dprime, k, j)


def test_gauss_newton_rejects_the_near_miss_on_either_frame(monkeypatch):
    # every row the r45 near-miss search parks is rejected on the columns of
    # P and on an orthonormal frame.  The step counts agree only in exact
    # arithmetic: on a stalled row J J^T is ill-conditioned, and a few rows
    # of each seed (3 of 124 at seed 1) stop a step or more apart
    P = near_miss_projector()
    for seed in (1, 2, 3, 42):
        result, rows = parked_rows(monkeypatch, P, 4, 5, seed)
        assert result.verdict == "none_found" and len(rows) > 0, seed
        pairs = gauss_newton_on_both_frames(P, rows, 4, 5)
        assert all(on_P is None and on_Q is None for (on_P, _), (on_Q, _) in pairs), seed
        assert sum(steps for (_, steps), _ in pairs) == result.polish_steps, seed


@pytest.mark.parametrize("delta", [1e-10, -4e-10])
def test_a_projector_inexact_within_its_checks_still_polishes(delta):
    import umebkit.search as search

    # (1 + delta) Q Q^dag passes the Hermitian and idempotent checks; a unit
    # coordinate vector on its columns gives |X| = 1 + delta, which would hold
    # the polish's residual near 2 delta, so the polish scales X itself
    for (d, dprime), k in SEARCH_HARD:
        for j in range(4):
            P = (1 + delta) * subspace_projector(1, d, dprime, k, j)
            result = max_entanglement_in_subspace(P, d, dprime, SearchConfig(seed=1))
            witness = result.best_state.amplitudes
            assert result.verdict == "found_me" and result.polish_steps > 0, (d, dprime, k, j)
            assert me_residual(witness, d, dprime) <= search.POLISH_TOL, (d, dprime, k, j)
            assert np.linalg.norm(witness - P @ witness / (1 + delta)) <= 1e-14, (d, dprime, k, j)


def test_a_full_search_keeps_its_traced_memory_small():
    import tracemalloc

    P = subspace_projector(1, 7, 7, 43)
    config = SearchConfig(seed=1)
    max_entanglement_in_subspace(P, 7, 7, config)  # first-call allocations
    tracemalloc.start()
    try:
        result = max_entanglement_in_subspace(P, 7, 7, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.19 MiB: the witness comes from the first run of 8 restarts,
    # and the polish holds one row's Jacobian at a time
    assert result.verdict == "found_me" and result.restarts_used == 8
    assert peak < 0.5 * 2**20
