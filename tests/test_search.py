import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import build_weyl_umeb, complement_projector
from umebkit.search import (
    SearchConfig,
    _ascend,
    _ascend_batch,
    _restart_starts,
    _search,
    certify,
    max_entanglement_in_subspace,
    nearest_me_state,
)
from umebkit.states import BipartiteState, is_maximally_entangled, standard_mes

FAST = SearchConfig(restarts=8, max_iters=500)


def random_subspace_projector(rng, n, rank):
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def record_runs(monkeypatch):
    """Record each ``_ascend_batch`` run of the search as (arguments, outputs)."""
    import umebkit.search as search

    real_batch, runs = search._ascend_batch, []

    def recording_batch(*args):
        out = real_batch(*args)
        runs.append((args, out))
        return out

    monkeypatch.setattr(search, "_ascend_batch", recording_batch)
    return runs


def test_nearest_me_fixed_point():
    phi0 = standard_mes(2, 3)
    m = nearest_me_state(phi0)
    assert abs(abs(np.vdot(m.amplitudes, phi0.amplitudes)) - 1.0) < 1e-12


def test_nearest_me_tilted_state():
    amp = np.zeros(6, dtype=complex)
    amp[0], amp[4] = np.sqrt(0.9), np.sqrt(0.1)
    psi = BipartiteState(2, 3, amp)
    m = nearest_me_state(psi)
    assert abs(abs(np.vdot(m.amplitudes, standard_mes(2, 3).amplitudes)) - 1.0) < 1e-12
    overlap = abs(np.vdot(m.amplitudes, psi.amplitudes))
    assert abs(overlap - (np.sqrt(0.9) + np.sqrt(0.1)) / np.sqrt(2)) < 1e-12


def test_nearest_me_always_maximally_entangled():
    rng = np.random.default_rng(31)
    for _ in range(20):
        amp = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = BipartiteState(3, 4, amp / np.linalg.norm(amp))
        m, unique = nearest_me_state(psi, return_uniqueness=True)
        flag, dev = is_maximally_entangled(m)
        assert flag and dev < 1e-10
        assert unique


def test_nearest_me_rank_deficient_flagged():
    prod = np.zeros(6, dtype=complex)
    prod[2] = 1.0
    m, unique = nearest_me_state(BipartiteState(2, 3, prod), return_uniqueness=True)
    assert not unique
    flag, _ = is_maximally_entangled(m)
    assert flag


def svd_polar(x):
    """The SVD route of the kernel: ``L R^dag / sqrt(d)`` and ``s_min``,
    flattened, computed as the kernel computed it before the Gram route."""
    left, s, right_dagger = np.linalg.svd(x, full_matrices=False)
    m = left @ right_dagger
    m /= np.sqrt(x.shape[-2])
    return m.reshape(*x.shape[:-2], -1), s[..., -1]


def with_singular_values(rng, dprime, s):
    """A unit-norm d x d' state with Schmidt coefficients proportional to s."""
    d = len(s)
    left, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    right, _ = np.linalg.qr(rng.normal(size=(dprime, d)) + 1j * rng.normal(size=(dprime, d)))
    return (left * (np.asarray(s) / np.linalg.norm(s))) @ right.conj().T


def count_stacked(monkeypatch, name):
    """Record the shapes of the stacked (3-d) calls of ``np.linalg.<name>``."""
    real, shapes = getattr(np.linalg, name), []

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


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
    svds = count_stacked(monkeypatch, "svd")
    m, s_min = search._nearest_me_amplitudes(x)
    assert svds == []  # every row took the Gram route
    reference, s_ref = svd_polar(x)
    assert np.abs(m - reference).max() <= 1e-11
    assert np.abs(s_min - s_ref).max() <= 1e-12
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
    m, s_min = search._nearest_me_amplitudes(bad)
    reference, s_ref = svd_polar(bad)
    assert m.tobytes() == reference.tobytes() and s_min.tobytes() == s_ref.tobytes()
    for row, ref in zip(bad, reference):
        alone, _ = search._nearest_me_amplitudes(row)
        assert alone.tobytes() == ref.tobytes() == svd_polar(row)[0].tobytes()
    # the three rank-deficient rows have no unique nearest point
    for row, unique in zip(bad, [False, False, False, True]):
        state, flag = nearest_me_state(BipartiteState(d, dprime, row.reshape(-1)), True)
        assert flag == unique
        assert state.amplitudes.tobytes() == svd_polar(row)[0].tobytes()


@pytest.mark.parametrize("d, dprime", [(2, 3), (3, 5), (7, 7)])
def test_each_row_is_the_same_alone_and_in_a_mixed_stack(monkeypatch, d, dprime):
    import umebkit.search as search

    rng = np.random.default_rng([38, d, dprime])
    good = rng.normal(size=(3, d, dprime)) + 1j * rng.normal(size=(3, d, dprime))
    good /= np.linalg.norm(good, axis=(1, 2), keepdims=True)
    bad = ill_conditioned_rows(rng, d, dprime)
    mixed = np.concatenate([good[:1], bad[:2], good[1:], bad[2:]])
    svds = count_stacked(monkeypatch, "svd")
    m, s_min = search._nearest_me_amplitudes(mixed)
    assert svds == [(4, d, dprime)]  # one stacked SVD, of the four bad rows
    for row, m_row, s_row in zip(mixed, m, s_min):
        alone, s_alone = search._nearest_me_amplitudes(row)
        assert alone.tobytes() == m_row.tobytes() and s_alone == s_row
    m_good, s_good = search._nearest_me_amplitudes(good)
    assert m_good.tobytes() == m[[0, 3, 4]].tobytes()
    assert s_good.tobytes() == s_min[[0, 3, 4]].tobytes()


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


def test_search_deterministic():
    P = complement_projector(build_weyl_umeb(2, 4))
    a = max_entanglement_in_subspace(P, 2, 4, SearchConfig(restarts=4, seed=7))
    b = max_entanglement_in_subspace(P, 2, 4, SearchConfig(restarts=4, seed=7))
    assert a.best_F == b.best_F
    assert a.verdict == b.verdict
    assert np.array_equal(a.best_state.amplitudes, b.best_state.amplitudes)


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
        psi = BipartiteState(3, 4, amp / np.linalg.norm(amp))
        m = nearest_me_state(psi)
        F = abs(np.vdot(m.amplitudes, psi.amplitudes)) ** 2
        s = np.linalg.svd(psi.amplitudes.reshape(3, 4), compute_uv=False)
        assert (abs(F - 1.0) < 1e-9) == (abs(np.sqrt(3) * s[-1] - 1.0) < 1e-9)


def test_certify_routes():
    rep = certify(build_weyl_umeb(3, 4), FAST)
    assert rep.verdict == "unextendible"
    assert rep.method == "support-rank"
    assert rep.search_best_F is None

    rep = certify(build_weyl_umeb(2, 4), FAST)
    assert rep.verdict == "extendible"
    assert rep.method == "numeric-search"
    assert rep.witness is not None
    flag, _ = is_maximally_entangled(rep.witness, 1e-6)
    assert flag
    P = complement_projector(build_weyl_umeb(2, 4))
    assert np.linalg.norm((np.eye(8) - P) @ rep.witness.amplitudes) <= 1e-8
    assert rep.search_best_F is not None

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
    with pytest.raises(ContractViolationError):
        SearchConfig(witness_tol=1e-13)  # not above CONVERGENCE_TOL
    with pytest.raises(ContractViolationError):
        SearchConfig(seed=-1)
    # numpy's Philox reads these keys through a float (aliasing another
    # seed's stream) or overflows
    for seed in (2**63, 2**64):
        with pytest.raises(ContractViolationError):
            SearchConfig(seed=seed)


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


@pytest.mark.parametrize("max_iters", [1, 5])
def test_best_F_is_the_F_of_best_state_at_max_iters(max_iters):
    d, dprime, rank = 7, 7, 30
    n = d * dprime
    rng = np.random.default_rng([1, d, dprime, rank, 0])
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    result = max_entanglement_in_subspace(
        q @ q.conj().T, d, dprime, SearchConfig(max_iters=max_iters, seed=1)
    )
    assert result.iterations_used == max_iters and not result.converged
    best = result.best_state
    F = abs(np.vdot(nearest_me_state(best).amplitudes, best.amplitudes)) ** 2
    assert abs(result.best_F - F) <= 1e-12


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
    psi, F, iterations, converged, collapsed, _, _ = _ascend_batch(
        P, starts, d, dprime, 5000
    )
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
    eighs = count_stacked(monkeypatch, "eigh")
    svds = count_stacked(monkeypatch, "svd")
    runs = record_runs(monkeypatch)
    P = random_subspace_projector(np.random.default_rng(35), 24, 16)
    max_entanglement_in_subspace(P, 4, 6, SearchConfig(restarts=16, seed=3))
    iterations = runs[0][1][2]
    assert len(eighs) <= iterations.max() + 1 < iterations.sum()
    assert svds == []  # every state of this search is well conditioned


def subspace_projector(seed, d, dprime, k):
    """Projector onto a random rank-k subspace of C^d (x) C^d', drawn as the
    benchmark's search workloads draw theirs."""
    n = d * dprime
    rng = np.random.default_rng([seed, d, dprime, k, 0])
    q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    return q @ q.conj().T


def weyl_complement(d, dprime):
    return complement_projector(build_weyl_umeb(d, dprime)), d, dprime


# (3,5) k=5 sits at the threshold rank, where the first witness takes ~150
# iterations; (3,5) k=10 is a search-hard case; Weyl(2,3) has no witness.
STOP_CASES = {
    "(3,5) k=5": lambda: (subspace_projector(1, 3, 5, 5), 3, 5),
    "(3,5) k=10": lambda: (subspace_projector(1, 3, 5, 10), 3, 5),
    "weyl(2,4)": lambda: weyl_complement(2, 4),
    "weyl(2,3)": lambda: weyl_complement(2, 3),
}


@pytest.mark.parametrize("case", STOP_CASES)
def test_witness_stop_ends_the_batch_at_the_first_witness(case):
    P, d, dprime = STOP_CASES[case]()
    witness_tol = SearchConfig().witness_tol
    starts = _restart_starts(1, range(8), d * dprime) @ P.T
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    full = _ascend_batch(P, starts, d, dprime, 400)
    stopped = _ascend_batch(P, starts, d, dprime, 400, witness_tol)
    full_history, history = full[5], stopped[5]
    hits = [i for i, F in enumerate(full_history) if np.any(1.0 - F <= witness_tol)]
    assert len(history) == (hits[0] + 1 if hits else len(full_history))
    # up to the stop, the stopped run is the unstopped run, bit for bit, and
    # it ends as that run cut at max_iters there: on the states last evaluated
    assert all(a.tobytes() == b.tobytes() for a, b in zip(history, full_history))
    cut = _ascend_batch(P, starts, d, dprime, len(history))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stopped[:5], cut[:5]))
    if case == "weyl(2,3)":
        assert not hits
    else:
        assert hits and np.any(1.0 - stopped[1] <= witness_tol)


def _check_witness(state, P, witness_tol):
    """``state`` lies in range(P), is a unit vector, and has 1 - F <= witness_tol."""
    amps = state.amplitudes
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
    assert np.linalg.norm(amps - P @ amps) <= 1e-9
    s = np.linalg.svd(amps.reshape(state.d, state.dprime), compute_uv=False)
    assert 1.0 - s.sum() ** 2 / state.d <= witness_tol


@pytest.mark.parametrize("d, dprime, k", [(3, 5, 4), (3, 5, 5), (3, 5, 10), (4, 6, 16),
                                          (5, 7, 26)])
def test_first_witness_search_agrees_with_full_search(d, dprime, k):
    P = subspace_projector(1, d, dprime, k)
    config = SearchConfig(restarts=8, max_iters=2000, seed=1)
    full = max_entanglement_in_subspace(P, d, dprime, config)
    first = _search(P, d, dprime, config, first_witness=True)
    assert first.verdict == full.verdict
    assert first.iterations_used <= full.iterations_used
    assert first.best_F <= full.best_F
    if first.verdict == "found_me":
        _check_witness(first.best_state, P, config.witness_tol)
    else:
        assert first.best_F == full.best_F  # no witness: the same full run


@pytest.mark.parametrize("d, dprime", [(2, 4), (2, 5), (3, 6)])
def test_certify_stops_at_a_witness_the_full_search_confirms(monkeypatch, d, dprime):
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
    _check_witness(report.witness, P, config.witness_tol)
    assert np.abs(basis.amplitudes.conj() @ report.witness.amplitudes).max() <= 1e-9
    F = np.linalg.svd(report.witness.amplitudes.reshape(d, dprime), compute_uv=False).sum() ** 2 / d
    assert abs(report.search_best_F - F) <= 1e-12
    assert 1.0 - report.search_best_F <= config.witness_tol


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


# (3,5) k=5: no witness in the first run's 4 F evaluations, and one after
# ~150 in the second; (3,5) k=4: no witness, every row of the second run runs
# to its cap of 150 iterations (the first to converge needs 178).
@pytest.mark.parametrize("k", [5, 4])
def test_staged_rows_are_their_restarts_ascended_alone(monkeypatch, k):
    import umebkit.search as search

    d, dprime, R, max_iters = 3, 5, 24, 2000 if k == 5 else 150
    P = subspace_projector(1, d, dprime, k)
    witness_tol = SearchConfig().witness_tol
    runs = record_runs(monkeypatch)
    config = SearchConfig(restarts=R, max_iters=max_iters, seed=1)
    result = _search(P, d, dprime, config, first_witness=True)
    (first_args, first), (args, second) = runs
    # the first run: restarts 0-7, capped at FIRST_RUN_EVALS F evaluations
    starts = projected_starts(P, 1, range(R))
    assert first_args[1].tobytes() == starts[:search.FIRST_STAGE].tobytes()
    assert first_args[4] == len(first[5]) == search.FIRST_RUN_EVALS
    assert not np.any(1.0 - first[1] <= witness_tol)
    # the second: every restart from its start, with the full max_iters
    assert args[1].tobytes() == starts.tobytes() and args[4] == max_iters
    psi, F, iterations, converged, collapsed, history, _ = second
    assert not collapsed.any()
    assert min(map(len, history)) >= 2
    assert len(history) == iterations.max()
    assert (k == 5) == bool(np.any(1.0 - F <= witness_tol))
    b = int(np.argmax(F))
    assert result.best_F == F[b] and result.iterations_used == iterations[b]
    assert result.best_state.amplitudes.tobytes() == psi[b].tobytes()
    assert result.restarts_used == R
    # each row of either run is its restart ascended alone and cut where that
    # run stopped it
    for out, rows in ((first, search.FIRST_STAGE), (second, R)):
        for r in range(rows):
            alone, alone_history, alone_converged = _ascend(
                P, starts[r], d, dprime, int(out[2][r])
            )
            assert alone.tobytes() == out[0][r].tobytes() and alone_history[-1] == out[1][r]
            assert (len(alone_history), alone_converged) == (out[2][r], out[3][r])


def test_a_late_row_keeps_its_full_max_iters(monkeypatch):
    import umebkit.search as search

    d, dprime, max_iters = 3, 5, 10
    P = subspace_projector(1, d, dprime, 4)  # no row converges in 10 iterations
    runs = record_runs(monkeypatch)
    config = SearchConfig(restarts=16, max_iters=max_iters, seed=1)
    result = _search(P, d, dprime, config, first_witness=True)
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
            _search(P, 2, 4, config, first_witness=True)
        assert stack_sizes == [8, 16]
    else:
        # the first run collapses at once, so the second runs all 16 restarts:
        # 0-7 collapse again, and 8-15 find a witness
        result = _search(P, 2, 4, config, first_witness=True)
        assert result.verdict == "found_me" and result.restarts_used == 8
        assert stack_sizes == [8, 16, 8]


SWEEP_SHAPES = [(d, dp) for d in range(2, 8) for dp in range(d + 1, 25) if d * dp <= 49]


@pytest.mark.parametrize("seed", [1, 42])
def test_certify_verdicts_match_the_full_search_on_the_sweep(seed):
    config = SearchConfig(seed=seed)
    for d, dprime in SWEEP_SHAPES:
        basis = build_weyl_umeb(d, dprime)
        report = certify(basis, config)
        full = max_entanglement_in_subspace(complement_projector(basis), d, dprime, config)
        assert (report.verdict == "extendible") == (full.verdict == "found_me"), (d, dprime)
        assert (report.verdict == "extendible") == (2 * d <= dprime), (d, dprime)


@pytest.mark.parametrize("seed", [1, 42])
def test_certify_of_an_extendible_sweep_shape_is_one_run_of_two_evaluations(monkeypatch, seed):
    # the traffic the staging is for: restarts 0-7 meet the witness tolerance
    # at their second F evaluation, and restarts 8-63 are never drawn
    runs = record_runs(monkeypatch)
    for d, dprime in SWEEP_SHAPES:
        if 2 * d > dprime:
            continue
        runs.clear()
        report = certify(build_weyl_umeb(d, dprime), SearchConfig(seed=seed))
        assert [len(out[5]) for _, out in runs] == [2], (d, dprime)
        assert report.verdict == "extendible" and report.restarts_used == 8, (d, dprime)


def test_fruitless_first_witness_search_keeps_the_full_best_F():
    P = subspace_projector(1, 3, 5, 4)
    config = SearchConfig(seed=1)  # 64 restarts: two runs
    first = _search(P, 3, 5, config, first_witness=True)
    full = max_entanglement_in_subspace(P, 3, 5, config)
    assert first.verdict == full.verdict == "none_found"
    assert first.best_F == full.best_F
    assert first.best_state.amplitudes.tobytes() == full.best_state.amplitudes.tobytes()


def test_certify_never_parks_or_polishes(monkeypatch):
    import umebkit.search as search

    def refuse(*args):
        raise AssertionError("certify called the polish stage")

    monkeypatch.setattr(search, "_polish", refuse)
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
    assert result.restarts_polished == 64
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

    def reject_all(P, x, F, d, dprime):
        polished.append(len(x))
        return x, F, np.zeros(len(x), dtype=bool)

    monkeypatch.setattr(search, "_polish", reject_all)
    parked = _ascend_batch(P, starts, d, dprime, 2000,
                           park_tol=SearchConfig().witness_tol)
    assert len(polished) == 1 and 0 < polished[0] <= 16
    assert not parked[6].any() and not unparked[6].any()
    for a, b in zip(parked[:5], unparked[:5]):
        assert a.tobytes() == b.tobytes()


def test_polish_accepts_exact_rows_as_they_are_and_never_lowers_F(monkeypatch):
    import umebkit.search as search

    P24, _, _ = weyl_complement(2, 4)
    exact = _ascend_batch(P24, projected_starts(P24, 1, range(8)), 2, 4, 2)[0]
    P = subspace_projector(1, 3, 5, 10)
    rough = _ascend_batch(P, projected_starts(P, 1, range(8)), 3, 5, 12)[0]
    real_eigh, eighs = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # F = 1 to rounding after two F evaluations: no frame, no evaluation
    F = np.full(8, 0.5)
    x, F_out, ok = search._polish(P24, exact, F, 2, 4)
    assert ok.all() and x is exact and F_out is F and eighs == []
    # rows away from the maximally entangled set take the frame of range(P)
    # and are polished, but only where that does not lower F
    x, F_out, ok = search._polish(P, rough, np.full(8, 0.5), 3, 5)
    assert ok.all() and eighs[0] == (15, 15)
    assert max(me_residual(row, 3, 5) for row in x) <= search.POLISH_TOL
    assert np.abs(F_out - 1.0).max() <= 1e-12
    x, F_out, ok = search._polish(P, rough, np.full(8, 2.0), 3, 5)
    assert not ok.any()
    assert x.tobytes() == rough.tobytes() and F_out.tolist() == [2.0] * 8


def test_a_search_whose_parked_rows_all_fail_the_polish(monkeypatch):
    import umebkit.search as search

    # near (3,4)'s threshold rank no state of the subspace is maximally
    # entangled: rows park within a loose witness tolerance, the polish
    # stalls on every one, and they all ascend on as if never parked
    P = subspace_projector(1, 3, 4, 5)
    config = SearchConfig(restarts=8, witness_tol=1e-3, seed=1)
    parked = []
    real_polish = search._polish

    def recording_polish(P, x, F, d, dprime):
        out = real_polish(P, x, F, d, dprime)
        parked.append((len(x), int(out[2].sum())))
        return out

    monkeypatch.setattr(search, "_polish", recording_polish)
    result = max_entanglement_in_subspace(P, 3, 4, config)
    assert len(parked) == 1 and parked[0][0] >= 1 and parked[0][1] == 0
    assert result.verdict == "found_me" and result.restarts_polished == 0
    starts = projected_starts(P, 1, range(8))
    psi, F = _ascend_batch(P, starts, 3, 4, config.max_iters)[:2]
    b = int(np.argmax(F))
    assert result.best_F == F[b]
    assert result.best_state.amplitudes.tobytes() == psi[b].tobytes()


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
    assert result.restarts_polished == 64
    assert peak < 1.5 * 2**20
