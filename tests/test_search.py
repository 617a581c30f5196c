import numpy as np
import pytest

from umebkit import ContractViolationError
from umebkit.bases import build_weyl_umeb, complement_projector
from umebkit.search import (
    SearchConfig,
    _ascend,
    _ascend_batch,
    _restart_starts,
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
        out = _ascend(P, psi0, 3, 4, 200, 1e-12)
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
    with pytest.raises(ContractViolationError):
        SearchConfig(witness_tol=1e-13)  # not above convergence_tol
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
    starts = _restart_starts(seed, restarts, n)
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
    psi, F, iterations, converged, collapsed, _ = _ascend_batch(
        P, starts, d, dprime, 5000, 1e-12
    )
    for r in range(16):
        out = _ascend(P, starts[r], d, dprime, 5000, 1e-12)
        assert (out is None) == collapsed[r]
        if out is not None:
            _, history, single_converged = out
            assert abs(history[-1] - F[r]) <= 1e-10
            assert single_converged == converged[r]
    # the first row to converge keeps its state and F while the others advance
    r = int(np.argmin(np.where(converged, iterations, np.iinfo(int).max)))
    k = int(iterations[r])
    assert k < iterations.max()
    psi_k, F_k = _ascend_batch(P, starts, d, dprime, k, 1e-12)[:2]
    assert np.array_equal(psi_k[r], psi[r]) and F_k[r] == F[r]


def test_best_state_owns_its_amplitudes():
    # a view into the batch would keep every restart's state alive
    P = complement_projector(build_weyl_umeb(2, 4))
    amplitudes = max_entanglement_in_subspace(P, 2, 4, FAST).best_state.amplitudes
    root = amplitudes
    while root.base is not None:
        root = root.base
    assert root.nbytes == amplitudes.nbytes


def test_search_takes_one_stacked_svd_per_iteration(monkeypatch):
    import umebkit.search as search

    real_svd, real_batch = np.linalg.svd, search._ascend_batch
    svd_calls, iterations = [], []

    def counting_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    def recording_batch(*args):
        out = real_batch(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(search, "_ascend_batch", recording_batch)
    P = random_subspace_projector(np.random.default_rng(35), 24, 16)
    max_entanglement_in_subspace(P, 4, 6, SearchConfig(restarts=16, seed=3))
    assert len(svd_calls) <= iterations[0].max() + 1 < iterations[0].sum()
