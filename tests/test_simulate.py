import numpy as np
import pytest
from conftest import random_unit_mempool

from txpack import (
    GameParams,
    Mempool,
    Transaction,
    ValidationError,
    greedy_profile,
    measure_exclusion_frequency,
    run_experiment,
    simulate_round,
    solve_equilibrium,
)
from txpack import simulate
from txpack.simulate import STRATEGY_NAMES, _block_source, _trial_outcomes, _trial_rng


def test_zero_lambda_empty_round(golden_mempool):
    params = GameParams(k=3, lam=0.0)
    profile = greedy_profile(golden_mempool, params)
    outcome = simulate_round(golden_mempool, profile, params, np.random.default_rng(0))
    assert outcome.gamma == 0
    assert outcome.blocks == []
    assert outcome.per_block_exclusive_revenue == []
    assert outcome.unique_tx_count == 0
    assert outcome.chain_revenue == 0.0


def test_forced_collision(golden_mempool, golden_params):
    # a deterministic strategy duplicates its whole block: zero exclusive
    # revenue for both miners, every included transaction duplicated
    greedy = greedy_profile(golden_mempool, golden_params)
    outcome = simulate_round(golden_mempool, greedy, golden_params, np.random.default_rng(1), gamma=2)
    assert outcome.gamma == 2
    assert outcome.blocks[0].txids == outcome.blocks[1].txids
    assert outcome.per_block_exclusive_revenue == [0.0, 0.0]
    assert outcome.duplicated_tx_count == 3
    assert outcome.unique_tx_count == 3
    assert outcome.wasted_capacity == pytest.approx(3.0)


def test_appearance_accounting(golden_mempool, golden_params):
    profile = solve_equilibrium(golden_mempool, golden_params)
    rng = np.random.default_rng(2)
    for _ in range(50):
        outcome = simulate_round(golden_mempool, profile, golden_params, rng)
        appearances = sum(len(b.txids) for b in outcome.blocks)
        duplicates = appearances - outcome.unique_tx_count
        assert duplicates >= 0
        assert outcome.duplicated_tx_count <= duplicates


def test_revenue_conservation(golden_mempool, golden_params):
    profile = solve_equilibrium(golden_mempool, golden_params)
    rng = np.random.default_rng(3)
    for _ in range(100):
        outcome = simulate_round(golden_mempool, profile, golden_params, rng)
        assert sum(outcome.per_block_exclusive_revenue) <= outcome.chain_revenue + 1e-12


def test_round_refuses_sized_mempool():
    # as in run_experiment: a k-transaction block of this mempool can overflow capacity k
    mp = Mempool([Transaction(i, v, s) for i, (v, s) in
                  enumerate(zip([5.0, 4.0, 3.0, 2.0, 1.0], [1.5, 0.5, 1.0, 2.0, 0.7]))])
    params = GameParams(k=3, lam=1.0)
    with pytest.raises(ValidationError, match="fixed mode"):
        simulate_round(mp, greedy_profile(mp, params), params, np.random.default_rng(0), gamma=1)


def test_exclusion_frequency_tracks_closed_form(golden_mempool, golden_params):
    profile = solve_equilibrium(golden_mempool, golden_params)
    trials = 20_000
    for txid in (1, 2, 7):  # interior, p = 1, and p = 0
        p = profile.probability(txid)
        freq = measure_exclusion_frequency(profile, txid, golden_params, trials, seed=4)
        target = np.exp(-golden_params.lam * p)
        se = np.sqrt(max(target * (1 - target), 1e-12) / trials)
        assert abs(freq - target) <= 4 * se + 1e-9


def test_exclusion_frequency_rejects_unknown_txid(golden_mempool, golden_params):
    # an id outside the profile is never in a block; that is no exclusion frequency
    profile = solve_equilibrium(golden_mempool, golden_params)
    with pytest.raises(ValidationError, match="999 is not in the profile"):
        measure_exclusion_frequency(profile, 999, golden_params, 100)


def config(mempool, **over):
    base = {
        "mempool": mempool,
        "lambda": 1.0,
        "k": 3,
        "trials": 500,
        "seed": 7,
        "strategies": ["equilibrium", "greedy"],
    }
    base.update(over)
    return base


def test_experiment_reports(golden_mempool):
    reports = run_experiment(config(golden_mempool))
    assert [r.strategy for r in reports] == ["equilibrium", "greedy"]
    for r in reports:
        assert r.trials == 500
        assert r.stderr_exclusive_revenue > 0


def test_experiment_deterministic(golden_mempool):
    a = run_experiment(config(golden_mempool))
    b = run_experiment(config(golden_mempool))
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def _outcomes(mempool, name, lam, seed, trials, k=3):
    params = GameParams(k=k, lam=lam)
    source = _block_source(name, mempool, params)
    return _trial_outcomes(source, mempool.prices * mempool.sizes, lam, seed, 0, trials)


def test_trial_prefix_stable(golden_mempool):
    # growing the trial count must not perturb the substreams already drawn:
    # each of the first 200 trials of a 500-trial run has the same outcome
    # as in a 200-trial run, though the two runs chunk their trials differently
    long = _outcomes(golden_mempool, "equilibrium", 1.0, 7, 500)
    short = _outcomes(golden_mempool, "equilibrium", 1.0, 7, 200)
    assert np.array_equal(long[:, :200], short)


def _shuffled_mempool(m):
    base = random_unit_mempool(np.random.default_rng(11), m)
    ids = np.random.default_rng(12).permutation(m) + 100  # positions differ from id order
    return Mempool.from_arrays(ids, base.prices)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_chunk_height_invariance(monkeypatch, name):
    # lambda = 0.5 gives trials with no competitor; k = 30 makes the row sums pairwise
    mempool = _shuffled_mempool(300)
    default = _outcomes(mempool, name, 0.5, 3, 400, k=30)
    monkeypatch.setattr(simulate, "_CHUNK_BYTES", 1)  # one trial per chunk
    single = _outcomes(mempool, name, 0.5, 3, 400, k=30)
    assert np.array_equal(default, single)
    assert (default[2] == 0).any() and (default[2] > 0).any()


def _reference_trial_outcomes(source, mempool, lam, seed, trials):
    """The per-trial loop the chunked kernel replaced, kept as its reference."""
    fees = mempool.prices * mempool.sizes
    out = np.zeros((4, trials))
    for t in range(trials):
        rng = _trial_rng(seed, 0, t)
        gamma = int(rng.poisson(lam))
        draws = mempool.ids[source.positions(source.tokens(rng, gamma + 1))]
        focal, flat = draws[0], draws[1:].ravel()
        out[0, t] = fees[mempool.positions(focal[~np.isin(focal, flat)])].sum()
        if gamma:
            uniq, counts = np.unique(flat, return_counts=True)
            out[1, t] = (counts - 1).sum() / flat.size
            out[2, t] = len(uniq)
            out[3, t] = fees[mempool.positions(uniq)].sum()
    return out


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_kernel_matches_per_trial_loop(name):
    # the kernel sums revenue in another order, so floats agree to a few ulps
    mempool = _shuffled_mempool(120)
    params = GameParams(k=20, lam=2.5)
    got = _outcomes(mempool, name, 2.5, 5, 300, k=20)
    want = _reference_trial_outcomes(_block_source(name, mempool, params), mempool, 2.5, 5, 300)
    np.testing.assert_array_equal(got[1:3], want[1:3])
    np.testing.assert_allclose(got[[0, 3]], want[[0, 3]], rtol=1e-13, atol=0)


def _reference_round_metrics(mempool, block_ids):
    """The dict-based round accounting simulate_round replaced, kept as its reference."""
    fee_of = dict(zip(mempool.ids.tolist(), (mempool.prices * mempool.sizes).tolist()))
    size_of = dict(zip(mempool.ids.tolist(), mempool.sizes.tolist()))
    uniq, counts = np.unique(block_ids.ravel(), return_counts=True)
    count_of = dict(zip(uniq.tolist(), counts.tolist()))
    per_block = [sum(fee_of[t] for t in row.tolist() if count_of[t] == 1) for row in block_ids]
    wasted = sum(size_of[t] * (c - 1) for t, c in count_of.items() if c > 1)
    used = [sum(size_of[t] for t in row.tolist()) for row in block_ids]
    chain = sum(fee_of[t] for t in uniq.tolist())
    return per_block, int(np.sum(counts >= 2)), len(uniq), wasted, chain, used


def test_round_matches_dict_accounting():
    mempool = _shuffled_mempool(40)
    params = GameParams(k=6, lam=3.0)
    profile = solve_equilibrium(mempool, params)
    rng = np.random.default_rng(8)
    for _ in range(60):
        out = simulate_round(mempool, profile, params, rng)
        for b in out.blocks:
            assert b.ids.dtype == np.int64 and np.all(np.diff(b.ids) > 0)
            assert b.txids == frozenset(b.ids.tolist())
        block_ids = np.array([sorted(b.txids) for b in out.blocks], dtype=np.int64).reshape(-1, 6)
        per_block, dup, uniq, wasted, chain, used = _reference_round_metrics(mempool, block_ids)
        assert out.per_block_exclusive_revenue == pytest.approx(per_block, rel=1e-13)
        assert (out.duplicated_tx_count, out.unique_tx_count) == (dup, uniq)
        assert out.wasted_capacity == pytest.approx(wasted, rel=1e-13)
        assert out.chain_revenue == pytest.approx(chain, rel=1e-13)
        assert [b.used_capacity for b in out.blocks] == pytest.approx(used, rel=1e-13)


def test_zero_trials_rejected(golden_mempool):
    with pytest.raises(ValidationError, match="trials"):
        run_experiment(config(golden_mempool, trials=0))


def test_unknown_strategy_rejected(golden_mempool):
    with pytest.raises(ValidationError, match="unknown strategy"):
        run_experiment(config(golden_mempool, strategies=["alpha-beta"]))


def test_throughput_ordering(golden_mempool):
    reports = run_experiment(config(golden_mempool, trials=3000, **{"lambda": 1.5}))
    by_name = {r.strategy: r for r in reports}
    assert by_name["equilibrium"].mean_unique_tx > by_name["greedy"].mean_unique_tx


def test_uniform_strategy_runs(golden_mempool):
    (report,) = run_experiment(config(golden_mempool, trials=300, strategies=["uniform-random-k"]))
    assert report.mean_exclusive_revenue > 0
