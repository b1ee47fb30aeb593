import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import exclusion_frequency, random_unit_mempool

from txpack import (
    GameParams,
    Mempool,
    ValidationError,
    greedy_profile,
    run_experiment,
    solve_equilibrium,
)
from txpack import simulate
from txpack.simulate import (
    STRATEGY_NAMES,
    _block_source,
    _chunk_outcomes,
    _trial_outcomes,
    _trial_rng,
)


def _chunk(mempool, name, params, gammas, seed):
    """``_chunk_outcomes`` of trials facing ``gammas`` rivals, and their blocks as positions."""
    _, draw, select = _block_source(name, mempool, params)
    pos = select(draw(np.random.default_rng(seed), int(gammas.sum()) + len(gammas)))
    return _chunk_outcomes(pos, gammas, mempool.prices * mempool.sizes), pos


def test_zero_lambda_empty_round(golden_mempool):
    # no rival blocks: nothing is duplicated or counted on chain, and the
    # focal greedy block keeps all of its fees
    (report,) = run_experiment(config(golden_mempool, strategies=["greedy"], **{"lambda": 0.0}))
    assert report.mean_duplication_rate == 0.0
    assert report.mean_unique_tx == 0.0
    assert report.mean_chain_revenue == 0.0
    greedy = greedy_profile(golden_mempool, GameParams(k=3, lam=0.0))
    top = float(greedy.values @ golden_mempool.prices)
    assert report.mean_exclusive_revenue == pytest.approx(top, rel=1e-12)


def test_forced_collision(golden_mempool, golden_params):
    # a deterministic strategy duplicates its whole block: the focal greedy
    # block earns nothing exclusively once one greedy rival appears
    gammas = np.array([1, 2, 4])
    (revenue, dup_rate, unique, chain), pos = _chunk(golden_mempool, "greedy", golden_params, gammas, 1)
    assert (pos == pos[0]).all()
    assert revenue.tolist() == [0.0, 0.0, 0.0]
    assert unique.tolist() == [3, 3, 3]
    assert dup_rate == pytest.approx([0.0, 1 / 2, 3 / 4])
    top = (golden_mempool.prices * golden_mempool.sizes)[pos[0]].sum()
    assert chain == pytest.approx([top] * 3, rel=1e-12)


def test_appearance_accounting(golden_mempool, golden_params):
    # gamma rival blocks of k distinct transactions each make gamma*k
    # appearances, of which `unique` are first appearances
    gammas = np.random.default_rng(2).poisson(golden_params.lam, 200)
    (_, dup_rate, unique, _), _ = _chunk(golden_mempool, "equilibrium", golden_params, gammas, 2)
    appearances = 3 * gammas
    assert np.all(unique <= np.minimum(appearances, len(golden_mempool)))
    assert np.all(unique >= np.minimum(appearances, 3))
    assert np.all((dup_rate >= 0.0) & (dup_rate < 1.0))
    np.testing.assert_allclose(dup_rate * np.maximum(appearances, 1), appearances - unique, atol=1e-12)


def test_revenue_conservation(golden_mempool, golden_params):
    # exclusive revenue is paid out of the focal block's fees, all of them
    # when no rival appears
    gammas = np.random.default_rng(3).poisson(golden_params.lam, 300)
    (revenue, *_), pos = _chunk(golden_mempool, "equilibrium", golden_params, gammas, 3)
    focal_fees = (golden_mempool.prices * golden_mempool.sizes)[pos[np.cumsum(gammas + 1) - gammas - 1]]
    assert np.all(revenue <= focal_fees.sum(axis=1) + 1e-12)
    assert np.array_equal(revenue[gammas == 0], focal_fees[gammas == 0].sum(axis=1))
    assert (gammas == 0).any() and (revenue < focal_fees.sum(axis=1)).any()


def test_round_refuses_sized_mempool():
    # a k-transaction block of this mempool can overflow capacity k
    mp = Mempool.from_arrays(range(5), [5.0, 4.0, 3.0, 2.0, 1.0], [1.5, 0.5, 1.0, 2.0, 0.7])
    with pytest.raises(ValidationError, match="fixed mode"):
        run_experiment(config(mp, strategies=["greedy"]))


def test_exclusion_frequency_tracks_closed_form(golden_mempool, golden_params):
    profile = solve_equilibrium(golden_mempool, golden_params)
    trials = 20_000
    for txid in (1, 2, 7):  # interior, p = 1, and p = 0
        p = profile.as_dict()[txid]
        freq = exclusion_frequency(golden_mempool, profile, txid, golden_params, trials, seed=4)
        target = np.exp(-golden_params.lam * p)
        se = np.sqrt(max(target * (1 - target), 1e-12) / trials)
        assert abs(freq - target) <= 4 * se + 1e-9


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
    return _trial_outcomes([source], mempool.prices * mempool.sizes, lam, seed, trials)[0]


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
    _, draw, select = source
    fees = mempool.prices * mempool.sizes
    out = np.zeros((4, trials))
    for t in range(trials):
        rng = _trial_rng(seed, 0, t)
        gamma = int(rng.poisson(lam))
        draws = mempool.ids[select(draw(rng, gamma + 1))]
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


def test_zero_trials_rejected(golden_mempool):
    with pytest.raises(ValidationError, match="trials"):
        run_experiment(config(golden_mempool, trials=0))


@pytest.mark.parametrize("trials", [5.7, 5.0, True, "5"])
def test_non_integer_trials_rejected(golden_mempool, trials):
    with pytest.raises(ValidationError, match="trials must be an integer"):
        run_experiment(config(golden_mempool, trials=trials))


def test_numpy_integer_trials_accepted(golden_mempool):
    a = run_experiment(config(golden_mempool, trials=np.int64(50)))
    b = run_experiment(config(golden_mempool, trials=50))
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_empty_mempool_rejected(monkeypatch, name):
    def no_source(*args):
        raise AssertionError("a strategy ran on an empty mempool")

    monkeypatch.setattr(simulate, "_block_source", no_source)
    empty = Mempool.from_arrays(np.array([], dtype=np.int64), np.array([]))
    with pytest.raises(ValidationError, match="empty mempool"):
        run_experiment(config(empty, strategies=[name]))


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


def _set_usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_pool_matches_serial(monkeypatch):
    # Many chunks per strategy, so that both workers take several. With one
    # usable CPU every chunk runs in this process; with two, none does.
    mempool = _shuffled_mempool(300)
    params = GameParams(k=30, lam=2.5)
    sources = [_block_source(name, mempool, params) for name in STRATEGY_NAMES]
    cfg = config(mempool, k=30, trials=400, strategies=list(STRATEGY_NAMES), **{"lambda": 2.5})
    monkeypatch.setattr(simulate, "_CHUNK_BYTES", 1 << 14)
    here = []
    real = simulate._chunk_trials
    monkeypatch.setattr(simulate, "_chunk_trials", lambda *a: here.append(a[1]) or real(*a))
    got = {}
    for cpus in (1, 2):
        _set_usable_cpus(monkeypatch, cpus)
        here.clear()
        # CPython clears its fork-with-threads DeprecationWarning even under an
        # "error" filter, so it is recorded here and checked.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DeprecationWarning)
            outcomes = _trial_outcomes(sources, mempool.prices, 2.5, 7, 400)
            reports = [r.to_json_dict() for r in run_experiment(cfg)]
        assert [str(w.message) for w in caught if w.category is DeprecationWarning] == []
        got[cpus] = outcomes, reports, len(here)
    assert got[1][2] >= 2 * len(STRATEGY_NAMES) * 10  # ten or more chunks per strategy per call
    assert got[2][2] == 0
    for serial, pooled in zip(got[1][0], got[2][0]):
        assert pooled.shape == (4, 400)
        assert np.array_equal(serial, pooled)
    assert got[1][1] == got[2][1]


def test_worker_error_leaves_no_worker(monkeypatch, golden_mempool, golden_params):
    def fail(state, task):
        raise ValueError(f"chunk {task} failed")

    _set_usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(simulate, "_chunk_trials", fail)
    source = _block_source("greedy", golden_mempool, golden_params)
    with pytest.raises(ValueError, match="chunk"):
        _trial_outcomes([source, source], golden_mempool.prices, 1.0, 7, 10)
    assert multiprocessing.active_children() == []


def _reports_in_this_process():
    cfg = config(_shuffled_mempool(200), k=20, trials=300, strategies=list(STRATEGY_NAMES))
    return [r.to_json_dict() for r in run_experiment(cfg)]


def test_runs_inside_daemonic_worker(monkeypatch):
    # Pool workers are daemonic and may not have children: there the chunks
    # run serially, with the same reports.
    _set_usable_cpus(monkeypatch, 2)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        inside = pool.apply_async(_reports_in_this_process).get(timeout=120)
    finally:
        pool.terminate()
        pool.join()
    assert inside == _reports_in_this_process()


def test_cli_import_leaves_out_multiprocessing():
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", "import sys, txpack.cli; print('multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
