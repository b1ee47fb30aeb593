import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_no_child_left, exclusion_frequency, random_unit_mempool
from conftest import set_usable_cpus as _set_usable_cpus

from txpack import (
    GameParams,
    Mempool,
    ValidationError,
    fixed_block_size,
    greedy_profile,
    run_experiment,
    solve_equilibrium,
)
from txpack import simulate
from txpack.simulate import (
    STRATEGY_NAMES,
    _block_source,
    _chunk_outcomes,
    _seed_stream,
    _trial_outcomes,
    _trial_states,
)


def _trial_rng(seed, strategy_index, trial):
    """Trial ``trial``'s stream as the simulator defines it, built the slow way."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(strategy_index, trial)))


def _chunk(mempool, name, params, gammas, seed):
    """``_chunk_outcomes`` of trials facing ``gammas`` rivals, and their blocks as positions."""
    draw, select = _block_source(name, mempool, params, fixed_block_size(mempool, params))
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
    source = _block_source(name, mempool, params, k)
    return _trial_outcomes([source], k, mempool.prices * mempool.sizes, lam, seed, trials)[0]


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
    draw, select = source
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
    want = _reference_trial_outcomes(_block_source(name, mempool, params, 20), mempool, 2.5, 5, 300)
    np.testing.assert_array_equal(got[1:3], want[1:3])
    np.testing.assert_allclose(got[[0, 3]], want[[0, 3]], rtol=1e-13, atol=0)


# 1, 1, 2, 3, 4, 5 and 6 entropy words.
_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 1, 2**96 + 5, 2**128, 2**160 + 7)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SEEDS) | st.integers(0, 2**192 - 1), st.integers(0, 2),
       st.integers(1, 3000), st.data())
def test_trial_states_match_seed_sequence(seed, s, trials, data):
    states = _trial_states(seed, s, trials)
    assert states.shape == (trials, 4) and states.dtype == np.uint64
    for t in {0, data.draw(st.integers(0, trials - 1)), trials - 1}:
        want = np.random.SeedSequence(seed, spawn_key=(s, t)).generate_state(4, np.uint64)
        assert np.array_equal(states[t], want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SEEDS), st.integers(0, 2), st.integers(0, 99),
       st.floats(0.0, 50.0), st.integers(1, 40), st.integers(1, 40))
def test_seeded_stream_draws_like_default_rng(seed, s, t, lam, n, m):
    rng = np.random.default_rng(12345)
    rng.random(3)  # a used Generator, with a 32-bit half buffered
    rng.integers(0, 2**32, dtype=np.uint32)
    _seed_stream(rng, _trial_states(seed, s, t + 1)[t].tolist())
    want = _trial_rng(seed, s, t)
    assert rng.bit_generator.state == want.bit_generator.state
    assert rng.poisson(lam) == want.poisson(lam)
    assert np.array_equal(rng.random(n), want.random(n))
    assert np.array_equal(rng.random((n, m)), want.random((n, m)))
    assert rng.bit_generator.state == want.bit_generator.state


def test_no_seed_sequence_per_trial(monkeypatch, golden_mempool):
    # The chunks run here, so their constructions are counted too.
    _set_usable_cpus(monkeypatch, 1)
    made = []
    for name in ("SeedSequence", "PCG64", "default_rng"):
        real = getattr(np.random, name)
        counted = lambda *a, _real=real, _name=name, **kw: made.append(_name) or _real(*a, **kw)
        monkeypatch.setattr(np.random, name, counted)
    counts = []
    for trials in (10, 1000):
        simulate._generator.cache_clear()
        made.clear()
        run_experiment(config(golden_mempool, trials=trials, strategies=list(STRATEGY_NAMES)))
        counts.append(len(made))
    assert counts[0] == counts[1] <= 1


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "5", np.float64(3.0), np.int64(-4)])
def test_bad_seed_rejected(golden_mempool, seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        run_experiment(config(golden_mempool, seed=seed))


@pytest.mark.parametrize("seed", [np.int64(9), np.uint64(9)])
def test_numpy_integer_seed_accepted(golden_mempool, seed):
    a = run_experiment(config(golden_mempool, trials=50, seed=seed))
    b = run_experiment(config(golden_mempool, trials=50, seed=9))
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert type(a[0].seed) is int


def test_too_many_trials_rejected(monkeypatch, golden_mempool):
    monkeypatch.setattr(simulate, "_trial_states", None)  # refused before any state is computed
    with pytest.raises(ValidationError, match="trials must be at most 2\\*\\*32"):
        run_experiment(config(golden_mempool, trials=2**32 + 1))


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


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_pool_matches_serial(monkeypatch):
    # Many chunks per strategy, so that both workers take several. With one
    # usable CPU every chunk runs in this process; with two, none does.
    mempool = _shuffled_mempool(300)
    params = GameParams(k=30, lam=2.5)
    sources = [_block_source(name, mempool, params, 30) for name in STRATEGY_NAMES]
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
            outcomes = _trial_outcomes(sources, 30, mempool.prices, 2.5, 7, 400)
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
    source = _block_source("greedy", golden_mempool, golden_params, 3)
    with pytest.raises(ValueError, match="chunk"):
        _trial_outcomes([source, source], 3, golden_mempool.prices, 1.0, 7, 10)
    assert_no_child_left()


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


def test_cli_import_leaves_out_multiprocessing(golden_mempool_file):
    # Nor does loading a mempool below the forked reader's floor, such as the golden one,
    # nor a forked load, nor a forked simulation, whose workers run every chunk.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = textwrap.dedent("""
        import os, sys, txpack.cli, txpack.mempool
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        os.sched_getaffinity = lambda pid: {0, 1}
        print("multiprocessing" in sys.modules)
        mempool = txpack.cli.load_mempool_file(sys.argv[1])
        print("multiprocessing" in sys.modules, len(forks))
        txpack.mempool._FORK_BYTES, txpack.mempool._SLICE_BYTES = 0, 1
        assert txpack.cli.load_mempool_file(sys.argv[1]).ids.tolist() == mempool.ids.tolist()
        print("multiprocessing" in sys.modules, len(forks))
        random = "numpy.random" in sys.modules
        txpack.cli.run_experiment({"mempool": mempool, "lambda": 1.0, "k": 3, "trials": 500,
                                   "seed": 7, "strategies": ["equilibrium", "greedy"]})
        print("multiprocessing" in sys.modules, len(forks), not random and "numpy.random" in sys.modules)
    """)
    run = subprocess.run(
        [sys.executable, "-c", code, str(golden_mempool_file)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    # The parent only collects, so it never imports numpy.random, unless numpy 1.x did on import.
    assert run.stdout.split() == ["False", "False", "0", "False", "2", "False", "4", "False"]
