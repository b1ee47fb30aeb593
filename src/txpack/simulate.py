"""Monte-Carlo simulation of the two-period packaging game.

Each round draws a Poisson(lambda) number of blocks i.i.d. from a strategy
and accounts for revenue two ways: the per-miner *exclusive* metric pays a
fee only when exactly one block holds the transaction (matching the game's
utility definition), while the chain-level throughput metric counts each
included transaction once regardless of duplication.

All randomness flows through per-trial substreams derived from the master
seed via numpy's SeedSequence spawn keys, so reports are reproducible and
earlier trials are unaffected by the trial count. ``run_experiment`` makes
each trial's draws from its own substream, then selects and accounts for
a whole chunk of trials with a few array operations; a chunk holds about
``_CHUNK_BYTES``, and its height changes no trial's outcome. The chunks of
all strategies run in forked worker processes, one per usable CPU; they
run in this process when there is one usable CPU or one chunk, when the
platform cannot fork, or when this process is a daemonic worker itself.
Each trial is reduced within its own row and the reports are computed
from the outcomes in trial order, so the output does not depend on the
CPU count.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import ValidationError
from .mempool import GameParams, Mempool, fixed_block_size
from .strategy import SegmentSampler
from .verify import greedy_profile

STRATEGY_NAMES = ("equilibrium", "greedy", "uniform-random-k")
_CHUNK_BYTES = 1 << 18  # block positions and per-position flags held per chunk of trials


@dataclass(frozen=True)
class ExperimentReport:
    strategy: str
    trials: int
    seed: int
    mean_exclusive_revenue: float
    stderr_exclusive_revenue: float
    mean_duplication_rate: float
    mean_unique_tx: float
    mean_chain_revenue: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _block_source(name: str, mempool: Mempool, params: GameParams) -> tuple:
    """(k, draw, select): a strategy's fixed-mode blocks of k transactions, in two steps.

    ``draw(rng, n)`` takes from a trial's stream the least each of n blocks
    needs: one probe for a profile's segment sampler, a k-subset of
    positions for a uniform block. ``select`` turns the draws of a chunk of
    trials into an (n, k) mempool-position matrix.
    """
    k = fixed_block_size(mempool, params)
    if name == "uniform-random-k":
        m = len(mempool)

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            # Selecting at once keeps k positions, not m keys, per block.
            return np.argpartition(rng.random((n, m)), k - 1, axis=1)[:, :k]

        return k, draw, lambda chosen: chosen
    if name == "equilibrium":
        profile = solve_equilibrium(mempool, params)
    elif name == "greedy":
        profile = greedy_profile(mempool, params)
    else:
        raise ValidationError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    # Both profiles list mempool.ids in order: segments labelled by position need no id lookup.
    sampler = SegmentSampler(replace(profile, ids=np.arange(len(mempool))), k)
    return k, lambda rng, n: rng.random(n), sampler.select_many


def _trial_rng(seed: int, strategy_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(strategy_index, trial)))


def _chunk_outcomes(pos: np.ndarray, gammas: np.ndarray, fees: np.ndarray) -> np.ndarray:
    """(4, n) exclusive revenue, duplication rate, unique count, chain revenue of n trials.

    ``pos`` holds each trial's gamma + 1 blocks as mempool positions, its
    focal block first; the last three figures count the competitors only.
    Every figure is reduced within its own trial's row, so it does not
    depend on the other trials in the chunk.
    """
    n, m, k = len(gammas), len(fees), pos.shape[1]
    focal_row = np.cumsum(gammas + 1) - (gammas + 1)
    competitor = np.ones(len(pos), dtype=bool)
    competitor[focal_row] = False
    base = np.arange(n) * m
    seen = np.zeros(n * m, dtype=bool)
    seen[(np.repeat(base, gammas)[:, None] + pos[competitor]).ravel()] = True
    focal = pos[focal_row]
    taken = seen[base[:, None] + focal]
    seen = seen.reshape(n, m)
    unique = np.count_nonzero(seen, axis=1)
    appearances = gammas * k
    return np.stack([
        np.where(taken, 0.0, fees[focal]).sum(axis=1),
        (appearances - unique) / np.maximum(appearances, 1),
        unique,
        (seen * fees).sum(axis=1),
    ])


def _chunk_trials(state: tuple, task: tuple) -> np.ndarray:
    """(4, stop - start) outcomes (see ``_chunk_outcomes``) of one task's trials.

    ``state`` is (sources, fees, lam, seed), each source ``_block_source``'s
    (k, draw, select); ``task`` is (s, start, stop). Trial t of source s
    draws gamma ~ Poisson(lam), then gamma + 1 blocks, from its own
    substream; the chunk's blocks are then selected and accounted for
    together.
    """
    sources, fees, lam, seed = state
    s_idx, start, stop = task
    _, draw, select = sources[s_idx]
    gammas = np.empty(stop - start, dtype=np.int64)
    draws = []
    for i, t in enumerate(range(start, stop)):
        rng = _trial_rng(seed, s_idx, t)
        gammas[i] = rng.poisson(lam)
        draws.append(draw(rng, int(gammas[i]) + 1))
    return _chunk_outcomes(select(np.concatenate(draws)), gammas, fees)


_forked_state = None  # set by _adopt, in pool workers only


def _adopt(state: tuple):
    global _forked_state
    _forked_state = state


def _forked_chunk(task: tuple) -> np.ndarray:
    return _chunk_trials(_forked_state, task)


def _trial_outcomes(sources: list, fees: np.ndarray, lam: float, seed: int, trials: int) -> list:
    """Each source's (4, trials) per-trial outcomes (see ``_chunk_outcomes``).

    A source's trials are split into chunks of about ``_CHUNK_BYTES`` of
    flags and positions, and the (source, chunk) tasks run in forked
    workers, one per usable CPU and at most one per task. Workers inherit
    the sources and ``fees``, so their closures and m-sized arrays are
    never pickled: only chunk bounds go out and (4, n) outcomes come back.
    The tasks run here, one after another, when there is one worker, when
    the platform lacks ``sched_getaffinity`` or the fork start method, or
    when this process is daemonic and so may not have children. Each
    trial's outcome comes from its own substream and row, so the result is
    the same either way.
    """
    tasks = []
    for s_idx, (k, _, _) in enumerate(sources):
        height = max(1, int(_CHUNK_BYTES // (8 * (len(fees) + (lam + 1) * k))))
        tasks += [(s_idx, start, min(start + height, trials)) for start in range(0, trials, height)]
    state = (sources, fees, lam, seed)
    workers = min(len(os.sched_getaffinity(0)), len(tasks)) if hasattr(os, "sched_getaffinity") else 1
    parts = None
    if workers > 1:
        # Imported only here: txpack.cli imports this module, and importing
        # multiprocessing would add about 10 ms to every CLI start.
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            # Fork, not spawn: the sources' closures cannot be pickled. This
            # process starts no threads of its own, and OpenBLAS stops its
            # pool around a fork, so the workers inherit no held lock.
            pool = multiprocessing.get_context("fork").Pool(workers, _adopt, (state,))
            try:
                parts = pool.map(_forked_chunk, tasks)
                pool.close()
            except BaseException:
                pool.terminate()
                raise
            finally:
                pool.join()
    if parts is None:
        parts = [_chunk_trials(state, task) for task in tasks]
    return [np.concatenate([part for (s, _, _), part in zip(tasks, parts) if s == s_idx], axis=1)
            for s_idx in range(len(sources))]


def run_experiment(config: dict) -> list:
    """Run the configured strategies and return one ExperimentReport each.

    Config keys: mempool (a Mempool), lambda, k, trials (a positive int),
    seed, strategies (subset of equilibrium/greedy/uniform-random-k).
    Identical configs produce identical reports, whatever the CPU count.
    Every strategy plays fixed mode's game, so a fractional k, a mempool
    whose sizes are not all 1 (``fixed_block_size``) or an empty mempool
    raises ValidationError before any strategy runs.
    """
    mempool = config["mempool"]
    params = GameParams(k=config["k"], lam=config["lambda"])
    fixed_block_size(mempool, params)
    if len(mempool) == 0:
        raise ValidationError("empty mempool")
    trials = config["trials"]
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials}")
    trials = int(trials)
    seed = int(config.get("seed", 0))
    names = list(config.get("strategies", ["equilibrium"]))

    fees = mempool.prices * mempool.sizes
    sources = [_block_source(name, mempool, params) for name in names]
    outcomes = _trial_outcomes(sources, fees, params.lam, seed, trials)
    reports = []
    for name, (revenue, dup_rate, unique_cnt, chain_rev) in zip(names, outcomes):
        reports.append(
            ExperimentReport(
                strategy=name,
                trials=trials,
                seed=seed,
                mean_exclusive_revenue=float(revenue.mean()),
                stderr_exclusive_revenue=float(revenue.std(ddof=1) / np.sqrt(trials)),
                mean_duplication_rate=float(dup_rate.mean()),
                mean_unique_tx=float(unique_cnt.mean()),
                mean_chain_revenue=float(chain_rev.mean()),
            )
        )
    return reports
