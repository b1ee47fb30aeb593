"""Monte-Carlo simulation of the two-period packaging game.

Each round draws a Poisson(lambda) number of blocks i.i.d. from a strategy
and accounts for revenue two ways: the per-miner *exclusive* metric pays a
fee only when exactly one block holds the transaction (matching the game's
utility definition), while the chain-level throughput metric counts each
included transaction once regardless of duplication.

All randomness flows through per-trial substreams derived from the master
seed via numpy's SeedSequence spawn keys, so reports are reproducible and
earlier trials are unaffected by the trial count. ``run_experiment`` makes
each trial's draws from its own substream, one trial after another, then
selects and accounts for a whole chunk of trials with a few array
operations; a chunk holds about ``_CHUNK_BYTES``, and its height changes
no trial's outcome.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .equilibrium import MarginalProfile, solve_equilibrium
from .errors import ValidationError
from .mempool import GameParams, Mempool
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


class _ProfileSource:
    """Blocks from a profile's segment sampler, drawn in two steps.

    ``tokens(rng, n)`` keeps the least each of n blocks needs (one probe here,
    a k-subset in ``_UniformSource``); ``positions`` turns the tokens of a
    chunk of trials into an (n, k) mempool-position matrix.
    """

    def __init__(self, profile: MarginalProfile, k: int, mempool: Mempool):
        # Both profiles list mempool.ids in order: segments labelled by position need no id lookup.
        self.sampler = SegmentSampler(replace(profile, ids=np.arange(len(mempool))), k)
        self.k = k

    def tokens(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)  # one probe per block

    def positions(self, rs: np.ndarray) -> np.ndarray:
        return self.sampler.select_many(rs)


class _UniformSource:
    """Each block is an independent uniform k-subset of the mempool's m transactions."""

    def __init__(self, mempool: Mempool, k: int):
        self.m = len(mempool)
        self.k = k

    def tokens(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Selecting at once keeps k positions, not m keys, per block.
        keys = rng.random((n, self.m))
        return np.argpartition(keys, self.k - 1, axis=1)[:, : self.k]

    def positions(self, chosen: np.ndarray) -> np.ndarray:
        return chosen


def _block_source(name: str, mempool: Mempool, params: GameParams):
    k = params.block_size(len(mempool))
    if name == "equilibrium":
        return _ProfileSource(solve_equilibrium(mempool, params), k, mempool)
    if name == "greedy":
        return _ProfileSource(greedy_profile(mempool, params), k, mempool)
    if name == "uniform-random-k":
        return _UniformSource(mempool, k)
    raise ValidationError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")


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


def _trial_outcomes(source, fees: np.ndarray, lam: float, seed: int, s_idx: int,
                    trials: int) -> np.ndarray:
    """(4, trials) per-trial outcomes (see ``_chunk_outcomes``) of one strategy.

    Trial t draws gamma ~ Poisson(lam), then the tokens of gamma + 1 blocks,
    from its own substream; a chunk of trials, sized to about
    ``_CHUNK_BYTES`` of flags and positions, is then selected and accounted
    for together.
    """
    height = max(1, int(_CHUNK_BYTES // (8 * (len(fees) + (lam + 1) * source.k))))
    out = np.empty((4, trials))
    for start in range(0, trials, height):
        stop = min(start + height, trials)
        gammas = np.empty(stop - start, dtype=np.int64)
        tokens = []
        for i, t in enumerate(range(start, stop)):
            rng = _trial_rng(seed, s_idx, t)
            gammas[i] = rng.poisson(lam)
            tokens.append(source.tokens(rng, int(gammas[i]) + 1))
        out[:, start:stop] = _chunk_outcomes(source.positions(np.concatenate(tokens)), gammas, fees)
    return out


def run_experiment(config: dict) -> list:
    """Run the configured strategies and return one ExperimentReport each.

    Config keys: mempool (a Mempool), lambda, k, trials, seed, strategies
    (subset of equilibrium/greedy/uniform-random-k). Identical configs
    produce identical reports. Every strategy plays fixed mode's game, so
    a mempool whose sizes are not all 1 raises ValidationError first.
    """
    mempool = config["mempool"]
    mempool.require_unit_size()
    params = GameParams(k=config["k"], lam=config["lambda"])
    trials = int(config["trials"])
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials}")
    seed = int(config.get("seed", 0))
    names = list(config.get("strategies", ["equilibrium"]))

    fees = mempool.prices * mempool.sizes
    reports = []
    for s_idx, name in enumerate(names):
        source = _block_source(name, mempool, params)
        revenue, dup_rate, unique_cnt, chain_rev = _trial_outcomes(
            source, fees, params.lam, seed, s_idx, trials
        )
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
