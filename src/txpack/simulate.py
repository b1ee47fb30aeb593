"""Monte-Carlo simulation of the two-period packaging game.

Each round draws a Poisson(lambda) number of blocks i.i.d. from a strategy
and accounts for revenue two ways: the per-miner *exclusive* metric pays a
fee only when exactly one block holds the transaction (matching the game's
utility definition), while the chain-level throughput metric counts each
included transaction once regardless of duplication.

Trial t of the s-th strategy draws from the PCG64 stream that
``default_rng(SeedSequence(seed, spawn_key=(s, t)))`` would give, bit for
bit, so reports are reproducible and earlier trials are unaffected by the
trial count. No SeedSequence is built per trial: ``_trial_states``
replicates SeedSequence's hash (O'Neill's seed_seq_fe, whose streams NumPy
keeps stable under NEP 19) over all of a strategy's trials in one vectorized
pass, and each trial sets one reused Generator's state from its row by
PCG64's seeding rule. ``run_experiment`` makes each trial's draws from its
own stream, then selects and accounts for a whole chunk of trials with a
few array operations; a chunk holds about ``_CHUNK_BYTES``, and its height
changes no trial's outcome. The chunks of all strategies run through
``workers.fork_map``, in forked worker processes, one per usable CPU, or in
this process where that cannot be. Each trial is reduced within its own row
and the reports are computed from the outcomes in trial order, so the
output does not depend on the CPU count.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import ValidationError
from .mempool import GameParams, Mempool, fixed_block_size
from .strategy import SegmentSampler
from .verify import greedy_profile
from .workers import fork_map

STRATEGY_NAMES = ("equilibrium", "greedy", "uniform-random-k")
_CHUNK_BYTES = 1 << 18  # block positions and per-position flags held per chunk of trials

# SeedSequence's hash constants and PCG64's 128-bit multiplier, as NumPy defines them.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _block_source(name: str, mempool: Mempool, params: GameParams, k: int) -> tuple:
    """(draw, select): a strategy's fixed-mode blocks of k transactions, in two steps.

    ``draw(rng, n)`` takes from a trial's stream the least each of n blocks
    needs: one probe for a profile's segment sampler, a k-subset of
    positions for a uniform block. ``select`` turns the draws of a chunk of
    trials into an (n, k) mempool-position matrix.
    """
    if name == "uniform-random-k":
        m = len(mempool)

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            # Selecting at once keeps k positions, not m keys, per block.
            return np.argpartition(rng.random((n, m)), k - 1, axis=1)[:, :k]

        return draw, lambda chosen: chosen
    if name == "equilibrium":
        profile = solve_equilibrium(mempool, params)
    elif name == "greedy":
        profile = greedy_profile(mempool, params)
    else:
        raise ValidationError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    # Both profiles list mempool.ids in order: segments labelled by position need no id lookup.
    sampler = SegmentSampler(replace(profile, ids=np.arange(len(mempool))), k)
    return lambda rng, n: rng.random(n), sampler.select_many


def _words(n: int) -> list:
    """The non-negative int n as SeedSequence splits it: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _trial_states(seed: int, s: int, trials: int) -> np.ndarray:
    """(trials, 4) uint64: row t is SeedSequence(seed, spawn_key=(s, t)).generate_state(4, uint64).

    SeedSequence's ``mix_entropy`` and ``generate_state`` transcribed, with
    the trial's entropy word, the last one, a uint32 vector over all trials
    (t < 2**32 is one word). The words before it are the same for every
    trial, so they are mixed once, in Python ints, and the hash constants
    never depend on the data. Scalars stay Python ints, as a uint32 scalar
    product that wraps would warn; ``& _MASK32`` wraps the ints and leaves
    the vectors as they are.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const  # not ^=, which would write into the trials' vector
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return result ^ result >> 16

    run = _words(seed)
    entropy = run + [0] * (4 - len(run)) + _words(s) + [np.arange(trials, dtype=np.uint32)]
    pool = [hashmix(word) for word in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        pool = [mix(x, hashmix(word)) for x in pool]

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


@functools.cache
def _generator() -> np.random.Generator:
    """This process's Generator; each trial sets its whole state.

    Built on first use, so a process that only forks workers never imports
    ``numpy.random`` (about 6 MB of resident modules and libraries).
    """
    return np.random.Generator(np.random.PCG64(0))


def _seed_stream(rng: np.random.Generator, words: list):
    """Set a PCG64 Generator to ``default_rng(seed_seq)``'s state.

    ``words`` is ``seed_seq.generate_state(4, np.uint64)``. PCG64 seeds
    from initstate = words[0]:words[1] and initseq = words[2]:words[3]
    (high word first): inc = 2·initseq + 1 and state = (inc +
    initstate)·MULT + inc, mod 2**128, with no buffered 32-bit half.
    """
    w0, w1, w2, w3 = words
    inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
    state = (((w0 << 64 | w1) + inc) * _PCG64_MULT + inc) & _MASK128
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


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

    ``state`` is (sources, fees, lam, states): each source is
    ``_block_source``'s (draw, select) and ``states[s]`` its
    ``_trial_states``; ``task`` is (s, start, stop). Trial t of source s
    sets ``_generator()`` to its own stream, draws gamma ~ Poisson(lam),
    then gamma + 1 blocks; the chunk's blocks are then selected and
    accounted for together.
    """
    sources, fees, lam, states = state
    rng = _generator()
    s_idx, start, stop = task
    draw, select = sources[s_idx]
    gammas = np.empty(stop - start, dtype=np.int64)
    draws = []
    for i, words in enumerate(states[s_idx][start:stop].tolist()):
        _seed_stream(rng, words)
        gammas[i] = rng.poisson(lam)
        draws.append(draw(rng, int(gammas[i]) + 1))
    return _chunk_outcomes(select(np.concatenate(draws)), gammas, fees)


def _trial_outcomes(sources: list, k: int, fees: np.ndarray, lam: float, seed: int, trials: int) -> list:
    """Each source's (4, trials) per-trial outcomes (see ``_chunk_outcomes``) with blocks of k.

    A source's trials are split into chunks of about ``_CHUNK_BYTES`` of
    flags and positions, and ``fork_map`` runs the (source, chunk) tasks,
    taken from the sources in turn, in forked workers. These inherit the
    sources, ``fees`` and the trials' states: their closures and arrays are
    never pickled, only chunk bounds go out and (4, n) outcomes come back.
    Each trial's outcome comes from its own stream and row, so the result
    is the same wherever the tasks run.
    """
    height = max(1, int(_CHUNK_BYTES // (8 * (len(fees) + (lam + 1) * k))))
    # Round-robin over the sources, so each batch a worker takes mixes cheap and costly ones.
    tasks = [(s_idx, start, min(start + height, trials))
             for start in range(0, trials, height) for s_idx in range(len(sources))]
    states = [_trial_states(seed, s_idx, trials) for s_idx in range(len(sources))]
    parts = fork_map(_chunk_trials, (sources, fees, lam, states), tasks)
    return [np.concatenate([part for (s, _, _), part in zip(tasks, parts) if s == s_idx], axis=1)
            for s_idx in range(len(sources))]


def run_experiment(config: dict) -> list:
    """Run the configured strategies and return one ExperimentReport each.

    Config keys: mempool (a Mempool), lambda, k, trials (a positive int,
    at most 2**32), seed (a non-negative int), strategies (subset of
    equilibrium/greedy/uniform-random-k).
    Identical configs produce identical reports, whatever the CPU count.
    Every strategy plays fixed mode's game, so a fractional k, a mempool
    whose sizes are not all 1 (``fixed_block_size``) or an empty mempool
    raises ValidationError before any strategy runs.
    """
    mempool = config["mempool"]
    params = GameParams(k=config["k"], lam=config["lambda"])
    k = fixed_block_size(mempool, params)
    if len(mempool) == 0:
        raise ValidationError("empty mempool")
    trials = config["trials"]
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials}")
    if trials > 2**32:  # a trial index is one 32-bit entropy word of its stream's seed
        raise ValidationError(f"trials must be at most 2**32, got {trials}")
    trials = int(trials)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    names = list(config.get("strategies", ["equilibrium"]))

    fees = mempool.prices * mempool.sizes
    sources = [_block_source(name, mempool, params, k) for name in names]
    outcomes = _trial_outcomes(sources, k, fees, params.lam, seed, trials)
    reports = []
    for name, (revenue, dup_rate, unique_cnt, chain_rev) in zip(names, outcomes):
        # One trial has no sample deviation; it is reported as NaN without computing it.
        stderr = revenue.std(ddof=1) / np.sqrt(trials) if trials > 1 else np.nan
        reports.append(
            ExperimentReport(
                strategy=name,
                trials=trials,
                seed=seed,
                mean_exclusive_revenue=float(revenue.mean()),
                stderr_exclusive_revenue=float(stderr),
                mean_duplication_rate=float(dup_rate.mean()),
                mean_unique_tx=float(unique_cnt.mean()),
                mean_chain_revenue=float(chain_rev.mean()),
            )
        )
    return reports
