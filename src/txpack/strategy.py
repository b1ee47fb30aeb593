"""From marginal probabilities to explicit block distributions and samples.

The exact construction lays the nonzero marginals out as consecutive
segments on [0, k] and reads off a block as the segments covering
{r, r+1, ..., r+k-1} for a uniform r in [0, 1). Each segment has length
at most 1, so it covers at most one probe position and every draw has
exactly k transactions. The variable-size path instead draws transactions
independently and rejects draws outside a capacity window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .equilibrium import MarginalProfile, capacity, check_marginals
from .errors import RejectionBudgetExceeded, ValidationError
from .mempool import Mempool

_SUM_TOL = 1e-9
_CHUNK_BYTES = 1 << 23  # uniforms drawn per rejection chunk; bounds its memory at large m


@dataclass(frozen=True, eq=False)
class Block:
    """A packaged block: the chosen transaction ids, sorted, and the capacity they use."""

    ids: np.ndarray
    used_capacity: float

    @cached_property
    def txids(self) -> frozenset:
        return frozenset(self.ids.tolist())

    def __eq__(self, other):
        if not isinstance(other, Block):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and self.used_capacity == other.used_capacity


@dataclass(frozen=True)
class MixedStrategy:
    """Explicit finite distribution over k-subsets.

    atom_probs[i] is the probability of packaging exactly the ids in
    atom_txids[i]. Atoms are ordered by their r-interval start.
    """

    atom_probs: np.ndarray
    atom_txids: tuple
    intervals: tuple  # (start, end) of each atom's r-interval

    @property
    def support_size(self) -> int:
        return len(self.atom_probs)

    def induced_marginals(self) -> dict:
        """Analytic per-transaction inclusion probabilities of the atoms."""
        out: dict[int, float] = {}
        for prob, txids in zip(self.atom_probs, self.atom_txids):
            for t in txids:
                out[t] = out.get(t, 0.0) + float(prob)
        return out


class SegmentSampler:
    """Segment layout of a profile, reusable across many draws."""

    def __init__(self, profile: MarginalProfile, k: int):
        values = np.asarray(profile.values, dtype=np.float64)
        total = float(values.sum())
        if not abs(total - k) <= _SUM_TOL * max(1.0, k):  # NaN fails too
            raise ValidationError(f"profile marginals sum to {total!r}, expected {k}")
        check_marginals(values, "profile marginals")
        nz = values > 0.0
        self.k = k
        self.ids = profile.ids[nz]
        cum = np.concatenate([[0.0], np.cumsum(values[nz])])
        cum[-1] = float(k)  # snap drift so probe positions never fall off the end
        self.cum = cum

    def segment_intervals(self) -> list:
        """(txid, start, end) for each nonzero-probability segment."""
        return [
            (int(t), float(a), float(b))
            for t, a, b in zip(self.ids, self.cum[:-1], self.cum[1:])
        ]

    def select_many(self, rs: np.ndarray) -> np.ndarray:
        """(n, k) id matrix: row i holds the segments covering r_i, r_i+1, ..., r_i+k-1."""
        pos = np.asarray(rs, dtype=np.float64)[:, None] + np.arange(self.k)[None, :]
        idx = np.searchsorted(self.cum, pos.ravel(), side="right") - 1
        return self.ids[idx].reshape(len(rs), self.k)


def corresponding_strategy(profile: MarginalProfile, k: int) -> MixedStrategy:
    """Explicit mixed strategy whose marginals equal the profile exactly.

    Atoms are the intervals between the sorted fractional endpoints of the
    segment layout; all r in one interval select the same k-subset.
    """
    sampler = SegmentSampler(profile, k)
    frac = sampler.cum - np.floor(sampler.cum)
    breaks = np.unique(np.concatenate([[0.0, 1.0], frac[(frac > 0.0) & (frac < 1.0)]]))
    # Rounding can split one logical breakpoint into neighbors 1 ulp apart;
    # collapse anything closer than the marginal-reproduction tolerance.
    keep = np.concatenate([[True], np.diff(breaks) > 1e-12])
    keep[-1] = True
    breaks = breaks[keep]
    wide = np.diff(breaks) > 1e-12
    a, b = breaks[:-1][wide], breaks[1:][wide]
    atoms = sampler.select_many(0.5 * (a + b)).tolist()
    return MixedStrategy(b - a, tuple(map(frozenset, atoms)), tuple(zip(a.tolist(), b.tolist())))


def sample_block(profile: MarginalProfile, r: float, k: int) -> Block:
    """Deterministically map r in [0,1) to the block of the profile's segment layout."""
    if not 0.0 <= r < 1.0:
        raise ValidationError(f"r must lie in [0, 1), got {r!r}")
    ids = SegmentSampler(profile, k).select_many([r])[0]
    return Block(np.sort(ids), float(len(ids)))


def rejection_sample_block(
    mempool: Mempool,
    profile: MarginalProfile,
    k: float,
    rng: np.random.Generator,
    lower: float | None = None,
    max_attempts: int = 10_000,
    chunk: int = 256,
):
    """Variable-size block sampling by independent draws plus rejection.

    The profile should target a reduced capacity k' <= k (sum of s*p = k').
    Draws each transaction independently with its marginal probability and
    accepts once the drawn capacity lands in [lower, k]; the default lower
    bound is max(0, 2k' - k). Returns (block, attempts). Attempts are drawn
    ``chunk`` at a time, fewer when the mempool is large, so the uniforms
    held at once stay within ``_CHUNK_BYTES``. A profile that does not list
    the mempool's ids in its order, or an empty window, raises
    ValidationError before anything is drawn.
    """
    p = profile.values_for(mempool)
    sizes = mempool.sizes
    kprime = capacity(p, sizes)
    if lower is None:
        lower = max(0.0, 2.0 * kprime - k)
    eps = 1e-12 * max(1.0, k)
    if lower - eps > k + eps:
        raise ValidationError(f"acceptance window [{float(lower)!r}, {float(k)!r}] is empty: no draw can fit")
    # Rows are filled in stream order and each total is summed within its own
    # row, so the chunk height changes neither the accepted draw nor its bits.
    rows = min(chunk, max(1, _CHUNK_BYTES // (8 * max(1, len(p)))))
    attempts = 0
    while attempts < max_attempts:
        n = min(rows, max_attempts - attempts)
        draws = rng.random((n, len(p))) < p
        totals = np.where(draws, sizes, 0.0).sum(axis=1)
        ok = np.nonzero((totals >= lower - eps) & (totals <= k + eps))[0]
        if ok.size:
            i = int(ok[0])
            ids = np.sort(mempool.ids[draws[i]])
            return Block(ids, float(totals[i])), attempts + i + 1
        attempts += n
    raise RejectionBudgetExceeded(max_attempts)
