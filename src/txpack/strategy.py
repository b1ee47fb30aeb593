"""From marginal probabilities to explicit block distributions and samples.

The exact construction lays the nonzero marginals out as consecutive
segments on [0, k] and reads off a block as the segments covering
{r, r+1, ..., r+k-1} for a uniform r in [0, 1). The layout's ends run from
0 to exactly k, and no segment is longer than 1, so each covers at most one
probe. Probes are never formed in floating point, where r + j can round
onto a segment end or past k: the probes below a segment end c number
floor(c) + (frac(c) > r), which is exact, and a segment is covered where
that count steps up. So every r in [0, 1) gives exactly k distinct
transactions. The variable-size path instead draws transactions
independently and rejects draws outside a capacity window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .equilibrium import BUDGET_RTOL, MarginalProfile, capacity, check_marginals
from .errors import RejectionBudgetExceeded, ValidationError
from .mempool import Mempool

_CHUNK_BYTES = 1 << 23  # uniforms drawn per rejection chunk; bounds its memory at large m
_CHUNK_ROWS = 256  # attempts drawn per rejection chunk, fewer where _CHUNK_BYTES binds
_MAX_ATTEMPTS = 10_000  # rejection draws before RejectionBudgetExceeded


@dataclass(frozen=True, eq=False)
class Block:
    """A packaged block: the chosen transaction ids, sorted, and the capacity they use."""

    ids: np.ndarray
    used_capacity: float

    @cached_property
    def txids(self) -> frozenset:
        return frozenset(self.ids.tolist())


@dataclass(frozen=True)
class MixedStrategy:
    """Explicit finite distribution over k-subsets.

    atom_probs[i] is the probability of packaging exactly the ids in
    atom_txids[i]. Atoms are ordered by their r-interval start.
    """

    atom_probs: np.ndarray
    atom_txids: tuple
    intervals: tuple  # (start, end) of each atom's r-interval

    def induced_marginals(self) -> dict:
        """Analytic per-transaction inclusion probabilities of the atoms."""
        out: dict[int, float] = {}
        for prob, txids in zip(self.atom_probs, self.atom_txids):
            for t in txids:
                out[t] = out.get(t, 0.0) + float(prob)
        return out


class SegmentSampler:
    """Segment layout of a profile, reusable across many draws.

    ``cum[i]`` and ``cum[i + 1]`` bound the segment of ``_nonzero[i]``, the
    i-th profile position with a nonzero marginal, and ``select_many``
    returns profile positions; a caller that needs ids takes them from
    ``profile.ids``. The ends are snapped to finish at exactly k, so a
    transaction is selected with probability equal to its marginal to
    rounding plus |sum(p) - k|, the profile's budget residual, which the
    snap moves onto the last segments.
    """

    def __init__(self, profile: MarginalProfile, k: int):
        values = np.asarray(profile.values, dtype=np.float64)
        total = float(values.sum())
        if not abs(total - k) <= BUDGET_RTOL * max(1.0, k):  # NaN fails too
            raise ValidationError(f"profile marginals sum to {total!r}, expected {k}")
        check_marginals(values)
        nz = np.flatnonzero(values > 0.0)
        self.k, self._nonzero = k, nz
        lengths = values.take(nz)
        np.minimum(lengths, 1.0, out=lengths)  # check_marginals lets a value pass 1 by 1e-12
        cum = np.empty(len(nz) + 1)
        cum[0] = 0.0
        np.cumsum(lengths, out=cum[1:])
        # Snap the sum's drift: the last end is exactly k, and any end past k
        # comes back to k, so the ends never decrease and no probe falls off the end.
        cum[np.searchsorted(cum[:-1], k):] = k
        _cap_segments(cum)
        self.cum = cum
        whole = np.floor(cum)
        self._whole_steps = (whole[1:] != whole[:-1]).view(np.int8)
        self._frac = np.subtract(cum, whole, out=whole)

    def select_many(self, rs) -> np.ndarray:
        """(n, k) profile positions: row i holds the segments covering r_i, r_i+1, ..., r_i+k-1."""
        rs = np.asarray(rs, dtype=np.float64)
        # Probes r + j below cum[i]: floor(cum[i]) + (frac(cum[i]) > r); a
        # segment holds one where that count steps up.
        above = self._frac > rs[:, None]
        steps = above[:, 1:].view(np.int8) - above[:, :-1].view(np.int8)
        steps += self._whole_steps
        # Every step is 0 or 1, and flatnonzero is much faster on a boolean
        # array; each row has k hits, so row i's flat indices are offset by i * width.
        at = np.flatnonzero(steps.view(np.bool_)).reshape(len(rs), self.k)
        at -= (np.arange(len(rs)) * steps.shape[1])[:, None]
        return self._nonzero.take(at)


def _cap_segments(cum: np.ndarray):
    """Raise cum[i] to cum[i + 1] - 1 wherever a segment is longer than 1, from the end.

    Two probes could hit such a segment: rounding in the cumsum can leave
    one an ulp too long, and the snap to k can lengthen the last by the
    sum's drift. The subtractions are exact wherever the test passes
    (cum[i + 1] > 1). With marginals at most 1, cum[0] never needs raising.
    """
    for i in np.flatnonzero(cum[1:] - 1.0 > cum[:-1])[::-1].tolist():
        while i > 0 and cum[i + 1] - 1.0 > cum[i]:
            cum[i] = cum[i + 1] - 1.0
            i -= 1


def corresponding_strategy(profile: MarginalProfile, k: int) -> MixedStrategy:
    """Explicit mixed strategy whose marginals equal the profile's.

    Atoms are the intervals between the sorted fractional endpoints of the
    segment layout; all r in one interval select the same k-subset. Every
    mix of k-subsets has marginals summing to exactly k, so each induced
    marginal misses the profile's by at most |sum(p) - k| plus rounding.
    That residual is at most BUDGET_RTOL * max(1, k), and reaches about
    3e-11 at small lambda, where xhat is far from 0 and the marginals round.
    """
    sampler = SegmentSampler(profile, k)
    frac = sampler._frac
    breaks = np.unique(np.concatenate([[0.0, 1.0], frac[(frac > 0.0) & (frac < 1.0)]]))
    # Rounding can split one logical breakpoint into neighbors 1 ulp apart;
    # collapse anything closer than the marginal-reproduction tolerance.
    keep = np.concatenate([[True], np.diff(breaks) > 1e-12])
    keep[-1] = True
    breaks = breaks[keep]
    wide = np.diff(breaks) > 1e-12
    a, b = breaks[:-1][wide], breaks[1:][wide]
    atoms = profile.ids.take(sampler.select_many(0.5 * (a + b))).tolist()
    return MixedStrategy(b - a, tuple(map(frozenset, atoms)), tuple(zip(a.tolist(), b.tolist())))


def sample_block(profile: MarginalProfile, r: float, k: int) -> Block:
    """Deterministically map r in [0,1) to the block of the profile's segment layout."""
    if not 0.0 <= r < 1.0:
        raise ValidationError(f"r must lie in [0, 1), got {r!r}")
    ids = profile.ids.take(SegmentSampler(profile, k).select_many([r])[0])
    return Block(np.sort(ids), float(len(ids)))


def rejection_sample_block(mempool: Mempool, profile: MarginalProfile, k: float,
                           rng: np.random.Generator):
    """Variable-size block sampling by independent draws plus rejection.

    The profile should target a reduced capacity k' <= k (sum of s*p = k').
    Draws each transaction independently with its marginal probability and
    accepts the first draw whose capacity lands in [max(0, 2k' - k), k].
    Returns (block, attempts). Attempts are drawn ``_CHUNK_ROWS`` at a time,
    fewer when the mempool is large, so the uniforms held at once stay
    within ``_CHUNK_BYTES``; after ``_MAX_ATTEMPTS`` rejections it raises
    RejectionBudgetExceeded. A profile that does not list the mempool's ids
    in its order, or an empty window, raises ValidationError before
    anything is drawn.
    """
    p = profile.values_for(mempool)
    sizes = mempool.sizes
    lower = max(0.0, 2.0 * capacity(p, sizes) - k)
    eps = 1e-12 * max(1.0, k)
    if lower - eps > k + eps:
        raise ValidationError(f"acceptance window [{float(lower)!r}, {float(k)!r}] is empty: no draw can fit")
    # Rows are filled in stream order and each total is summed within its own
    # row, so the chunk height changes neither the accepted draw nor its bits.
    rows = min(_CHUNK_ROWS, max(1, _CHUNK_BYTES // (8 * max(1, len(p)))))
    attempts = 0
    while attempts < _MAX_ATTEMPTS:
        n = min(rows, _MAX_ATTEMPTS - attempts)
        draws = rng.random((n, len(p))) < p
        totals = np.where(draws, sizes, 0.0).sum(axis=1)
        ok = np.nonzero((totals >= lower - eps) & (totals <= k + eps))[0]
        if ok.size:
            i = int(ok[0])
            ids = np.sort(mempool.ids[draws[i]])
            return Block(ids, float(totals[i])), attempts + i + 1
        attempts += n
    raise RejectionBudgetExceeded(_MAX_ATTEMPTS)
