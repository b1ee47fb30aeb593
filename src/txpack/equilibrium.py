"""Closed-form equilibrium marginals and the clamp-threshold solver.

The pipeline is: raw marginals (which may fall outside [0,1]) -> smallest
shift ``xhat`` making the truncated marginals use exactly the block
capacity -> clamped profile plus ln w, the log of the equilibrium price
threshold ``w``. Capacity sums go through ``capacity``, which never calls
BLAS, so no result depends on the BLAS thread count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, MempoolFitsInBlock, ValidationError, ZeroLatencyError
from .mempool import GameParams, Mempool, fixed_block_size

BUDGET_RTOL = 1e-9


@dataclass(frozen=True)
class MarginalProfile:
    """Equilibrium inclusion probabilities with the clamp shift and threshold.

    ``values[i]`` is the probability that the symmetric equilibrium strategy
    packages transaction ``ids[i]``. ``log_w`` is ln w, the log of the common
    discounted gas price v(tx)*exp(-lambda*p(tx)) of every interior
    transaction, finite where w underflows: -inf for w = 0, or None for a
    profile that carries no threshold (such as the greedy and uniform ones).
    """

    ids: np.ndarray
    values: np.ndarray
    xhat: float
    log_w: float | None

    @property
    def w(self) -> float | None:
        """The threshold as a float, exp(log_w); 0 where it underflows, None without one."""
        return None if self.log_w is None else float(np.exp(self.log_w))

    def as_dict(self) -> dict:
        return {int(i): float(v) for i, v in zip(self.ids, self.values)}

    def values_for(self, mempool: Mempool) -> np.ndarray:
        """The checked marginals in mempool order; the profile must list the mempool's ids."""
        if len(self.ids) != len(mempool) or not np.array_equal(self.ids, mempool.ids):
            raise ValidationError("profile does not match the mempool")
        return check_marginals(np.asarray(self.values, dtype=np.float64))


def check_marginals(values: np.ndarray) -> np.ndarray:
    """values, unless one lies outside [0, 1 + 1e-12]: then ValidationError (NaN fails too)."""
    if len(values) and not 0.0 <= values.min() <= values.max() <= 1.0 + 1e-12:
        raise ValidationError("profile marginals must lie in [0, 1]")
    return values


def check_solver_inputs(mempool: Mempool, params: GameParams):
    if len(mempool) == 0:
        raise ValidationError("empty mempool")
    if params.lam == 0:
        raise ZeroLatencyError()


def compute_phat_real(mempool: Mempool, params: GameParams) -> np.ndarray:
    """Raw marginals, as a float64 array in mempool order; entries may leave [0, 1].

    p(tx) = k/S + (ln v(tx) - wmean) / lambda, with S the total size and
    wmean the size-weighted mean log price, so sum of s(tx)*p(tx) equals k.
    With unit sizes this is k/m + (ln v(tx) - mean ln v) / lambda.
    """
    check_solver_inputs(mempool, params)
    raw = mempool.centered_log_prices / params.lam
    raw += params.k / mempool.total_size
    return raw


def capacity(values: np.ndarray, sizes: np.ndarray) -> float:
    """Sum of values * sizes; einsum's own loop, not BLAS, so its bits are fixed."""
    return float(np.einsum("i,i->", values, sizes))


def clamp_sum(values: np.ndarray, sizes: np.ndarray, x: float) -> float:
    """Capacity used by the truncated marginals min(max(p - x, 0), 1)."""
    t = values - x
    t.clip(0.0, 1.0, out=t)
    return capacity(t, sizes)


def solve_xhat(raw: np.ndarray, mempool: Mempool, params: GameParams) -> float:
    """Smallest x with sum_tx min(max(p(tx)-x,0),1)*s(tx) = k.

    The left side f is continuous, non-increasing, and piecewise linear with
    breakpoints at p(tx) and p(tx)-1. ``raw`` must be compute_phat_real's
    output for this mempool and params: it rises with the log price, so
    ``mempool.price_order``, sorted once per mempool, orders both runs of
    breakpoints, p and p-1, for every (k, lambda), and gives p at any rank
    by the formula compute_phat_real applies, bit for bit. The search is:
    guess, confirm, else bisect each run. A Newton search on the table's
    prefix sums guesses the two breakpoints that bracket the crossing.
    clamp_sum confirms the left one, whose f the interpolation needs; the
    right one is confirmed from the table where its model value is below k
    by more than the rounding bound, else by clamp_sum. Where rounding
    misled the guess, each run is bisected for its last breakpoint with f
    above k. The root is interpolated on the bracketed linear segment, bit
    for bit as a binary search over all sorted breakpoints would find it.
    With the table built, a solve costs O(log m) scalar steps and, unless
    the guess is refuted, these O(m) passes: compute_phat_real's raw
    marginals, one clamp_sum, and for sized mempools the slope's mask and
    compress; solve_equilibrium adds the final clamp.
    """
    k = params.k
    sizes = mempool.sizes
    total = mempool.total_size
    if total < k * (1.0 - BUDGET_RTOL):
        raise MempoolFitsInBlock(
            f"total capacity {total:g} < block capacity {k:g}; package everything"
        )
    table = mempool.price_order
    at = (table[2], float(k / total), float(params.lam))  # the raw marginals by rank
    last = _model_guess(mempool, params)
    left, right, reads = _bracket(at, last)
    f_left = None if left is None else clamp_sum(raw, sizes, left)
    if (f_left is not None and not f_left > k) or (
            not _proves_at_most_k(table, at, last, reads, right, k) and clamp_sum(raw, sizes, right) > k):
        # The guess was off. Each run's breakpoints ascend, so f is above k
        # then not along it: bisection finds each run's last one above k.
        ranks = range(len(raw))
        last = [bisect_left(ranks, True, key=lambda j: not clamp_sum(raw, sizes, _raw_at(at, j) - r) > k) - 1
                for r in (0, 1)]
        left, right, reads = _bracket(at, last)
        f_left = None if left is None else clamp_sum(raw, sizes, left)
    if left is None:
        # f(min(p)-1) <= k: every term clamps to about 1 there, so the
        # equation holds on an unbounded interval and the smallest breakpoint
        # is the canonical leftmost finite answer.
        return right
    pos = 0.5 * (left + right)
    if mempool.is_unit_size:  # a sum of ones is the count, in any order
        slope = -float(max(_count_inside(raw, last, reads, pos), 0))
    else:  # compress keeps mempool order, so the pairwise sum has a boolean index's bits
        slope = -float(np.compress((raw > pos) & (raw < pos + 1.0), sizes).sum())
    if slope == 0.0:
        # Degenerate flat bracket; only reachable through rounding noise.
        return right if f_left > k else left
    return left + (k - f_left) / slope


def _raw_at(at: tuple, j: int) -> float:
    """The raw marginal at rank j of the price order, with compute_phat_real's bits."""
    sorted_centered, q, lam = at
    return q + sorted_centered.item(j) / lam


def _bracket(at: tuple, last) -> tuple:
    """(left, right, reads): the larger of the runs' breakpoints at ``last``, and the smaller after it.

    Run r holds the breakpoints p - r in ascending order. ``last[r]`` is -1
    where a run has no such breakpoint; left is None when neither has one,
    and right is inf when both runs end at ``last``. ``reads`` holds the raw
    marginals at ranks last[0], last[0] + 1, last[1] and last[1] + 1, with
    -inf below rank 0 and inf past the top.
    """
    m, (i, j) = len(at[0]), last
    reads = (_raw_at(at, i) if i >= 0 else -math.inf, _raw_at(at, i + 1) if i + 1 < m else math.inf,
             _raw_at(at, j) if j >= 0 else -math.inf, _raw_at(at, j + 1) if j + 1 < m else math.inf)
    left = None if i < 0 and j < 0 else max(reads[0], reads[2] - 1.0)
    return left, min(reads[1], reads[3] - 1.0), reads


def _count_inside(raw: np.ndarray, last, reads: tuple, pos: float) -> int:
    """#(raw < pos + 1) - #(raw <= pos): the raw marginals in (pos, pos + 1), or fewer if pos + 1 == pos.

    Where the bracket's ranks split the sorted raw marginals at pos and at
    pos + 1, as they do unless rounding put pos on a breakpoint, its
    ``reads`` decide it; else it is counted in one pass.
    """
    hi = pos + 1.0
    if reads[0] <= pos < reads[1] and reads[2] < hi <= reads[3]:
        return last[1] - last[0]
    return int(np.count_nonzero((raw > pos) & (raw < hi)))


def _proves_at_most_k(table: tuple, at: tuple, last, reads: tuple, x: float, k: float) -> bool:
    """Whether the table proves clamp_sum(raw, sizes, x) <= k for the bracket's right end x.

    With z, o = last + 1 and no raw marginal below rank z above x (x is at
    most the one at rank z), the terms below z are 0, those in [z, o) at
    most s*(p - x) and those from o on at most s. The model value on the
    piece (z, o), the piece the Newton search ended on, is that upper bound
    from the table's prefix sums. Every rounding in between (the raw
    marginals, the prefix sums, the model's terms and clamp_sum's sum) is
    at most gamma_n = n*u/(1 - n*u) times the sum of its terms' magnitudes,
    with u = 2**-53 and n <= m + 8, in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    4.2). Those magnitudes sum to at most S*(1 + k/S + |x - k/S|) +
    spread/lambda, S the total size, so the model value plus 8*gamma_n
    times that is below k only if clamp_sum is.
    """
    if x == math.inf:
        return True  # every term clamps to 0
    size_sums, sums, _, spread = table
    _, q, lam = at
    if last[1] < last[0] or reads[0] > x:
        return False
    m = len(sums) - 1
    value, _ = _piece_value(size_sums, sums, m, last[0] + 1, last[1] + 1, lam * (x - q), lam)
    gamma = (m + 8) * _UNIT / (1.0 - (m + 8) * _UNIT)
    bound = 8.0 * gamma * (size_sums.item(m) * (1.0 + q + abs(x - q)) + spread / lam)
    return value + bound < k  # NaN fails too


_UNIT = 2.0 ** -53  # unit roundoff of float64


def _piece_value(size_sums, sums, m: int, zero: int, one: int, y: float, lam: float) -> tuple:
    """(model value, interior size) at centered log threshold y on the piece (zero, one).

    Terms at ranks below ``zero`` clamp to 0, those from ``one`` to m - 1
    to 1, and each one between is s*(c - y)/lambda, c its centered log price.
    """
    above = size_sums.item(one)
    inner = above - size_sums.item(zero)
    return size_sums.item(m) - above + (sums.item(one) - sums.item(zero) - inner * y) / lam, inner


def _model_guess(mempool: Mempool, params: GameParams) -> list:
    """Per run, a guess at the last index whose breakpoint has f above k, or -1.

    With y the centered log price whose raw marginal is the shift, the
    model reads f from the price-order table: terms whose centered log
    price is below y clamp to 0, those from y + lambda up clamp to 1, and
    the rest are interior. It is piecewise linear in y, with the
    breakpoints of f, and equals clamp_sum's value up to rounding. Newton's
    method finds the piece holding the model's root, from the middle of a
    bracket that the prefix sums give. If it has not ended after
    ``_NEWTON_STEPS`` evaluations, or a step would leave the bracket, the
    search bisects ranks instead: it bounds, per run, the count of
    breakpoints with the model above k, and evaluates the median candidate
    of the run with more candidates, which lowers the bit length of that
    run's bound width by at least 1. So the search makes at most
    _NEWTON_STEPS + 2 * bit_length(m) model evaluations.
    """
    size_sums, sums, sc, _ = mempool.price_order
    k, lam = params.k, float(params.lam)
    m = len(sc)
    total = size_sums.item(m)
    if total <= k:
        return [-1, -1]
    # The model at y lies between the size priced from y + lambda up and
    # the size priced from y up. Ranks from r on hold at most k and ranks
    # from r - 1 on more, so the root lies in [c(r - 1) - lambda, c(r)].
    r = int(size_sums.searchsorted(total - k))
    lo, hi = sc.item(r - 1) - lam, sc.item(min(r, m - 1))
    y = 0.5 * (lo + hi)
    piece = sc.searchsorted((y, y + lam)).tolist()
    for _ in range(_NEWTON_STEPS):
        if not lo < y < hi:
            break
        value, inner = _piece_value(size_sums, sums, m, piece[0], piece[1], y, lam)
        if value > k:
            lo = y
        else:
            hi = y
        if inner <= 0:
            break
        y = y + (value - k) * lam / inner
        newton = sc.searchsorted((y, y + lam)).tolist()
        if newton == piece:  # the step stayed in its piece, so y is the root
            return [piece[0] - 1, piece[1] - 1]
        piece = newton
    # Bisect ranks. Breakpoints at or below lo have the model above k, and
    # those at or above hi do not.
    low0, low1 = sc.searchsorted((lo, lo + lam), "right").tolist()
    high0, high1 = sc.searchsorted((hi, hi + lam)).tolist()
    while low0 < high0 or low1 < high1:
        if high0 - low0 >= high1 - low1:
            run, c = 0, sc.item((low0 + high0) // 2)
            ends = (c, c + lam)
        else:
            run, c = 1, sc.item((low1 + high1) // 2)
            ends = (c - lam, c)  # c itself: c - lambda + lambda may round off it
        zero, one = piece = sc.searchsorted(ends).tolist()
        value, _ = _piece_value(size_sums, sums, m, zero, one, ends[0], lam)
        if value > k:  # past every rank tied with the median, too
            tied = int(sc.searchsorted(c, "right"))
            low0, low1 = max(low0, tied if run == 0 else zero), max(low1, tied if run == 1 else one)
        else:
            high0, high1 = min(high0, zero), min(high1, one)
        if low0 > high0 or low1 > high1:
            return [piece[0] - 1, piece[1] - 1]  # rounding made the model disagree with itself
    return [low0 - 1, low1 - 1]


_NEWTON_STEPS = 6  # model evaluations before the search bisects ranks


def log_threshold(xhat: float, mempool: Mempool, params: GameParams) -> float:
    """ln w at clamp shift xhat: the log price whose raw marginal is exactly xhat."""
    return -params.lam * params.k / mempool.total_size + mempool.mean_log_price + params.lam * xhat


def solve_equilibrium(mempool: Mempool, params: GameParams, mode: str = "fixed") -> MarginalProfile:
    """End-to-end equilibrium profile for a mempool.

    mode="fixed" plays fixed mode's game (``fixed_block_size``: integer k and
    unit sizes); mode="variable" allows arbitrary positive sizes. A mempool
    that fits entirely in one block yields the all-ones profile rather than
    an error. Otherwise the profile's values are compute_phat_real's raw
    marginals p clamped at the shift, min(max(p - xhat, 0), 1), which must
    use capacity k or raise InvariantViolation; this is the package's one
    clamp. Each solve leaves (k, lambda, xhat) on ``mempool.last_solve``
    for ``equilibrium_xhat``.
    """
    if mode == "fixed":
        fixed_block_size(mempool, params)
    elif mode != "variable":
        raise ValidationError(f"unknown mode {mode!r}")
    raw = compute_phat_real(mempool, params)
    xhat = _shift(raw, mempool, params)
    if mempool.total_size <= params.k:
        values = np.ones(len(mempool))
    else:
        values = raw  # this solve's own array, shifted and clipped in place
        values -= xhat
        values.clip(0.0, 1.0, out=values)
        used = capacity(values, mempool.sizes)
        if not abs(used - params.k) <= BUDGET_RTOL * max(1.0, params.k):  # NaN fails too
            raise InvariantViolation(
                f"clamped marginals use capacity {used!r}, expected {params.k!r}"
            )
    mempool.last_solve = (params.k, params.lam, xhat)  # one tuple, replaced whole
    return MarginalProfile(mempool.ids, values, float(xhat), log_threshold(xhat, mempool, params))


def equilibrium_xhat(mempool: Mempool, params: GameParams) -> float:
    """The clamp shift solve_equilibrium finds, bit for bit, without building a profile.

    Fixed and variable mode share the raw marginals, so a solve in either
    mode at the same k and lambda is reused; otherwise only the shift is solved.
    """
    k, lam, xhat = mempool.last_solve
    if k == params.k and lam == params.lam:
        return xhat
    return _shift(compute_phat_real(mempool, params), mempool, params)


def _shift(raw: np.ndarray, mempool: Mempool, params: GameParams) -> float:
    if mempool.total_size <= params.k:
        # Everything fits: all marginals are 1 and any shift at or below
        # min(p)-1 clamps to exactly that.
        return float(raw.min() - 1.0)
    return solve_xhat(raw, mempool, params)
