"""Closed-form equilibrium marginals and the clamp-threshold solver.

The pipeline is: raw marginals (which may fall outside [0,1]) -> smallest
shift ``xhat`` making the truncated marginals use exactly the block
capacity -> clamped profile plus the equilibrium price threshold ``w``.
Capacity sums go through ``capacity``, which never calls BLAS, so no result
depends on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, MempoolFitsInBlock, ValidationError, ZeroLatencyError
from .mempool import GameParams, Mempool

BUDGET_RTOL = 1e-9


@dataclass(frozen=True)
class MarginalProfile:
    """Equilibrium inclusion probabilities with the clamp shift and threshold.

    ``values[i]`` is the probability that the symmetric equilibrium strategy
    packages transaction ``ids[i]``. ``w`` is the common discounted gas price
    v(tx)*exp(-lambda*p(tx)) of every interior transaction, or None for a
    profile that carries no threshold (such as the greedy and uniform ones).
    """

    ids: np.ndarray
    values: np.ndarray
    xhat: float
    w: float | None

    def as_dict(self) -> dict:
        return {int(i): float(v) for i, v in zip(self.ids, self.values)}

    def values_for(self, mempool: Mempool) -> np.ndarray:
        """The checked marginals in mempool order; the profile must list the mempool's ids."""
        if len(self.ids) != len(mempool) or not np.array_equal(self.ids, mempool.ids):
            raise ValidationError("profile does not match the mempool")
        return check_marginals(np.asarray(self.values, dtype=np.float64), "profile marginals")


def check_marginals(values: np.ndarray, what: str) -> np.ndarray:
    """values, unless one lies outside [0, 1 + 1e-12]: then ValidationError (NaN fails too)."""
    if len(values) and not 0.0 <= values.min() <= values.max() <= 1.0 + 1e-12:
        raise ValidationError(f"{what} must lie in [0, 1]")
    return values


def check_solver_inputs(mempool: Mempool, params: GameParams):
    if len(mempool) == 0:
        raise ValidationError("empty mempool")
    if params.lam == 0:
        raise ZeroLatencyError()


def compute_phat(mempool: Mempool, params: GameParams) -> np.ndarray:
    """Raw equilibrium marginals for unit-size transactions, in mempool order.

    p(tx) = k/m + (ln v(tx) - mean ln v) / lambda: the unit-size case of
    compute_phat_real. The float64 array sums to k but individual entries
    may lie outside [0,1].
    """
    mempool.require_unit_size()
    return compute_phat_real(mempool, params)


def compute_phat_real(mempool: Mempool, params: GameParams) -> np.ndarray:
    """Raw marginals for arbitrary positive sizes, as a float64 array in mempool order.

    p(tx) = k/S + (ln v(tx) - wmean) / lambda, with S the total size and
    wmean the size-weighted mean log price, so sum of s(tx)*p(tx) equals k.
    """
    check_solver_inputs(mempool, params)
    shifted = mempool.log_prices - mempool.mean_log_price
    return params.k / mempool.total_size + shifted / params.lam


def capacity(values: np.ndarray, sizes: np.ndarray) -> float:
    """Sum of values * sizes; einsum's own loop, not BLAS, so its bits are fixed."""
    return float(np.einsum("i,i->", values, sizes))


def clamp_sum(values: np.ndarray, sizes: np.ndarray, x: float) -> float:
    """Capacity used by the truncated marginals min(max(p - x, 0), 1)."""
    t = values - x
    np.clip(t, 0.0, 1.0, out=t)
    return capacity(t, sizes)


def solve_xhat(raw: np.ndarray, mempool: Mempool, params: GameParams) -> float:
    """Smallest x with sum_tx min(max(p(tx)-x,0),1)*s(tx) = k.

    The left side f is continuous, non-increasing, and piecewise linear with
    breakpoints at p(tx) and p(tx)-1. ``raw`` must be compute_phat_real's
    output for this mempool and params: it rises with the log price, so
    ``mempool.price_order``, sorted once per mempool, orders both runs of
    breakpoints, p and p-1, for every (k, lambda). A Newton search on the
    table's prefix sums guesses the two breakpoints that bracket the
    crossing; clamp_sum confirms them, searching outward only where rounding
    misled the guess; and the root is interpolated on the bracketed linear
    segment, bit for bit as a binary search over all sorted breakpoints
    would find it. With the table built, a solve costs a few O(log m)
    searches plus a constant number of O(m) passes.
    """
    k = params.k
    sizes = mempool.sizes
    total = mempool.total_size
    if total < k * (1.0 - BUDGET_RTOL):
        raise MempoolFitsInBlock(
            f"total capacity {total:g} < block capacity {k:g}; package everything"
        )
    order = mempool.price_order[0]
    f_at = {}

    def above(x: float) -> bool:
        if x not in f_at:
            f_at[x] = clamp_sum(raw, sizes, x)
        return f_at[x] > k

    last = _model_guess(mempool, params)
    left, right = _bracket(raw, order, last)
    if (left is not None and not above(left)) or above(right):
        # The guess was off; f is monotone, so each run's crossing is found exactly.
        last = [_last_above(raw, order, r, i, above) for r, i in enumerate(last)]
        left, right = _bracket(raw, order, last)
    if left is None:
        # f(min(p)-1) <= k: every term clamps to about 1 there, so the
        # equation holds on an unbounded interval and the smallest breakpoint
        # is the canonical leftmost finite answer.
        return right
    f_left = f_at[left]
    pos = 0.5 * (left + right)
    if mempool.is_unit_size:  # a sum of ones is the count, in any order
        inside = np.searchsorted(raw, pos + 1.0, "left", sorter=order)
        inside -= np.searchsorted(raw, pos, "right", sorter=order)
        slope = -float(max(inside, 0))  # pos + 1.0 == pos once |pos| >= 2**53
    else:
        slope = -float(sizes[(raw > pos) & (raw < pos + 1.0)].sum())
    if slope == 0.0:
        # Degenerate flat bracket; only reachable through rounding noise.
        return right if f_left > k else left
    return left + (k - f_left) / slope


def _model_guess(mempool: Mempool, params: GameParams) -> list:
    """Per run, a guess at the last index whose breakpoint has f above k, or -1.

    With y the log price whose raw marginal is the shift, the model reads f
    from the price-order table: terms whose log price is below y clamp to 0,
    those from y + lambda up clamp to 1, and the rest are interior. It is
    piecewise linear in y, with the breakpoints of f, and equals clamp_sum's
    value up to rounding. Newton's method from the shift 0 finds the piece
    holding the model's root, bisecting the bracket whenever a step would
    leave it.
    """
    order, size_sums, log_sums = mempool.price_order
    log_prices, k, lam = mempool.log_prices, params.k, params.lam
    m = len(order)
    total = size_sums[m]
    if total <= k:
        return [-1, -1]
    # The model is total below every breakpoint and 0 at the top one.
    lo, hi = log_prices[order[0]] - lam - 1.0, log_prices[order[m - 1]]
    y = log_threshold(0.0, mempool, params)  # exact if nothing clamps
    if not lo < y < hi:
        y = 0.5 * (lo + hi)
    newton_piece = None
    for _ in range(_MAX_STEPS):
        piece = log_prices.searchsorted((y, y + lam), sorter=order).tolist()
        if piece == newton_piece:  # the Newton step stayed in its piece, so y is the root
            break
        zero, one = piece
        inner = size_sums[one] - size_sums[zero]
        value = total - size_sums[one] + (log_sums[one] - log_sums[zero] - inner * y) / lam
        if value > k:
            lo = y
        else:
            hi = y
        newton_piece = piece
        y = y + (value - k) * lam / inner if inner > 0 else hi
        if not lo < y < hi:
            newton_piece = None
            y = 0.5 * (lo + hi)
            if not lo < y < hi:
                break
    return [piece[0] - 1, piece[1] - 1]


_MAX_STEPS = 64  # model evaluations before the exact search takes over from the guess


def _bracket(raw, order, last) -> tuple:
    """(left, right): the larger of the runs' breakpoints at ``last``, and the smaller after it.

    Run r holds the breakpoints p - r in ascending order. ``last[r]`` is -1
    where a run has no such breakpoint; left is None when neither has one.
    """
    lefts = [raw[order[i]] - r for r, i in enumerate(last) if i >= 0]
    rights = [raw[order[i + 1]] - r for r, i in enumerate(last) if i + 1 < len(order)]
    return (float(max(lefts)) if lefts else None), float(min(rights))


def _last_above(raw, order, r, i, above) -> int:
    """The last index j of run r with above(p[order[j]] - r), or -1, searched outward from i."""
    m = len(order)

    def at(j: int) -> bool:
        return above(float(raw[order[j]] - r))

    lo, hi, step = i, i + 1, 1  # want lo == -1 or at(lo), and hi == m or not at(hi)
    while lo >= 0 and not at(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while hi < m and at(hi):
        lo, hi, step = hi, hi + step, 2 * step
    lo, hi = max(lo, -1), min(hi, m)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def log_threshold(xhat: float, mempool: Mempool, params: GameParams) -> float:
    """ln w at clamp shift xhat: the log price whose raw marginal is exactly xhat."""
    return -params.lam * params.k / mempool.total_size + mempool.mean_log_price + params.lam * xhat


def threshold(xhat: float, mempool: Mempool, params: GameParams) -> float:
    """Equilibrium threshold w at clamp shift xhat: the price whose raw marginal is exactly xhat."""
    return float(np.exp(log_threshold(xhat, mempool, params)))


def clamp_marginals(
    raw: np.ndarray, xhat: float, mempool: Mempool, params: GameParams
) -> MarginalProfile:
    """Truncate raw marginals at xhat and attach the equilibrium threshold w."""
    values = np.clip(raw - xhat, 0.0, 1.0)
    profile = MarginalProfile(mempool.ids, values, float(xhat), threshold(xhat, mempool, params))
    used = capacity(values, mempool.sizes)
    if not abs(used - params.k) <= BUDGET_RTOL * max(1.0, params.k):  # NaN fails too
        raise InvariantViolation(
            f"clamped marginals use capacity {used!r}, expected {params.k!r}"
        )
    return profile


def solve_equilibrium(mempool: Mempool, params: GameParams, mode: str = "fixed") -> MarginalProfile:
    """End-to-end equilibrium profile for a mempool.

    mode="fixed" requires unit sizes and integer k; mode="variable" allows
    arbitrary positive sizes. A mempool that fits entirely in one block
    yields the all-ones profile rather than an error. Each solve leaves
    (k, lambda, xhat) on ``mempool.last_solve`` for ``equilibrium_xhat``.
    """
    if mode == "fixed":
        params.require_integer_k()
        raw = compute_phat(mempool, params)
    elif mode == "variable":
        raw = compute_phat_real(mempool, params)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    xhat = _shift(raw, mempool, params)
    if mempool.total_size <= params.k:
        w = threshold(xhat, mempool, params)
        profile = MarginalProfile(mempool.ids, np.ones(len(mempool)), xhat, w)
    else:
        profile = clamp_marginals(raw, xhat, mempool, params)
    mempool.last_solve = (params.k, params.lam, xhat)  # one tuple, replaced whole
    return profile


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
