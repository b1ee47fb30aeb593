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
        """The marginals in mempool order; the profile must list the mempool's ids in its order."""
        if len(self.ids) != len(mempool) or not np.array_equal(self.ids, mempool.ids):
            raise ValidationError("profile does not match the mempool")
        return np.asarray(self.values, dtype=np.float64)

    def probability(self, txid: int) -> float:
        idx = np.nonzero(self.ids == txid)[0]
        if idx.size == 0:
            raise KeyError(txid)
        return float(self.values[idx[0]])

    def to_json_dict(self) -> dict:
        return {
            "marginals": [
                {"id": i, "p": v} for i, v in zip(self.ids.tolist(), self.values.tolist())
            ],
            "xhat": float(self.xhat),
            "w": None if self.w is None else float(self.w),
        }


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


def solve_xhat(raw: np.ndarray, sizes: np.ndarray, k: float) -> float:
    """Smallest x with sum_tx min(max(p(tx)-x,0),1)*s(tx) = k.

    The left side is continuous, non-increasing, and piecewise linear with
    breakpoints at p(tx) and p(tx)-1; we bracket the crossing by binary
    search over the sorted breakpoints and interpolate on the bracketed
    linear segment. O(m log m) total.
    """
    p = np.asarray(raw, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    total = float(sizes.sum())
    if total < k * (1.0 - BUDGET_RTOL):
        raise MempoolFitsInBlock(
            f"total capacity {total:g} < block capacity {k:g}; package everything"
        )
    b = np.sort(np.concatenate([p, p - 1.0]))
    # Left of b[0] every term clamps to 1, so f == total there; if total == k
    # the equation holds on an unbounded interval and b[0] is the canonical
    # leftmost finite answer.
    if clamp_sum(p, sizes, b[0]) <= k:
        return float(b[0])
    lo, hi = 0, len(b) - 1  # f(b[lo]) > k, f(b[hi]) = 0 <= k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clamp_sum(p, sizes, b[mid]) > k:
            lo = mid
        else:
            hi = mid
    left, right = float(b[lo]), float(b[hi])
    f_left = clamp_sum(p, sizes, left)
    pos = 0.5 * (left + right)
    slope = -float(sizes[(p > pos) & (p < pos + 1.0)].sum())
    if slope == 0.0:
        # Degenerate flat bracket; only reachable through rounding noise.
        return right if f_left > k else left
    return left + (k - f_left) / slope


def threshold(xhat: float, mempool: Mempool, params: GameParams) -> float:
    """Equilibrium threshold w at clamp shift xhat: the price whose raw marginal is exactly xhat."""
    sums = mempool.total_size
    log_w = -params.lam * params.k / sums + mempool.mean_log_price + params.lam * xhat
    return float(np.exp(log_w))


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
    yields the all-ones profile rather than an error.
    """
    if mode == "fixed":
        params.require_integer_k()
        raw = compute_phat(mempool, params)
    elif mode == "variable":
        raw = compute_phat_real(mempool, params)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    if mempool.total_size <= params.k:
        # Everything fits: all marginals are 1 and any shift at or below
        # min(p)-1 clamps to exactly that.
        xhat = float(raw.min() - 1.0)
        w = threshold(xhat, mempool, params)
        return MarginalProfile(mempool.ids, np.ones(len(mempool)), xhat, w)
    xhat = solve_xhat(raw, mempool.sizes, params.k)
    return clamp_marginals(raw, xhat, mempool, params)
