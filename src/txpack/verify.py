"""Expected utility, best responses, and Nash-equilibrium verification.

A miner facing symmetric opponents with marginals q earns, conditional on
mining a block, sum over tx of p_own(tx) * v(tx) * s(tx) * exp(-lambda * q(tx)):
the exponential factor is the probability that none of a Poisson(lambda)
number of competing blocks contains tx. Utility is linear in the miner's
own marginals, so the best response is a fractional knapsack over discounted
prices, and with unit sizes and integer k a pure k-subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import MarginalProfile, check_marginals
from .errors import ValidationError
from .mempool import GameParams, Mempool


@dataclass(frozen=True, eq=False)
class UtilityReport:
    """Expected gas fee conditional on mining, with per-transaction terms."""

    value: float
    ids: np.ndarray
    contributions: np.ndarray

    @property
    def per_tx(self) -> dict:
        return dict(zip(self.ids.tolist(), self.contributions.tolist()))


@dataclass(frozen=True)
class EquilibriumVerdict:
    passes: bool
    w: float
    worst_violation: float
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "passes": bool(self.passes),
            "w": float(self.w),
            "worst_violation": float(self.worst_violation),
        }
        if self.witness is not None:
            doc["witness"] = {
                "txids": sorted(int(t) for t in self.witness["txids"]),
                "utility_gain": float(self.witness["utility_gain"]),
            }
        return doc


def _own_vector(own, mempool: Mempool) -> np.ndarray:
    """Checked marginals in mempool order from a profile, a mapping or an id-set (absent ids: 0)."""
    if isinstance(own, MarginalProfile):
        return own.values_for(mempool)
    p = np.zeros(len(mempool))
    if isinstance(own, dict):
        p[mempool.positions(own.keys())] = np.fromiter(own.values(), np.float64, len(own))
        check_marginals(p, "own marginals")
    else:
        p[mempool.positions(own)] = 1.0
    return p


def discounted_prices(others: MarginalProfile, mempool: Mempool, params: GameParams) -> np.ndarray:
    """v(tx) * exp(-lambda * q(tx)) against opponents' marginals q."""
    q = _own_vector(others, mempool)
    return mempool.prices * np.exp(-params.lam * q)


def expected_utility(own, others: MarginalProfile, mempool: Mempool, params: GameParams) -> UtilityReport:
    p_own = _own_vector(own, mempool)
    contributions = p_own * mempool.sizes * discounted_prices(others, mempool, params)
    return UtilityReport(float(np.sum(contributions)), mempool.ids, contributions)


def best_response(others: MarginalProfile, mempool: Mempool, params: GameParams):
    """Fractional knapsack against opponents' marginals; ties by input order.

    Fills capacity k in order of discounted price, whole transactions first and
    a fraction of the first one that no longer fits. With unit sizes and
    integer k this is the top-k pure strategy. Returns (tuple of the txids
    with positive weight, in input order; UtilityReport).
    """
    vt = discounted_prices(others, mempool, params)
    sizes = mempool.sizes
    order = np.argsort(-vt, kind="stable")  # stable keeps input order on ties
    filled = np.cumsum(sizes[order])
    n_whole = int(np.searchsorted(filled, params.k, side="right"))
    p_own = np.zeros(len(mempool))
    p_own[order[:n_whole]] = 1.0
    if n_whole < len(mempool):
        room = params.k - (filled[n_whole - 1] if n_whole else 0.0)
        p_own[order[n_whole]] = min(1.0, room / sizes[order[n_whole]])
    contributions = p_own * sizes * vt
    txids = tuple(mempool.ids[p_own > 0.0].tolist())
    return txids, UtilityReport(float(np.sum(contributions)), mempool.ids, contributions)


def verify_equilibrium(
    profile: MarginalProfile, mempool: Mempool, params: GameParams, tol: float = 1e-9
) -> EquilibriumVerdict:
    """Check the threshold condition plus absence of a profitable deviation.

    Requires a w such that every zero-probability transaction has discounted
    price <= w, every certainly-included one >= w, and every interior one
    == w. Violations are measured relative to w. A profile without a w
    (``w is None``) is checked against one estimated from its discounted prices.
    """
    p = _own_vector(profile, mempool)
    vt = discounted_prices(profile, mempool, params)
    zero = p <= 0.0
    one = p >= 1.0
    interior = ~zero & ~one

    w = profile.w
    if w is None:
        if interior.any():
            w = float(np.median(vt[interior]))
        else:
            lo = float(vt[zero].max()) if zero.any() else -math.inf
            hi = float(vt[one].min()) if one.any() else math.inf
            w = 0.5 * (max(lo, 0.0) + hi) if math.isfinite(hi) else max(lo, 1.0)
    scale = max(abs(w), 1e-300)

    violations = [0.0]
    if interior.any():
        violations.append(float(np.abs(vt[interior] - w).max()) / scale)
    if zero.any():
        violations.append(max(0.0, float(vt[zero].max()) - w) / scale)
    if one.any():
        violations.append(max(0.0, w - float(vt[one].min())) / scale)
    worst = max(violations)

    br_set, br_util = best_response(profile, mempool, params)
    sym_util = expected_utility(profile, profile, mempool, params)
    gain = br_util.value - sym_util.value
    worst = max(worst, gain / max(abs(sym_util.value), 1.0))

    passes = worst <= tol
    witness = None
    if not passes and gain > 0:
        witness = {"txids": br_set, "utility_gain": gain}
    return EquilibriumVerdict(passes, float(w), float(worst), witness)


def brute_force_feasible(m: int, k: int) -> bool:
    """Whether brute_force_check enumerates an m-transaction, capacity-k instance."""
    return m <= 20 and math.comb(m, min(k, m)) <= 1_000_000


BRUTE_FORCE_TOL = 1e-8  # the largest utility gain a passing profile allows


def brute_force_check(
    mempool: Mempool, params: GameParams, profile: MarginalProfile
) -> EquilibriumVerdict:
    """Enumerate every pure k-subset deviation against the profile.

    Utility is linear in own marginals, so no mixed deviation can beat the
    best pure one; a gain above BRUTE_FORCE_TOL fails. Unit sizes and small
    instances only (``brute_force_feasible``).
    """
    mempool.require_unit_size()
    k = params.require_integer_k()
    m = len(mempool)
    if not brute_force_feasible(m, k):
        raise ValidationError(f"instance too large for enumeration (m={m}, k={k})")
    vt = discounted_prices(profile, mempool, params)
    sym = expected_utility(profile, profile, mempool, params).value

    best_gain = -math.inf
    best_set: tuple = ()
    for combo in itertools.combinations(range(m), params.block_size(m)):
        u = float(vt[list(combo)].sum())
        if u - sym > best_gain:
            best_gain = u - sym
            best_set = combo
    passes = best_gain <= BRUTE_FORCE_TOL
    witness = None
    if not passes:
        witness = {
            "txids": tuple(int(mempool.ids[i]) for i in best_set),
            "utility_gain": best_gain,
        }
    w = float("nan") if profile.w is None else profile.w
    return EquilibriumVerdict(passes, w, float(max(best_gain, 0.0)), witness)


def greedy_profile(mempool: Mempool, params: GameParams) -> MarginalProfile:
    """Deterministic top-k-by-price profile (the naive packaging strategy)."""
    order = np.argsort(-mempool.prices, kind="stable")
    values = np.zeros(len(mempool))
    values[order[: params.block_size(len(mempool))]] = 1.0
    return MarginalProfile(mempool.ids, values, xhat=0.0, w=None)


def uniform_profile(mempool: Mempool, params: GameParams) -> MarginalProfile:
    """Every transaction equally likely: p = k/m."""
    m = len(mempool)
    values = np.full(m, min(params.k / m, 1.0))
    return MarginalProfile(mempool.ids, values, xhat=0.0, w=None)
