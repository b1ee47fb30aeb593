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
import sys
from dataclasses import dataclass

import numpy as np

from .equilibrium import MarginalProfile, log_threshold
from .errors import ValidationError
from .mempool import GameParams, Mempool

_TINY = sys.float_info.min  # the smallest normal float


@dataclass(frozen=True)
class UtilityReport:
    """Expected gas fee conditional on mining."""

    value: float


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


def _discounted(others: MarginalProfile, mempool: Mempool, params: GameParams):
    """(q, vt, top): the opponents' checked marginals q, and v e^(-lambda q) as vt e^top.

    top is 0, and vt the linear product, while e^(-lambda max q) and every
    discounted price are normal floats. Otherwise vt = exp(ln v - lambda q - top),
    with top the largest log discounted price, so the largest vt is 1. The
    oracles work in vt units and multiply by e^top only in the absolute
    utilities they report.
    """
    q = others.values_for(mempool)
    vt = mempool.prices * np.exp(-params.lam * q)
    # e^(-lambda q) is smallest at the largest q.
    if vt.min(initial=math.inf) >= _TINY and np.exp(-params.lam * q.max(initial=0.0)) >= _TINY:
        return q, vt, 0.0
    log_vt = mempool.log_prices - params.lam * q
    top = float(log_vt.max())
    return q, np.exp(log_vt - top), top


def expected_utility(own: MarginalProfile, others: MarginalProfile, mempool: Mempool,
                     params: GameParams) -> UtilityReport:
    p_own = own.values_for(mempool)
    _, vt, top = _discounted(others, mempool, params)
    return UtilityReport(float(np.sum(p_own * mempool.sizes * vt)) * math.exp(top))


def best_response(others: MarginalProfile, mempool: Mempool, params: GameParams):
    """Fractional knapsack against opponents' marginals; ties by input order.

    Fills capacity k in order of discounted price, whole transactions first and
    a fraction of the first one that no longer fits. With unit sizes and
    integer k this is the top-k pure strategy. Returns (tuple of the txids
    with positive weight, in input order; UtilityReport).
    """
    _, vt, top = _discounted(others, mempool, params)
    txids, value = _best_response_to(vt, mempool, params)
    return txids, UtilityReport(value * math.exp(top))


def _best_response_to(vt: np.ndarray, mempool: Mempool, params: GameParams):
    """(txids, utility) of best_response against the discounted prices vt, in vt's unit."""
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
    return tuple(mempool.ids[p_own > 0.0].tolist()), float(np.sum(contributions))


def verify_equilibrium(
    profile: MarginalProfile, mempool: Mempool, params: GameParams, tol: float = 1e-9
) -> EquilibriumVerdict:
    """Check the threshold condition plus absence of a profitable deviation.

    Requires a w such that every zero-probability transaction has discounted
    price <= w, every certainly-included one >= w, and every interior one
    == w. Violations are measured relative to w, and the best response's
    utility gain relative to the symmetric utility. A profile without a w
    (``w is None``) is checked against one estimated from its discounted prices.
    Where the discounted prices are rescaled (see ``_discounted``) or w is
    subnormal or 0, the check compares ln v - lambda p with ln w.
    """
    p, vt, top = _discounted(profile, mempool, params)
    zero = p <= 0.0
    one = p >= 1.0
    interior = ~zero & ~one

    w, log_w = profile.w, None
    if w is None:  # estimated in vt units
        if interior.any():
            w = float(np.median(vt[interior]))
        else:
            lo = float(vt[zero].max()) if zero.any() else -math.inf
            hi = float(vt[one].min()) if one.any() else math.inf
            w = 0.5 * (max(lo, 0.0) + hi) if math.isfinite(hi) else max(lo, 1.0)
        log_w = math.log(w) + top if w > 0.0 else -math.inf
        if top != 0.0:
            w = math.exp(log_w)
    if top == 0.0 and (w < 0.0 or w >= _TINY):
        rel = (vt - w) / max(abs(w), 1e-300)  # discounted price over w, minus 1
    else:
        if log_w is None:  # the solver's log threshold, where w is its exp, keeps the digits w lost
            log_w = log_threshold(profile.xhat, mempool, params)
            if w != float(np.exp(log_w)):
                log_w = math.log(w) if w > 0.0 else -math.inf
        with np.errstate(over="ignore"):  # past e^709.78 times w, the violation is inf
            rel = np.expm1(mempool.log_prices - params.lam * p - log_w)

    violations = [0.0]
    if interior.any():
        violations.append(float(np.abs(rel[interior]).max()))
    if zero.any():
        violations.append(max(0.0, float(rel[zero].max())))
    if one.any():
        violations.append(max(0.0, -float(rel[one].min())))
    worst = max(violations)

    br_set, br_util = _best_response_to(vt, mempool, params)
    sym_util = float(np.sum(p * mempool.sizes * vt))  # expected_utility(profile, profile, ...)
    gain = br_util - sym_util
    worst = max(worst, gain / max(abs(sym_util), 1e-300))

    passes = worst <= tol
    witness = None
    if not passes and gain > 0:
        witness = {"txids": br_set, "utility_gain": gain * math.exp(top)}
    return EquilibriumVerdict(passes, float(w), float(worst), witness)


def brute_force_feasible(m: int, k: int) -> bool:
    """Whether brute_force_check enumerates an m-transaction, capacity-k instance."""
    return m <= 20 and math.comb(m, min(k, m)) <= 1_000_000


BRUTE_FORCE_TOL = 1e-8  # the largest utility gain a passing profile allows, per unit utility


def brute_force_check(
    mempool: Mempool, params: GameParams, profile: MarginalProfile
) -> EquilibriumVerdict:
    """Enumerate every pure k-subset deviation against the profile.

    Utility is linear in own marginals, so no mixed deviation can beat the
    best pure one; a gain above BRUTE_FORCE_TOL times the symmetric utility
    fails, whatever unit the prices are in. ``worst_violation`` reports the
    absolute gain. Unit sizes and small instances only
    (``brute_force_feasible``).
    """
    mempool.require_unit_size()
    k = params.require_integer_k()
    m = len(mempool)
    if not brute_force_feasible(m, k):
        raise ValidationError(f"instance too large for enumeration (m={m}, k={k})")
    p, vt, top = _discounted(profile, mempool, params)
    sym = float(np.sum(p * vt))  # expected_utility(profile, profile, ...) in vt units

    best_gain = -math.inf
    best_set: tuple = ()
    for combo in itertools.combinations(range(m), params.block_size(m)):
        u = float(vt[list(combo)].sum())
        if u - sym > best_gain:
            best_gain = u - sym
            best_set = combo
    passes = best_gain <= BRUTE_FORCE_TOL * abs(sym)
    unit = math.exp(top)
    witness = None
    if not passes:
        witness = {
            "txids": tuple(int(mempool.ids[i]) for i in best_set),
            "utility_gain": best_gain * unit,
        }
    w = float("nan") if profile.w is None else profile.w
    return EquilibriumVerdict(passes, w, float(max(best_gain, 0.0)) * unit, witness)


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
