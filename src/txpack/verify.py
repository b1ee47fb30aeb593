"""Expected utility, best responses, and Nash-equilibrium verification.

A miner facing symmetric opponents with marginals q earns, conditional on
mining a block, sum over tx of p_own(tx) * v(tx) * s(tx) * exp(-lambda * q(tx)):
the exponential factor is the probability that none of a Poisson(lambda)
number of competing blocks contains tx. Utility is linear in the miner's
own marginals, so the best response is a fractional knapsack over discounted
prices, and with unit sizes and integer k a pure k-subset.

Every oracle works in one log domain: discounted prices are exponentiated
from ln v - lambda q relative to their largest value, and the threshold
check compares ln v - lambda p with the profile's ln w, so no result depends
on whether v, w or e^(-lambda q) fits in a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import MarginalProfile
from .errors import ValidationError
from .mempool import GameParams, Mempool, fixed_block_size


@dataclass(frozen=True)
class UtilityReport:
    """Expected gas fee conditional on mining."""

    value: float


@dataclass(frozen=True)
class EquilibriumVerdict:
    passes: bool
    w: float
    worst_violation: float
    witness: dict | None

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

    vt = exp(ln v - lambda q - top), with top the largest log discounted
    price, so the largest vt is 1 and no discounted price over- or
    underflows for lack of a unit. The oracles work in vt units and multiply
    by e^top only in the absolute utilities they report.
    """
    q = others.values_for(mempool)
    vt = np.multiply(q, -params.lam)
    vt += mempool.log_prices
    top = float(vt.max(initial=-math.inf))
    vt -= top
    np.exp(vt, out=vt)
    return q, vt, top


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
    """(txids, utility) of best_response against the discounted prices vt, in vt's unit.

    Only the prefix of the price order that fills k matters. Every index
    whose vt is at least the b-th largest, b = floor(k / min size) + 2,
    comes first in the full order, and b of them overfill k; sorting just
    those gives the same prefix and the same prefix sums. Where rounding
    keeps them from crossing k, the full order is sorted instead.
    """
    sizes = mempool.sizes
    m = len(mempool)
    b = params.k / float(sizes.min()) + 2 if m else m
    order = None
    if b < m:
        kth = np.partition(vt, m - int(b))[m - int(b)]
        candidates = np.flatnonzero(vt >= kth)
        order = candidates[np.argsort(-vt[candidates], kind="stable")]
        filled = np.cumsum(sizes[order])
        if filled[-1] <= params.k:
            order = None
    if order is None:
        order = np.argsort(-vt, kind="stable")  # stable keeps input order on ties
        filled = np.cumsum(sizes[order])
    n_whole = int(np.searchsorted(filled, params.k, side="right"))
    p_own = np.zeros(m)
    p_own[order[:n_whole]] = 1.0
    if n_whole < m:
        room = params.k - (filled[n_whole - 1] if n_whole else 0.0)
        p_own[order[n_whole]] = min(1.0, room / sizes[order[n_whole]])
    txids = tuple(mempool.ids[p_own > 0.0].tolist())
    p_own *= sizes  # p_own * sizes * vt, in that order, in place
    p_own *= vt
    return txids, float(np.sum(p_own))


def verify_equilibrium(
    profile: MarginalProfile, mempool: Mempool, params: GameParams, tol: float = 1e-9
) -> EquilibriumVerdict:
    """Check the threshold condition plus absence of a profitable deviation.

    Requires a w such that every zero-probability transaction has discounted
    price <= w, every certainly-included one >= w, and every interior one
    == w. Violations are measured relative to w, as expm1(ln v - lambda p -
    ln w), and the best response's utility gain relative to the symmetric
    utility. A profile without a threshold (``log_w is None``) is checked
    against one estimated from its discounted prices. A NaN, negative or
    infinite ``tol`` raises ValidationError.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ValidationError(f"tol must be >= 0 and finite, got {tol!r}")
    p, vt, top = _discounted(profile, mempool, params)
    zero = p <= 0.0
    one = p >= 1.0

    log_w = profile.log_w
    if log_w is None:  # estimated in vt units
        interior = ~zero & ~one
        if interior.any():
            w = float(np.median(vt[interior]))
        else:
            lo = float(vt[zero].max()) if zero.any() else -math.inf
            hi = float(vt[one].min()) if one.any() else math.inf
            w = 0.5 * (max(lo, 0.0) + hi) if math.isfinite(hi) else max(lo, 1.0)
        log_w = (math.log(w) if w > 0.0 else -math.inf) + top
    rel = np.multiply(p, -params.lam)  # to be v e^(-lambda p) / w - 1
    rel += mempool.log_prices
    rel -= log_w
    with np.errstate(over="ignore"):  # past e^709.78 times w, the violation is inf
        np.expm1(rel, out=rel)

    # Interior transactions violate by |rel|, excluded ones by rel > 0, certain ones by -rel > 0.
    worst = max(0.0, float(rel.max(where=~one, initial=0.0)), -float(rel.min(where=~zero, initial=0.0)))
    # expected_utility(profile, profile, ...): p * sizes * vt, in that order, in rel's memory.
    utility = np.multiply(p, mempool.sizes, out=rel)
    utility *= vt
    sym_util = float(np.sum(utility))
    del rel, utility  # the best response needs m-length arrays of its own

    br_set, br_util = _best_response_to(vt, mempool, params)
    gain = br_util - sym_util
    worst = max(worst, gain / max(abs(sym_util), 1e-300))

    passes = worst <= tol
    witness = None
    if not passes and gain > 0:
        witness = {"txids": br_set, "utility_gain": gain * math.exp(top)}
    return EquilibriumVerdict(passes, float(np.exp(log_w)), float(worst), witness)


def brute_force_feasible(m: int, k: int) -> bool:
    """Whether brute_force_check enumerates the k-subsets of m transactions (k <= m)."""
    return m <= 20 and math.comb(m, k) <= 1_000_000


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
    k = fixed_block_size(mempool, params)
    m = len(mempool)
    if not brute_force_feasible(m, k):
        raise ValidationError(f"instance too large for enumeration (m={m}, k={k})")
    p, vt, top = _discounted(profile, mempool, params)
    sym = float(np.sum(p * vt))  # expected_utility(profile, profile, ...) in vt units

    best_gain = -math.inf
    best_set: tuple = ()
    for combo in itertools.combinations(range(m), k):
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
    """Deterministic top-k-by-price profile (the naive packaging strategy); fixed mode only."""
    k = fixed_block_size(mempool, params)
    order = np.argsort(-mempool.prices, kind="stable")
    values = np.zeros(len(mempool))
    values[order[:k]] = 1.0
    return MarginalProfile(mempool.ids, values, xhat=0.0, log_w=None)


def uniform_profile(mempool: Mempool, params: GameParams) -> MarginalProfile:
    """Every transaction equally likely: p = k/m."""
    m = len(mempool)
    values = np.full(m, min(params.k / m, 1.0))
    return MarginalProfile(mempool.ids, values, xhat=0.0, log_w=None)
