"""Output checks. Each returns a list of failure messages; empty means correct."""

from __future__ import annotations

import math

import numpy as np

BUDGET_RTOL = 1e-9  # sum of s*p must equal k within this share of k
W_RTOL = 1e-9  # xhat_aware v_low must equal the profile's w within this share


def profile(values, sizes, k) -> list:
    """Marginals lie in [0, 1] and use exactly the capacity k."""
    values = np.asarray(values, dtype=np.float64)
    out = []
    if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
        out.append("marginals outside [0, 1]")
    used = float(np.sum(values * np.asarray(sizes, dtype=np.float64)))
    if not abs(used - k) <= BUDGET_RTOL * k:
        out.append(f"sum of s*p is {used!r}, expected {k!r}")
    return out


def fee_bounds(bounds: dict, w: float | None = None) -> list:
    """v_low <= v_high, and in xhat_aware mode v_low equals the profile's w."""
    out = []
    lo, hi = bounds["v_low"], bounds["v_high"]
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
        out.append(f"{bounds['mode']}: v_low {lo!r} > v_high {hi!r} or not finite")
    if w is not None and not abs(lo - w) <= W_RTOL * abs(w):
        out.append(f"xhat_aware v_low {lo!r} != profile w {w!r}")
    return out


def verdict(doc: dict) -> list:
    return [] if doc.get("passes") is True else [f"verify reports {doc!r}"]


def fixed_block(txids, k: int, ids) -> list:
    """Exactly k distinct ids, all from the mempool."""
    txids = np.fromiter(txids, np.int64, len(txids))
    out = []
    if len(np.unique(txids)) != len(txids) or len(txids) != k:
        out.append(f"fixed block has {len(np.unique(txids))} distinct ids, expected {k}")
    if not np.all(np.isin(txids, ids)):
        out.append("fixed block holds ids not in the mempool")
    return out


def variable_block(doc: dict, k: float, kprime: float, ids) -> list:
    """used_capacity in [max(0, 2k'-k), k], equal to the count of distinct unit-size mempool ids."""
    txids = np.asarray(doc["txids"], dtype=np.int64)
    used = doc["used_capacity"]
    lower = max(0.0, 2.0 * kprime - k)
    tol = BUDGET_RTOL * k
    out = []
    if not (lower - tol <= used <= k + tol):
        out.append(f"variable block uses {used!r}, outside [{lower!r}, {k!r}]")
    if len(np.unique(txids)) != len(txids) or not np.all(np.isin(txids, ids)):
        out.append("variable block ids are repeated or not in the mempool")
    if not abs(len(txids) - used) <= tol:
        out.append(f"variable block used_capacity {used!r} != its {len(txids)} unit-size ids")
    return out


def mc_z_scores(reports: list, closed: dict) -> dict:
    """strategy -> z of the Monte-Carlo mean exclusive revenue against its closed form."""
    z = {}
    for rep in reports:
        target = closed[rep["strategy"]]
        err = rep["stderr_exclusive_revenue"]
        diff = rep["mean_exclusive_revenue"] - target
        if err > 0:
            z[rep["strategy"]] = diff / err
        else:
            z[rep["strategy"]] = 0.0 if abs(diff) <= 1e-9 * abs(target) else math.inf
    return z
