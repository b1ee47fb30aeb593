"""Endogenous base-fee bounds.

v_low is the gas price below which a transaction is never packaged; v_high
the price above which every block packages it. They are the prices at which
a zero-size virtual transaction's marginal hits the clamp boundaries, so
v_low = w, the equilibrium threshold, and v_high = w * e^lambda. Both come
from ln w: v_low = exp(ln w), the profile's w bit for bit, and v_high =
exp(ln w + lambda), or inf past the float range. The shift-aware mode takes
w at the solved profile's clamp shift, reusing the mempool's last solve at
the same (k, lambda); the paper's closed form takes it at shift 0, so the
two coincide exactly when no clamping is active (xhat = 0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .equilibrium import check_solver_inputs, equilibrium_xhat, log_threshold
from .errors import MempoolFitsInBlock, ValidationError
from .mempool import GameParams, Mempool

MODES = ("paper_closed_form", "xhat_aware")
_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose exp is finite


@dataclass(frozen=True)
class FeeBounds:
    v_low: float
    v_high: float
    mode: str
    xhat: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def base_fee(mempool: Mempool, params: GameParams, mode: str = "xhat_aware") -> FeeBounds:
    if mode not in MODES:
        raise ValidationError(f"unknown fee mode {mode!r}; expected one of {MODES}")
    check_solver_inputs(mempool, params)
    sums = mempool.total_size
    if sums < params.k:
        raise MempoolFitsInBlock(
            f"total capacity {sums:g} < block capacity {params.k:g}; no binding base fee"
        )
    if mode == "paper_closed_form":
        xhat = 0.0
    else:
        xhat = equilibrium_xhat(mempool, params)
    log_w = log_threshold(xhat, mempool, params)
    log_v_high = log_w + params.lam
    v_high = float(np.exp(log_v_high)) if log_v_high <= _LOG_MAX else math.inf
    return FeeBounds(float(np.exp(log_w)), v_high, mode, xhat)
