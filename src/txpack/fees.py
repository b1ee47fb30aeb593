"""Endogenous base-fee bounds.

v_low is the gas price below which a transaction is never packaged; v_high
the price above which every block packages it. They are the prices at which
a zero-size virtual transaction's marginal hits the clamp boundaries, so
v_low = w, the equilibrium threshold, and v_high = w * e^lambda. The
shift-aware mode reads w from the solved profile; the paper's closed form
takes w at clamp shift 0, so the two coincide exactly when no clamping is
active (xhat = 0).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .equilibrium import check_solver_inputs, solve_equilibrium, threshold
from .errors import MempoolFitsInBlock, ValidationError
from .mempool import GameParams, Mempool

MODES = ("paper_closed_form", "xhat_aware")


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
        w, xhat = threshold(0.0, mempool, params), 0.0
    else:
        profile = solve_equilibrium(mempool, params, mode="variable")
        w, xhat = profile.w, profile.xhat
    return FeeBounds(w, w * float(np.exp(params.lam)), mode, xhat)
