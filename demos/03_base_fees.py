"""Endogenous base-fee bounds from the equilibrium strategy.

v_low is the gas price below which a transaction is never packaged and
v_high the price that guarantees inclusion in every block. The shift-aware
mode accounts for clamping; the plain closed forms only agree when no
marginal had to be clamped.
"""

import numpy as np

from txpack import GameParams, Mempool, base_fee, solve_equilibrium

prices = [1.0, np.exp(1), np.exp(-1 / 12), np.exp(5 / 12), 1.0, 1.0, np.exp(-3)]
mempool = Mempool.from_arrays(np.arange(1, len(prices) + 1), prices)
params = GameParams(k=3, lam=1.0)

for mode in ("xhat_aware", "paper_closed_form"):
    fb = base_fee(mempool, params, mode)
    print(f"{mode:>18}: v_low = {fb.v_low:.6f}   v_high = {fb.v_high:.6f}")

fb = base_fee(mempool, params, "xhat_aware")
profile = solve_equilibrium(mempool, params)
print("\nclassification against the shift-aware bounds:")
for txid, v, p in zip(mempool.ids, mempool.prices, profile.values):
    if v < fb.v_low:
        zone = "below v_low  -> never packaged"
    elif v > fb.v_high:
        zone = "above v_high -> always packaged"
    else:
        zone = "between      -> randomized"
    print(f"  tx{txid}: v = {v:.4f}  p = {p:.3f}  {zone}")
