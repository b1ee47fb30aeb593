"""Walk through the equilibrium solve on a small seven-transaction mempool.

Seven transactions with exponential-form gas prices compete for a block of
capacity 3 while an average of one rival block appears per latency window.
The solver first computes raw marginals (which can fall outside [0, 1]),
then shifts and clamps them so they use exactly the block capacity.
"""

import numpy as np

from txpack import GameParams, Mempool, compute_phat, solve_equilibrium

prices = [1.0, np.exp(1), np.exp(-1 / 12), np.exp(5 / 12), 1.0, 1.0, np.exp(-3)]
mempool = Mempool.from_arrays(np.arange(1, len(prices) + 1), prices)
params = GameParams(k=3, lam=1.0)

raw = compute_phat(mempool, params)
profile = solve_equilibrium(mempool, params)

print(f"{'tx':>3} {'v(tx)':>10} {'raw p':>10} {'equilibrium p':>14}")
for txid, v, r, p in zip(mempool.ids, mempool.prices, raw, profile.values):
    print(f"{txid:>3} {v:>10.5f} {r:>10.5f} {p:>14.5f}")

print()
print(f"clamp shift xhat = {profile.xhat:.6f}")
print(f"threshold w      = {profile.w:.6f}  (= e^(-1/3))")

# Every transaction with 0 < p < 1 earns exactly w per unit once the
# competition discount exp(-lambda * p) is applied.
disc = mempool.prices * np.exp(-params.lam * profile.values)
interior = (profile.values > 0) & (profile.values < 1)
print(f"discounted prices of interior txs: {np.round(disc[interior], 6)}")
