"""Turn equilibrium marginals into concrete blocks.

The marginals become line segments laid end to end on [0, 3]; a single
uniform draw r in [0, 1) picks the segments covering r, r+1, r+2, which is
always exactly three transactions and reproduces every marginal exactly.
"""

import numpy as np

from txpack import (
    GameParams,
    Mempool,
    corresponding_strategy,
    sample_block,
    solve_equilibrium,
)

prices = [1.0, np.exp(1), np.exp(-1 / 12), np.exp(5 / 12), 1.0, 1.0, np.exp(-3)]
mempool = Mempool.from_arrays(np.arange(1, len(prices) + 1), prices)
params = GameParams(k=3, lam=1.0)
profile = solve_equilibrium(mempool, params)

strategy = corresponding_strategy(profile, k=3)
print("explicit mixed strategy over 3-subsets:")
for (a, b), prob, txids in zip(strategy.intervals, strategy.atom_probs, strategy.atom_txids):
    print(f"  r in [{a:.4f}, {b:.4f})  ->  {sorted(txids)}   (prob {prob:.4f})")

print()
for r in (0.0, 0.37, 0.8):
    block = sample_block(profile, r, k=3)
    print(f"r = {r:<5} selects {block.ids.tolist()}")

# the analytic atom marginals reproduce the profile exactly
induced = strategy.induced_marginals()
worst = max(abs(induced.get(t, 0.0) - p) for t, p in profile.as_dict().items())
print(f"\nmax |induced - target| marginal error: {worst:.2e}")
