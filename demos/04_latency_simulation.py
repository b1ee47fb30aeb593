"""Monte-Carlo comparison of packaging strategies under latency.

Every latency window spawns a Poisson(lambda) number of rival blocks; a
fee is only exclusive when a single block holds the transaction. Greedy
miners all duplicate the same top-k set, so their exclusive revenue and
effective throughput both collapse relative to the mixed equilibrium.
"""

import numpy as np

from txpack import (
    GameParams,
    Mempool,
    expected_utility,
    greedy_profile,
    run_experiment,
    solve_equilibrium,
)

prices = [1.0, np.exp(1), np.exp(-1 / 12), np.exp(5 / 12), 1.0, 1.0, np.exp(-3)]
mempool = Mempool.from_arrays(np.arange(1, len(prices) + 1), prices)
params = GameParams(k=3, lam=1.0)

eq = solve_equilibrium(mempool, params)
gr = greedy_profile(mempool, params)
print("closed-form symmetric utilities:")
print(f"  equilibrium: {expected_utility(eq, eq, mempool, params).value:.4f}")
print(f"  greedy:      {expected_utility(gr, gr, mempool, params).value:.4f}")

reports = run_experiment({
    "mempool": mempool,
    "lambda": 1.0,
    "k": 3,
    "trials": 20_000,
    "seed": 42,
    "strategies": ["equilibrium", "greedy", "uniform-random-k"],
})

print(f"\n{'strategy':>18} {'exclusive rev':>14} {'stderr':>8} {'dup rate':>9} {'unique/round':>13}")
for r in reports:
    print(
        f"{r.strategy:>18} {r.mean_exclusive_revenue:>14.4f} "
        f"{r.stderr_exclusive_revenue:>8.4f} {r.mean_duplication_rate:>9.4f} "
        f"{r.mean_unique_tx:>13.3f}"
    )
