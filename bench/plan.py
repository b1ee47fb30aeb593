"""What each workload runs: one of txpack's three user paths.

- ``cli``: one ``txpack`` process at a time running ``equilibrium``,
  ``basefee``, ``verify`` and ``sample --mode variable`` on a unit mempool.
- ``miner``: one in-memory caller alternating *pack* requests
  (``solve_equilibrium`` + ``sample_block`` on a unit mempool) and *quote*
  requests (``solve_equilibrium`` + ``base_fee`` in both modes on a sized
  mempool), with k/m ~ U(0.01, 0.5) and log-uniform lambda in [0.5, 8].
- ``sim``: ``txpack simulate`` with the three strategies.

Each runs for the run's ``--seconds``, and at least ``reps`` passes,
requests or invocations. Why each workload exists is recorded with it in
BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PathSpec:
    m: int  # transactions per mempool
    k: float = 0.0  # block capacity (cli and sim)
    lam: float = 0.0  # expected competing blocks (cli and sim)
    trials: int = 0  # trials per strategy per `txpack simulate` (sim)
    reps: int = 1  # least number of passes, requests or invocations


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "cli", "miner" or "sim"
    spec: PathSpec
    dominant: tuple  # (layers meant to dominate, op spans whose wall they should fill)


STRATEGIES = "equilibrium,greedy,uniform-random-k"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-1m",
            "cli",
            PathSpec(m=1_000_000, k=100_000, lam=1.0, reps=1),
            (("mempool", "cli"), ("op.cli.equilibrium",)),
        ),
        Workload(
            "miner-loop",
            "miner",
            PathSpec(m=100_000, reps=40),
            (("equilibrium", "fees", "strategy"), ("op.pack", "op.quote")),
        ),
        Workload(
            "simulate-market",
            "sim",
            # 6000 trials keep process start-up and parsing under a tenth of the wall time.
            PathSpec(m=2000, k=200, lam=4.0, trials=6000, reps=3),
            (("simulate", "strategy"), ("op.sim",)),
        ),
    )
}

# Largest |z| allowed between a strategy's Monte-Carlo mean exclusive revenue
# and its closed form; a correct simulator exceeds 5 about once in 3.5e6 draws.
MC_Z_BOUND = 5.0
