"""The three user paths: their commands, their in-process loops and their checks.

Used by ``run.py`` (CLI and simulator as child processes) and by
``worker.py`` (the miner loop, and every path in-process for the traced run).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from plan import MC_Z_BOUND, STRATEGIES, PathSpec

CLI_COMMANDS = ("equilibrium", "basefee", "verify", "sample_variable")
KPRIME_SHARE = 0.95  # `txpack sample --mode variable` default k' = 0.95 k


def sub_seed(seed: int, *key: int) -> int:
    """A 31-bit seed derived from the benchmark seed and a key."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0] >> 1)


def mempool_files(cache: Path, path: str, spec: PathSpec, seed: int) -> dict:
    kinds = ("unit", "sized") if path == "miner" else ("unit",)
    return {kind: inputs.mempool_file(cache, spec.m, kind, seed) for kind in kinds}


def _num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def cli_argv(cmd: str, spec: PathSpec, mempool: Path, out: Path, seed: int) -> list:
    """txpack arguments for one CLI path command."""
    sub = "sample" if cmd == "sample_variable" else cmd
    argv = [sub, "--mempool", str(mempool), "--k", _num(spec.k), "--lambda", _num(spec.lam),
            "--out", str(out)]
    if cmd == "sample_variable":
        argv += ["--mode", "variable", "--seed", str(seed)]
    return argv


def sim_argv(spec: PathSpec, mempool: Path, out: Path, seed: int) -> list:
    return ["simulate", "--mempool", str(mempool), "--k", _num(spec.k), "--lambda", _num(spec.lam),
            "--trials", str(spec.trials), "--strategies", STRATEGIES, "--seed", str(seed),
            "--out", str(out)]


def check_cli_output(cmd: str, out: Path, spec: PathSpec, ids: np.ndarray, state: dict) -> list:
    """Checks one CLI output file; ``state`` carries the pass's profile w to basefee."""
    with open(out) as fh:
        doc = json.load(fh)
    if cmd == "equilibrium":
        recs = doc["marginals"]
        got = np.fromiter((r["id"] for r in recs), np.int64, len(recs))
        p = np.fromiter((r["p"] for r in recs), np.float64, len(recs))
        state["w"] = doc["w"]
        fails = checks.profile(p, np.ones(len(p)), spec.k)
        if not np.array_equal(got, ids):
            fails.append("equilibrium ids differ from the mempool's")
        return fails
    if cmd == "basefee":
        return checks.fee_bounds(doc, state.get("w"))
    if cmd == "verify":
        return checks.verdict(doc)
    return checks.variable_block(doc, spec.k, KPRIME_SHARE * spec.k, ids)


def closed_form_revenue(spec: PathSpec, seed: int) -> dict:
    """strategy -> Σ p·v·s·e^{-λp}, the expected exclusive revenue of a focal block."""
    from txpack import GameParams, Mempool, expected_utility, solve_equilibrium
    from txpack import greedy_profile, uniform_profile

    ids, prices, sizes = inputs.generate(spec.m, "unit", seed)
    mempool = Mempool.from_arrays(ids, prices, sizes)
    params = GameParams(k=spec.k, lam=spec.lam)
    profiles = {
        "equilibrium": solve_equilibrium(mempool, params),
        "greedy": greedy_profile(mempool, params),
        "uniform-random-k": uniform_profile(mempool, params),
    }
    return {name: expected_utility(p, p, mempool, params).value for name, p in profiles.items()}


def check_sim_output(out: Path, spec: PathSpec, closed: dict, z_max: list) -> list:
    """Failures of one simulate output; appends its largest |z| against the closed form."""
    with open(out) as fh:
        reports = json.load(fh)
    fails = []
    names = [r["strategy"] for r in reports]
    if names != STRATEGIES.split(",") or any(r["trials"] != spec.trials for r in reports):
        fails.append(f"simulate reported {names} with trials {[r['trials'] for r in reports]}")
    z = checks.mc_z_scores(reports, closed)
    z_max.append(max(abs(v) for v in z.values()))
    if not z_max[-1] <= MC_Z_BOUND:
        fails.append(f"Monte-Carlo revenue off its closed form: z = {z}")
    return fails


def cli_path(spec: PathSpec, files: dict, out_dir: Path, seed: int, seconds: float,
             invoke, tag: str) -> dict:
    """Passes of the four CLI commands for ``seconds`` (at least spec.reps passes).

    ``invoke(argv, op, request)`` runs one txpack command and returns
    (exit code, wall seconds); ``tag`` prefixes the output file names.
    """
    ids = inputs.generate(spec.m, "unit", seed)[0]
    res = {"op_s": {cmd: [] for cmd in CLI_COMMANDS}, "attempted": 0, "failed": 0, "failures": []}
    t_end = time.perf_counter() + seconds
    n = 0
    while n < spec.reps or time.perf_counter() < t_end:
        state = {}
        for cmd in CLI_COMMANDS:
            target = out_dir / f"{tag}-{cmd}.json"
            argv = cli_argv(cmd, spec, files["unit"], target, sub_seed(seed, 1, n))
            rc, wall = invoke(argv, f"op.cli.{cmd}", f"cli.{cmd}/{n}")
            res["op_s"][cmd].append(wall)
            fails = [f"exit code {rc}"] if rc else _read_failures(
                check_cli_output, cmd, target, spec, ids, state)
            target.unlink(missing_ok=True)
            _count(res, cmd, fails)
        n += 1
    return res


def sim_path(spec: PathSpec, files: dict, out_dir: Path, seed: int, seconds: float,
             invoke, tag: str) -> dict:
    """`txpack simulate` invocations for ``seconds`` (at least spec.reps)."""
    closed = closed_form_revenue(spec, seed)
    res = {"op_s": {"sim": []}, "z_max": [], "attempted": 0, "failed": 0, "failures": []}
    t_end = time.perf_counter() + seconds
    n = 0
    while n < spec.reps or time.perf_counter() < t_end:
        target = out_dir / f"{tag}-sim.json"
        argv = sim_argv(spec, files["unit"], target, sub_seed(seed, 2, n))
        rc, wall = invoke(argv, "op.sim", f"sim/{n}")
        res["op_s"]["sim"].append(wall)
        fails = [f"exit code {rc}"] if rc else _read_failures(
            check_sim_output, target, spec, closed, res["z_max"])
        target.unlink(missing_ok=True)
        _count(res, "simulate", fails)
        n += 1
    return res


def _read_failures(check, *args) -> list:
    """check(*args), counting an output it cannot read as a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def _count(res: dict, op: str, fails: list):
    res["attempted"] += 1
    if fails:
        res["failed"] += 1
        res["failures"] += [f"{op}: {f}" for f in fails][: max(0, 20 - len(res["failures"]))]


class MinerRequests:
    """The seeded request stream of the miner path, alternating pack and quote.

    Each kind draws k/m ~ U(0.01, 0.5) and log-uniform lambda in [0.5, 8]
    stratified over cycles of STRATA requests (one draw per stratum, in a
    seeded order), so that every seed sees the same spread of k and lambda
    and a run's medians depend on the program, not on the draws.
    """

    STRATA = 16

    def __init__(self, spec: PathSpec, seed: int):
        self.m = spec.m
        self.rng = np.random.default_rng(sub_seed(seed, 7))
        self.n = 0
        self.queue = {"pack": [], "quote": []}

    def _cycle(self) -> list:
        u_share = (self.rng.permutation(self.STRATA) + self.rng.random(self.STRATA)) / self.STRATA
        u_lam = (self.rng.permutation(self.STRATA) + self.rng.random(self.STRATA)) / self.STRATA
        shares = 0.01 + 0.49 * u_share
        lams = np.exp(math.log(0.5) + (math.log(8.0) - math.log(0.5)) * u_lam)
        return list(zip(shares.tolist(), lams.tolist(), self.rng.random(self.STRATA).tolist()))

    def next(self) -> tuple:
        kind = "pack" if self.n % 2 == 0 else "quote"
        self.n += 1
        if not self.queue[kind]:
            self.queue[kind] = self._cycle()
        share, lam, r = self.queue[kind].pop()
        k = max(1, round(share * self.m)) if kind == "pack" else share * self.m
        return kind, float(k), lam, r


def miner_loop(spec: PathSpec, files: dict, seed: int, seconds: float, tracer=None) -> dict:
    """Load both mempools, then serve requests for ``seconds`` (at least spec.reps).

    With a tracer, each request is an ``op.pack`` or ``op.quote`` span whose
    request id is ``<kind>/<n>``.
    """
    import txpack.equilibrium as eq
    import txpack.fees as fees
    import txpack.mempool as mp
    import txpack.strategy as st

    if tracer is not None:
        tracer.request = "setup/0"
    unit = mp.load_mempool_file(files["unit"])
    sized = mp.load_mempool_file(files["sized"])
    if tracer is not None:
        tracer.request = None
    res = {"op_s": {"pack": [], "quote": []}, "attempted": 0, "failed": 0, "failures": []}
    requests = MinerRequests(spec, seed)
    t_end = time.perf_counter() + seconds
    while requests.n < spec.reps or time.perf_counter() < t_end:
        kind, k, lam, r = requests.next()
        params = mp.GameParams(k=k, lam=lam)
        if tracer is not None:
            tracer.request = f"{kind}/{requests.n}"
            span = tracer.begin(f"op.{kind}")
        t0 = time.perf_counter()
        try:
            if kind == "pack":
                profile = eq.solve_equilibrium(unit, params, mode="fixed")
                block = st.sample_block(profile, r, int(k))
            else:
                profile = eq.solve_equilibrium(sized, params, mode="variable")
                bounds = [fees.base_fee(sized, params, m).to_json_dict()
                          for m in ("xhat_aware", "paper_closed_form")]
        except Exception as e:  # a raising request is a failed operation
            _count(res, f"{kind} k={k} lambda={lam}", [f"{type(e).__name__}: {e}"])
            continue
        finally:
            if tracer is not None:
                tracer.end(span)
                tracer.request = None
        res["op_s"][kind].append(time.perf_counter() - t0)
        mempool = unit if kind == "pack" else sized
        fails = checks.profile(profile.values, mempool.sizes, k)
        if kind == "pack":
            fails += checks.fixed_block(block.txids, int(k), mempool.ids)
        else:
            fails += checks.fee_bounds(bounds[0], profile.w) + checks.fee_bounds(bounds[1])
        _count(res, f"{kind} k={k} lambda={lam}", fails)
    return res
