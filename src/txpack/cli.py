"""Command-line surface: equilibrium, sample, basefee, verify, simulate.

All numeric JSON output is printed with 12 significant digits, and any
invocation repeated with identical flags and seed produces byte-identical
output. Exit codes: 0 success, 1 validation error, 2 usage error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .equilibrium import MarginalProfile, solve_equilibrium
from .errors import InvariantViolation, TxpackError, ValidationError
from .fees import base_fee
from .mempool import GameParams, Mempool, load_mempool_file
from .simulate import run_experiment
from .strategy import rejection_sample_block, sample_block
from .verify import brute_force_check, verify_equilibrium


def _dumps12(obj, indent=0) -> str:
    """JSON with floats rendered at 12 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [
            f'{pad}  {json.dumps(str(k))}: {_dumps12(v, indent + 1).lstrip()}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {_dumps12(v, indent + 1).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return pad + json.dumps(None)
        return pad + format(obj, ".12g")
    return pad + json.dumps(obj)


def _emit(doc, out_path):
    text = _dumps12(doc) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TXPACK_SEED")
    return int(env) if env else 0


def _load(args):
    mempool = load_mempool_file(args.mempool)
    if len(mempool) == 0:
        raise ValidationError("empty mempool")
    return mempool, GameParams(k=args.k, lam=getattr(args, "lam"))


def _load_profile(path, mempool: Mempool) -> MarginalProfile:
    with open(path) as fh:
        doc = json.load(fh)
    pos = mempool.positions([rec["id"] for rec in doc["marginals"]])
    if not np.array_equal(np.sort(pos), np.arange(len(mempool))):
        raise ValidationError("profile must list every mempool transaction id exactly once")
    values = np.empty(len(mempool))
    values[pos] = np.array([rec["p"] for rec in doc["marginals"]], dtype=np.float64)
    return MarginalProfile(mempool.ids, values, doc.get("xhat", 0.0), doc.get("w", 0.0))


def cmd_equilibrium(args):
    mempool, params = _load(args)
    profile = solve_equilibrium(mempool, params, mode=args.mode)
    _emit(profile.to_json_dict(), args.out)


def cmd_sample(args):
    mempool, params = _load(args)
    if args.mode == "variable":
        kprime = args.kprime if args.kprime is not None else 0.95 * params.k
        reduced = solve_equilibrium(mempool, GameParams(kprime, params.lam), mode="variable")
        rng = np.random.default_rng(_seed(args))
        block, attempts = rejection_sample_block(mempool, reduced, params.k, rng)
        doc = {
            "txids": sorted(block.txids),
            "used_capacity": float(block.used_capacity),
            "attempts": attempts,
        }
    else:
        r = args.r
        if r is None:
            r = float(np.random.default_rng(_seed(args)).random())
        profile = solve_equilibrium(mempool, params, mode=args.mode)
        block = sample_block(profile, r, k=params.require_integer_k())
        doc = {"txids": sorted(block.txids), "used_capacity": float(block.used_capacity)}
    _emit(doc, args.out)


def cmd_basefee(args):
    mempool, params = _load(args)
    mode = {"paper": "paper_closed_form", "xhat": "xhat_aware"}[args.fee_mode]
    _emit(base_fee(mempool, params, mode).to_json_dict(), args.out)


def cmd_verify(args):
    mempool, params = _load(args)
    if args.profile:
        profile = _load_profile(args.profile, mempool)
    else:
        profile = solve_equilibrium(mempool, params, mode=args.mode)
    doc = verify_equilibrium(profile, mempool, params, tol=args.tol).to_json_dict()
    k = int(params.k)
    if len(mempool) <= 20 and math.comb(len(mempool), min(k, len(mempool))) <= 1_000_000:
        doc["brute_force"] = brute_force_check(mempool, params, profile).to_json_dict()
    _emit(doc, args.out)  # a failing verdict is still a successful run: exit 0


def cmd_simulate(args):
    mempool, params = _load(args)
    config = {
        "mempool": mempool,
        "lambda": params.lam,
        "k": params.k,
        "trials": args.trials,
        "seed": _seed(args),
        "strategies": args.strategies.split(","),
    }
    reports = run_experiment(config)
    _emit([r.to_json_dict() for r in reports], args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="txpack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mempool", required=True, help="mempool JSON file")
        p.add_argument("--k", type=float, required=True, help="block capacity")
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="expected competing blocks per latency window")
        p.add_argument("--mode", choices=["fixed", "variable"], default="fixed")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to TXPACK_SEED, then 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("equilibrium", help="solve for the equilibrium marginal profile")
    common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sample", help="sample one block from the equilibrium strategy")
    common(p)
    p.add_argument("--r", type=float, default=None, help="deterministic probe in [0,1)")
    p.add_argument("--kprime", type=float, default=None,
                   help="reduced capacity target for variable-size rejection sampling")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("basefee", help="compute base-fee bounds v_low / v_high")
    common(p)
    p.add_argument("--fee-mode", choices=["paper", "xhat"], default="xhat")
    p.set_defaults(func=cmd_basefee)

    p = sub.add_parser("verify", help="verify the Nash condition for a profile")
    common(p)
    p.add_argument("--profile", default=None,
                   help="profile JSON to verify (default: the solver's output)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo latency-window experiments")
    common(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--strategies", default="equilibrium",
                   help="comma-separated: equilibrium,greedy,uniform-random-k")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        return rc or 0
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except (TxpackError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
