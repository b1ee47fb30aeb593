"""Command-line surface: equilibrium, sample, basefee, verify, simulate.

All numeric JSON output is printed with 12 significant digits, and any
invocation repeated with identical flags and seed produces byte-identical
output. The writer streams to the output file or stdout: declared ``Rows``
(the equilibrium marginals) and lists of scalars are rendered in blocks of
``_BLOCK_ROWS`` rows, a column at a time, so the rows' strings and text
never all exist at once. Exit codes: 0 success, 1 validation error,
2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .equilibrium import MarginalProfile, log_threshold, solve_equilibrium
from .errors import InvariantViolation, TxpackError, ValidationError
from .fees import base_fee
from .mempool import (
    GameParams,
    Mempool,
    fixed_block_size,
    load_mempool_file,
    number_column,
    read_records,
)
from .simulate import run_experiment
from .strategy import rejection_sample_block, sample_block
from .verify import brute_force_check, brute_force_feasible, verify_equilibrium


def _scalar(v) -> str:
    """One JSON scalar; floats at 12 significant digits, NaN and +-inf as null."""
    if isinstance(v, float):
        return format(v, ".12g") if math.isfinite(v) else "null"
    return json.dumps(v)


def _texts(column) -> list:
    """Scalars (a list, tuple or numpy column) as JSON texts, or None if one is a container.

    A finite float64 array takes '%.12g', a +0.0 (by its bits) "0"; ints str, the rest _scalar."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    if isinstance(column, np.ndarray) and column.dtype == np.float64 and np.isfinite(column).all():
        texts = np.full(len(column), "0", dtype=object)
        nonzero = column.view(np.int64) != 0
        texts[nonzero] = list(map("%.12g".__mod__, column[nonzero].tolist()))
        return texts.tolist()
    values = column.tolist() if isinstance(column, np.ndarray) else column
    types = set(map(type, values))
    if any(issubclass(t, (dict, list, tuple)) for t in types):
        return None
    return list(map(str if types == {int} else _scalar, values))


@dataclass(frozen=True)
class Rows:
    """Scalar columns (lists or numpy arrays) written as objects {keys[j]: columns[j][i]}."""

    keys: tuple
    columns: tuple

    def __len__(self):
        return len(self.columns[0])


_BLOCK_ROWS = 1 << 12  # rows of a table rendered per join


def _table_block(items, start: int, stop: int, pad: str):
    """Rows start:stop of ``Rows`` or a list of scalars, each line indented by pad, or None.

    Each column is rendered once (``_texts``); the block is one join of a flat
    list holding, per row, each column's text and then the text that follows
    it. None leaves a container to the walk.
    """
    if isinstance(items, Rows):
        columns = [_texts(c[start:stop]) for c in items.columns]
        seps = [f",\n{pad}  {json.dumps(key)}: " for key in items.keys]
        head, tail = pad + "{" + seps[0].removeprefix(","), "\n" + pad + "}"
    else:
        columns, seps, head, tail = [_texts(items[start:stop])], [], pad, ""
        if columns[0] is None:
            return None
    width, n = 2 * len(columns), len(columns[0])
    parts = [tail + ",\n" + head] * (width * n)  # each row ends with the next row's head
    for j, column in enumerate(columns):
        parts[2 * j::width] = column
        if j:
            parts[2 * j - 1::width] = [seps[j]] * n
    parts[-1] = tail
    return head + "".join(parts)


def _write(obj, out, pad: str):
    """Write obj to the text stream out; pad is the indent of the line obj starts on."""
    inner = pad + "  "
    if isinstance(obj, dict):
        out.write("{\n")
        sep = inner
        for k, v in obj.items():
            out.write(f"{sep}{json.dumps(str(k))}: ")
            _write(v, out, inner)
            sep = ",\n" + inner
        out.write("\n" + pad + "}")
    elif isinstance(obj, (Rows, list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        sep = ""
        for start in range(0, len(obj), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = _table_block(obj, start, stop, inner)
            if block is None:
                for v in obj[start:stop]:
                    out.write(sep + inner)
                    _write(v, out, inner)
                    sep = ",\n"
            else:
                out.write(sep)
                out.write(block)
                sep = ",\n"
        out.write("\n" + pad + "]")
    else:
        out.write(_scalar(obj))


def _emit(doc, out_path):
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as out:
        _write(doc, out, "")
        out.write("\n")


def _seed(args) -> int:
    """--seed, else TXPACK_SEED, else 0; numpy seeds only from non-negative integers."""
    if args.seed is not None:
        source, seed = "--seed", args.seed
    else:
        source, env = "TXPACK_SEED", os.environ.get("TXPACK_SEED")
        if not env:
            return 0
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(f"{source} must be a non-negative integer, got {env!r}") from None
    if seed < 0:
        raise ValidationError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _load(args):
    mempool = load_mempool_file(args.mempool)
    if len(mempool) == 0:
        raise ValidationError("empty mempool")
    return mempool, GameParams(k=args.k, lam=args.lam)


def _load_profile(path, mempool: Mempool, params: GameParams) -> MarginalProfile:
    """The profile file as a profile in mempool order; a malformed one raises ValidationError."""
    with open(path, "rb") as fh:
        doc, (ids, ps) = read_records(fh, "profile", "marginals", {"id": None, "p": None})
    pos = mempool.positions(ids)
    if not np.array_equal(np.sort(pos), np.arange(len(mempool))):
        raise ValidationError("profile must list every mempool transaction id exactly once")
    values = np.empty(len(mempool))
    values[pos] = number_column(ps, mempool.ids[pos], "p")
    xhat, w = doc.get("xhat", 0.0), doc.get("w")
    for key, v in (("xhat", xhat), ("w", w)):
        if v is not None and not (type(v) in (int, float) and math.isfinite(v)):
            raise ValidationError(f'profile "{key}" must be a finite number or null, got {v!r}')
    if w is None:
        return MarginalProfile(mempool.ids, values, xhat, None)
    if w < 0:
        raise ValidationError(f'profile "w" must be >= 0 or null, got {w!r}')
    log_w = math.log(w) if w > 0 else -math.inf
    if xhat is not None:
        # The solver's ln w, where w is its exp, keeps the digits a printed w lost (0 at large lambda).
        solver_log_w = log_threshold(xhat, mempool, params)
        with np.errstate(over="ignore"):  # a huge "xhat" gives inf, which no finite w equals
            if w == float(np.exp(solver_log_w)):
                log_w = solver_log_w
    return MarginalProfile(mempool.ids, values, xhat, log_w)


def cmd_equilibrium(args):
    # No name keeps the mempool (and its price-order table) alive through the emit.
    profile = solve_equilibrium(*_load(args), mode=args.mode)
    marginals = Rows(("id", "p"), (profile.ids, profile.values))
    _emit({"marginals": marginals, "xhat": profile.xhat, "w": profile.w}, args.out)


def cmd_sample(args):
    flag, value = ("--r", args.r) if args.mode == "variable" else ("--kprime", args.kprime)
    if value is not None:
        raise ValidationError(f"sample --mode {args.mode} does not take {flag}")
    mempool, params = _load(args)
    if args.mode == "variable":
        kprime = args.kprime if args.kprime is not None else 0.95 * params.k
        reduced = solve_equilibrium(mempool, GameParams(kprime, params.lam), mode="variable")
        rng = np.random.default_rng(_seed(args))
        block, attempts = rejection_sample_block(mempool, reduced, params.k, rng)
        doc = {
            "txids": block.ids.tolist(),
            "used_capacity": float(block.used_capacity),
            "attempts": attempts,
        }
    else:
        r = args.r
        if r is None:
            r = float(np.random.default_rng(_seed(args)).random())
        profile = solve_equilibrium(mempool, params, mode=args.mode)
        block = sample_block(profile, r, k=fixed_block_size(mempool, params))
        doc = {"txids": block.ids.tolist(), "used_capacity": float(block.used_capacity)}
    _emit(doc, args.out)


def cmd_basefee(args):
    mempool, params = _load(args)
    mode = {"paper": "paper_closed_form", "xhat": "xhat_aware"}[args.fee_mode]
    _emit(base_fee(mempool, params, mode).to_json_dict(), args.out)


def cmd_verify(args):
    mempool, params = _load(args)
    k = fixed_block_size(mempool, params) if args.mode == "fixed" else None
    if args.profile:
        profile = _load_profile(args.profile, mempool, params)
    else:
        profile = solve_equilibrium(mempool, params, mode=args.mode)
    doc = verify_equilibrium(profile, mempool, params, tol=args.tol).to_json_dict()
    # The enumeration checks unit-size k-subsets, which is fixed mode's game only.
    if k is not None and brute_force_feasible(len(mempool), k):
        doc["brute_force"] = brute_force_check(mempool, params, profile).to_json_dict()
    _emit(doc, args.out)  # a failing verdict is still a successful run: exit 0


def cmd_simulate(args):
    if args.mode != "fixed":
        raise ValidationError("simulate supports only --mode fixed")
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

    def common(p, mode=True, seed=False):
        """The shared flags; only the subcommands that draw at random take --seed."""
        p.add_argument("--mempool", required=True, help="mempool JSON file")
        p.add_argument("--k", type=float, required=True, help="block capacity")
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="expected competing blocks per latency window")
        if mode:
            p.add_argument("--mode", choices=["fixed", "variable"], default="fixed")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (falls back to TXPACK_SEED, then 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("equilibrium", help="solve for the equilibrium marginal profile")
    common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sample", help="sample one block from the equilibrium strategy")
    common(p, seed=True)
    p.add_argument("--r", type=float, default=None, help="deterministic probe in [0,1)")
    p.add_argument("--kprime", type=float, default=None,
                   help="reduced capacity target for variable-size rejection sampling")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("basefee", help="compute base-fee bounds v_low / v_high")
    common(p, mode=False)
    p.add_argument("--fee-mode", choices=["paper", "xhat"], default="xhat")
    p.set_defaults(func=cmd_basefee)

    p = sub.add_parser("verify", help="verify the Nash condition for a profile")
    common(p)
    p.add_argument("--profile", default=None,
                   help="profile JSON to verify (default: the solver's output)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo latency-window experiments")
    common(p, seed=True)
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
    except (TxpackError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
