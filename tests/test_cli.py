import contextlib
import hashlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpack import (
    GameParams,
    Mempool,
    ValidationError,
    brute_force_check,
    greedy_profile,
    run_experiment,
    solve_equilibrium,
)
import txpack.cli as cli_module
from txpack.cli import Rows, _emit, main
from txpack.simulate import STRATEGY_NAMES

from conftest import mempool_json


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_equilibrium_golden(capsys, golden_mempool_file):
    rc, out, _ = run_cli(
        capsys, "equilibrium", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"
    )
    assert rc == 0
    assert "0.333333333333" in out
    doc = json.loads(out)
    assert doc["xhat"] == pytest.approx(1 / 3, abs=1e-9)
    marginals = {rec["id"]: rec["p"] for rec in doc["marginals"]}
    assert marginals[2] == 1.0
    assert marginals[7] == 0.0
    assert marginals[4] == pytest.approx(0.75)


def test_sample_deterministic_probe(capsys, golden_mempool_file):
    rc, out, _ = run_cli(
        capsys, "sample", "--mempool", str(golden_mempool_file),
        "--k", "3", "--lambda", "1", "--r", "0.37",
    )
    assert rc == 0
    assert json.loads(out)["txids"] == [2, 3, 5]


def test_sample_largest_r_gives_k_distinct_ids(capsys, tmp_path):
    path = tmp_path / "ten.json"
    path.write_text(mempool_json(Mempool.from_arrays(range(10), np.exp(np.arange(10) / 10))))
    rc, out, err = run_cli(
        capsys, "sample", "--mempool", str(path), "--k", "5", "--lambda", "1",
        "--r", "0.9999999999999999",
    )
    assert rc == 0, err
    txids = json.loads(out)["txids"]
    assert len(set(txids)) == 5 and txids == sorted(txids)


def test_basefee_exits_1_when_the_mempool_fits_in_one_block(capsys, golden_mempool_file):
    rc, out, err = run_cli(
        capsys, "basefee", "--mempool", str(golden_mempool_file), "--k", "8", "--lambda", "1"
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: total capacity 7 < block capacity 8")


def test_sample_seeded(capsys, golden_mempool_file):
    args = ("sample", "--mempool", str(golden_mempool_file),
            "--k", "3", "--lambda", "1", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert len(json.loads(out1)["txids"]) == 3


def test_sample_variable_mode(capsys, tmp_path):
    doc = {"transactions": [
        {"id": i, "gas_price": float(np.exp((i % 5) - 2)), "size": 0.5 + (i % 3) * 0.7}
        for i in range(12)
    ]}
    path = tmp_path / "var.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(
        capsys, "sample", "--mempool", str(path), "--k", "4", "--lambda", "1",
        "--mode", "variable", "--seed", "3",
    )
    assert rc == 0
    block = json.loads(out)
    assert block["used_capacity"] <= 4.0 + 1e-9
    assert block["attempts"] >= 1


def test_basefee_modes(capsys, golden_mempool_file):
    rc, out, _ = run_cli(
        capsys, "basefee", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "xhat_aware"
    assert doc["v_low"] == pytest.approx(np.exp(-1 / 3), rel=1e-9)
    assert doc["v_high"] == pytest.approx(np.exp(2 / 3), rel=1e-9)

    rc, out, _ = run_cli(
        capsys, "basefee", "--mempool", str(golden_mempool_file),
        "--k", "3", "--lambda", "1", "--fee-mode", "paper",
    )
    assert json.loads(out)["v_low"] == pytest.approx(np.exp(-2 / 3), rel=1e-9)


def test_verify_solver_output(capsys, golden_mempool_file):
    rc, out, _ = run_cli(
        capsys, "verify", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passes"] is True
    assert doc["brute_force"]["passes"] is True


NO_W_PROFILE_STDOUT = """{
  "passes": false,
  "w": 0.683939720586,
  "worst_violation": 0.557701478737,
  "witness": {
    "txids": [
      2,
      5,
      6
    ],
    "utility_gain": 1.07408541306
  },
  "brute_force": {
    "passes": false,
    "w": null,
    "worst_violation": 1.07408541306,
    "witness": {
      "txids": [
        2,
        5,
        6
      ],
      "utility_gain": 1.07408541306
    }
  }
}
"""


def test_verify_external_profile_with_witness(capsys, tmp_path, golden_mempool_file):
    # greedy profile: p = 1 on the top three prices
    profile = {
        "marginals": [{"id": i, "p": 1.0 if i in (1, 2, 4) else 0.0} for i in range(1, 8)],
    }
    ppath = tmp_path / "greedy.json"
    ppath.write_text(json.dumps(profile))
    rc, out, _ = run_cli(
        capsys, "verify", "--mempool", str(golden_mempool_file),
        "--k", "3", "--lambda", "1", "--profile", str(ppath),
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passes"] is False
    assert doc["witness"]["utility_gain"] > 0
    assert doc["brute_force"]["passes"] is False
    # A profile without "w" is checked against an estimated threshold.
    assert out == NO_W_PROFILE_STDOUT


@pytest.mark.parametrize("w", [0.5, 0])
def test_verify_profile_with_null_xhat_and_a_w(capsys, tmp_path, golden_mempool_file, w):
    # "xhat" may be null; a given "w" is then read as it is, with no solver log to recover.
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(_profile_doc(p=3 / 7, xhat=None, w=w)))
    rc, out, err = run_cli(
        capsys, "verify", "--mempool", str(golden_mempool_file),
        "--k", "3", "--lambda", "1", "--profile", str(ppath),
    )
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["w"] == w and isinstance(doc["passes"], bool)


def _verify_equilibrium_output_at_large_lambda(capsys, tmp_path, keep_w: bool) -> dict:
    """verify --profile's report on equilibrium's own output, at lambda 1000 where "w" prints as 0."""
    mempool_path = tmp_path / "pool.json"
    mempool_path.write_text(mempool_json(Mempool.from_arrays(range(4), np.exp(np.arange(4) / 3))))
    game = ("--mempool", str(mempool_path), "--k", "3", "--lambda", "1000")
    rc, out, _ = run_cli(capsys, "equilibrium", *game)
    assert rc == 0
    profile = json.loads(out)
    assert profile["w"] == 0  # every discounted price underflows in floats
    if not keep_w:
        del profile["w"]
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(profile))
    rc, out, _ = run_cli(capsys, "verify", *game, "--profile", str(ppath))
    assert rc == 0
    doc = json.loads(out)
    assert doc["brute_force"]["passes"] is True
    return doc


def test_verify_profile_without_w_at_large_lambda(capsys, tmp_path):
    # The estimated w must still be checkable.
    doc = _verify_equilibrium_output_at_large_lambda(capsys, tmp_path, keep_w=False)
    # The 12 digits the marginals are written with leave about 1e-13 * lambda of violation.
    assert doc["passes"] is True and 0.0 <= doc["worst_violation"] < 1e-9


def test_equilibrium_verify_round_trip_at_large_lambda(capsys, tmp_path):
    # The printed w of 0 lost every digit; the profile reader recovers ln w from xhat,
    # where log(0) would fail every transaction.
    doc = _verify_equilibrium_output_at_large_lambda(capsys, tmp_path, keep_w=True)
    assert doc["passes"] is True and 0.0 <= doc["worst_violation"] < 1e-9
    assert doc["w"] == 0


def test_simulate_subcommand(capsys, golden_mempool_file, tmp_path):
    out_path = tmp_path / "report.json"
    args = ("simulate", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
            "--trials", "200", "--seed", "5", "--strategies", "equilibrium,greedy",
            "--out", str(out_path))
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    first = out_path.read_bytes()
    run_cli(capsys, *args)
    assert out_path.read_bytes() == first
    reports = json.loads(first)
    assert [r["strategy"] for r in reports] == ["equilibrium", "greedy"]


def test_simulate_one_trial_reports_no_stderr(capsys, golden_mempool_file):
    # One trial has no sample deviation; computing one would raise under pytest's RuntimeWarning filter.
    rc, out, _ = run_cli(
        capsys, "simulate", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        "--trials", "1", "--strategies", ",".join(STRATEGY_NAMES),
    )
    assert rc == 0
    reports = json.loads(out)
    assert [r["stderr_exclusive_revenue"] for r in reports] == [None] * len(STRATEGY_NAMES)


def test_env_seed_fallback(capsys, golden_mempool_file, monkeypatch):
    # On the golden file seed 0 draws [2, 4, 5], seed 5 [2, 4, 6] and seed 99 [2, 3, 5].
    args = ("sample", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1")
    monkeypatch.delenv("TXPACK_SEED", raising=False)
    _, seed_0, _ = run_cli(capsys, *args)
    _, seed_5, _ = run_cli(capsys, *args, "--seed", "5")
    _, seed_99, _ = run_cli(capsys, *args, "--seed", "99")
    monkeypatch.setenv("TXPACK_SEED", "99")
    _, from_env, _ = run_cli(capsys, *args)
    _, flag_wins, _ = run_cli(capsys, *args, "--seed", "5")
    assert from_env == seed_99 != seed_0
    assert flag_wins == seed_5 != seed_99


@pytest.mark.parametrize("cmd", [("sample",), ("simulate", "--trials", "5")])
@pytest.mark.parametrize("flag, env, message", [
    (("--seed", "-1"), None, "--seed must be a non-negative integer, got -1"),
    ((), "abc", "TXPACK_SEED must be a non-negative integer, got 'abc'"),
    ((), "-2", "TXPACK_SEED must be a non-negative integer, got -2"),
])
def test_bad_seed_exits_1(capsys, golden_mempool_file, monkeypatch, cmd, flag, env, message):
    monkeypatch.delenv("TXPACK_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("TXPACK_SEED", env)
    rc, out, err = run_cli(capsys, *cmd, "--mempool", str(golden_mempool_file),
                           "--k", "3", "--lambda", "1", *flag)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_empty_mempool_exits_1(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"transactions": []}')
    rc, _, err = run_cli(capsys, "equilibrium", "--mempool", str(path), "--k", "3", "--lambda", "1")
    assert rc == 1
    assert "empty mempool" in err


def test_validation_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"transactions": [{"id": 1, "gas_price": -2}]}')
    rc, _, err = run_cli(capsys, "equilibrium", "--mempool", str(path), "--k", "3", "--lambda", "1")
    assert rc == 1
    assert "error" in err


def test_missing_file_exits_1(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys, "equilibrium", "--mempool", str(tmp_path / "nope.json"), "--k", "3", "--lambda", "1"
    )
    assert rc == 1


def test_usage_error_exits_2(golden_mempool_file):
    with pytest.raises(SystemExit) as exc:
        main(["equilibrium", "--mempool", str(golden_mempool_file)])  # missing --k/--lambda
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (("equilibrium", "--seed", "1"), 2),
    (("basefee", "--seed", "1"), 2),
    (("verify", "--seed", "1"), 2),
    (("basefee", "--mode", "fixed"), 2),
    (("sample", "--seed", "1"), 0),
    (("simulate", "--trials", "10", "--seed", "1"), 0),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_only_subcommands_that_read_a_flag_take_it(golden_mempool_file, argv, code):
    # --seed only where a block is drawn at random; --mode everywhere but basefee
    cmd, *rest = argv
    try:
        rc = main([cmd, "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1", *rest])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code


@pytest.mark.parametrize("argv", [
    ("sample",),
    ("equilibrium",),
    ("simulate", "--trials", "10", "--strategies", "greedy"),
    ("simulate", "--trials", "10", "--strategies", "uniform-random-k"),
    ("simulate", "--trials", "10", "--strategies", "equilibrium"),
    ("verify", "--profile", "profile.json"),
], ids=" ".join)
def test_fixed_mode_refuses_sized_mempool(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "sized.json"
    path.write_text(json.dumps({"transactions": [
        {"id": i, "gas_price": v, "size": s}
        for i, v, s in [(10, 3.0, 1.0), (11, 2.5, 1.0), (12, 2.0, 2.5), (13, 1.5, 0.5), (14, 1.0, 1.0)]
    ]}))
    # a profile of this mempool that variable mode accepts; fixed mode must still refuse the mempool
    assert main(["equilibrium", "--mempool", str(path), "--k", "2", "--lambda", "1",
                 "--mode", "variable", "--out", "profile.json"]) == 0
    cmd, *rest = argv
    rc, out, err = run_cli(capsys, cmd, "--mempool", str(path), "--k", "2", "--lambda", "1", *rest)
    assert rc == 1 and out == ""
    assert "unit" in err and "compute_phat" not in err
    assert "fixed mode" in err and "transaction 12 has size 2.5" in err and "variable mode" in err


# Every fixed-mode entry point, as a call on (mempool, params) or as CLI arguments.
FIXED_MODE_ENTRY_POINTS = {
    "solve_equilibrium": lambda mp, params: solve_equilibrium(mp, params, mode="fixed"),
    "brute_force_check": lambda mp, params: brute_force_check(
        mp, params, solve_equilibrium(mp, params, mode="variable")),
    "greedy_profile": greedy_profile,
    "run_experiment": lambda mp, params: run_experiment(
        {"mempool": mp, "k": params.k, "lambda": params.lam, "trials": 20,
         "strategies": list(STRATEGY_NAMES)}),
    "txpack equilibrium": ("equilibrium",),
    "txpack sample --r": ("sample", "--r", "0.37"),
    "txpack verify": ("verify",),
    "txpack verify --profile": ("verify", "--profile", "profile.json"),
    "txpack simulate": ("simulate", "--trials", "20", "--strategies", ",".join(STRATEGY_NAMES)),
}
FIXED_MODE_CASES = [
    (kind, k, m) for kind in ("unit", "sized") for k in ("3", "2.5") for m in (7, 30)
]


@pytest.mark.parametrize("kind, k, m", FIXED_MODE_CASES, ids=str)
@pytest.mark.parametrize("entry", FIXED_MODE_ENTRY_POINTS)
def test_fixed_mode_rule_is_the_same_everywhere(capsys, monkeypatch, tmp_path, entry, kind, k, m):
    # Fixed mode's game is blocks of k unit-size transactions: a fractional k
    # is refused first, then a sized mempool, by every entry point alike.
    monkeypatch.chdir(tmp_path)
    sizes = np.ones(m)
    if kind == "sized":
        sizes[2] = 2.5
    mempool = Mempool.from_arrays(np.arange(10, 10 + m), np.exp(np.linspace(-1.0, 1.0, m)), sizes)
    path = tmp_path / "pool.json"
    path.write_text(mempool_json(mempool))
    game = ("--mempool", str(path), "--k", k, "--lambda", "1")
    if k != "3":
        expected = "fixed-size mode requires integer k, got 2.5"
    elif kind == "sized":
        expected = ("fixed mode requires unit sizes, but transaction 12 has size 2.5; "
                    "use variable mode for sized transactions")
    elif entry == "brute_force_check" and m > 20:
        expected = "instance too large for enumeration (m=30, k=3)"  # the oracle's own limit
    else:
        expected = None
    call = FIXED_MODE_ENTRY_POINTS[entry]
    if callable(call):
        try:
            call(mempool, GameParams(k=float(k), lam=1.0))
            error = None
        except ValidationError as e:
            error = str(e)
        assert error == expected
    else:
        # variable mode accepts every case; its profile is what verify --profile reads
        assert main(["equilibrium", *game, "--mode", "variable", "--out", "profile.json"]) == 0
        rc, out, err = run_cli(capsys, call[0], *game, *call[1:])
        if expected is None:
            assert (rc, err) == (0, "") and out
        else:
            assert (rc, out, err) == (1, "", f"error: {expected}\n")


def test_twelve_significant_digits(capsys, golden_mempool_file):
    _, out, _ = run_cli(
        capsys, "basefee", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"
    )
    assert "0.716531310574" in out  # e^(-1/3) at 12 significant digits


# Exact stdout of each subcommand on the golden mempool (k = 3, lambda = 1),
# so that any byte change in the output between versions is caught.
GOLDEN_STDOUT = {
    ("equilibrium",): """{
  "marginals": [
    {
      "id": 1,
      "p": 0.333333333333
    },
    {
      "id": 2,
      "p": 1
    },
    {
      "id": 3,
      "p": 0.25
    },
    {
      "id": 4,
      "p": 0.75
    },
    {
      "id": 5,
      "p": 0.333333333333
    },
    {
      "id": 6,
      "p": 0.333333333333
    },
    {
      "id": 7,
      "p": 0
    }
  ],
  "xhat": 0.333333333333,
  "w": 0.716531310574
}
""",
    ("basefee", "--fee-mode", "xhat"): """{
  "v_low": 0.716531310574,
  "v_high": 1.94773404105,
  "mode": "xhat_aware",
  "xhat": 0.333333333333
}
""",
    ("basefee", "--fee-mode", "paper"): """{
  "v_low": 0.513417119033,
  "v_high": 1.39561242509,
  "mode": "paper_closed_form",
  "xhat": 0
}
""",
    ("verify",): """{
  "passes": true,
  "w": 0.716531310574,
  "worst_violation": 5.55111512313e-17,
  "brute_force": {
    "passes": true,
    "w": 0.716531310574,
    "worst_violation": 0
  }
}
""",
    ("sample", "--r", "0.37"): """{
  "txids": [
    2,
    3,
    5
  ],
  "used_capacity": 3
}
""",
    ("simulate", "--trials", "200", "--seed", "9"): """[
  {
    "strategy": "equilibrium",
    "trials": 200,
    "seed": 9,
    "mean_exclusive_revenue": 2.42907107803,
    "stderr_exclusive_revenue": 0.153170365944,
    "mean_duplication_rate": 0.102222222222,
    "mean_unique_tx": 2.245,
    "mean_chain_revenue": 3.5890515932
  }
]
""",
    ("simulate", "--strategies", "equilibrium,greedy,uniform-random-k", "--trials", "700",
     "--seed", "11"): """[
  {
    "strategy": "equilibrium",
    "trials": 700,
    "seed": 11,
    "mean_exclusive_revenue": 2.37990241211,
    "stderr_exclusive_revenue": 0.0808020316271,
    "mean_duplication_rate": 0.100476190476,
    "mean_unique_tx": 2.20571428571,
    "mean_chain_revenue": 3.57634681932
  },
  {
    "strategy": "greedy",
    "trials": 700,
    "seed": 11,
    "mean_exclusive_revenue": 1.99684670405,
    "stderr_exclusive_revenue": 0.0961821443747,
    "mean_duplication_rate": 0.154904761905,
    "mean_unique_tx": 1.85571428571,
    "mean_chain_revenue": 3.2383319208
  },
  {
    "strategy": "uniform-random-k",
    "trials": 700,
    "seed": 11,
    "mean_exclusive_revenue": 2.27938351614,
    "stderr_exclusive_revenue": 0.0561932825179,
    "mean_duplication_rate": 0.0742857142857,
    "mean_unique_tx": 2.39142857143,
    "mean_chain_revenue": 2.80156918723
  }
]
""",
}


@pytest.mark.parametrize("extra", GOLDEN_STDOUT, ids=" ".join)
def test_golden_stdout_bytes(capsys, golden_mempool_file, extra):
    rc, out, _ = run_cli(
        capsys, extra[0], "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        *extra[1:],
    )
    assert rc == 0
    assert out == GOLDEN_STDOUT[extra]


def test_infinite_price_exits_1(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"transactions": [{"id": 1, "gas_price": 2.0}, {"id": 8, "gas_price": Infinity}]}')
    rc, out, err = run_cli(capsys, "equilibrium", "--mempool", str(path), "--k", "1", "--lambda", "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "transaction 8" in err


def _profile_doc(ids=range(1, 8), p=0.5, **extra):
    return {"marginals": [{"id": i, "p": p} for i in ids], **extra}


BAD_PROFILES = {
    "missing": _profile_doc([1, 2, 3, 4, 5, 6]),
    "unknown": _profile_doc([1, 2, 3, 4, 5, 6, 7, 99]),
    "duplicated": _profile_doc([1, 2, 3, 4, 5, 6, 7, 1]),
    "nan p": _profile_doc(p=math.nan),
    "inf p": _profile_doc(p=math.inf),
    "p above 1": _profile_doc(p=1.5),
    "string p": _profile_doc(p="x"),
    "bool p": _profile_doc(p=True),
    "int p beyond float range": _profile_doc(p=10**400),
    "array records": {"marginals": [[i, 0.5] for i in range(1, 8)]},
    "record without p": {"marginals": [{"id": i} for i in range(1, 8)]},
    "marginals object": {"marginals": {"1": 0.5}},
    "top-level array": _profile_doc()["marginals"],
    "no marginals": {"xhat": 0.0, "w": 1.0},
    "string w": _profile_doc(w="abc"),
    "nan w": _profile_doc(w=math.nan),
    "negative w": _profile_doc(w=-1),
    "string xhat": _profile_doc(xhat="0"),
    "not json": "{",
    "int past the digit limit": "1" + "0" * 5000,
    # a whole profile, but one key is not UTF-8; only strict decoding refuses it
    "not utf-8": json.dumps(_profile_doc()).encode()[:-1] + b', "\xff": 1}',
}


@pytest.mark.parametrize("case", BAD_PROFILES)
def test_profile_must_match_mempool(capsys, tmp_path, golden_mempool_file, case):
    ppath = tmp_path / "profile.json"
    doc = BAD_PROFILES[case]
    if isinstance(doc, bytes):
        ppath.write_bytes(doc)
    else:
        ppath.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc, out, err = run_cli(
        capsys, "verify", "--mempool", str(golden_mempool_file),
        "--k", "3", "--lambda", "1", "--profile", str(ppath),
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1  # one line, no traceback


def test_nan_budget_exits_3(capsys, tmp_path):
    # lambda = 5e-324 overflows the raw marginals to +-inf, so the clamped
    # capacity is NaN; the budget invariant must still see the violation.
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"transactions": [
        {"id": i, "gas_price": float(i)} for i in range(1, 5)
    ]}))
    with np.errstate(all="ignore"):
        rc, out, err = run_cli(
            capsys, "equilibrium", "--mempool", str(path), "--k", "2", "--lambda", "5e-324"
        )
    assert rc == 3
    assert out == ""
    assert err.startswith("invariant violation:") and "nan" in err


def test_simulate_variable_mode_exits_1(capsys, golden_mempool_file):
    rc, out, err = run_cli(
        capsys, "simulate", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        "--trials", "10", "--mode", "variable",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "--mode fixed" in err


@pytest.mark.parametrize("k", ["2.5", "3"])
def test_verify_variable_mode_skips_brute_force(capsys, tmp_path, k):
    # The brute force enumerates unit-size k-subsets; a sized game has no such oracle.
    path = tmp_path / "sized.json"
    path.write_text(json.dumps({"transactions": [
        {"id": i, "gas_price": v, "size": s}
        for i, v, s in [(1, 3.0, 1.5), (2, 2.5, 0.5), (3, 2.0, 1.0), (4, 1.5, 2.0), (5, 1.0, 0.7)]
    ]}))
    rc, out, _ = run_cli(
        capsys, "verify", "--mempool", str(path), "--k", k, "--lambda", "1", "--mode", "variable"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passes"] is True
    assert "brute_force" not in doc


def _rendered(doc) -> str:
    """doc as every subcommand writes it to stdout, without the closing newline."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc, None)
    return out.getvalue().removesuffix("\n")


def _reference_dumps12(obj, indent=0) -> str:
    """The recursive writer the flat one replaced, kept as the byte-level reference."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [
            f'{pad}  {json.dumps(str(k))}: {_reference_dumps12(v, indent + 1).lstrip()}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {_reference_dumps12(v, indent + 1).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return pad + json.dumps(None)
        return pad + format(obj, ".12g")
    return pad + json.dumps(obj)


class _Float(float):
    pass


WRITER_CASES = {
    "empty-dict": ({}, "{\n\n}"),
    "empty-list": ([], "[]"),
    "empty-nested": ({"a": {}, "b": [], "c": [{}]}, '{\n  "a": {\n\n  },\n  "b": [],\n  "c": [\n    {\n\n    }\n  ]\n}'),
    "nested-lists": ([[1, [2.5]], []], "[\n  [\n    1,\n    [\n      2.5\n    ]\n  ],\n  []\n]"),
    "rows": ([{"id": 1, "p": 0.1}, {"id": 2, "p": 1.0}],
             '[\n  {\n    "id": 1,\n    "p": 0.1\n  },\n  {\n    "id": 2,\n    "p": 1\n  }\n]'),
    "mixed-key-rows": ([{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}],
                       '[\n  {\n    "a": 1,\n    "b": 2\n  },\n  {\n    "b": 2,\n    "a": 1\n  },\n'
                       '  {\n    "a": 1\n  }\n]'),
    "non-finite": ([float("nan"), float("inf"), -float("inf"), {"p": float("nan")}],
                   '[\n  null,\n  null,\n  null,\n  {\n    "p": null\n  }\n]'),
    "bool-none": ({"t": True, "f": False, "n": None, "rows": [True, None, 0]},
                  '{\n  "t": true,\n  "f": false,\n  "n": null,\n  "rows": [\n    true,\n    null,\n    0\n  ]\n}'),
    "equal-keys": ([{1: 0}, {True: 0}, {1.0: 0}],
                   '[\n  {\n    "1": 0\n  },\n  {\n    "True": 0\n  },\n  {\n    "1.0": 0\n  }\n]'),
    "int-keys": ({1: "x", 2.5: [1.25e-7], "{k}": 1e300}, '{\n  "1": "x",\n  "2.5": [\n    1.25e-07\n  ],\n  "{k}": 1e+300\n}'),
    "float-subclass": ([_Float(1 / 3), np.float64(2 / 3)], "[\n  0.333333333333,\n  0.666666666667\n]"),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_writer_edge_case_bytes(case):
    doc, expected = WRITER_CASES[case]
    assert _rendered(doc) == expected
    assert _reference_dumps12(doc) == expected


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.floats().map(_Float), st.floats().map(np.float64),
)
_keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.sampled_from(["{", "}", "{0}"]))
_docs = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_keys, inner, max_size=4),
        st.lists(st.fixed_dictionaries({"id": _scalars, "{p}": _scalars}), max_size=4),
        st.lists(st.fixed_dictionaries({"id": _scalars, "p": inner}), max_size=3),
        st.lists(st.dictionaries(st.sampled_from([0, 1, True, 1.0, "1"]), _scalars, max_size=2), max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_writer_matches_reference(doc):
    assert _rendered(doc) == _reference_dumps12(doc)


_marginal = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 5e-324, -5e-324, 1.25e-7, 0.1 + 0.2, 1e16, 1e300,
                     2**63 - 1, True, False, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 1.0),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63 - 1), _marginal), max_size=20),
       _marginal, st.one_of(st.none(), _marginal))
def test_rows_write_like_dict_rows(records, xhat, w):
    ids, ps = [i for i, _ in records], [p for _, p in records]
    rows = {"marginals": Rows(("id", "p"), (ids, ps)), "xhat": xhat, "w": w}
    dict_rows = {"marginals": [{"id": i, "p": p} for i, p in records], "xhat": xhat, "w": w}
    assert _rendered(rows) == _reference_dumps12(dict_rows)


@settings(max_examples=200, deadline=None)
@given(_docs, st.integers(1, 3))
def test_blocks_write_like_one_block(doc, block_rows):
    # Lists of scalars whose blocks differ in kind: some templated, some walked.
    with mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows):
        assert _rendered(doc) == _reference_dumps12(doc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63 - 1), _marginal), max_size=20), st.integers(1, 3))
def test_array_rows_write_like_dict_rows(records, block_rows):
    # The CLI's Rows hold numpy columns; a non-finite p prints null in whichever block it falls.
    ids = np.array([i for i, _ in records], dtype=np.int64)
    ps = np.array([p for _, p in records], dtype=np.float64)
    dict_rows = {"marginals": [{"id": i, "p": p} for i, p in zip(ids.tolist(), ps.tolist())]}
    with mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows):
        assert _rendered({"marginals": Rows(("id", "p"), (ids, ps))}) == _reference_dumps12(dict_rows)


_row_columns = st.one_of(
    st.lists(st.integers(0, 2**63 - 1), min_size=5, max_size=5).map(lambda c: np.array(c, dtype=np.int64)),
    st.lists(_marginal, min_size=5, max_size=5).map(lambda c: np.array(c, dtype=np.float64)),
    st.lists(st.one_of(st.integers(-2**63, 2**64), _marginal), min_size=5, max_size=5),
    st.lists(_marginal, min_size=5, max_size=5).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["id", "p", "%d", "%%s", "{0}", '"q"', "\u00e9"]), _row_columns),
                min_size=1, max_size=3, unique_by=lambda kc: kc[0]),
       st.integers(0, 5), st.integers(1, 3))
def test_columns_write_like_dict_rows(keyed, m, block_rows):
    # Numpy and list columns, rendered a column at a time, against the recursive writer's rows.
    keys = tuple(key for key, _ in keyed)
    columns = tuple(column[:m] for _, column in keyed)
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    dict_rows = [dict(zip(keys, row)) for row in zip(*values)]
    with mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows):
        assert _rendered({"rows": Rows(keys, columns)}) == _reference_dumps12({"rows": dict_rows})


def _seeded_mempool_file(tmp_path, kind):
    rng = np.random.default_rng(20_000)
    m = 20_000
    ids = rng.permutation(m)
    prices = np.exp(rng.uniform(-3.0, 3.0, m))
    sizes = np.ones(m) if kind == "unit" else rng.uniform(0.2, 4.0, m)
    path = tmp_path / f"{kind}.json"
    path.write_text(mempool_json(Mempool.from_arrays(ids, prices, sizes)))
    return path


# SHA-256 of stdout on seeded 2e4-transaction mempools, taken with the
# recursive writer and the full-height rejection chunks, which these must match.
GOLDEN_STDOUT_SHA256 = {
    ("unit", "equilibrium", "--k", "2000"):
        "67eb74db63092e5cbc10ffd06f1e26d2affcc3fd3f3187326c1a926604f74999",
    ("sized", "equilibrium", "--k", "4000", "--mode", "variable"):
        "a2a0582ad401b47d5ed0c408122e441747626adb2b5a3cef0a91df6c6035c5a1",
    ("unit", "sample", "--k", "2000", "--mode", "variable", "--seed", "3"):
        "be55c666ef1231bd1e75623aacfe5d94cf89d91359d399fae2be65de0918f3ea",
    ("sized", "sample", "--k", "4000", "--mode", "variable", "--seed", "3"):
        "9ed793663f8b6e1888c518a21687f74748b9a5e71c9ca462a53bc10320f52047",
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT_SHA256, ids=" ".join)
def test_large_stdout_sha256(capsys, tmp_path, argv):
    kind, cmd, *rest = argv
    path = _seeded_mempool_file(tmp_path, kind)
    rc, out, _ = run_cli(capsys, cmd, "--mempool", str(path), "--lambda", "1", *rest)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


@pytest.mark.parametrize("strategy", ["equilibrium", "greedy", "uniform-random-k"])
def test_simulate_block_larger_than_mempool(capsys, golden_mempool_file, strategy):
    # A fixed-mode block holds min(k, m) transactions, whatever the strategy.
    rc, out, err = run_cli(
        capsys, "simulate", "--mempool", str(golden_mempool_file), "--k", "10", "--lambda", "1",
        "--trials", "50", "--strategies", strategy,
    )
    assert rc == 0, err
    assert json.loads(out)[0]["strategy"] == strategy


def test_sample_kprime_above_k_exits_1(capsys, golden_mempool_file):
    # the window [2k' - k, k] is empty, so the sampler refuses before its first draw
    rc, out, err = run_cli(
        capsys, "sample", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        "--mode", "variable", "--kprime", "5",
    )
    assert rc == 1 and out == ""
    assert err == "error: acceptance window [7.0, 3.0] is empty: no draw can fit\n"


@pytest.mark.parametrize("kprime, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan")])
def test_sample_refuses_a_bad_kprime_by_its_flag(capsys, golden_mempool_file, kprime, shown):
    rc, out, err = run_cli(
        capsys, "sample", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        "--mode", "variable", "--kprime", kprime,
    )
    assert rc == 1 and out == ""
    assert err == f"error: --kprime must be finite and > 0, got {shown}\n"


@pytest.mark.parametrize("mode, flag", [("variable", "--r"), ("fixed", "--kprime")])
def test_sample_refuses_the_flag_its_mode_ignores(capsys, golden_mempool_file, mode, flag):
    rc, out, err = run_cli(
        capsys, "sample", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        "--mode", mode, flag, "0.5", "--seed", "1",
    )
    assert rc == 1 and out == ""
    assert err == f"error: sample --mode {mode} does not take {flag}\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_refuses_nan_or_negative_tol(capsys, golden_mempool_file, tol):
    rc, out, err = run_cli(
        capsys, "verify", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
        "--tol", tol,
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: tol must be >= 0")


def test_sample_block_larger_than_mempool(capsys, golden_mempool_file):
    rc, out, err = run_cli(
        capsys, "sample", "--mempool", str(golden_mempool_file), "--k", "10", "--lambda", "1",
        "--r", "0.5",
    )
    assert rc == 0, err
    assert json.loads(out)["txids"] == [1, 2, 3, 4, 5, 6, 7]
