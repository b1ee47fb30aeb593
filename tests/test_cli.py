import json

import numpy as np
import pytest

from txpack.cli import main


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


def test_env_seed_fallback(capsys, golden_mempool_file, monkeypatch):
    monkeypatch.setenv("TXPACK_SEED", "99")
    args = ("sample", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


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
  "worst_violation": 1.54944104778e-16,
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


@pytest.mark.parametrize("ids", [
    [1, 2, 3, 4, 5, 6],  # id 7 missing
    [1, 2, 3, 4, 5, 6, 7, 99],  # 99 is not in the mempool
    [1, 2, 3, 4, 5, 6, 7, 1],  # id 1 twice
], ids=["missing", "unknown", "duplicated"])
def test_profile_must_match_mempool(capsys, tmp_path, golden_mempool_file, ids):
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps({"marginals": [{"id": i, "p": 0.5} for i in ids]}))
    rc, out, err = run_cli(
        capsys, "verify", "--mempool", str(golden_mempool_file),
        "--k", "3", "--lambda", "1", "--profile", str(ppath),
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
