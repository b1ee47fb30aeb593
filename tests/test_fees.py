import numpy as np
import pytest

from txpack import (
    GameParams,
    Mempool,
    MempoolFitsInBlock,
    Transaction,
    ValidationError,
    ZeroLatencyError,
    base_fee,
    solve_equilibrium,
)

from conftest import random_sized_mempool


def test_golden_xhat_aware(golden_mempool, golden_params):
    fb = base_fee(golden_mempool, golden_params, "xhat_aware")
    assert fb.v_low == pytest.approx(np.exp(-1 / 3), rel=1e-9)
    assert fb.v_high == pytest.approx(np.exp(2 / 3), rel=1e-9)
    assert fb.xhat == pytest.approx(1 / 3, abs=1e-9)


def test_golden_classification(golden_mempool, golden_params):
    fb = base_fee(golden_mempool, golden_params, "xhat_aware")
    profile = solve_equilibrium(golden_mempool, golden_params)
    for tx, p in zip(golden_mempool, profile.values):
        if tx.gas_price < fb.v_low * (1 - 1e-12):
            assert p == 0.0
        if tx.gas_price > fb.v_high * (1 + 1e-12):
            assert p == 1.0
    # spot checks against hand-solved values
    assert profile.probability(7) == 0.0  # e^-3 < v_low
    assert profile.probability(2) == 1.0  # e^1 > v_high
    assert profile.probability(4) == pytest.approx(0.75)  # between the bounds


def test_golden_closed_form(golden_mempool, golden_params):
    fb = base_fee(golden_mempool, golden_params, "paper_closed_form")
    assert fb.v_low == pytest.approx(np.exp(-2 / 3), rel=1e-9)
    assert fb.v_high == pytest.approx(np.exp(1 / 3), rel=1e-9)
    assert fb.xhat == 0.0


def test_equal_prices_closed_form():
    v, m, k, lam = 4.0, 6, 2, 1.7
    mp = Mempool([Transaction(i, v) for i in range(m)])
    fb = base_fee(mp, GameParams(k=k, lam=lam), "paper_closed_form")
    assert fb.v_low == pytest.approx(v * np.exp(-k * lam / m), rel=1e-12)
    assert fb.v_high == pytest.approx(v * np.exp((m - k) * lam / m), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_v_low_equals_threshold(seed):
    rng = np.random.default_rng(400 + seed)
    mp = random_sized_mempool(rng, int(rng.integers(3, 60)))
    k = float(rng.uniform(0.1, 0.9)) * mp.total_size
    params = GameParams(k=k, lam=float(rng.uniform(0.2, 4)))
    fb = base_fee(mp, params, "xhat_aware")
    profile = solve_equilibrium(mp, params, mode="variable")
    assert fb.v_low == profile.w
    assert fb.v_high == profile.w * np.exp(params.lam)
    assert fb.xhat == profile.xhat
    assert fb.v_low <= fb.v_high


@pytest.mark.parametrize("seed", range(6))
def test_classification_soundness(seed):
    rng = np.random.default_rng(500 + seed)
    mp = random_sized_mempool(rng, int(rng.integers(3, 60)))
    k = float(rng.uniform(0.1, 0.9)) * mp.total_size
    params = GameParams(k=k, lam=float(rng.uniform(0.2, 4)))
    fb = base_fee(mp, params, "xhat_aware")
    profile = solve_equilibrium(mp, params, mode="variable")
    for price, p in zip(mp.prices, profile.values):
        if price < fb.v_low * (1 - 1e-9):
            assert p == 0.0
        if price > fb.v_high * (1 + 1e-9):
            assert p == 1.0


def test_modes_agree_without_clamping():
    # equal prices keep every raw marginal interior, so xhat = 0
    mp = Mempool([Transaction(i, 2.0) for i in range(8)])
    params = GameParams(k=3, lam=1.0)
    a = base_fee(mp, params, "paper_closed_form")
    b = base_fee(mp, params, "xhat_aware")
    assert b.xhat == pytest.approx(0.0, abs=1e-12)
    assert a.v_low == pytest.approx(b.v_low, rel=1e-9)
    assert a.v_high == pytest.approx(b.v_high, rel=1e-9)


def test_errors(golden_mempool):
    with pytest.raises(ZeroLatencyError):
        base_fee(golden_mempool, GameParams(k=3, lam=0.0))
    with pytest.raises(ValidationError, match="empty"):
        base_fee(Mempool([]), GameParams(k=3, lam=1.0))
    with pytest.raises(MempoolFitsInBlock):
        base_fee(golden_mempool, GameParams(k=100, lam=1.0))
    with pytest.raises(ValidationError, match="mode"):
        base_fee(golden_mempool, GameParams(k=3, lam=1.0), "bogus")
