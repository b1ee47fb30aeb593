import numpy as np
import pytest
from hypothesis import given, settings

from txpack import (
    GameParams,
    Mempool,
    MempoolFitsInBlock,
    ValidationError,
    ZeroLatencyError,
    base_fee,
    solve_equilibrium,
    verify_equilibrium,
)
from txpack.equilibrium import log_threshold

from conftest import random_sized_mempool, random_unit_mempool, threshold_games


def test_golden_xhat_aware(golden_mempool, golden_params):
    fb = base_fee(golden_mempool, golden_params, "xhat_aware")
    assert fb.v_low == pytest.approx(np.exp(-1 / 3), rel=1e-9)
    assert fb.v_high == pytest.approx(np.exp(2 / 3), rel=1e-9)
    assert fb.xhat == pytest.approx(1 / 3, abs=1e-9)


def test_golden_classification(golden_mempool, golden_params):
    fb = base_fee(golden_mempool, golden_params, "xhat_aware")
    profile = solve_equilibrium(golden_mempool, golden_params)
    for price, p in zip(golden_mempool.prices, profile.values):
        if price < fb.v_low * (1 - 1e-12):
            assert p == 0.0
        if price > fb.v_high * (1 + 1e-12):
            assert p == 1.0
    # spot checks against hand-solved values
    p = profile.as_dict()
    assert p[7] == 0.0  # e^-3 < v_low
    assert p[2] == 1.0  # e^1 > v_high
    assert p[4] == pytest.approx(0.75)  # between the bounds


def test_golden_closed_form(golden_mempool, golden_params):
    fb = base_fee(golden_mempool, golden_params, "paper_closed_form")
    assert fb.v_low == pytest.approx(np.exp(-2 / 3), rel=1e-9)
    assert fb.v_high == pytest.approx(np.exp(1 / 3), rel=1e-9)
    assert fb.xhat == 0.0


def test_equal_prices_closed_form():
    v, m, k, lam = 4.0, 6, 2, 1.7
    mp = Mempool.from_arrays(range(m), [v] * m)
    fb = base_fee(mp, GameParams(k=k, lam=lam), "paper_closed_form")
    assert fb.v_low == pytest.approx(v * np.exp(-k * lam / m), rel=1e-12)
    assert fb.v_high == pytest.approx(v * np.exp((m - k) * lam / m), rel=1e-12)


def check_threshold_identities(mp, params, mode):
    """The profile, the fee bounds and the Nash check share one ln w, wherever
    w, e^lambda or a discounted price leaves the float range."""
    profile = solve_equilibrium(mp, params, mode=mode)
    assert profile.log_w == log_threshold(profile.xhat, mp, params)
    fb = base_fee(mp, params, "xhat_aware")
    assert fb.xhat == profile.xhat
    assert fb.v_low == profile.w
    with np.errstate(over="ignore"):  # inf past the float range
        assert fb.v_high == np.exp(profile.log_w + params.lam)
    assert fb.v_low <= fb.v_high
    assert verify_equilibrium(profile, mp, params).passes


@pytest.mark.parametrize("seed", range(6))
def test_v_low_equals_threshold(seed):
    rng = np.random.default_rng(400 + seed)
    mp = random_sized_mempool(rng, int(rng.integers(3, 60)))
    k = float(rng.uniform(0.1, 0.9)) * mp.total_size
    params = GameParams(k=k, lam=float(rng.uniform(0.2, 4)))
    check_threshold_identities(mp, params, "variable")


@settings(max_examples=200, deadline=None)
@given(threshold_games())
def test_threshold_identities(game):
    check_threshold_identities(*game)


@pytest.mark.parametrize("scale, lam", [(1.0, 1000.0), (1e-300, 100.0)],
                         ids=["e^lambda overflows", "w underflows"])
def test_v_high_from_logs_out_of_float_range(scale, lam):
    # every marginal is interior, so v_high = exp(ln w + lambda) with
    # ln w = mean ln v - lambda k / m, though w or e^lambda is out of range
    prices = scale * np.exp(np.arange(4) / 3)
    mp = Mempool.from_arrays(range(4), prices)
    params = GameParams(k=3, lam=lam)
    log_v_high = np.log(prices).mean() - lam * 3 / 4 + lam
    for mode in ("paper_closed_form", "xhat_aware"):
        fb = base_fee(mp, params, mode)
        assert fb.v_low == 0.0  # w itself underflows
        assert fb.v_high == pytest.approx(np.exp(log_v_high), rel=1e-9)
        assert prices.max() < fb.v_high


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
    mp = Mempool.from_arrays(range(8), [2.0] * 8)
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
        base_fee(Mempool.from_arrays([], []), GameParams(k=3, lam=1.0))
    with pytest.raises(MempoolFitsInBlock):
        base_fee(golden_mempool, GameParams(k=100, lam=1.0))
    with pytest.raises(ValidationError, match="mode"):
        base_fee(golden_mempool, GameParams(k=3, lam=1.0), "bogus")


def fresh(mp):
    """A copy of the mempool that has never been solved."""
    return Mempool.from_arrays(mp.ids, mp.prices, mp.sizes)


@pytest.mark.parametrize("kind", ["unit", "sized"])
def test_xhat_aware_reuses_the_last_solve_bit_for_bit(kind):
    rng = np.random.default_rng(77)
    mp = random_unit_mempool(rng, 300) if kind == "unit" else random_sized_mempool(rng, 300)
    modes = ("fixed", "variable") if kind == "unit" else ("variable",)
    grid = [(k, lam) for k in (20, 20.0, 75, 150.0) for lam in (0.5, 3.0)]
    grid += grid[::-1]  # interleaved: each (k, lambda) follows a solve at other params
    for mode in modes:
        for k, lam in grid:
            params = GameParams(k=k, lam=lam)
            solve_equilibrium(mp, params, mode=mode)
            for fee_mode in ("xhat_aware", "paper_closed_form"):
                assert base_fee(mp, params, fee_mode) == base_fee(fresh(mp), params, fee_mode)


def test_xhat_aware_reads_only_a_solve_at_the_same_params():
    rng = np.random.default_rng(78)
    mp = random_sized_mempool(rng, 40)
    params = GameParams(k=0.3 * mp.total_size, lam=2.0)
    mp.last_solve = (params.k, params.lam, 0.125)  # a solve at these params is taken as is
    assert base_fee(mp, params).xhat == 0.125
    for k, lam in ((params.k, 2.5), (0.4 * mp.total_size, params.lam)):
        other = GameParams(k=k, lam=lam)
        solve_equilibrium(mp, other, mode="variable")
        assert base_fee(mp, params) == base_fee(fresh(mp), params)
        assert base_fee(mp, params).xhat != mp.last_solve[2]


def test_xhat_aware_after_an_all_fits_solve():
    mp = Mempool.from_arrays(range(4), [1.0, 2.0, 3.0, 4.0])
    params = GameParams(k=4, lam=1.0)  # the whole mempool is one block
    solve_equilibrium(mp, params)
    assert base_fee(mp, params) == base_fee(fresh(mp), params)
    with pytest.raises(MempoolFitsInBlock):
        base_fee(mp, GameParams(k=5, lam=1.0))
