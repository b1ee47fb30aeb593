import math
import os
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import txpack
from txpack import (
    GameParams,
    Mempool,
    MempoolFitsInBlock,
    ValidationError,
    ZeroLatencyError,
    compute_phat_real,
    solve_equilibrium,
    solve_xhat,
)
import txpack.equilibrium as equilibrium
from txpack.equilibrium import BUDGET_RTOL, _bracket, _model_guess, clamp_sum, log_threshold

from conftest import (
    GOLDEN_PHAT,
    GOLDEN_PROFILE,
    GOLDEN_W,
    GOLDEN_XHAT,
    random_sized_mempool,
    random_unit_mempool,
    threshold_games,
)


class TestComputePhat:
    def test_golden_values(self, golden_mempool, golden_params):
        raw = compute_phat_real(golden_mempool, golden_params)
        assert raw == pytest.approx(GOLDEN_PHAT, abs=1e-9)

    def test_equal_prices_symmetric(self):
        mp = Mempool.from_arrays(range(5), [7.5] * 5)
        raw = compute_phat_real(mp, GameParams(k=2, lam=0.7))
        assert raw == pytest.approx([0.4] * 5, abs=1e-12)

    def test_single_transaction(self):
        mp = Mempool.from_arrays([0], [3.0])
        raw = compute_phat_real(mp, GameParams(k=1, lam=2.0))
        assert raw[0] == pytest.approx(1.0)

    def test_zero_lambda_refused(self, golden_mempool):
        with pytest.raises(ZeroLatencyError, match="limit behavior"):
            compute_phat_real(golden_mempool, GameParams(k=3, lam=0.0))

    def test_empty_mempool_refused(self):
        with pytest.raises(ValidationError, match="empty"):
            compute_phat_real(Mempool.from_arrays([], []), GameParams(k=1, lam=1.0))

    def test_requires_unit_sizes(self):
        mp = Mempool.from_arrays([0], [1.0], [2.0])
        with pytest.raises(ValidationError, match="unit"):
            solve_equilibrium(mp, GameParams(k=1, lam=1.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_identity(self, seed):
        rng = np.random.default_rng(seed)
        mp = random_unit_mempool(rng, rng.integers(2, 200))
        k = int(rng.integers(1, len(mp) + 1))
        lam = float(rng.uniform(0.01, 10))
        raw = compute_phat_real(mp, GameParams(k=k, lam=lam))
        assert raw.sum() == pytest.approx(k, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_product_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        mp = random_unit_mempool(rng, 50)
        params = GameParams(k=5, lam=float(rng.uniform(0.1, 4)))
        raw = compute_phat_real(mp, params)
        const = mp.prices * np.exp(-params.lam * raw)
        assert np.ptp(const) <= 1e-9 * const[0]


class TestComputePhatReal:
    def test_two_transaction_hand_case(self):
        # Weighted mean log price is 2/3, so a lands exactly at 1 and b at 0;
        # the capacity identity gives 2*1 + 1*0 = k.
        mp = Mempool.from_arrays([0, 1], [np.e, 1.0], [2.0, 1.0])
        raw = compute_phat_real(mp, GameParams(k=2, lam=1.0))
        assert raw == pytest.approx([1.0, 0.0], abs=1e-12)
        assert float(raw @ mp.sizes) == pytest.approx(2.0, abs=1e-12)

    def test_equal_prices(self):
        mp = Mempool.from_arrays(range(3), [2.0] * 3, [1.0, 2.0, 3.0])
        raw = compute_phat_real(mp, GameParams(k=3, lam=1.0))
        assert raw == pytest.approx([0.5] * 3, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_budget_identity(self, seed):
        rng = np.random.default_rng(200 + seed)
        mp = random_sized_mempool(rng, rng.integers(2, 100))
        k = float(rng.uniform(0.1, mp.total_size))
        raw = compute_phat_real(mp, GameParams(k=k, lam=float(rng.uniform(0.1, 10))))
        assert float(raw @ mp.sizes) == pytest.approx(k, abs=1e-9 * max(1, k))


def _reference_solve_xhat(raw, sizes, k) -> float:
    """The sort-per-solve binary search the price-order table replaced, kept as its reference."""
    p = np.asarray(raw, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    total = float(sizes.sum())
    if total < k * (1.0 - BUDGET_RTOL):
        raise MempoolFitsInBlock(
            f"total capacity {total:g} < block capacity {k:g}; package everything"
        )
    b = np.sort(np.concatenate([p, p - 1.0]))
    if clamp_sum(p, sizes, b[0]) <= k:
        return float(b[0])
    lo, hi = 0, len(b) - 1  # f(b[lo]) > k, f(b[hi]) = 0 <= k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clamp_sum(p, sizes, b[mid]) > k:
            lo = mid
        else:
            hi = mid
    left, right = float(b[lo]), float(b[hi])
    f_left = clamp_sum(p, sizes, left)
    pos = 0.5 * (left + right)
    slope = -float(sizes[(p > pos) & (p < pos + 1.0)].sum())
    if slope == 0.0:
        return right if f_left > k else left
    return left + (k - f_left) / slope


def _solve_both(mempool, params):
    """(solve_xhat, reference) on compute_phat_real's marginals; bits, or the exception type."""
    raw = compute_phat_real(mempool, params)
    out = []
    for solve in (lambda: solve_xhat(raw, mempool, params),
                  lambda: _reference_solve_xhat(raw, mempool.sizes, params.k)):
        try:
            out.append(np.float64(solve()).tobytes())
        except MempoolFitsInBlock as e:
            out.append(type(e))
    return out


def _log_price_mempool(log_prices):
    """A unit-size mempool with these log prices."""
    return Mempool.from_arrays(np.arange(len(log_prices)), np.exp(log_prices))


class TestSolveXhat:
    def test_golden_xhat(self, golden_mempool, golden_params):
        raw = compute_phat_real(golden_mempool, golden_params)
        xhat = solve_xhat(raw, golden_mempool, golden_params)
        assert xhat == pytest.approx(GOLDEN_XHAT, abs=1e-9)
        assert xhat == _reference_solve_xhat(raw, golden_mempool.sizes, 3)

    def test_already_feasible_gives_zero(self):
        # Raw marginals about (0.5, 0.25, 0.75, 0.5): all in [0, 1] and summing to k.
        mp = _log_price_mempool([0.0, -0.25, 0.25, 0.0])
        params = GameParams(k=2, lam=1.0)
        raw = compute_phat_real(mp, params)
        xhat = solve_xhat(raw, mp, params)
        assert xhat == pytest.approx(0.0, abs=1e-12)
        assert xhat == _reference_solve_xhat(raw, mp.sizes, 2)

    def test_plateau_returns_left_endpoint(self):
        # Raw marginals (1.5, -0.5): f(x) = 1 on all of [-0.5, 0.5]; the
        # smallest solution is -0.5 and every solution clamps to (1, 0).
        mp = _log_price_mempool([1.0, -1.0])
        params = GameParams(k=1, lam=1.0)
        raw = compute_phat_real(mp, params)
        assert raw == pytest.approx([1.5, -0.5], abs=1e-12)
        xhat = solve_xhat(raw, mp, params)
        assert xhat == pytest.approx(-0.5, abs=1e-12)
        assert xhat == _reference_solve_xhat(raw, mp.sizes, 1)
        grid = np.linspace(-0.5, 0.5, 101)
        assert all(clamp_sum(raw, mp.sizes, x) == pytest.approx(1.0) for x in grid)
        assert np.clip(raw - xhat, 0, 1) == pytest.approx([1.0, 0.0])

    def test_undersized_mempool_signals(self):
        mp = _log_price_mempool([0.0, 0.0])
        params = GameParams(k=5, lam=1.0)
        raw = compute_phat_real(mp, params)
        with pytest.raises(MempoolFitsInBlock, match="package everything"):
            solve_xhat(raw, mp, params)
        assert _solve_both(mp, params) == [MempoolFitsInBlock] * 2

    @pytest.mark.parametrize("seed", range(8))
    def test_smallest_solution_property(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 150))
        mp = random_sized_mempool(rng, m) if seed % 2 else random_unit_mempool(rng, m)
        k = float(rng.uniform(0.05, 0.95)) * mp.total_size
        params = GameParams(k=k, lam=float(rng.uniform(0.1, 10)))
        raw = compute_phat_real(mp, params)
        xhat = solve_xhat(raw, mp, params)
        assert clamp_sum(raw, mp.sizes, xhat) == pytest.approx(k, rel=1e-9)
        assert clamp_sum(raw, mp.sizes, xhat - 1e-6) >= k - 1e-12
        assert xhat == _reference_solve_xhat(raw, mp.sizes, k)

    def test_unit_slope_where_one_is_below_an_ulp(self):
        # lambda = 1e-17 puts the raw marginals near +-1e17, where p - 1 == p.
        # The bracket is two adjacent floats, so its midpoint is one of them.
        mp = Mempool.from_arrays(
            np.arange(3), [1.6487212707001282, 1.6487212707001284, 0.36787944117144233]
        )
        params = GameParams(k=0.5, lam=1e-17)
        raw = compute_phat_real(mp, params)
        assert raw[0] + 1.0 == raw[0] and raw[0] != raw[1]
        got, want = _solve_both(mp, params)
        assert got == want

    def test_table_is_built_once(self, golden_mempool):
        assert golden_mempool.price_order is golden_mempool.price_order


@st.composite
def _solver_instances(draw):
    """(mempool, params) with tied and spread log prices, unit or widely spread sizes,
    lambda in [1e-3, 1e3], and k anywhere up to an ulp either side of the total size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 3000))
    prices = draw(st.sampled_from(["spread", "integer", "few"]))
    if prices == "spread":
        log_prices = rng.uniform(-3, 3, m)
    elif prices == "integer":
        log_prices = rng.integers(-3, 4, m).astype(float)
    else:
        log_prices = rng.choice(rng.uniform(-3, 3, draw(st.integers(1, 5))), m)
    sizes = None if draw(st.booleans()) else np.exp(rng.uniform(np.log(1e-6), np.log(1e6), m))
    mp = Mempool.from_arrays(np.arange(m), np.exp(log_prices), sizes)
    lam = float(np.exp(draw(st.floats(np.log(1e-3), np.log(1e3)))))
    total = mp.total_size
    k = draw(st.one_of(
        st.floats(1e-3, 0.999).map(lambda share: share * total),
        st.sampled_from([np.nextafter(total, 0.0), total, np.nextafter(total, np.inf)]),
    ))
    return mp, GameParams(k=float(k), lam=lam)


@settings(max_examples=250, deadline=None)
@given(_solver_instances())
def test_xhat_bits_match_reference(instance):
    mempool, params = instance
    got, want = _solve_both(mempool, params)
    assert got == want


_UNIT = 2.0 ** -53


def _exact_crossing(raw, sizes, c, strict: bool):
    """Where f(x) = sum s * min(max(p - x, 0), 1), in exact arithmetic on the float64 inputs, crosses c.

    With ``strict`` the smallest x with f(x) <= c, else the largest x with
    f(x) >= c; -inf or inf where f is on that side everywhere. f is
    continuous, non-increasing and linear between its sorted breakpoints p
    and p - 1, so a bisection over them and one interpolation find it.
    """
    terms = [(Fraction(p), Fraction(s)) for p, s in zip(raw.tolist(), sizes.tolist())]
    b = sorted({p - shift for p, _ in terms for shift in (0, 1)})

    def f(x):
        return sum(s * min(max(p - x, 0), 1) for p, s in terms)

    def beyond(value):  # whether f is still on the far side of c
        return value > c if strict else value >= c

    if not beyond(f(b[0])):
        return -math.inf  # f is the total size at and below b[0]
    j = bisect_left(range(len(b)), True, key=lambda i: not beyond(f(b[i]))) - 1
    if j == len(b) - 1:
        return math.inf  # f(b[-1]) = 0 >= c
    f_j, f_next = f(b[j]), f(b[j + 1])
    return b[j] + (f_j - c) * (b[j + 1] - b[j]) / (f_j - f_next)


@st.composite
def _oracle_instances(draw):
    """(mempool, params) small enough for exact arithmetic: m 1-40, log prices in [-300, 300]
    drawn from a few distinct values, unit or widely spread sizes, lambda log-uniform in
    [1e-3, 1e4], and k anywhere below the total size or an ulp either side of it."""
    m = draw(st.integers(1, 40))
    distinct = draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=m))
    prices = np.exp(draw(st.lists(st.sampled_from(distinct), min_size=m, max_size=m)))
    sizes = None if draw(st.booleans()) else draw(st.lists(st.floats(1e-6, 1e6), min_size=m, max_size=m))
    mp = Mempool.from_arrays(np.arange(m), prices, sizes)
    total = mp.total_size
    k = draw(st.one_of(
        st.floats(1e-3, 0.999).map(lambda share: share * total),
        st.sampled_from([np.nextafter(total, 0.0), total, np.nextafter(total, np.inf)]),
    ))
    lam = math.exp(draw(st.floats(math.log(1e-3), math.log(1e4))))
    return mp, GameParams(k=float(k), lam=lam)


@settings(max_examples=100, deadline=None)
@given(_oracle_instances())
def test_xhat_and_log_w_are_within_their_rounding_bounds_of_the_exact_root(instance):
    mempool, params = instance
    raw = compute_phat_real(mempool, params)
    xhat = solve_xhat(raw, mempool, params)
    m, k, lam = len(mempool), params.k, params.lam
    exact_k, exact_lam = Fraction(k), Fraction(lam)
    # f's rounding bound as _proves_at_most_k states it: 8 * gamma_(m+8) times the terms' magnitudes.
    size_sums, _, _, spread = mempool.price_order
    q = k / mempool.total_size
    gamma = (m + 8) * _UNIT / (1.0 - (m + 8) * _UNIT)
    delta = Fraction(8.0 * gamma * (size_sums.item(m) * (1.0 + q + abs(xhat - q)) + spread / lam))
    # Mapped to x through f's exact inverse, which divides it by |slope| on the root's piece.
    lo = _exact_crossing(raw, mempool.sizes, exact_k + delta, strict=True)
    hi = _exact_crossing(raw, mempool.sizes, exact_k - delta, strict=False)
    ulps = Fraction(4 * _UNIT * (1.0 + abs(xhat)))
    assert lo - ulps <= xhat <= hi + ulps, (float(lo), xhat, float(hi))

    # ln w = -lambda k / S + (sum s ln v) / S + lambda x, exact on the float64 sizes and ln v,
    # within gamma_(m+8) times its terms' magnitudes, plus lambda times x's slack.
    sizes = [Fraction(s) for s in mempool.sizes.tolist()]
    logs = [Fraction(v) for v in mempool.log_prices.tolist()]
    total = sum(sizes)
    mean = sum(s * v for s, v in zip(sizes, logs)) / total
    mean_magnitude = sum(s * abs(v) for s, v in zip(sizes, logs)) / total
    slack = Fraction(gamma) * (exact_lam * exact_k / total + mean_magnitude + exact_lam * abs(Fraction(xhat)))
    slack += exact_lam * ulps

    def exact_log_w(x):
        return -exact_lam * exact_k / total + mean + exact_lam * x

    log_w = log_threshold(xhat, mempool, params)
    if lo != -math.inf:
        assert exact_log_w(lo) - slack <= log_w, (float(exact_log_w(lo)), log_w)
    if hi != math.inf:
        assert log_w <= exact_log_w(hi) + slack, (log_w, float(exact_log_w(hi)))


def _wrong_guesses(mempool, params):
    """Guesses for _model_guess that clamp_sum must refute: no breakpoint above k,
    every one above k, and the model's own guess 3 ranks low or high."""
    m = len(mempool)
    model = _model_guess(mempool, params)
    shifted = [[min(max(i + d, -1), m - 1) for i in model] for d in (-3, 3)]
    return [[-1, -1], [m - 1, m - 1], *shifted]


def _solve_both_from(guess, mempool, params):
    """_solve_both with the Newton guess replaced by ``guess``, and how often the solve bisected."""
    with mock.patch("txpack.equilibrium._model_guess", lambda *_: list(guess)), \
            mock.patch("txpack.equilibrium.bisect_left", wraps=bisect_left) as bisect:
        return _solve_both(mempool, params), bisect.call_count


@pytest.mark.parametrize("which", range(4), ids=["none above", "all above", "3 low", "3 high"])
def test_golden_fallback_bits_match_reference(golden_mempool, golden_params, which):
    guess = _wrong_guesses(golden_mempool, golden_params)[which]
    (got, want), bisections = _solve_both_from(guess, golden_mempool, golden_params)
    assert got == want
    assert bisections == 2  # one per run: the guess was refuted


@settings(max_examples=100, deadline=None)
@given(_solver_instances())
def test_fallback_bits_match_reference(instance):
    """Whatever the guess, the bisection over each run finds the reference's bits."""
    mempool, params = instance
    for guess in _wrong_guesses(mempool, params):
        (got, want), _ = _solve_both_from(guess, mempool, params)
        assert got == want


def _calls(name, fn):
    """(fn(), how often it called txpack.equilibrium's ``name``)."""
    with mock.patch(f"txpack.equilibrium.{name}", wraps=getattr(equilibrium, name)) as spy:
        return fn(), spy.call_count


def _raw_by_rank(mempool, params) -> np.ndarray:
    """The raw marginal at every rank of the price order, as solve_xhat reads it from the table."""
    at = (mempool.price_order[2], float(params.k / mempool.total_size), float(params.lam))
    return np.array([equilibrium._raw_at(at, j) for j in range(len(mempool))])


def _right_end(raw, mempool, params, last):
    """The right end of the bracket at ``last``, as solve_xhat forms it, with the table's view."""
    at = (mempool.price_order[2], float(params.k / mempool.total_size), float(params.lam))
    left, right, reads = _bracket(at, last)
    return at, left, right, reads


def test_golden_solve_makes_one_clamp_pass(golden_mempool, golden_params):
    _, passes = _calls("clamp_sum", lambda: solve_equilibrium(golden_mempool, golden_params))
    assert passes == 1


@settings(max_examples=200, deadline=None)
@given(_solver_instances())
def test_one_clamp_pass_where_the_bound_holds(instance):
    """The right end costs no pass where f there is below k by far more than rounding."""
    mempool, params = instance
    raw = compute_phat_real(mempool, params)
    with mock.patch("txpack.equilibrium.clamp_sum", wraps=clamp_sum) as passes, \
            mock.patch("txpack.equilibrium.bisect_left", wraps=bisect_left) as bisect:
        try:
            solve_xhat(raw, mempool, params)
        except MempoolFitsInBlock:
            return
    _, left, right, _ = _right_end(raw, mempool, params, _model_guess(mempool, params))
    scale = mempool.total_size * (3.0 + abs(right)) + mempool.price_order[3] / params.lam
    if not bisect.called and (right == np.inf or params.k - clamp_sum(raw, mempool.sizes, right) > 1e-9 * scale):
        assert passes.call_count == (left is not None)


@settings(max_examples=100, deadline=None)
@given(_solver_instances())
def test_bound_proves_only_what_clamp_sum_confirms(instance):
    """Whatever the guess, a right end the table settles has f <= k."""
    mempool, params = instance
    raw = compute_phat_real(mempool, params)
    for guess in [_model_guess(mempool, params), *_wrong_guesses(mempool, params)]:
        at, _, right, reads = _right_end(raw, mempool, params, guess)
        if equilibrium._proves_at_most_k(mempool.price_order, at, guess, reads, right, params.k):
            assert clamp_sum(raw, mempool.sizes, right) <= params.k


def test_golden_refused_bound_costs_a_second_pass(golden_mempool, golden_params):
    raw = compute_phat_real(golden_mempool, golden_params)
    with mock.patch("txpack.equilibrium._proves_at_most_k", lambda *_: False):
        xhat, passes = _calls("clamp_sum", lambda: solve_xhat(raw, golden_mempool, golden_params))
    assert passes == 2
    assert xhat == _reference_solve_xhat(raw, golden_mempool.sizes, golden_params.k)


@settings(max_examples=100, deadline=None)
@given(_solver_instances())
def test_refused_bound_keeps_the_bits(instance):
    """With the table's proof refused, clamp_sum confirms the right end and the bits hold."""
    mempool, params = instance
    with mock.patch("txpack.equilibrium._proves_at_most_k", lambda *_: False):
        got, want = _solve_both(mempool, params)
    assert got == want


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_solver_instances(), st.booleans())
def test_model_evaluations_are_bounded(instance, newton):
    """At most _NEWTON_STEPS + 2 * bit_length(m) model evaluations, with or without Newton steps."""
    mempool, params = instance
    steps = equilibrium._NEWTON_STEPS if newton else 0
    with mock.patch("txpack.equilibrium._NEWTON_STEPS", steps):
        _, evaluations = _calls("_piece_value", lambda: _model_guess(mempool, params))
        got, want = _solve_both(mempool, params)
    assert evaluations <= steps + 2 * len(mempool).bit_length()
    assert got == want


@settings(max_examples=100, deadline=None)
@given(_solver_instances(), st.integers(0, 2**32 - 1))
def test_unit_slope_count_matches_the_sorted_count(instance, seed):
    """The bracket's reads count the raw marginals in (pos, pos + 1) as searchsorted does."""
    mempool, params = instance
    raw = compute_phat_real(mempool, params)
    rng = np.random.default_rng(seed)
    m, sorted_raw = len(mempool), np.sort(raw)
    assert _raw_by_rank(mempool, params).tobytes() == sorted_raw.tobytes()
    for _ in range(8):
        last = rng.integers(-1, m, 2).tolist()
        _, left, right, reads = _right_end(raw, mempool, params, last)
        points = [p for p in (left, right) if p is not None and np.isfinite(p)]
        for pos in points + [0.5 * (min(points) + max(points))] if points else []:
            want = np.searchsorted(sorted_raw, pos + 1.0, "left") - np.searchsorted(sorted_raw, pos, "right")
            assert equilibrium._count_inside(raw, last, reads, pos) == want


@settings(max_examples=100, deadline=None)
@given(_solver_instances(), st.integers(0, 2**32 - 1))
def test_compressed_slope_matches_the_boolean_index(instance, seed):
    """np.compress and a boolean index gather the same sizes in the same order: the same sum."""
    mempool, params = instance
    raw = compute_phat_real(mempool, params)
    pos = float(np.random.default_rng(seed).choice(raw)) - 0.5
    masks = [(raw > pos) & (raw < pos + 1.0), np.random.default_rng(seed).random(len(raw)) < 0.5]
    for mask in masks:
        got = np.compress(mask, mempool.sizes).sum()
        assert got.tobytes() == mempool.sizes[mask].sum().tobytes()


def test_solve_leaves_its_inputs_alone():
    """solve_equilibrium clamps its own array, never the mempool's columns or table."""
    rng = np.random.default_rng(31)
    mempool, params = random_sized_mempool(rng, 200), GameParams(k=40.0, lam=1.5)
    columns = lambda: [mempool.ids, mempool.prices, mempool.sizes, mempool.log_prices,
                       mempool.centered_log_prices, *mempool.price_order[:3]]
    before = [c.copy() for c in columns()]
    profile = solve_equilibrium(mempool, params, mode="variable")
    for old, new in zip(before, columns()):
        assert np.array_equal(old, new)
        assert not np.shares_memory(profile.values, new)
    assert not any(c.flags.writeable for c in columns()[:5])
    assert _raw_by_rank(mempool, params).tobytes() == np.sort(compute_phat_real(mempool, params)).tobytes()


@settings(max_examples=100, deadline=None)
@given(_solver_instances())
def test_raw_marginals_follow_price_order(instance):
    """The table's invariant: for every (k, lambda), the raw marginal read at each rank is np.sort's."""
    mempool, params = instance
    assert _raw_by_rank(mempool, params).tobytes() == np.sort(compute_phat_real(mempool, params)).tobytes()


def _argsort_table(mempool):
    """price_order as one argsort of the log prices builds it, for any sizes."""
    order = np.argsort(mempool.log_prices)
    s, sorted_centered = mempool.sizes[order], mempool.centered_log_prices[order]
    size_sums, sums = np.zeros(len(mempool) + 1), np.zeros(len(mempool) + 1)
    np.cumsum(s, out=size_sums[1:])
    weighted = s * sorted_centered
    np.cumsum(weighted, out=sums[1:])
    return size_sums, sums, sorted_centered, float(np.abs(weighted).sum())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2000), st.sampled_from(["spread", "tied", "equal"]))
@example(seed=0, m=1, prices="spread")
def test_unit_table_matches_the_argsort_table(seed, m, prices):
    """Unit sizes build the table from one value sort, with the argsort's bits."""
    rng = np.random.default_rng(seed)
    log_prices = {"spread": lambda: rng.uniform(-30, 30, m), "tied": lambda: rng.integers(-3, 4, m) / 4,
                  "equal": lambda: np.full(m, rng.uniform(-3, 3))}[prices]()
    mempool = Mempool.from_arrays(rng.permutation(m), np.exp(log_prices))
    for got, want in zip(mempool.price_order, _argsort_table(mempool), strict=True):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(threshold_games(), st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
def test_marginals_ignore_input_order_and_price_unit(game, seed, log_scale):
    mempool, params, mode = game
    want = solve_equilibrium(mempool, params, mode=mode).values
    perm = np.random.default_rng(seed).permutation(len(mempool))
    shuffled = Mempool.from_arrays(mempool.ids[perm], mempool.prices[perm], mempool.sizes[perm])
    got = solve_equilibrium(shuffled, params, mode=mode).values
    assert np.abs(got - want[perm]).max() <= 1e-9
    rescaled = Mempool.from_arrays(mempool.ids, mempool.prices * np.exp(log_scale), mempool.sizes)
    got = solve_equilibrium(rescaled, params, mode=mode).values
    assert np.abs(got - want).max() <= 1e-9


class TestClampMarginals:
    """solve_equilibrium's clamp: the raw marginals shifted by xhat and clipped to [0, 1]."""

    def test_golden_profile(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        assert profile.xhat == pytest.approx(GOLDEN_XHAT, abs=1e-9)
        assert profile.values == pytest.approx(GOLDEN_PROFILE, abs=1e-9)
        assert profile.w == pytest.approx(GOLDEN_W, rel=1e-9)
        # interior spot check: v(tx3) * exp(-lambda/4) hits the threshold
        assert np.exp(-1 / 12) * np.exp(-0.25) == pytest.approx(profile.w, rel=1e-12)

    def test_zero_shift_is_identity(self):
        mp = Mempool.from_arrays(range(4), [1.0] * 4)
        params = GameParams(k=2, lam=1.0)
        profile = solve_equilibrium(mp, params)
        assert profile.xhat == 0.0
        assert profile.values.tobytes() == compute_phat_real(mp, params).tobytes()

    def test_threshold_cases_hold(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        vt = golden_mempool.prices * np.exp(-golden_params.lam * profile.values)
        w = profile.w
        for p, disc in zip(profile.values, vt):
            if p == 0.0:
                assert disc <= w * (1 + 1e-9)
            elif p == 1.0:
                assert disc >= w * (1 - 1e-9)
            else:
                assert disc == pytest.approx(w, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(_solver_instances())
def test_profile_is_the_clamped_raw_marginals(instance):
    mempool, params = instance
    profile = solve_equilibrium(mempool, params, mode="variable")
    if mempool.total_size <= params.k:  # ones, where raw - xhat may round a hair below 1
        want = np.ones(len(mempool))
    else:
        want = np.clip(compute_phat_real(mempool, params) - profile.xhat, 0.0, 1.0)
    assert profile.values.tobytes() == want.tobytes()


class TestSolveEquilibrium:
    def test_scale_covariance(self, golden_mempool, golden_params):
        scaled = Mempool.from_arrays(
            golden_mempool.ids, golden_mempool.prices * 17.3, golden_mempool.sizes
        )
        a = solve_equilibrium(golden_mempool, golden_params)
        b = solve_equilibrium(scaled, golden_params)
        assert b.values == pytest.approx(a.values, abs=1e-9)
        assert b.xhat == pytest.approx(a.xhat, abs=1e-9)

    def test_price_monotonicity(self):
        rng = np.random.default_rng(7)
        mp = random_unit_mempool(rng, 60)
        profile = solve_equilibrium(mp, GameParams(k=10, lam=1.5))
        order = np.argsort(mp.prices)
        assert np.all(np.diff(profile.values[order]) >= -1e-12)

    def test_package_everything(self):
        mp = Mempool.from_arrays([0, 1], [1.0, 5.0])
        profile = solve_equilibrium(mp, GameParams(k=4, lam=1.0))
        assert profile.values == pytest.approx([1.0, 1.0])

    def test_variable_mode(self):
        rng = np.random.default_rng(11)
        mp = random_sized_mempool(rng, 40)
        k = 0.4 * mp.total_size
        profile = solve_equilibrium(mp, GameParams(k=k, lam=2.0), mode="variable")
        assert float(profile.values @ mp.sizes) == pytest.approx(k, rel=1e-9)
        assert np.all(profile.values >= 0) and np.all(profile.values <= 1)

    def test_fixed_mode_requires_integer_k(self, golden_mempool):
        with pytest.raises(ValidationError, match="integer"):
            solve_equilibrium(golden_mempool, GameParams(k=2.5, lam=1.0))

    def test_unknown_mode(self, golden_mempool, golden_params):
        with pytest.raises(ValidationError, match="mode"):
            solve_equilibrium(golden_mempool, golden_params, mode="bogus")


# Prints the bits of the solver's and the base fee's results on seeded
# 1e5-transaction mempools: fixed mode on unit sizes, variable mode and the
# shift-aware base fee on random sizes.
_BITS_SCRIPT = """
import hashlib
import numpy as np
from txpack import GameParams, Mempool, base_fee, solve_equilibrium
m = 100_000
for seed in (2, 3, 6, 7):
    rng = np.random.default_rng(seed)
    prices = np.exp(rng.uniform(-3, 3, m))
    sizes = rng.uniform(0.2, 4.0, m)
    params = GameParams(k=m // 10, lam=1.0)
    unit = solve_equilibrium(Mempool.from_arrays(np.arange(m), prices), params)
    sized_mp = Mempool.from_arrays(np.arange(m), prices, sizes)
    sized = solve_equilibrium(sized_mp, params, mode="variable")
    fee = base_fee(sized_mp, params, "xhat_aware")
    for p in (unit, sized):
        print(hashlib.sha256(p.values.tobytes()).hexdigest(), p.xhat.hex(), p.w.hex())
    print(fee.v_low.hex(), fee.v_high.hex(), fee.xhat.hex())
"""


def test_bits_do_not_depend_on_blas_threads():
    src = str(Path(txpack.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _BITS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0].count("\n") == 12
    assert outs[0] == outs[1]
