import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from txpack import (
    GameParams,
    Mempool,
    ValidationError,
    best_response,
    brute_force_check,
    expected_utility,
    greedy_profile,
    solve_equilibrium,
    uniform_profile,
    verify_equilibrium,
)
from txpack.equilibrium import MarginalProfile

from conftest import random_sized_mempool, random_unit_mempool

EQ_UTILITY = 2 * np.exp(-1 / 3) + 1  # two units of interior mass at w, plus tx2
GREEDY_UTILITY = (np.e + np.exp(5 / 12) + 1) * np.exp(-1)


def own_profile(mempool, values):
    """Own marginals, in mempool order, as a profile without a threshold."""
    return MarginalProfile(mempool.ids, np.asarray(values, dtype=np.float64), 0.0, None)


def pure(mempool, txids):
    """The pure strategy that packages exactly txids."""
    return own_profile(mempool, np.isin(mempool.ids, list(txids)))


class TestExpectedUtility:
    def test_golden_equilibrium_value(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        report = expected_utility(profile, profile, golden_mempool, golden_params)
        assert report.value == pytest.approx(EQ_UTILITY, rel=1e-12)

    def test_zero_lambda_no_discount(self, golden_mempool):
        params = GameParams(k=3, lam=0.0)
        profile = greedy_profile(golden_mempool, params)
        report = expected_utility(profile, profile, golden_mempool, params)
        assert report.value == pytest.approx(float(profile.values @ golden_mempool.prices))

    def test_single_transaction(self):
        mp = Mempool.from_arrays([0], [3.0])
        params = GameParams(k=1, lam=2.0)
        profile = MarginalProfile(mp.ids, np.array([1.0]), 0.0, 0.0)
        report = expected_utility(pure(mp, {0}), profile, mp, params)
        assert report.value == pytest.approx(3.0 * np.exp(-2.0), rel=1e-12)

    def test_pure_set_input(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        report = expected_utility(pure(golden_mempool, {2, 3, 5}), profile, golden_mempool, golden_params)
        by_hand = sum(
            golden_mempool.prices[i] * np.exp(-profile.values[i])
            for i in (1, 2, 4)
        )
        assert report.value == pytest.approx(by_hand, rel=1e-12)

    def test_mismatched_mempool_rejected(self, golden_mempool, golden_params):
        other = Mempool.from_arrays([99], [1.0])
        profile = solve_equilibrium(golden_mempool, golden_params)
        with pytest.raises(ValidationError):
            expected_utility(profile, profile, other, golden_params)

    def test_unknown_id_rejected(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        own = replace(profile, ids=np.where(profile.ids == 7, 99, profile.ids))
        with pytest.raises(ValidationError, match="profile does not match the mempool"):
            expected_utility(own, profile, golden_mempool, golden_params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_marginal_outside_unit_interval_refused(self, golden_mempool, golden_params, bad):
        good = solve_equilibrium(golden_mempool, golden_params)
        values = good.values.copy()
        values[0] = bad
        profile = replace(good, values=values)
        for own, others in [(profile, profile), (good, profile), (profile, good)]:
            with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
                expected_utility(own, others, golden_mempool, golden_params)

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity_in_own_marginals(self, seed):
        rng = np.random.default_rng(600 + seed)
        mp = random_unit_mempool(rng, 12)
        params = GameParams(k=4, lam=1.0)
        others = solve_equilibrium(mp, params)
        a = rng.random(12)
        b = rng.random(12)
        t = float(rng.random())
        ua = expected_utility(own_profile(mp, a), others, mp, params).value
        ub = expected_utility(own_profile(mp, b), others, mp, params).value
        um = expected_utility(own_profile(mp, t * a + (1 - t) * b), others, mp, params).value
        assert um == pytest.approx(t * ua + (1 - t) * ub, abs=1e-12)


class TestBestResponse:
    def test_no_profitable_deviation_at_equilibrium(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        _, report = best_response(profile, golden_mempool, golden_params)
        sym = expected_utility(profile, profile, golden_mempool, golden_params)
        assert report.value == pytest.approx(sym.value, abs=1e-9)

    def test_against_empty_field_is_greedy(self, golden_mempool, golden_params):
        zeros = MarginalProfile(golden_mempool.ids, np.zeros(7), 0.0, 0.0)
        txids, _ = best_response(zeros, golden_mempool, golden_params)
        # top-3 by raw price; tx1 beats tx5/tx6 on input-order tie-break
        assert set(txids) == {1, 2, 4}

    def test_sized_fills_capacity_with_a_fraction(self):
        # k = 4 takes tx0 (size 2) and tx1 (size 1) whole and a third of tx2 (size 3)
        mp = Mempool.from_arrays([0, 1, 2, 3], [5.0, 4.0, 3.0, 1.0], [2.0, 1.0, 3.0, 1.0])
        params = GameParams(k=4.0, lam=1.0)
        zeros = MarginalProfile(mp.ids, np.zeros(4), 0.0, 0.0)
        txids, report = best_response(zeros, mp, params)
        assert txids == (0, 1, 2)
        assert report.value == pytest.approx(5.0 * 2 + 4.0 * 1 + 3.0 * 3 / 3, rel=1e-12)

    def test_k_covers_mempool(self, golden_mempool):
        params = GameParams(k=9, lam=1.0)
        zeros = MarginalProfile(golden_mempool.ids, np.zeros(7), 0.0, 0.0)
        txids, _ = best_response(zeros, golden_mempool, params)
        assert set(txids) == set(range(1, 8))


class TestVerifyEquilibrium:
    def test_golden_passes(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        verdict = verify_equilibrium(profile, golden_mempool, golden_params)
        assert verdict.passes
        assert verdict.w == pytest.approx(np.exp(-1 / 3), rel=1e-9)

    def test_greedy_fails_with_witness(self, golden_mempool, golden_params):
        verdict = verify_equilibrium(
            greedy_profile(golden_mempool, golden_params), golden_mempool, golden_params
        )
        assert not verdict.passes
        assert verdict.witness is not None
        assert 5 in verdict.witness["txids"]
        assert verdict.witness["utility_gain"] > 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_variable_solver_profile_passes_on_sized_mempool(self, seed):
        rng = np.random.default_rng(700 + seed)
        mp = random_sized_mempool(rng, 200)
        params = GameParams(k=float(rng.uniform(0.05, 0.5)) * mp.total_size, lam=float(rng.uniform(0.5, 4)))
        profile = solve_equilibrium(mp, params, mode="variable")
        verdict = verify_equilibrium(profile, mp, params)
        assert verdict.passes, verdict

    @pytest.mark.parametrize("kind", ["unit", "sized"])
    def test_solver_profile_passes_where_exponentials_leave_the_float_range(self, kind):
        # lambda near 1e3 and log prices up to +-300: w, e^(-lambda p) or
        # v e^(-lambda p) is subnormal or 0 while ln w stays finite.
        rng = np.random.default_rng(11 if kind == "unit" else 12)
        out_of_range = 0
        for _ in range(150):
            m = int(rng.integers(2, 40))
            span = float(rng.uniform(100, 300))
            sizes = None if kind == "unit" else rng.uniform(0.2, 4.0, m)
            mp = Mempool.from_arrays(range(m), np.exp(rng.uniform(-span, span, m)), sizes)
            k = float(rng.uniform(0.05, 0.95)) * mp.total_size
            params = GameParams(k=max(1, int(k)) if kind == "unit" else k, lam=float(rng.uniform(700, 1000)))
            profile = solve_equilibrium(mp, params, mode="fixed" if kind == "unit" else "variable")
            out_of_range += profile.w < 2.2250738585072014e-308 or np.exp(-params.lam * profile.values.max()) == 0.0
            verdict = verify_equilibrium(profile, mp, params)
            assert verdict.passes, (m, params, verdict)
        assert out_of_range > 25

    def test_large_lambda_check_is_not_vacuous(self):
        # w = 0 in floats: every discounted price underflows, but ln w does not
        mp = Mempool.from_arrays(range(4), np.exp(np.arange(4) / 3))
        params = GameParams(k=3, lam=1000.0)
        profile = solve_equilibrium(mp, params)
        assert profile.w == 0.0
        assert verify_equilibrium(profile, mp, params).passes
        moved = replace(profile, values=profile.values + [0.001, -0.001, 0.0, 0.0])
        verdict = verify_equilibrium(moved, mp, params)
        assert not verdict.passes and verdict.worst_violation > 0.5

    def test_estimated_w_at_large_lambda(self):
        # Every discounted price underflows in floats, so w is estimated from the rescaled ones.
        mp = Mempool.from_arrays(range(4), np.exp(np.arange(4) / 3))
        params = GameParams(k=3, lam=1000.0)
        absent = replace(solve_equilibrium(mp, params), w=None)
        verdict = verify_equilibrium(absent, mp, params)
        assert verdict.passes and verdict.worst_violation == pytest.approx(0.0, abs=1e-12)
        moved = replace(absent, values=absent.values + [0.001, -0.001, 0.0, 0.0])
        verdict = verify_equilibrium(moved, mp, params)
        assert not verdict.passes and 0.5 < verdict.worst_violation < math.inf

    def test_zero_w_is_a_threshold_not_absent(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        absent = verify_equilibrium(replace(profile, w=None), golden_mempool, golden_params)
        assert absent.passes
        assert absent.w == pytest.approx(np.exp(-1 / 3), rel=1e-9)
        zero = verify_equilibrium(replace(profile, w=0.0), golden_mempool, golden_params)
        assert zero.w == 0.0
        assert not zero.passes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_marginal_refused(self, bad):
        # Refused up front: Python's max() would drop a NaN violation from the verdict.
        mp = Mempool.from_arrays([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        profile = MarginalProfile(mp.ids, np.array([bad, 1.0, 1.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            verify_equilibrium(profile, mp, GameParams(k=2, lam=1.0))

    def test_all_ones_passes_vacuously(self):
        mp = Mempool.from_arrays(range(3), [1.0, 2.0, 3.0])
        params = GameParams(k=3, lam=1.0)
        profile = solve_equilibrium(mp, params)
        assert np.all(profile.values == 1.0)
        assert verify_equilibrium(profile, mp, params).passes


class TestBruteForce:
    def test_golden_passes(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        assert brute_force_check(golden_mempool, golden_params, profile).passes

    def test_greedy_fails_with_improving_subset(self, golden_mempool, golden_params):
        greedy = greedy_profile(golden_mempool, golden_params)
        verdict = brute_force_check(golden_mempool, golden_params, greedy)
        assert not verdict.passes
        gain_set = set(verdict.witness["txids"])
        # the improving set swaps in an untouched price-1 transaction
        assert gain_set & {5, 6}
        sym = expected_utility(greedy, greedy, golden_mempool, golden_params).value
        dev = expected_utility(pure(golden_mempool, gain_set), greedy, golden_mempool, golden_params).value
        assert dev - sym == pytest.approx(verdict.witness["utility_gain"], abs=1e-12)

    def test_uniform_on_equal_prices_passes(self):
        mp = Mempool.from_arrays(range(6), [2.0] * 6)
        params = GameParams(k=2, lam=1.0)
        assert brute_force_check(mp, params, uniform_profile(mp, params)).passes

    def test_sized_mempool_refused(self):
        # the enumeration takes unit-size k-subsets, so a size-3.2 block would count as a deviation
        mp = Mempool.from_arrays(range(5), [5.0, 4.0, 3.0, 2.0, 1.0], [1.5, 0.5, 1.0, 2.0, 0.7])
        params = GameParams(k=3, lam=1.0)
        profile = solve_equilibrium(mp, params, mode="variable")
        with pytest.raises(ValidationError, match="fixed mode"):
            brute_force_check(mp, params, profile)

    def test_instance_size_guard(self):
        mp = Mempool.from_arrays(range(25), [1.0] * 25)
        with pytest.raises(ValidationError, match="too large"):
            brute_force_check(mp, GameParams(k=2, lam=1.0), uniform_profile(mp, GameParams(k=2, lam=1.0)))


class TestOracleAgreement:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_solver_beats_enumeration_and_oracles_agree(self, lam):
        rng = np.random.default_rng(int(lam * 1000))
        for _ in range(25):
            m = int(rng.integers(2, 11))
            mp = random_unit_mempool(rng, m)
            k = int(rng.integers(1, min(m, 4) + 1))
            params = GameParams(k=k, lam=lam)
            profile = solve_equilibrium(mp, params)
            bf = brute_force_check(mp, params, profile)
            ve = verify_equilibrium(profile, mp, params, tol=1e-8)
            assert bf.passes and ve.passes
            greedy = greedy_profile(mp, params)
            assert brute_force_check(mp, params, greedy).passes == \
                verify_equilibrium(greedy, mp, params, tol=1e-8).passes


def test_verdicts_do_not_depend_on_the_price_unit():
    # scaling every price by c scales every utility by c and leaves the
    # marginals, so both oracles must judge a perturbed profile alike at each c
    params = GameParams(k=2, lam=1.0)
    verdicts, worst, gain_per_c = [], [], []
    for c in (1.0, 1e-6, 1e-9, 1e-12):
        mp = Mempool.from_arrays(range(4), c * np.exp(np.linspace(0, 1, 4)))
        solved = solve_equilibrium(mp, params)
        assert verify_equilibrium(solved, mp, params).passes
        assert brute_force_check(mp, params, solved).passes
        perturbed = replace(solved, values=solved.values + [0.2, -0.2, 0.0, 0.0])
        ve = verify_equilibrium(perturbed, mp, params)
        bf = brute_force_check(mp, params, perturbed)
        verdicts.append((ve.passes, bf.passes))
        worst.append(ve.worst_violation)
        gain_per_c.append(bf.worst_violation / c)  # the brute force reports the absolute gain
    assert verdicts == [(False, False)] * 4
    assert worst == pytest.approx([worst[0]] * 4, rel=1e-9)
    assert gain_per_c == pytest.approx([gain_per_c[0]] * 4, rel=1e-9) and gain_per_c[0] > 0.2


@st.composite
def unit_games(draw):
    """(prices, k, lambda): 2-10 prices e^x with |x| <= 300, 1 <= k < m, lambda log-uniform in [1e-3, 1e3]."""
    log_prices = draw(st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=10))
    k = draw(st.integers(1, len(log_prices) - 1))
    lam = math.exp(draw(st.floats(math.log(1e-3), math.log(1e3))))
    return [math.exp(x) for x in log_prices], k, lam


@settings(max_examples=200, deadline=None)
@given(game=unit_games(), log_scale=st.floats(-300.0, 300.0))
@example(  # linear discounted prices here give a subnormal utility, and a gain of 6.37e-308 above it
    game=([7.582583492005529e-06, 1.3664060737627034e-117, 1.23837654161204e-38, 7.5019013974531345e+81],
          3, 876.9348365907948),
    log_scale=-200.0,
)
def test_oracles_pass_the_solver_and_agree_off_it(game, log_scale):
    # Moving 0.1 or more of mass from the dearest transaction to the cheapest
    # gives a gain of at least 1e-6 of the utility, far above both tolerances,
    # so the oracles must agree there, and scaling every price must not
    # change either verdict.
    prices, k, lam = game
    params = GameParams(k=k, lam=lam)
    verdicts = []
    for scale in (1.0, math.exp(log_scale)):
        mp = Mempool.from_arrays(range(len(prices)), np.multiply(prices, scale))
        solved = solve_equilibrium(mp, params)
        order = np.argsort(mp.log_prices, kind="stable")
        cheap, dear = order[0], order[-1]
        delta = min(0.2, solved.values[dear], 1.0 - solved.values[cheap])
        values = solved.values.copy()
        values[[dear, cheap]] += [-delta, delta]
        moved = replace(solved, values=values)
        verdicts.append([
            (verify_equilibrium(q, mp, params).passes, brute_force_check(mp, params, q).passes)
            for q in (solved, moved)
        ])
    assert verdicts[0] == verdicts[1] == [(True, True), (False, False)]


def test_greedy_strictly_dominated(golden_mempool, golden_params):
    eq = solve_equilibrium(golden_mempool, golden_params)
    greedy = greedy_profile(golden_mempool, golden_params)
    u_eq = expected_utility(eq, eq, golden_mempool, golden_params).value
    u_greedy = expected_utility(greedy, greedy, golden_mempool, golden_params).value
    assert u_greedy == pytest.approx(GREEDY_UTILITY, rel=1e-12)
    assert u_greedy < u_eq
