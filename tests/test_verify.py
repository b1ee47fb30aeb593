from dataclasses import replace

import numpy as np
import pytest

from txpack import (
    GameParams,
    Mempool,
    Transaction,
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


class TestExpectedUtility:
    def test_golden_equilibrium_value(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        report = expected_utility(profile, profile, golden_mempool, golden_params)
        assert report.value == pytest.approx(EQ_UTILITY, rel=1e-12)
        assert sum(report.per_tx.values()) == pytest.approx(report.value, abs=1e-12)

    def test_zero_lambda_no_discount(self, golden_mempool):
        params = GameParams(k=3, lam=0.0)
        profile = greedy_profile(golden_mempool, params)
        report = expected_utility(profile, profile, golden_mempool, params)
        assert report.value == pytest.approx(float(profile.values @ golden_mempool.prices))

    def test_single_transaction(self):
        mp = Mempool([Transaction(0, 3.0)])
        params = GameParams(k=1, lam=2.0)
        profile = MarginalProfile(mp.ids, np.array([1.0]), 0.0, 0.0)
        report = expected_utility({0}, profile, mp, params)
        assert report.value == pytest.approx(3.0 * np.exp(-2.0), rel=1e-12)

    def test_pure_set_input(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        report = expected_utility({2, 3, 5}, profile, golden_mempool, golden_params)
        by_hand = sum(
            golden_mempool.prices[i] * np.exp(-profile.values[i])
            for i in (1, 2, 4)
        )
        assert report.value == pytest.approx(by_hand, rel=1e-12)

    def test_mismatched_mempool_rejected(self, golden_mempool, golden_params):
        other = Mempool([Transaction(99, 1.0)])
        profile = solve_equilibrium(golden_mempool, golden_params)
        with pytest.raises(ValidationError):
            expected_utility(profile, profile, other, golden_params)

    @pytest.mark.parametrize("own", [{2, 99}, {2: 1.0, 99: 0.5}], ids=["id-set", "mapping"])
    def test_unknown_id_rejected(self, golden_mempool, golden_params, own):
        profile = solve_equilibrium(golden_mempool, golden_params)
        with pytest.raises(ValidationError, match="unknown transaction id 99"):
            expected_utility(own, profile, golden_mempool, golden_params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_marginal_outside_unit_interval_refused(self, golden_mempool, golden_params, bad):
        good = solve_equilibrium(golden_mempool, golden_params)
        values = good.values.copy()
        values[0] = bad
        profile = replace(good, values=values)
        for own, others in [(profile, profile), (good, profile), ({1: bad}, good)]:
            with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
                expected_utility(own, others, golden_mempool, golden_params)

    def test_mapping_leaves_absent_ids_at_zero(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        as_map = expected_utility({5: 1.0, 2: 1.0}, profile, golden_mempool, golden_params)
        as_set = expected_utility({2, 5}, profile, golden_mempool, golden_params)
        assert as_map.value == as_set.value
        assert as_map.per_tx == as_set.per_tx and as_map.per_tx[7] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity_in_own_marginals(self, seed):
        rng = np.random.default_rng(600 + seed)
        mp = random_unit_mempool(rng, 12)
        params = GameParams(k=4, lam=1.0)
        others = solve_equilibrium(mp, params)
        a = rng.random(12)
        b = rng.random(12)
        t = float(rng.random())
        mix = {int(i): float(v) for i, v in zip(mp.ids, t * a + (1 - t) * b)}
        ua = expected_utility({int(i): float(v) for i, v in zip(mp.ids, a)}, others, mp, params).value
        ub = expected_utility({int(i): float(v) for i, v in zip(mp.ids, b)}, others, mp, params).value
        um = expected_utility(mix, others, mp, params).value
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
        mp = Mempool([Transaction(i, float(i + 1)) for i in range(3)])
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
        dev = expected_utility(gain_set, greedy, golden_mempool, golden_params).value
        assert dev - sym == pytest.approx(verdict.witness["utility_gain"], abs=1e-12)

    def test_uniform_on_equal_prices_passes(self):
        mp = Mempool([Transaction(i, 2.0) for i in range(6)])
        params = GameParams(k=2, lam=1.0)
        assert brute_force_check(mp, params, uniform_profile(mp, params)).passes

    def test_sized_mempool_refused(self):
        # the enumeration takes unit-size k-subsets, so a size-3.2 block would count as a deviation
        mp = Mempool([Transaction(i, v, s) for i, (v, s) in
                      enumerate(zip([5.0, 4.0, 3.0, 2.0, 1.0], [1.5, 0.5, 1.0, 2.0, 0.7]))])
        params = GameParams(k=3, lam=1.0)
        profile = solve_equilibrium(mp, params, mode="variable")
        with pytest.raises(ValidationError, match="fixed mode"):
            brute_force_check(mp, params, profile)

    def test_instance_size_guard(self):
        mp = Mempool([Transaction(i, 1.0) for i in range(25)])
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


def test_greedy_strictly_dominated(golden_mempool, golden_params):
    eq = solve_equilibrium(golden_mempool, golden_params)
    greedy = greedy_profile(golden_mempool, golden_params)
    u_eq = expected_utility(eq, eq, golden_mempool, golden_params).value
    u_greedy = expected_utility(greedy, greedy, golden_mempool, golden_params).value
    assert u_greedy == pytest.approx(GREEDY_UTILITY, rel=1e-12)
    assert u_greedy < u_eq
