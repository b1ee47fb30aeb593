import tracemalloc

import numpy as np
import pytest

from txpack import (
    GameParams,
    Mempool,
    RejectionBudgetExceeded,
    Transaction,
    ValidationError,
    corresponding_strategy,
    rejection_sample_block,
    sample_block,
    solve_equilibrium,
)
from txpack import strategy
from txpack.equilibrium import MarginalProfile
from txpack.strategy import SegmentSampler

from conftest import GOLDEN_INTERVALS, random_unit_mempool


def profile_from(p, ids=None):
    p = np.asarray(p, dtype=np.float64)
    ids = np.arange(1, len(p) + 1) if ids is None else np.asarray(ids)
    return MarginalProfile(ids, p, xhat=0.0, w=1.0)


def exact_conditional_marginals(p, sizes, lower, upper):
    """Enumerate all subsets and condition on the capacity window."""
    m = len(p)
    masks = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    probs = np.prod(np.where(masks, p, 1.0 - np.asarray(p)), axis=1)
    total = masks @ np.asarray(sizes)
    ok = (total >= lower - 1e-12) & (total <= upper + 1e-12)
    z = probs[ok].sum()
    return (probs[ok][:, None] * masks[ok]).sum(axis=0) / z


class TestCorrespondingStrategy:
    def test_golden_intervals(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        sampler = SegmentSampler(profile, 3)
        got = {t: (a, b) for t, a, b in sampler.segment_intervals()}
        assert set(got) == set(GOLDEN_INTERVALS)  # tx7 has p = 0: no segment
        for t, (a, b) in GOLDEN_INTERVALS.items():
            assert got[t][0] == pytest.approx(a, abs=1e-12)
            assert got[t][1] == pytest.approx(b, abs=1e-12)

    def test_deterministic_profile_single_atom(self):
        strat = corresponding_strategy(profile_from([1, 0, 1, 0, 1]), 3)
        assert strat.support_size == 1
        assert strat.atom_probs[0] == pytest.approx(1.0)
        assert strat.atom_txids[0] == frozenset({1, 3, 5})

    def test_half_half_pairing(self):
        strat = corresponding_strategy(profile_from([0.5, 0.5, 0.5, 0.5]), 2)
        atoms = dict(zip(strat.atom_txids, strat.atom_probs))
        assert atoms == {
            frozenset({1, 3}): pytest.approx(0.5),
            frozenset({2, 4}): pytest.approx(0.5),
        }

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            corresponding_strategy(profile_from([0.5, 0.5]), 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_marginal_reproduction(self, seed):
        rng = np.random.default_rng(seed)
        mp = random_unit_mempool(rng, int(rng.integers(3, 40)))
        k = int(rng.integers(1, len(mp)))
        profile = solve_equilibrium(mp, GameParams(k=k, lam=float(rng.uniform(0.2, 3))))
        strat = corresponding_strategy(profile, k)
        assert strat.atom_probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert strat.support_size <= len(mp)
        assert all(len(s) == k for s in strat.atom_txids)
        induced = strat.induced_marginals()
        for txid, p in profile.as_dict().items():
            assert induced.get(txid, 0.0) == pytest.approx(p, abs=1e-12)


class TestSampleBlock:
    def test_golden_probe(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        assert sorted(sample_block(profile, 0.37, k=3).txids) == [2, 3, 5]
        assert sorted(sample_block(profile, 0.0, k=3).txids) == [1, 2, 4]

    def test_deterministic_profile_ignores_r(self):
        profile = profile_from([0, 1, 1, 0])
        for r in (0.0, 0.25, 0.999):
            assert sample_block(profile, r, k=2).txids == frozenset({2, 3})

    def test_strategy_and_profile_agree(self, golden_mempool, golden_params):
        cases = [(solve_equilibrium(golden_mempool, golden_params), 3)]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mp = random_unit_mempool(rng, int(rng.integers(3, 41)))
            k = int(rng.integers(1, len(mp)))
            cases.append((solve_equilibrium(mp, GameParams(k=k, lam=float(rng.uniform(0.2, 3)))), k))
        for profile, k in cases:
            strat = corresponding_strategy(profile, k)
            # atom intervals partition [0,1): probing inside each interval
            # through either route selects the same set
            for (a, b), txids in zip(strat.intervals, strat.atom_txids):
                block = sample_block(profile, 0.5 * (a + b), k=k)
                assert np.array_equal(block.ids, sorted(txids))
                assert block.txids == txids

    def test_r_out_of_range(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        for r in (-0.1, 1.0, 2.0):
            with pytest.raises(ValidationError, match="r must"):
                sample_block(profile, r, k=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_marginal_refused(self, bad):
        profile = profile_from([bad, 1, 1, 0])
        with pytest.raises(ValidationError, match="marginals sum to"):
            sample_block(profile, 0.5, k=2)
        with pytest.raises(ValidationError, match="marginals sum to"):
            corresponding_strategy(profile, 2)

    @pytest.mark.parametrize("p", [[1.5, 0.5, 0, 0], [-0.5, 1, 1, 0.5]])
    def test_marginal_outside_unit_interval_refused(self, p):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            SegmentSampler(profile_from(p), 2)

    def test_always_exactly_k(self):
        rng = np.random.default_rng(42)
        mp = random_unit_mempool(rng, 25)
        k = 6
        profile = solve_equilibrium(mp, GameParams(k=k, lam=1.3))
        sampler = SegmentSampler(profile, k)
        blocks = sampler.select_many(rng.random(2000))
        # k distinct transactions in every draw
        assert all(len(set(row)) == k for row in blocks)

    def test_empirical_marginals(self, golden_mempool, golden_params):
        profile = solve_equilibrium(golden_mempool, golden_params)
        sampler = SegmentSampler(profile, 3)
        n = 200_000
        rng = np.random.default_rng(5)
        blocks = sampler.select_many(rng.random(n))
        for txid, p in profile.as_dict().items():
            freq = (blocks == txid).any(axis=1).mean()
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * se + 1e-9


class TestRejectionSampler:
    def test_deterministic_acceptance(self):
        mp = Mempool([Transaction(0, 1.0, 1.0), Transaction(1, 1.0, 2.0)])
        profile = MarginalProfile(mp.ids, np.array([1.0, 1.0]), 0.0, 1.0)
        block, attempts = rejection_sample_block(mp, profile, 3.0, np.random.default_rng(0))
        assert attempts == 1
        assert block.txids == frozenset({0, 1})
        assert block.used_capacity == pytest.approx(3.0)

    def test_two_coin_outcomes(self):
        # window [0, 2] accepts everything: the four subsets each have mass 1/4
        mp = Mempool([Transaction(0, 1.0), Transaction(1, 1.0)])
        profile = MarginalProfile(mp.ids, np.array([0.5, 0.5]), 0.0, 1.0)
        rng = np.random.default_rng(123)
        counts = {frozenset(): 0, frozenset({0}): 0, frozenset({1}): 0, frozenset({0, 1}): 0}
        n = 20_000
        for _ in range(n):
            block, attempts = rejection_sample_block(mp, profile, 2.0, rng, lower=0.0)
            assert attempts == 1
            counts[block.txids] += 1
        for c in counts.values():
            assert abs(c / n - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n)

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(9)
        sizes = rng.uniform(0.2, 2.0, 12)
        mp = Mempool([Transaction(i, float(np.exp(rng.normal())), float(s)) for i, s in enumerate(sizes)])
        k = 0.5 * mp.total_size
        kprime = 0.95 * k
        profile = solve_equilibrium(mp, GameParams(k=kprime, lam=1.0), mode="variable")
        for _ in range(300):
            block, _ = rejection_sample_block(mp, profile, k, rng)
            assert block.used_capacity <= k + 1e-9

    def test_matches_conditioned_enumeration(self):
        rng = np.random.default_rng(31)
        m = 12
        mp = Mempool([Transaction(i, float(np.exp(rng.normal())), float(s))
                      for i, s in enumerate(rng.uniform(0.3, 1.5, m))])
        k = 0.45 * mp.total_size
        kprime = 0.9 * k
        profile = solve_equilibrium(mp, GameParams(k=kprime, lam=1.0), mode="variable")
        lower = max(0.0, 2 * kprime - k)
        oracle = exact_conditional_marginals(profile.values, mp.sizes, lower, k)
        n = 40_000
        hits = np.zeros(m)
        for _ in range(n):
            block, _ = rejection_sample_block(mp, profile, k, rng)
            hits[mp.positions(block.txids)] += 1  # a block holds each id at most once
        emp = hits / n
        se = np.sqrt(np.maximum(oracle * (1 - oracle), 1e-12) / n)
        assert np.all(np.abs(emp - oracle) <= 3 * se + 1e-9)

    def test_budget_exhausted(self):
        # acceptance window is unreachable: p = 1 on a tx bigger than k
        mp = Mempool([Transaction(0, 1.0, 5.0)])
        profile = MarginalProfile(mp.ids, np.array([1.0]), 0.0, 1.0)
        with pytest.raises(RejectionBudgetExceeded, match=r"^no accepted draw in 50 attempts$") as e:
            rejection_sample_block(mp, profile, 2.0, np.random.default_rng(0),
                                   lower=0.0, max_attempts=50)
        assert e.value.attempts == 50

    @pytest.mark.parametrize("ids", [[7, 6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6]],
                             ids=["reversed", "short"])
    def test_profile_must_match_mempool(self, golden_mempool, golden_params, ids):
        # read by position, the reversed profile's marginals would land on the wrong transactions
        solved = solve_equilibrium(golden_mempool, golden_params).values
        profile = MarginalProfile(np.array(ids), solved[: len(ids)], 0.0, 1.0)
        with pytest.raises(ValidationError, match="profile does not match the mempool"):
            rejection_sample_block(golden_mempool, profile, 3.0, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.5])
    def test_marginal_outside_unit_interval_refused(self, bad):
        mp = Mempool.from_arrays([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        profile = MarginalProfile(mp.ids, np.array([bad, 1.0, 1.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            rejection_sample_block(mp, profile, 2.0, np.random.default_rng(0))

    def test_empty_window_draws_nothing(self, golden_mempool):
        profile = MarginalProfile(golden_mempool.ids, np.full(7, 0.5), 0.0, 1.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"window \[4\.0, 3\.0\] is empty"):
            rejection_sample_block(golden_mempool, profile, 3.0, rng, lower=4.0)
        assert rng.bit_generator.state == state

    def test_chunk_height_keeps_the_draw(self, monkeypatch):
        # A window only a few percent of draws hit, so acceptance spans many chunks.
        rng = np.random.default_rng(44)
        m = 300
        mp = Mempool.from_arrays(np.arange(m), np.exp(rng.uniform(-3, 3, m)), rng.uniform(0.2, 4.0, m))
        k = 0.2 * mp.total_size
        profile = solve_equilibrium(mp, GameParams(k=0.999 * k, lam=1.0), mode="variable")
        full = rejection_sample_block(mp, profile, k, np.random.default_rng(2))
        monkeypatch.setattr(strategy, "_CHUNK_BYTES", 3 * 8 * m)  # three rows per chunk
        capped = rejection_sample_block(mp, profile, k, np.random.default_rng(2))
        assert full[1] > 3
        assert capped == full

    def test_memory_bounded_at_large_m(self):
        rng = np.random.default_rng(8)
        m = 200_000
        mp = Mempool.from_arrays(np.arange(m), np.exp(rng.uniform(-3, 3, m)))
        k = 0.1 * m
        profile = solve_equilibrium(mp, GameParams(k=0.95 * k, lam=1.0), mode="variable")
        tracemalloc.start()
        try:
            block, attempts = rejection_sample_block(mp, profile, k, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert attempts >= 1 and block.used_capacity <= k
        # 256 rows of m float64 uniforms alone would be 410 MB.
        assert peak < 64 * 2**20
