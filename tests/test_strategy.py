import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from txpack import (
    GameParams,
    Mempool,
    RejectionBudgetExceeded,
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
    return MarginalProfile(ids, p, xhat=0.0, log_w=0.0)


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
        ids = profile.ids.take(sampler._nonzero)
        got = dict(zip(ids.tolist(), zip(sampler.cum[:-1], sampler.cum[1:])))
        assert set(got) == set(GOLDEN_INTERVALS)  # tx7 has p = 0: no segment
        for t, (a, b) in GOLDEN_INTERVALS.items():
            assert got[t][0] == pytest.approx(a, abs=1e-12)
            assert got[t][1] == pytest.approx(b, abs=1e-12)

    def test_deterministic_profile_single_atom(self):
        strat = corresponding_strategy(profile_from([1, 0, 1, 0, 1]), 3)
        assert len(strat.atom_probs) == 1
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
        assert len(strat.atom_probs) <= len(mp)
        assert all(len(s) == k for s in strat.atom_txids)
        induced = strat.induced_marginals()
        for txid, p in profile.as_dict().items():
            assert induced.get(txid, 0.0) == pytest.approx(p, abs=1e-12)

    def test_reproduction_bound_at_small_lambda(self):
        # Tied log prices up to +-300 at lambda in [1e-3, 0.1] put xhat far from 0, so
        # sum(p) misses k by up to about 3e-11; no k-subset mix can absorb that.
        rng = np.random.default_rng(29)
        misses = 0
        for _ in range(300):
            m = int(rng.integers(2, 40))
            distinct = rng.uniform(-300, 300, int(rng.integers(1, m + 1)))
            mp = Mempool.from_arrays(range(m), np.exp(rng.choice(distinct, m)))
            k = int(rng.integers(1, m))
            lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
            profile = solve_equilibrium(mp, GameParams(k=k, lam=lam))
            induced = corresponding_strategy(profile, k).induced_marginals()
            miss = max(abs(induced.get(t, 0.0) - p) for t, p in profile.as_dict().items())
            assert miss <= abs(float(profile.values.sum()) - k) + 1e-12
            misses += miss > 1e-12
        assert misses > 10  # the budget residual, not rounding, sets the bound here


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
        blocks = profile.ids.take(sampler.select_many(rng.random(n)))
        for txid, p in profile.as_dict().items():
            freq = (blocks == txid).any(axis=1).mean()
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * se + 1e-9


def rational_selection(cum, labels, r, k):
    """Labels of the segments [cum[i], cum[i+1]) holding r, r+1, ..., r+k-1, in exact arithmetic."""
    ends = [Fraction(c) for c in cum]
    out = []
    for j in range(k):
        probe = Fraction(r) + j
        out.append(int(labels[next(i for i in range(len(ends) - 1) if ends[i] <= probe < ends[i + 1])]))
    return out


LAST_R = 1.0 - 2.0**-53  # the largest r below 1


def random_layouts(rng, n):
    """(values, k) of small profiles: quarter-valued (exact segment ends) or random, with zeros."""
    while n:
        m = int(rng.integers(2, 25))
        if rng.random() < 0.4:
            quarters = rng.integers(0, 5, m)
            for i in np.flatnonzero(quarters)[: quarters.sum() % 4]:
                quarters[i] -= 1  # a whole number of blocks
            values, k = quarters / 4.0, int(quarters.sum()) // 4
        else:
            k = int(rng.integers(1, m))
            values = rng.random(m) * (rng.random(m) < 0.7)
            values *= k / max(values.sum(), 1e-300)
        if k >= 1 and values.max() <= 1.0 and values.sum() == pytest.approx(k, rel=1e-12):
            n -= 1
            yield values, k


class TestExactSelection:
    def test_select_many_matches_rational_arithmetic(self):
        # 18 unit segments end at 18, and the 19th ends at fl(0.37 + 18), which
        # rounds up: the float probe r + 18 sits on that end and picks the
        # 20th segment, while the exact probe lies inside the 19th.
        a = (0.37 + 18.0) - 18.0
        cases = [(np.array([1.0] * 18 + [a, 1.0 - a]), 19)]
        rng = np.random.default_rng(2024)
        cases += list(random_layouts(rng, 300))
        for values, k in cases:
            sampler = SegmentSampler(profile_from(values), k)
            rs = [0.0, 0.25, 0.5, LAST_R, 0.37] + rng.random(3).tolist()
            rows = sampler.select_many(np.array(rs))
            for r, row in zip(rs, rows):
                assert row.tolist() == rational_selection(sampler.cum, sampler._nonzero, r, k), (values, k, r)

    @pytest.mark.parametrize("k", [2, 5])
    def test_largest_r_gives_k_distinct_ids(self, k):
        mp = Mempool.from_arrays(range(10), np.exp(np.arange(10) / 10))
        profile = solve_equilibrium(mp, GameParams(k=k, lam=1.0))
        block = sample_block(profile, LAST_R, k=k)
        assert len(block.ids) == k and len(block.txids) == k

    def test_snapped_drift_repeats_no_id(self):
        # The first four marginals sum to 4 - 4.4e-10, so snapping the last
        # end to k would leave a last segment 1 + 4.4e-10 long, and probes
        # r + 3 and r + 4 would both land in it.
        profile = profile_from([1.0, 1.0, 1.0, 1.0 - 4.4e-10, 1.0])
        sampler = SegmentSampler(profile, 5)
        assert np.all(np.diff(sampler.cum) <= 1.0)
        for r in (1.0 - 2e-11, LAST_R, 0.0):
            block = sample_block(profile, r, k=5)
            assert block.ids.tolist() == [1, 2, 3, 4, 5]

    def test_ends_past_k_are_pulled_back(self):
        # The marginals sum to k + 1e-10, within tolerance, so the tiny last
        # one starts past k: its segment becomes empty and is never selected.
        profile = profile_from([0.5 + 5e-11, 0.5 + 5e-11, 1.0, 1e-13])
        sampler = SegmentSampler(profile, 2)
        assert sampler.cum[-2:].tolist() == [2.0, 2.0] and np.all(np.diff(sampler.cum) >= 0.0)
        for r in (0.0, 0.5, LAST_R):
            ids = sample_block(profile, r, k=2).ids.tolist()
            assert ids == sorted(rational_selection(sampler.cum, profile.ids.take(sampler._nonzero), r, 2))
            assert len(set(ids)) == 2 and 4 not in ids

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_block_is_the_atom_holding_r(self, seed):
        rng = np.random.default_rng(300 + seed)
        mp = random_unit_mempool(rng, int(rng.integers(5, 40)))
        k = int(rng.integers(1, len(mp)))
        profile = solve_equilibrium(mp, GameParams(k=k, lam=float(rng.uniform(0.2, 3))))
        strat = corresponding_strategy(profile, k)
        starts = np.array([a for a, _ in strat.intervals])
        breaks = np.concatenate([starts, [1.0]])
        for r in rng.random(400):
            if np.abs(breaks - r).min() <= 1e-12:
                continue
            atom = strat.atom_txids[int(np.searchsorted(starts, r, side="right")) - 1]
            assert sample_block(profile, float(r), k=k).txids == atom

    @pytest.mark.parametrize("seed", range(3))
    def test_sampler_holds_only_the_nonzero_positions(self, seed):
        rng = np.random.default_rng(320 + seed)
        mp = random_unit_mempool(rng, 300)
        profile = solve_equilibrium(mp, GameParams(k=60, lam=float(rng.uniform(0.2, 3))))
        sampler = SegmentSampler(profile, 60)
        assert np.count_nonzero(profile.values) == len(sampler._nonzero) < len(mp)
        for r in rng.random(20):
            block = sample_block(profile, float(r), k=60)
            assert block.ids.tolist() == np.sort(profile.ids.take(sampler.select_many([r])[0])).tolist()


class TestRejectionSampler:
    def test_deterministic_acceptance(self):
        mp = Mempool.from_arrays([0, 1], [1.0, 1.0], [1.0, 2.0])
        profile = MarginalProfile(mp.ids, np.array([1.0, 1.0]), 0.0, log_w=0.0)
        block, attempts = rejection_sample_block(mp, profile, 3.0, np.random.default_rng(0))
        assert attempts == 1
        assert block.txids == frozenset({0, 1})
        assert block.used_capacity == pytest.approx(3.0)

    def test_two_coin_outcomes(self):
        # k' = 1 at k = 2 gives the window [0, 2], which accepts everything:
        # the four subsets each have mass 1/4
        mp = Mempool.from_arrays([0, 1], [1.0, 1.0])
        profile = MarginalProfile(mp.ids, np.array([0.5, 0.5]), 0.0, log_w=0.0)
        rng = np.random.default_rng(123)
        counts = {frozenset(): 0, frozenset({0}): 0, frozenset({1}): 0, frozenset({0, 1}): 0}
        n = 20_000
        for _ in range(n):
            block, attempts = rejection_sample_block(mp, profile, 2.0, rng)
            assert attempts == 1
            counts[block.txids] += 1
        for c in counts.values():
            assert abs(c / n - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n)

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(9)
        sizes = rng.uniform(0.2, 2.0, 12)
        mp = Mempool.from_arrays(range(12), [np.exp(rng.normal()) for _ in sizes], sizes)
        k = 0.5 * mp.total_size
        kprime = 0.95 * k
        profile = solve_equilibrium(mp, GameParams(k=kprime, lam=1.0), mode="variable")
        for _ in range(300):
            block, _ = rejection_sample_block(mp, profile, k, rng)
            assert block.used_capacity <= k + 1e-9

    def test_matches_conditioned_enumeration(self):
        rng = np.random.default_rng(31)
        m = 12
        sizes = rng.uniform(0.3, 1.5, m)
        mp = Mempool.from_arrays(range(m), [np.exp(rng.normal()) for _ in range(m)], sizes)
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

    def test_budget_exhausted(self, monkeypatch):
        # k' = 1.25 at k = 2 gives the window [0.5, 2], and every draw of the
        # one size-5 transaction holds 0 or 5, so none is accepted
        mp = Mempool.from_arrays([0], [1.0], [5.0])
        profile = MarginalProfile(mp.ids, np.array([0.25]), 0.0, log_w=0.0)
        monkeypatch.setattr(strategy, "_MAX_ATTEMPTS", 50)
        with pytest.raises(RejectionBudgetExceeded, match=r"^no accepted draw in 50 attempts$") as e:
            rejection_sample_block(mp, profile, 2.0, np.random.default_rng(0))
        assert e.value.attempts == 50

    @pytest.mark.parametrize("ids", [[7, 6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6]],
                             ids=["reversed", "short"])
    def test_profile_must_match_mempool(self, golden_mempool, golden_params, ids):
        # read by position, the reversed profile's marginals would land on the wrong transactions
        solved = solve_equilibrium(golden_mempool, golden_params).values
        profile = MarginalProfile(np.array(ids), solved[: len(ids)], 0.0, log_w=0.0)
        with pytest.raises(ValidationError, match="profile does not match the mempool"):
            rejection_sample_block(golden_mempool, profile, 3.0, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.5])
    def test_marginal_outside_unit_interval_refused(self, bad):
        mp = Mempool.from_arrays([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        profile = MarginalProfile(mp.ids, np.array([bad, 1.0, 1.0, 0.0]), 0.0, log_w=0.0)
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            rejection_sample_block(mp, profile, 2.0, np.random.default_rng(0))

    def test_empty_window_draws_nothing(self, golden_mempool):
        # k' = 3.5 at k = 3 puts the window's floor 2k' - k = 4 above k
        profile = MarginalProfile(golden_mempool.ids, np.full(7, 0.5), 0.0, log_w=0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"window \[4\.0, 3\.0\] is empty"):
            rejection_sample_block(golden_mempool, profile, 3.0, rng)
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
        assert np.array_equal(capped[0].ids, full[0].ids)
        assert capped[0].used_capacity == full[0].used_capacity
        assert capped[1] == full[1]

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
