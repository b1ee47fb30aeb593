"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; timing-sensitive criteria use best-of-several measurements.
"""

import json
import time

import numpy as np
import pytest

from txpack import (
    GameParams,
    Mempool,
    base_fee,
    brute_force_check,
    compute_phat,
    compute_phat_real,
    expected_utility,
    greedy_profile,
    rejection_sample_block,
    run_experiment,
    sample_block,
    solve_equilibrium,
    verify_equilibrium,
)
from txpack.cli import main as cli_main
from txpack.strategy import SegmentSampler

from conftest import (
    GOLDEN_INTERVALS,
    GOLDEN_PHAT,
    GOLDEN_PROFILE,
    GOLDEN_XHAT,
    exclusion_frequency,
    random_sized_mempool,
    random_unit_mempool,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def best_time(fn, repeats=10):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_c01_golden_instance_reproduction(golden_mempool, golden_params):
    raw = compute_phat(golden_mempool, golden_params)
    profile, elapsed = best_time(lambda: solve_equilibrium(golden_mempool, golden_params))
    ok = (
        np.allclose(raw, GOLDEN_PHAT, atol=1e-9)
        and abs(profile.xhat - GOLDEN_XHAT) <= 1e-9
        and np.allclose(profile.values, GOLDEN_PROFILE, atol=1e-9)
        and elapsed < 1e-3
    )
    report(
        "1 golden-instance solver", ok,
        f"xhat={profile.xhat:.12g} solve={elapsed*1e6:.0f}us",
    )


def test_c02_segment_intervals_and_probe(golden_mempool, golden_params):
    def build():
        profile = solve_equilibrium(golden_mempool, golden_params)
        sampler = SegmentSampler(profile, 3)
        return profile, sampler

    (profile, sampler), elapsed = best_time(build)
    got = dict(zip(sampler.ids.tolist(), zip(sampler.cum[:-1], sampler.cum[1:])))
    intervals_ok = set(got) == set(GOLDEN_INTERVALS) and all(
        abs(got[t][0] - a) <= 1e-12 and abs(got[t][1] - b) <= 1e-12
        for t, (a, b) in GOLDEN_INTERVALS.items()
    )
    probe = sorted(sample_block(profile, 0.37, k=3).txids)
    ok = intervals_ok and probe == [2, 3, 5] and elapsed < 1e-3
    report("2 segment intervals + r=0.37 probe", ok, f"probe={probe} build={elapsed*1e6:.0f}us")


def test_c03_nash_verification(golden_mempool, golden_params):
    t0 = time.perf_counter()
    profile = solve_equilibrium(golden_mempool, golden_params)
    ve = verify_equilibrium(profile, golden_mempool, golden_params, tol=1e-9)
    bf = brute_force_check(golden_mempool, golden_params, profile)
    greedy = greedy_profile(golden_mempool, golden_params)
    ve_g = verify_equilibrium(greedy, golden_mempool, golden_params, tol=1e-9)
    bf_g = brute_force_check(golden_mempool, golden_params, greedy)
    elapsed = time.perf_counter() - t0
    ok = (
        ve.passes
        and abs(ve.w - np.exp(-1 / 3)) <= 1e-9
        and bf.passes
        and not ve_g.passes and ve_g.witness is not None
        and not bf_g.passes and bf_g.witness is not None
        and elapsed < 10e-3
    )
    report(
        "3 Nash verification (both oracles)", ok,
        f"w={ve.w:.9f} greedy_witness={bf_g.witness and sorted(bf_g.witness['txids'])} "
        f"t={elapsed*1e3:.1f}ms",
    )


def test_c04_randomized_oracle_suite():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    failures = 0
    for i in range(100):
        m = int(rng.integers(2, 11))
        mp = random_unit_mempool(rng, m)
        k = int(rng.integers(1, min(m, 4) + 1))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        profile = solve_equilibrium(mp, GameParams(k=k, lam=lam))
        if not brute_force_check(mp, GameParams(k=k, lam=lam), profile).passes:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    report("4 randomized brute-force suite (100 instances)", ok,
           f"failures={failures} t={elapsed:.2f}s")


def test_c05_exclusivity_law(golden_mempool):
    trials = 100_000
    t0 = time.perf_counter()
    settings = []
    # (lambda, tx) chosen so the marginals cover interior, p=1, and p=0
    for lam, txid in ((1.0, 1), (0.5, 2), (2.0, 7)):
        params = GameParams(k=3, lam=lam)
        profile = solve_equilibrium(golden_mempool, params)
        p = profile.as_dict()[txid]
        freq = exclusion_frequency(profile, txid, params, trials, seed=17)
        target = np.exp(-lam * p)
        se = np.sqrt(max(target * (1 - target), 1e-12) / trials)
        settings.append((lam, p, freq, target, abs(freq - target) <= 4 * se + 1e-9))
    elapsed = time.perf_counter() - t0
    boundary = {round(s[1], 6) for s in settings}
    ok = all(s[4] for s in settings) and {0.0, 1.0} <= boundary and elapsed < 30.0
    report("5 exclusivity law exp(-lambda*p)", ok,
           f"settings={[(s[0], round(s[1],3)) for s in settings]} t={elapsed:.1f}s")


def test_c06_utility_separation(golden_mempool, golden_params):
    trials = 100_000
    t0 = time.perf_counter()
    reports = run_experiment({
        "mempool": golden_mempool, "lambda": 1.0, "k": 3,
        "trials": trials, "seed": 20240817,
        "strategies": ["equilibrium", "greedy"],
    })
    elapsed = time.perf_counter() - t0
    by = {r.strategy: r for r in reports}
    eq, gr = by["equilibrium"], by["greedy"]
    eq_target = float(expected_utility(
        solve_equilibrium(golden_mempool, golden_params),
        solve_equilibrium(golden_mempool, golden_params),
        golden_mempool, golden_params).value)
    greedy = greedy_profile(golden_mempool, golden_params)
    gr_target = float(expected_utility(greedy, greedy, golden_mempool, golden_params).value)
    sep = (eq.mean_exclusive_revenue - gr.mean_exclusive_revenue) / np.hypot(
        eq.stderr_exclusive_revenue, gr.stderr_exclusive_revenue)
    ok = (
        abs(eq.mean_exclusive_revenue - eq_target) <= 4 * eq.stderr_exclusive_revenue
        and abs(gr.mean_exclusive_revenue - gr_target) <= 4 * gr.stderr_exclusive_revenue
        and sep >= 10
        and elapsed < 60.0
    )
    report("6 utility separation (eq ~2.4331 vs greedy ~1.9261)", ok,
           f"eq={eq.mean_exclusive_revenue:.4f} greedy={gr.mean_exclusive_revenue:.4f} "
           f"sep={sep:.1f}se t={elapsed:.1f}s")


def test_c07_base_fee_classification(golden_mempool, golden_params):
    def compute():
        return base_fee(golden_mempool, golden_params, "xhat_aware")

    fb, elapsed = best_time(compute)
    profile = solve_equilibrium(golden_mempool, golden_params)
    classified = all(
        (price >= fb.v_low * (1 - 1e-9) or p == 0.0)
        and (price <= fb.v_high * (1 + 1e-9) or p == 1.0)
        for price, p in zip(golden_mempool.prices, profile.values)
    )
    ok = (
        abs(fb.v_low - np.exp(-1 / 3)) <= 1e-9
        and abs(fb.v_high - np.exp(2 / 3)) <= 1e-9
        and classified
        and elapsed < 1e-3
    )
    report("7 base-fee bounds + classification", ok,
           f"v_low={fb.v_low:.9f} v_high={fb.v_high:.9f} t={elapsed*1e6:.0f}us")


def test_c08_solver_scaling():
    # The first call on a fresh mempool sorts it for the price-order table;
    # later calls reuse the table. Both must scale as m log m. Each size gets
    # the same number of solved transactions, so the best-of at small m is
    # taken over as long a stretch of time as at large m.
    rng = np.random.default_rng(99)
    times = {"first": {}, "cached": {}}
    for m in (10_000, 100_000, 1_000_000):
        ids, prices = np.arange(m), np.exp(rng.uniform(-3, 3, m))
        params = GameParams(k=m // 10, lam=1.0)
        repeats = 5_000_000 // m
        first = float("inf")
        for _ in range(repeats):
            mp = Mempool.from_arrays(ids, prices)
            first = min(first, best_time(lambda: solve_equilibrium(mp, params), repeats=1)[1])
        times["first"][m] = first
        # The last mempool's table was built by its first call above.
        times["cached"][m] = best_time(lambda: solve_equilibrium(mp, params), repeats=repeats)[1]
    details, ok = [], True
    for name, t in times.items():
        coeffs = [t[m] / (m * np.log(m)) for m in t]
        spread = max(coeffs) / min(coeffs)
        ok = ok and t[1_000_000] < 5.0 and spread <= 2.0
        details.append(f"{name}: t(1e6)={t[1_000_000]*1e3:.0f}ms c-spread={spread:.2f}x")
    report("8 m log m scaling to |M|=1e6", ok, "; ".join(details))


def test_c09_variable_size_suite():
    rng = np.random.default_rng(777)
    identity_ok = True
    for _ in range(100):
        mp = random_sized_mempool(rng, int(rng.integers(2, 60)))
        k = float(rng.uniform(0.1, 0.9)) * mp.total_size
        params = GameParams(k=k, lam=float(rng.uniform(0.2, 5)))
        raw = compute_phat_real(mp, params)
        budget = abs(float(raw @ mp.sizes) - k) <= 1e-9 * max(1.0, k)
        const = mp.prices * np.exp(-params.lam * raw)
        flat = np.ptp(const) <= 1e-9 * const[0]
        identity_ok = identity_ok and budget and flat

    # 20-tx instance: exact conditional marginals by full 2^20 enumeration
    m = 20
    sizes = rng.uniform(0.3, 1.5, m)
    mp = Mempool.from_arrays(range(m), [np.exp(rng.normal()) for _ in range(m)], sizes)
    k = 0.4 * mp.total_size
    kprime = 0.9 * k
    profile = solve_equilibrium(mp, GameParams(k=kprime, lam=1.0), mode="variable")
    lower = max(0.0, 2 * kprime - k)
    masks = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(np.float64)
    probs = np.prod(np.where(masks > 0, profile.values, 1.0 - profile.values), axis=1)
    total = masks @ mp.sizes
    accepted = (total >= lower - 1e-12) & (total <= k + 1e-12)
    oracle = (probs[accepted][:, None] * masks[accepted]).sum(axis=0) / probs[accepted].sum()

    n = 100_000
    draw_rng = np.random.default_rng(7)
    hits = np.zeros(m)
    cap_ok = True
    for _ in range(n):
        block, _ = rejection_sample_block(mp, profile, k, draw_rng, chunk=8)
        cap_ok = cap_ok and block.used_capacity <= k + 1e-9
        for t in block.txids:
            hits[t] += 1
    emp = hits / n
    se = np.sqrt(np.maximum(oracle * (1 - oracle), 1e-12) / n)
    marginals_ok = bool(np.all(np.abs(emp - oracle) <= 3 * se + 1e-9))
    ok = identity_ok and cap_ok and marginals_ok
    report("9 variable-size identities + rejection sampler vs 2^20 oracle", ok,
           f"max|emp-oracle|/se={np.max(np.abs(emp - oracle) / se):.2f}")


def test_c10_cli_determinism(golden_mempool_file, tmp_path, capsys):
    invocations = [
        ("equilibrium", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"),
        ("sample", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
         "--seed", "42"),
        ("basefee", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"),
        ("verify", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1"),
        ("simulate", "--mempool", str(golden_mempool_file), "--k", "3", "--lambda", "1",
         "--trials", "500", "--seed", "9", "--strategies", "equilibrium,greedy"),
    ]
    ok = True
    for argv in invocations:
        outs = []
        for _ in range(2):
            rc = cli_main(list(argv))
            outs.append(capsys.readouterr().out.encode())
            ok = ok and rc == 0
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 0
    report("10 CLI byte-identical determinism", ok, f"{len(invocations)} subcommands x2")
