import json
import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from txpack import GameParams, Mempool, fixed_block_size
from txpack.strategy import SegmentSampler

# Seven-transaction golden instance: prices in exponential form, unit sizes,
# k = 3, lambda = 1. Solved by hand, the raw marginals are
# (2/3, 5/3, 7/12, 13/12, 2/3, 2/3, -7/3), the clamp shift is 1/3, and the
# clamped profile is (1/3, 1, 1/4, 3/4, 1/3, 1/3, 0).
GOLDEN_PRICES = [1.0, np.exp(1.0), np.exp(-1 / 12), np.exp(5 / 12), 1.0, 1.0, np.exp(-3.0)]
GOLDEN_PHAT = [2 / 3, 5 / 3, 7 / 12, 13 / 12, 2 / 3, 2 / 3, -7 / 3]
GOLDEN_PROFILE = [1 / 3, 1.0, 1 / 4, 3 / 4, 1 / 3, 1 / 3, 0.0]
GOLDEN_XHAT = 1 / 3
GOLDEN_W = np.exp(-1 / 3)
GOLDEN_INTERVALS = {
    1: (0.0, 1 / 3),
    2: (1 / 3, 4 / 3),
    3: (4 / 3, 19 / 12),
    4: (19 / 12, 7 / 3),
    5: (7 / 3, 8 / 3),
    6: (8 / 3, 3.0),
}


@pytest.fixture
def golden_mempool():
    return Mempool.from_arrays(np.arange(1, len(GOLDEN_PRICES) + 1), GOLDEN_PRICES)


@pytest.fixture
def golden_params():
    return GameParams(k=3, lam=1.0)


@pytest.fixture
def golden_mempool_file(tmp_path, golden_mempool):
    path = tmp_path / "golden.json"
    path.write_text(mempool_json(golden_mempool))
    return path


def mempool_json(mempool):
    """The mempool in the wire format, one record per transaction."""
    columns = (mempool.ids.tolist(), mempool.prices.tolist(), mempool.sizes.tolist())
    return json.dumps({"transactions": [
        {"id": i, "gas_price": v, "size": s} for i, v, s in zip(*columns)
    ]})


def set_usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_unit_mempool(rng, m):
    prices = np.exp(rng.uniform(-3, 3, m))
    return Mempool.from_arrays(np.arange(m), prices)


def random_sized_mempool(rng, m):
    prices = np.exp(rng.uniform(-3, 3, m))
    sizes = rng.uniform(0.2, 4.0, m)
    return Mempool.from_arrays(np.arange(m), prices, sizes)


@st.composite
def threshold_games(draw):
    """(mempool, params, mode): 2-39 unit or sized transactions priced e^x with |x| <= 300,
    often tied, lambda log-uniform in [1e-3, 1e3], and k short of the total size."""
    m = draw(st.integers(2, 39))
    distinct = draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=m))
    prices = np.exp(draw(st.lists(st.sampled_from(distinct), min_size=m, max_size=m)))
    lam = math.exp(draw(st.floats(math.log(1e-3), math.log(1e3))))
    if draw(st.booleans()):
        return Mempool.from_arrays(range(m), prices), GameParams(draw(st.integers(1, m - 1)), lam), "fixed"
    mp = Mempool.from_arrays(range(m), prices, draw(st.lists(st.floats(0.2, 4.0), min_size=m, max_size=m)))
    return mp, GameParams(draw(st.floats(0.05, 0.95)) * mp.total_size, lam), "variable"


def exclusion_frequency(mempool, profile, txid, params, trials, seed):
    """Share of trials whose Poisson(lambda) segment-sampler blocks all leave out txid.

    The closed-form target is exp(-lambda * p) for txid's marginal p.
    """
    rng = np.random.default_rng(seed)
    gammas = rng.poisson(params.lam, trials)
    sampler = SegmentSampler(profile, fixed_block_size(mempool, params))
    hit = (profile.ids.take(sampler.select_many(rng.random(int(gammas.sum())))) == txid).any(axis=1)
    hits_before = np.concatenate([[0], np.cumsum(hit)])
    bounds = np.concatenate([[0], np.cumsum(gammas)])
    return float(np.mean(hits_before[bounds[1:]] == hits_before[bounds[:-1]]))
