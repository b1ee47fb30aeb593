import json

import numpy as np
import pytest

from txpack import GameParams, Mempool
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


def random_unit_mempool(rng, m):
    prices = np.exp(rng.uniform(-3, 3, m))
    return Mempool.from_arrays(np.arange(m), prices)


def random_sized_mempool(rng, m):
    prices = np.exp(rng.uniform(-3, 3, m))
    sizes = rng.uniform(0.2, 4.0, m)
    return Mempool.from_arrays(np.arange(m), prices, sizes)


def exclusion_frequency(profile, txid, params, trials, seed):
    """Share of trials whose Poisson(lambda) segment-sampler blocks all leave out txid.

    The closed-form target is exp(-lambda * p) for txid's marginal p.
    """
    rng = np.random.default_rng(seed)
    gammas = rng.poisson(params.lam, trials)
    sampler = SegmentSampler(profile, params.block_size(len(profile.values)))
    hit = (sampler.select_many(rng.random(int(gammas.sum()))) == txid).any(axis=1)
    hits_before = np.concatenate([[0], np.cumsum(hit)])
    bounds = np.concatenate([[0], np.cumsum(gammas)])
    return float(np.mean(hits_before[bounds[1:]] == hits_before[bounds[:-1]]))
