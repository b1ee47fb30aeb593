"""Round trips through the printed CLI documents: what one command prints, the next one reads.

Each example writes a small mempool (m 1-40, unit or sized, arbitrary ids,
prices over many decades, often tied) and runs ``main`` in-process on it.
The checks are on the 12-digit text a user sees, not on in-memory arrays.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from txpack import Mempool
from txpack.cli import main
from txpack.equilibrium import BUDGET_RTOL

from conftest import mempool_json

_UNIT = 2.0 ** -53


def run(*argv) -> tuple:
    """(exit code, stdout, stderr) of ``txpack argv`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


@st.composite
def games(draw):
    """(mempool, k, lambda): m 1-40 with distinct ids up to 2**63 - 1, log prices in
    [-300, 300] drawn from a few distinct values, unit or sized, lambda log-uniform
    in [1e-3, 1e4], and an integer k for unit mempools (up to m + 2) or a real one."""
    m = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=m, max_size=m, unique=True))
    distinct = draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=m))
    prices = np.exp(draw(st.lists(st.sampled_from(distinct), min_size=m, max_size=m)))
    lam = math.exp(draw(st.floats(math.log(1e-3), math.log(1e4))))
    if draw(st.booleans()):
        return Mempool.from_arrays(ids, prices), draw(st.integers(1, m + 2)), lam
    sizes = draw(st.lists(st.floats(0.2, 4.0), min_size=m, max_size=m))
    mempool = Mempool.from_arrays(ids, prices, sizes)
    return mempool, draw(st.floats(0.05, 1.2)) * math.fsum(sizes), lam


def printed(text: str, key: str) -> str:
    """The text printed for a top-level scalar ``key`` of a CLI document."""
    return re.search(rf'^  "{key}": (.*?),?$', text, re.MULTILINE).group(1)


@settings(max_examples=150, deadline=None)
@given(games(), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_printed_documents_round_trip(game, r, share, seed):
    mempool, k, lam = game
    unit = mempool.is_unit_size and k == int(k)
    sizes = dict(zip(mempool.ids.tolist(), mempool.sizes.tolist()))
    total = math.fsum(sizes.values())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mempool.json"
        path.write_text(mempool_json(mempool))
        game_args = ("--mempool", path, "--k", repr(float(k)), "--lambda", repr(lam))

        rc, eq_out, err = run("equilibrium", *game_args, "--mode", "fixed" if unit else "variable")
        assert rc == 0, err
        marginals = {rec["id"]: rec["p"] for rec in json.loads(eq_out)["marginals"]}

        # basefee's v_low is the profile's w: the same float, so the same text.
        rc, fee_out, err = run("basefee", *game_args)
        fits = total < k  # within the rounding of the mempool's own sum, either answer holds
        if abs(total - k) > len(sizes) * _UNIT * total:
            assert (rc == 1) == fits, (rc, err)
        if rc == 0:
            assert printed(fee_out, "v_low") == printed(eq_out, "w")
        else:
            assert err.startswith("error: total capacity "), err

        if unit:
            rc, out, err = run("sample", *game_args, "--r", repr(r))
            assert rc == 0, err
            txids = json.loads(out)["txids"]
            assert len(txids) == len(set(txids)) == min(int(k), len(mempool))
            assert all(marginals[t] != 0 for t in txids)

        kprime = share * k
        rc, out, err = run("sample", *game_args, "--mode", "variable", "--kprime", repr(kprime),
                           "--seed", seed)
        if rc == 1:
            assert err.startswith("error: no accepted draw in "), err
        else:
            assert rc == 0, err
            txids = json.loads(out)["txids"]
            assert len(txids) == len(set(txids)) and set(txids) <= set(sizes)
            # The sampler's window is [2 * capacity - k, k] widened by 1e-12 * max(1, k), where the
            # capacity is the reduced profile's, within BUDGET_RTOL of min(k', total).
            used = math.fsum(sizes[t] for t in txids)
            eps = 1e-12 * max(1.0, k) + 64 * _UNIT * total
            lower = 2.0 * min(kprime, total) * (1.0 - BUDGET_RTOL) - k
            assert max(0.0, lower) - eps <= used <= k + eps
