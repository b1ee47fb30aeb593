"""Every demo prints exactly the text below, with RuntimeWarnings raised as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT = {
    "01_equilibrium_walkthrough.py": """\
 tx      v(tx)      raw p  equilibrium p
  1    1.00000    0.66667        0.33333
  2    2.71828    1.66667        1.00000
  3    0.92004    0.58333        0.25000
  4    1.51690    1.08333        0.75000
  5    1.00000    0.66667        0.33333
  6    1.00000    0.66667        0.33333
  7    0.04979   -2.33333        0.00000

clamp shift xhat = 0.333333
threshold w      = 0.716531  (= e^(-1/3))
discounted prices of interior txs: [0.716531 0.716531 0.716531 0.716531 0.716531]
""",
    "02_sampling_blocks.py": """\
explicit mixed strategy over 3-subsets:
  r in [0.0000, 0.3333)  ->  [1, 2, 4]   (prob 0.3333)
  r in [0.3333, 0.5833)  ->  [2, 3, 5]   (prob 0.2500)
  r in [0.5833, 0.6667)  ->  [2, 4, 5]   (prob 0.0833)
  r in [0.6667, 1.0000)  ->  [2, 4, 6]   (prob 0.3333)

r = 0.0   selects [1, 2, 4]
r = 0.37  selects [2, 3, 5]
r = 0.8   selects [2, 4, 6]

max |induced - target| marginal error: 3.33e-16
""",
    "03_base_fees.py": """\
        xhat_aware: v_low = 0.716531   v_high = 1.947734
 paper_closed_form: v_low = 0.513417   v_high = 1.395612

classification against the shift-aware bounds:
  tx1: v = 1.0000  p = 0.333  between      -> randomized
  tx2: v = 2.7183  p = 1.000  above v_high -> always packaged
  tx3: v = 0.9200  p = 0.250  between      -> randomized
  tx4: v = 1.5169  p = 0.750  between      -> randomized
  tx5: v = 1.0000  p = 0.333  between      -> randomized
  tx6: v = 1.0000  p = 0.333  between      -> randomized
  tx7: v = 0.0498  p = 0.000  below v_low  -> never packaged
""",
    "04_latency_simulation.py": """\
closed-form symmetric utilities:
  equilibrium: 2.4331
  greedy:      1.9259

          strategy  exclusive rev   stderr  dup rate  unique/round
       equilibrium         2.4127   0.0151    0.1009         2.247
            greedy         1.9093   0.0178    0.1492         1.906
  uniform-random-k         2.3188   0.0107    0.0705         2.418
""",
}


def test_every_demo_is_pinned():
    assert set(DEMO_STDOUT) == {path.name for path in (ROOT / "demos").glob("*.py")}


@pytest.mark.parametrize("demo", DEMO_STDOUT)
def test_demo_stdout(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == DEMO_STDOUT[demo]
