"""txpack benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload cli-1m --seed 1 --seconds 12 --trace 0

Run from the root of a txpack source tree; the package is imported from
``src/``. Inputs are generated from ``--seed`` and cached in
``.bench_cache/``; outputs, spans and reports go to ``.bench_out/``.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` runs the
workload untraced and then traced in one worker child, prints the per-layer
report and every per-layer metric; the two runs' difference is the tracing
overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark exits
non-zero without that line when it cannot run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import layers
import paths
from plan import STRATEGIES, WORKLOADS, Workload

T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DEADLINE_S = 170.0  # every child is killed once the run is this old


def _fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)



class Children:
    """Runs child processes one at a time and keeps the largest peak RSS among them."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.peak_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.errors = []

    def run(self, argv: list) -> tuple:
        """(exit code, wall seconds) of one child."""
        err_path = self.out_dir / "child-stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=ROOT)
            timer = threading.Timer(max(1.0, DEADLINE_S - (t0 - T0)), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if rc:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            self.errors.append(f"{' '.join(argv[:4])} ... exit {rc}: {' | '.join(tail)}")
        return rc, wall

    def txpack(self, argv, op, request) -> tuple:
        return self.run([sys.executable, "-m", "txpack.cli"] + argv)

    def worker(self, job: dict) -> tuple:
        job_path = self.out_dir / f"job-{job['mode']}.json"
        job_path.write_text(json.dumps(job))
        rc, wall = self.run([sys.executable, str(BENCH / "worker.py"), str(job_path)])
        result = json.loads(Path(job["result"]).read_text()) if rc == 0 else None
        return rc, result


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "txpack"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "src_txpack_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def measure_setup(children: Children, workload: Workload, files: dict) -> list:
    """Wall times of set-up-only children: import txpack.cli, or import and load.

    Called before and after the workload's path, so that a run's set-up
    samples span the whole run and not one phase of a shared host's speed.
    """
    if workload.path == "miner":
        code = ("import sys, txpack.mempool as mp; "
                "mp.load_mempool_file(sys.argv[1]); mp.load_mempool_file(sys.argv[2])")
        argv = [sys.executable, "-c", code, str(files["unit"]), str(files["sized"])]
        reps = 4
    else:
        argv = [sys.executable, "-c", "import txpack.cli"]
        reps = 8
    times = []
    for _ in range(reps):
        rc, wall = children.run(argv)
        times.append(wall if rc == 0 else float("nan"))
    return times


def run_path(children: Children, workload: Workload, files: dict, seed: int, seconds: float) -> dict:
    """Untraced run of the workload's path."""
    if workload.path == "miner":
        job = {"mode": "miner", "spec": workload.spec.__dict__, "seed": seed, "seconds": seconds,
               "files": {kind: str(p) for kind, p in files.items()},
               "result": str(children.out_dir / "miner-result.json")}
        rc, res = children.worker(job)
        return res or {"op_s": {"pack": [], "quote": []}, "attempted": 1, "failed": 1,
                       "failures": [f"worker exit code {rc}"]}
    run = paths.cli_path if workload.path == "cli" else paths.sim_path
    return run(workload.spec, files, children.out_dir, seed, seconds, children.txpack, "untraced")


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload: Workload, result: dict, setup_s: float, peak_kb: int) -> tuple:
    """(metrics, details): the three end-to-end metrics, plus each operation kind's figures.

    ``round_ms`` is one round of the workload's operation mix: the sum over
    its operation kinds of each kind's median wall time.
    """
    details = {}
    round_s = 0.0
    for kind, times in result["op_s"].items():
        med = _median(times)
        round_s += med
        details[kind] = {"median_ms": 1e3 * med, "n": len(times)}
        if len(times) > 1:
            value, pct, _ = layers.tail(times)
            details[kind].update(tail_ms=1e3 * value, tail_percentile=pct)
    if workload.path == "sim":
        details["sim"]["trials_per_s"] = len(STRATEGIES.split(",")) * workload.spec.trials / _median(result["op_s"]["sim"])
        details["sim"]["z_max"] = max(result["z_max"] or [float("nan")])
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "round_ms": (1e3 * round_s, "ms"),
    }
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the workload's own path")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "txpack" / "__init__.py").is_file():
        _fail(f"no txpack source tree at {ROOT / 'src' / 'txpack'}; run from a txpack checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import txpack

    if not Path(txpack.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"imported txpack from {txpack.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = ROOT / ".bench_cache"
    files = paths.mempool_files(cache, workload.path, workload.spec, args.seed)
    facts = machine_facts()

    children = Children(out_dir)
    setup_times = measure_setup(children, workload, files)
    result = run_path(children, workload, files, args.seed, args.seconds)
    setup_s = statistics.median(setup_times + measure_setup(children, workload, files))
    metrics, details = end_to_end(workload, result, setup_s, children.peak_kb)
    attempted, failed = result["attempted"], result["failed"]
    failures = result["failures"] + children.errors
    report_text = None

    if args.trace:
        spans_path = out_dir / f"spans-s{args.seed}.json"
        job = {"mode": "traced", "workload": workload.name, "seed": args.seed,
               "files": {kind: str(p) for kind, p in files.items()},
               "seconds": args.seconds, "out_dir": str(out_dir), "spans": str(spans_path),
               "result": str(out_dir / "traced-result.json")}
        rc, traced = children.worker(job)
        if traced is None:
            print("\n".join(children.errors), file=sys.stderr)
            _fail(f"traced worker exited with code {rc}")
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
        spans = layers.load_spans(json.loads(spans_path.read_text()))
        figures = layers.layer_figures(spans, traced, result["op_s"], workload)
        per_layer = {name: figures[name] for name in layers.PER_LAYER}
        report_text = layers.report(spans, workload, figures, traced["missing"])
        (out_dir / f"layers-s{args.seed}.txt").write_text(report_text + "\n")

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<20} {value:14.6f} {unit}")
    for kind, row in details.items():
        print(f"    {kind}: " + ", ".join(f"{k}={v:.6g}" for k, v in row.items()))
    if report_text:
        print(report_text)
        for name, (value, unit) in figures.items():
            mark = "*" if name in per_layer else " "
            print(f"  {mark}{name:<34} {value:16.6f} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for f in failures[:20]:
        print(f"  FAILED {f}")

    shown = per_layer if args.trace else metrics
    line = {
        "correct": failed == 0 and not children.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    record = dict(line, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, details=details, failures=failures[:20],
                  end_to_end={n: {"value": v, "unit": u} for n, (v, u) in metrics.items()})
    if args.trace:
        record["layer_figures"] = {n: {"value": v, "unit": u} for n, (v, u) in figures.items()}
    (out_dir / f"result-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
