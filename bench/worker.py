"""Worker child: runs a path in-process so that its peak RSS is its own.

    python3 bench/worker.py <job.json>

A job is ``{"mode": "miner", ...}`` for the untraced miner loop, or
``{"mode": "traced", ...}`` for the traced run of a whole workload. The
worker writes its result as JSON to ``job["result"]``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import paths
from plan import WORKLOADS, PathSpec
from tracing import Tracer


def run_miner(job: dict) -> dict:
    spec = PathSpec(**job["spec"])
    return paths.miner_loop(spec, job["files"], job["seed"], job["seconds"])


def _in_process(tracer):
    """An invoker that runs txpack.cli.main in this process inside an op span."""
    import txpack.cli

    def invoke(argv, op, request):
        tracer.request = request
        span = tracer.begin(op)
        t0 = time.perf_counter()
        try:
            rc = txpack.cli.main(argv)
        finally:
            tracer.end(span)
            tracer.request = None
        wall = time.perf_counter() - t0
        out = Path(argv[argv.index("--out") + 1])
        tracer.spans[span][5]["out_bytes"] = out.stat().st_size if out.exists() else 0
        return rc, wall

    return invoke


def run_traced(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    files = {kind: Path(p) for kind, p in job["files"].items()}
    tracer = Tracer()
    tracer.install()
    if workload.path == "miner":
        result = paths.miner_loop(workload.spec, files, job["seed"], job["seconds"], tracer)
    else:
        run_path = paths.cli_path if workload.path == "cli" else paths.sim_path
        result = run_path(workload.spec, files, Path(job["out_dir"]), job["seed"], job["seconds"],
                          _in_process(tracer), "traced")
    tracer.uninstall()
    with open(job["spans"], "w") as fh:
        json.dump(tracer.spans, fh)
    return dict(result, missing=tracer.missing)


def main(argv):
    with open(argv[1]) as fh:
        job = json.load(fh)
    result = run_miner(job) if job["mode"] == "miner" else run_traced(job)
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
