"""Per-layer metrics and the per-layer report, computed from a traced run's spans.

A span is ``[name, start, end, parent, request, facts]``. Names are
``<layer>.<function>`` for calls into txpack and ``op.<kind>`` for the
benchmark's own operations (one CLI command, one miner request, one
``txpack simulate``); the spans of one operation share its request id.

``_s`` figures are totals over the traced run, ``_ms`` and ``_us`` figures
medians per call (``_tail_ms`` the highest percentile with at least 10 calls
beyond it), ``_pct`` shares of the operations' wall time, counts totals. A
workload has the figures of the layers its path calls; those that every
workload has are the per-layer metrics (``PER_LAYER``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict


class Span:
    __slots__ = ("name", "dur", "self_s", "request", "facts")

    def __init__(self, rec, child_s):
        self.name, start, end, _, self.request, self.facts = rec
        self.dur = end - start
        self.self_s = self.dur - child_s


def load_spans(records) -> list:
    child_s = defaultdict(float)
    for rec in records:
        if rec[3] is not None:
            child_s[rec[3]] += rec[2] - rec[1]
    return [Span(rec, child_s[i]) for i, rec in enumerate(records)]


def tail(values) -> tuple:
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _ms(spans) -> float:
    return 1e3 * statistics.median(s.dur for s in spans)


def _total(spans) -> float:
    return sum(s.dur for s in spans)


# The per-layer metrics: the figures that every workload has, because every
# workload's path loads a mempool, solves the equilibrium and draws from a
# strategy. The other figures exist on some workloads only and go to the
# report and the result file.
PER_LAYER = (
    "mempool.tx_per_s",
    "equilibrium.share_pct",
    "equilibrium.solve_ms",
    "equilibrium.solve_tail_ms",
    "equilibrium.xhat_calls_per_op",
    "strategy.share_pct",
    "trace.dominant_share_pct",
    "trace.overhead_pct",
)


def layer_figures(spans, traced: dict, untraced_op_s: dict, workload) -> dict:
    """name -> (value, unit) for every figure of the layers the workload calls."""
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    loads = named["mempool.load_mempool_file"]
    solves = named["equilibrium.solve_equilibrium"]
    xhats = named["equilibrium.solve_xhat"]
    rejects = named["strategy.rejection_sample_block"]
    runs = named["simulate.run_experiment"]
    ops = [s for s in spans if s.name.startswith("op.")]

    m = {}
    if loads:
        m["mempool.load_s"] = (_total(loads), "s")
        m["mempool.tx_per_s"] = (sum(s.facts["n"] for s in loads) / _total(loads), "tx/s")
        m["mempool.rss_delta_mb"] = (max(s.facts["rss_growth_kb"] for s in loads) / 1024, "MB")
    if named["cli.main"]:
        m["cli.self_s"] = (sum(s.self_s for s in named["cli.main"]), "s")
        m["cli.output_bytes"] = (sum(s.facts.get("out_bytes", 0) for s in ops), "bytes")
    if solves:
        m["equilibrium.solve_ms"] = (_ms(solves), "ms")
        m["equilibrium.solve_tail_ms"] = (1e3 * tail([s.dur for s in solves])[0], "ms")
    raws = named["equilibrium.compute_phat"] + named["equilibrium.compute_phat_real"]
    if raws:
        m["equilibrium.raw_ms"] = (_ms(raws), "ms")
    if xhats:
        m["equilibrium.xhat_ms"] = (_ms(xhats), "ms")
        m["equilibrium.xhat_calls_per_op"] = (len(xhats) / len(ops), "count")
    if named["equilibrium.clamp_marginals"]:
        m["equilibrium.clamp_ms"] = (_ms(named["equilibrium.clamp_marginals"]), "ms")
    if solves:
        m["equilibrium.clamped_zero"] = (statistics.median(s.facts["zero"] for s in solves), "count")
        m["equilibrium.clamped_one"] = (statistics.median(s.facts["one"] for s in solves), "count")
        m["equilibrium.interior"] = (statistics.median(s.facts["interior"] for s in solves), "count")
    if named["fees.base_fee"]:
        m["fees.base_fee_ms"] = (_ms(named["fees.base_fee"]), "ms")
    if named["strategy.sample_block"]:
        m["strategy.sample_block_ms"] = (_ms(named["strategy.sample_block"]), "ms")
    if rejects:
        m["strategy.rejection_s"] = (_total(rejects), "s")
        m["strategy.rejection_attempts"] = (sum(s.facts["attempts"] for s in rejects), "count")
        m["strategy.rejection_rss_delta_mb"] = (
            max(s.facts["alloc_peak_kb"] for s in rejects) / 1024, "MB")
    if named["strategy.select_many"]:
        m["strategy.select_many_calls"] = (len(named["strategy.select_many"]), "count")
        m["strategy.select_many_ms"] = (_ms(named["strategy.select_many"]), "ms")
    if named["verify.verify_equilibrium"]:
        m["verify.verify_s"] = (_total(named["verify.verify_equilibrium"]), "s")
        m["verify.best_response_s"] = (_total(named["verify.best_response"]), "s")
        m["verify.expected_utility_s"] = (_total(named["verify.expected_utility"]), "s")
    if runs:
        trials = sum(s.facts["trials"] * s.facts["strategies"] for s in runs)
        m["simulate.run_experiment_s"] = (_total(runs), "s")
        m["simulate.per_trial_us"] = (1e6 * _total(runs) / trials, "us")
        m["simulate.draw_calls"] = (
            len(named["simulate.draw"]) / sum(s.facts["strategies"] for s in runs), "count")
        m["simulate.mc_z_max"] = (max(traced["z_max"]), "z")
    shares = layer_shares(spans)
    m["equilibrium.share_pct"] = (shares["equilibrium"], "%")
    m["strategy.share_pct"] = (shares["strategy"], "%")
    m["trace.overhead_pct"] = (overhead_pct(traced["op_s"], untraced_op_s), "%")
    m["trace.dominant_share_pct"] = (dominant_share(spans, workload), "%")
    return m


def overhead_pct(traced_op_s: dict, untraced_op_s: dict) -> float:
    """Mean over the path's operation kinds of traced/untraced median wall, minus 1, in %."""
    ratios = [
        statistics.median(traced_op_s[op]) / statistics.median(untraced_op_s[op]) - 1.0
        for op in traced_op_s
        if traced_op_s[op] and untraced_op_s.get(op)
    ]
    return 100.0 * statistics.fmean(ratios)


def _by_op(spans):
    """op span name -> (op count, op wall, {span name: self seconds})."""
    op_of = {s.request: s.name for s in spans if s.name.startswith("op.")}
    table = defaultdict(lambda: [0, 0.0, defaultdict(float)])
    for s in spans:
        op = op_of.get(s.request)
        if op is None:
            continue
        row = table[op]
        if s.name == op:
            row[0] += 1
            row[1] += s.dur
        row[2][s.name] += s.self_s
    return table


def dominant_share(spans, workload) -> float:
    """Share of the workload's named op wall time spent in its intended dominant layers."""
    layers, ops = workload.dominant
    table = _by_op(spans)
    wall = sum(table[op][1] for op in ops)
    inside = sum(
        t for op in ops for name, t in table[op][2].items() if name.split(".", 1)[0] in layers
    )
    return 100.0 * inside / wall if wall else 0.0


def layer_shares(spans) -> dict:
    """layer -> % of all operations' wall time spent in that layer's own code."""
    table = _by_op(spans)
    wall = sum(row[1] for row in table.values())
    shares = defaultdict(float)
    for _, _, selfs in table.values():
        for name, t in selfs.items():
            shares[name.split(".", 1)[0]] += 100.0 * t / wall
    return shares


def report(spans, workload, metrics: dict, missing: list) -> str:
    """Per-layer report: each span's self time and share of its operation's wall time."""
    lines = [f"per-layer report for {workload.name}: {len(spans)} spans, "
             f"tracing overhead {metrics['trace.overhead_pct'][0]:+.2f} %"]
    if missing:
        lines.append("not traced (absent in this txpack): " + ", ".join(missing))
    for op, (count, wall, selfs) in sorted(_by_op(spans).items()):
        lines.append(f"  {op}: {count} ops, wall {wall:.4f} s")
        for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
            lines.append(f"      {name:<36} self {t:10.4f} s  {100 * t / wall:6.2f} %")
    lines.append("  layer shares of all operations' wall time: " + ", ".join(
        f"{layer} {pct:.2f} %" for layer, pct in sorted(layer_shares(spans).items(), key=lambda kv: -kv[1])))
    layers, ops = workload.dominant
    lines.append(f"  dominant layers {'+'.join(layers)} fill "
                 f"{metrics['trace.dominant_share_pct'][0]:.2f} % of {', '.join(ops)} wall time")
    return "\n".join(lines)
