"""Per-layer metrics from the merged spans of one traced invocation.

``tracer.py`` leaves one ``spans-<pid>.json`` per process of the
invocation's tree.  This module merges them, derives every per-layer
metric, prints the per-layer table, and cross-checks the totals against
the program's own figures (``metadata["execution"]`` and the
``--metrics-out`` Prometheus export): cache and retry counts must match
exactly, phase seconds within ``PHASE_TOLERANCE``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: Allowed gap between a span total and the program's own phase timer:
#: relative share plus absolute seconds (the phase timer encloses the
#: span, so the two differ by timer and wrapper overhead only).
PHASE_TOLERANCE = (0.10, 0.05)

#: Per-layer metric names, as BENCHMARK.json lists them.
METRICS = (
    "cli.import_s",
    "machines.calibrate_s",
    "machines.calibrate_calls",
    "machines.refine_s",
    "codegen.cpi_probe_s",
    "codegen.cpi_probe_calls",
    "savat.prime_s",
    "uarch.core_run_s",
    "uarch.replay_stream_s",
    "uarch.finish_s",
    "uarch.sim_cycles",
    "uarch.sim_cycles_per_s",
    "trace_cache.produce_s",
    "trace_cache.hits_memory",
    "trace_cache.hits_shm",
    "trace_cache.hits_disk",
    "trace_cache.misses",
    "trace_cache.hit_ratio",
    "em.envelope_s",
    "em.synthesize_s",
    "instruments.measure_band_s",
    "savat.measure_samples_s",
    "executor.cell_p50_s",
    "executor.cell_p90_s",
    "executor.cell_busy_s",
    "executor.cell_cpu_s",
    "executor.campaign_s",
    "executor.worker_util",
    "executor.parent_idle_s",
    "executor.result_cache_load_s",
    "executor.result_cache_store_s",
    "executor.result_cache_hits",
    "executor.result_cache_misses",
    "executor.journal_append_s",
    "executor.journal_appends",
    "executor.retries",
    "executor.timeouts",
    "study.run_s",
    "study.self_s",
    "untraced_s",
    "trace_overhead",
)


class Layer:
    """Totals of one layer over every process."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Seconds spent inside a simulated cell (``simulate_cell``).
        self.in_cell_s = 0.0


def load_processes(trace_dir: Path) -> list[dict]:
    """The span payloads of every process, main process first."""
    payloads = [json.loads(path.read_text()) for path in trace_dir.glob("spans-*.json")]
    return sorted(payloads, key=lambda payload: (not payload["main"], payload["pid"]))


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class Breakdown:
    """Per-layer totals plus the cell, cache and tier details of one run."""

    def __init__(self, processes: list[dict]) -> None:
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self.cell_wall: list[float] = []
        self.cell_cpu = 0.0
        self.sim_cycles = 0
        self.tiers: dict[str, int] = defaultdict(int)
        self.result_cache: dict[str, int] = defaultdict(int)
        #: Seconds of result-cache reads that hit (the executor times
        #: a cached cell by its read).
        self.hit_load_s = 0.0
        self.main_top_level: list[tuple[float, float]] = []
        self.pids = [payload["pid"] for payload in processes]
        for payload in processes:
            self._add_process(payload)

    def _add_process(self, payload: dict) -> None:
        spans = payload["spans"]
        child_s = [0.0] * len(spans)
        in_cell = [False] * len(spans)
        for index, (layer, start, end, parent, cpu_s, extra) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                in_cell[index] = in_cell[parent] or spans[parent][0] == "executor.cell"
            elif payload["main"]:
                self.main_top_level.append((start, end))
            if layer == "executor.cell":
                self.cell_wall.append(end - start)
                self.cell_cpu += cpu_s
            elif layer == "uarch.core_run":
                self.sim_cycles += extra
            elif layer == "trace_cache.load":
                self.tiers[extra] += 1
            elif layer == "executor.result_cache_load":
                self.result_cache[extra] += 1
                if extra == "hit":
                    self.hit_load_s += end - start
        for index, (layer, start, end, *_rest) in enumerate(spans):
            totals = self.layers[layer]
            totals.calls += 1
            totals.total_s += end - start
            totals.self_s += end - start - child_s[index]
            if in_cell[index]:
                totals.in_cell_s += end - start

    def total(self, layer: str) -> float:
        return self.layers[layer].total_s if layer in self.layers else 0.0

    def calls(self, layer: str) -> int:
        return self.layers[layer].calls if layer in self.layers else 0

    def in_cell(self, layer: str) -> float:
        return self.layers[layer].in_cell_s if layer in self.layers else 0.0

    def metrics(self, wall_s: float, plain_wall_s: float, workers: int) -> dict[str, float]:
        """Every per-layer metric, in ``METRICS`` order."""
        hits = {tier: self.tiers.get(f"{tier}_hits", 0) for tier in ("memory", "shm", "disk")}
        lookups = sum(self.tiers.values())
        core_run_s = self.total("uarch.core_run")
        campaign_s = self.total("executor.campaign")
        busy_s = sum(self.cell_wall)
        cells = self.cell_wall
        deciles = statistics.quantiles(cells, n=10) if len(cells) > 1 else cells * 9
        values = {
            "cli.import_s": self.total("cli.import"),
            "machines.calibrate_s": self.total("machines.calibrate"),
            "machines.calibrate_calls": self.calls("machines.calibrate"),
            "machines.refine_s": self.total("machines.refine"),
            "codegen.cpi_probe_s": self.total("codegen.cpi_probe"),
            "codegen.cpi_probe_calls": self.calls("codegen.cpi_probe"),
            "savat.prime_s": self.total("savat.prime"),
            "uarch.core_run_s": core_run_s,
            "uarch.replay_stream_s": self.total("uarch.replay_stream"),
            "uarch.finish_s": self.total("uarch.finish"),
            "uarch.sim_cycles": self.sim_cycles,
            "uarch.sim_cycles_per_s": self.sim_cycles / core_run_s if core_run_s else 0.0,
            "trace_cache.produce_s": self.total("trace_cache.produce"),
            "trace_cache.hits_memory": hits["memory"],
            "trace_cache.hits_shm": hits["shm"],
            "trace_cache.hits_disk": hits["disk"],
            "trace_cache.misses": self.tiers.get("misses", 0),
            "trace_cache.hit_ratio": sum(hits.values()) / lookups if lookups else 0.0,
            "em.envelope_s": self.total("em.envelope"),
            "em.synthesize_s": self.total("em.synthesize"),
            "instruments.measure_band_s": self.total("instruments.measure_band"),
            "savat.measure_samples_s": self.total("savat.measure_samples"),
            "executor.cell_p50_s": statistics.median(cells) if cells else 0.0,
            "executor.cell_p90_s": deciles[8] if cells else 0.0,
            "executor.cell_busy_s": busy_s,
            "executor.cell_cpu_s": self.cell_cpu,
            "executor.campaign_s": campaign_s,
            "executor.worker_util": busy_s / (workers * campaign_s) if campaign_s else 0.0,
            "executor.parent_idle_s": self.total("executor.wait"),
            "executor.result_cache_load_s": self.total("executor.result_cache_load"),
            "executor.result_cache_store_s": self.total("executor.result_cache_store"),
            "executor.result_cache_hits": self.result_cache.get("hit", 0),
            "executor.result_cache_misses": self.result_cache.get("miss", 0),
            "executor.journal_append_s": self.total("executor.journal_append"),
            "executor.journal_appends": self.calls("executor.journal_append"),
            "executor.retries": self.calls("executor.retry"),
            "executor.timeouts": self.calls("executor.timeout"),
            "study.run_s": self.total("study.run"),
            "study.self_s": self.layers["study.run"].self_s if "study.run" in self.layers else 0.0,
            "untraced_s": wall_s - _union_seconds(self.main_top_level),
            "trace_overhead": wall_s / plain_wall_s - 1.0,
        }
        return {name: values[name] for name in METRICS}

    def table(self, wall_s: float, metrics: dict[str, float]) -> list[str]:
        """The per-layer table: calls, total and self seconds, self share of wall."""
        lines = [
            f"{'layer':<28} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self/wall':>9}",
        ]
        for layer, totals in sorted(self.layers.items(), key=lambda item: -item[1].self_s):
            lines.append(
                f"{layer:<28} {totals.calls:>8} {totals.total_s:>10.3f} "
                f"{totals.self_s:>10.3f} {totals.self_s / wall_s:>9.1%}"
            )
        untraced = metrics["untraced_s"]
        lines.append(
            f"{'(untraced)':<28} {'':>8} {'':>10} {untraced:>10.3f} {untraced / wall_s:>9.1%}"
        )
        lines.append(
            f"traced wall {wall_s:.3f} s over {len(self.pids)} process(es); "
            f"trace_overhead {metrics['trace_overhead']:+.1%} against a plain invocation"
        )
        return lines


def _close(measured: float, reported: float) -> bool:
    relative, absolute = PHASE_TOLERANCE
    return abs(measured - reported) <= relative * abs(reported) + absolute


def cross_check(
    breakdown: Breakdown,
    executions: list[dict],
    prometheus: list[dict],
    exercises: frozenset[str],
    bypasses: frozenset[str],
    cells: int,
) -> list[str]:
    """Disagreements between the spans, the workload and the program's figures."""
    from repro.obs.check import check_against_execution

    problems = []
    appends = breakdown.calls("executor.journal_append")
    if appends != cells:
        problems.append(f"journal: {appends} append(s) for {cells} cell(s)")
    for layer in sorted(exercises):
        if breakdown.calls(layer) == 0:
            problems.append(f"layer {layer} never fired on a workload that exercises it")
    for layer in sorted(bypasses):
        if breakdown.calls(layer):
            problems.append(f"layer {layer} fired on a workload that bypasses it")

    def reported(key: str) -> float:
        return sum(float(execution.get(key, 0)) for execution in executions)

    counts = {
        "result-cache hits": (breakdown.result_cache.get("hit", 0), reported("cache_hits")),
        "result-cache misses": (breakdown.result_cache.get("miss", 0), reported("cache_misses")),
        "retries": (breakdown.calls("executor.retry"), reported("retries")),
        "timeouts": (breakdown.calls("executor.timeout"), reported("timeouts")),
    }
    for tier in ("memory_hits", "shm_hits", "disk_hits", "misses"):
        counts[f"trace-cache {tier}"] = (
            breakdown.tiers.get(tier, 0),
            sum(float((e.get("trace_cache") or {}).get(tier, 0)) for e in executions),
        )
    for name, (measured, figure) in counts.items():
        if measured != figure:
            problems.append(f"{name}: spans count {measured}, the program reports {figure:g}")
    if breakdown.tiers.get("unknown"):
        problems.append(f"{breakdown.tiers['unknown']} trace-cache lookup(s) with no tier")

    def phase(name: str) -> float:
        return sum(
            float((execution.get("phase_seconds") or {}).get(name, 0.0))
            for execution in executions
        )

    timings = {
        "prime": (breakdown.in_cell("savat.prime"), phase("prime")),
        "core_run": (breakdown.in_cell("uarch.core_run"), phase("core_run")),
        "cell seconds": (
            sum(breakdown.cell_wall) + breakdown.hit_load_s,
            sum(sum((e.get("cell_seconds") or {}).values()) for e in executions),
        ),
    }
    for name, (measured, figure) in timings.items():
        if not _close(measured, figure):
            problems.append(f"{name}: spans total {measured:.3f} s, the program reports {figure:.3f} s")

    for index, (samples, execution) in enumerate(zip(prometheus, executions)):
        for problem in check_against_execution(samples, execution):
            problems.append(f"campaign {index} metrics export: {problem}")
    return problems
