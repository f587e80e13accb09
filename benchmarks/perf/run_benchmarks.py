"""Microbenchmarks for the vectorized simulation fast path.

Times the three layers the fast path accelerates, in isolation and end
to end, on the fast and the scalar reference implementations:

* **cold cell** — a complete cold single-cell SAVAT measurement (CPI
  probes, priming, warm-up + measured period, projection) for an
  arithmetic pair (ADD/SUB) and the worst-case off-chip pair (LDM/STM);
* **priming** — ``prime_alternation_steady_state`` alone, full size;
* **finish** — ``ActivityRecorder.finish`` alone on a synthetic event
  population shaped like a measured period (mostly single-cycle events
  plus a minority of multi-cycle windows);
* **full cell** — a complete ``method="full"`` cell (10 repetitions of
  synthesis + spectrum sweep + band integration at the paper's 1 s /
  1 Hz RBW geometry) on the band-limited analyzer versus the
  full-spectrum reference analyzer, including their per-sample
  agreement;
* **study** — a cold 2-distance ``run_study`` (shared kernel-trace
  cache) versus a cold single campaign with the trace cache off; the
  shared cache must keep the whole study under 2x the single-campaign
  cost, because the second distance reuses every trace;
* **pool_campaign** — a pooled mixed-cost ``method="full"`` campaign
  in row-major and cost-aware order versus a serial reference: samples
  must be bit-identical across all three.  Worker-count speedups are
  recorded but not gated — they depend on the container's core count
  (recorded in the results), and this container may be single-core.

Results are written to ``BENCH_simulation.json``.  With ``--campaign``
the cold, cache-disabled, serial Figure 9-sized campaign (11x11 events,
2 repetitions, seed 2014) is also run and compared against the pre-PR
baseline measured on the same container, then re-run with every
observability output enabled (JSONL trace, Prometheus metrics file,
progress line) to measure the instrumentation overhead against its
<5% budget.  With ``--check`` the cold single-cell, priming-only,
full-cell, study, and pooled-campaign latencies are compared against a
checked-in baseline and the process exits non-zero on a >1.5x
regression or on pooled samples that differ from the serial ones.

Usage (from the repository root):

    PYTHONPATH=src python benchmarks/perf/run_benchmarks.py
    PYTHONPATH=src python benchmarks/perf/run_benchmarks.py --campaign
    PYTHONPATH=src python benchmarks/perf/run_benchmarks.py \
        --check benchmarks/perf/baseline.json
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import savat  # noqa: E402
from repro.core.executor import execute_campaign  # noqa: E402
from repro.core.savat import (  # noqa: E402
    MeasurementConfig,
    clear_cpi_cache,
    measure_savat,
    measure_savat_samples,
)
from repro.instruments.analyzer_path import (  # noqa: E402
    use_band_analyzer,
    use_reference_analyzer,
)
from repro.isa.events import PAPER_EVENTS, get_event  # noqa: E402
from repro.machines.calibrated import load_calibrated_machine  # noqa: E402
from repro.obs import CampaignObservability  # noqa: E402
from repro.uarch.activity import ActivityRecorder  # noqa: E402
from repro.uarch.components import COMPONENT_ORDER  # noqa: E402
from repro.uarch.fastpath import use_fast_path, use_reference_path  # noqa: E402

#: Pre-PR wall-clock of the cold, cache-disabled, *serial* Figure 9-sized
#: campaign (11x11 events, 2 repetitions, seed 2014, core2duo at 10 cm)
#: measured on this container immediately before the fast path landed.
PRE_PR_CAMPAIGN_SECONDS = 167.7455028710001

#: Sum of all campaign samples from that same pre-PR run — the fast path
#: must reproduce it bit-for-bit.
PRE_PR_CAMPAIGN_CHECKSUM = 768.9661831795673

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simulation.json"
DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent / "baseline.json"

#: Regression threshold for --check: fail when a cold single-cell or
#: priming-only fast latency exceeds the baseline by more than this
#: factor.  Best-of-N timings on an otherwise idle container are stable
#: to a few percent, so 1.5x catches real regressions without flaking.
REGRESSION_FACTOR = 1.5

#: Maximum acceptable slowdown of the cold campaign when every
#: observability output (JSONL trace, metrics file, progress line) is
#: enabled, relative to the registry-only default.
OBSERVABILITY_OVERHEAD_BUDGET = 0.05


def _timed(callable_, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``callable_()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def bench_cold_cell(machine, pair: tuple[str, str], repeats: int) -> dict:
    """Cold single-cell measurement: CPI probes + priming + simulation."""

    def cold(path_manager):
        clear_cpi_cache()
        with path_manager():
            measure_savat(machine, *pair)

    fast = _timed(lambda: cold(use_fast_path), repeats)
    reference = _timed(lambda: cold(use_reference_path), repeats)
    return {"fast_s": fast, "reference_s": reference, "speedup": reference / fast}


def bench_priming(machine, pair: tuple[str, str], repeats: int) -> dict:
    """Steady-state priming alone, at the pair's real loop count."""
    clear_cpi_cache()
    plan = savat._plan_pair(machine, get_event(pair[0]), get_event(pair[1]), 80e3)
    spec = plan.spec
    core = machine.make_core()

    def prime(path_manager):
        with path_manager():
            savat.prime_alternation_steady_state(core, spec)

    fast = _timed(lambda: prime(use_fast_path), repeats)
    reference = _timed(lambda: prime(use_reference_path), repeats)
    return {
        "inst_loop_count": spec.inst_loop_count,
        "fast_s": fast,
        "reference_s": reference,
        "speedup": reference / fast,
    }


def bench_finish(repeats: int) -> dict:
    """Trace materialization alone, on a period-shaped event population."""
    rng = np.random.default_rng(0)
    num_cycles = 60_000
    single = 400_000
    windows = 8_000

    def build() -> ActivityRecorder:
        recorder = ActivityRecorder(clock_hz=2.4e9)
        for start, component in zip(
            rng.integers(0, num_cycles, size=single).tolist(),
            rng.integers(0, len(COMPONENT_ORDER), size=single).tolist(),
        ):
            recorder.add(COMPONENT_ORDER[component], start, 1, 0.5)
        for start, component in zip(
            rng.integers(0, num_cycles, size=windows).tolist(),
            rng.integers(0, len(COMPONENT_ORDER), size=windows).tolist(),
        ):
            recorder.add(COMPONENT_ORDER[component], start, 14, 0.125)
        return recorder

    recorder = build()
    elapsed = _timed(lambda: recorder.finish(num_cycles), repeats)
    return {
        "events": single + windows,
        "num_cycles": num_cycles,
        "finish_s": elapsed,
        "events_per_second": (single + windows) / elapsed,
    }


def bench_full_cell(machine, pair: tuple[str, str], repeats: int) -> dict:
    """One ``method="full"`` cell, paper-scale, band vs reference analyzer.

    The period is simulated once (shared by both paths, as the campaign
    executor shares it across repetitions); the timed region is the 10
    repetitions of synthesis + spectrum sweep + band integration.  The
    reference analyzer is timed over a single pass — its full-length
    Bluestein transforms make every pass cost tens of seconds.
    """
    repetitions = 10
    config = MeasurementConfig(method="full")
    clear_cpi_cache()
    plan = savat._plan_pair(machine, get_event(pair[0]), get_event(pair[1]), 80e3)
    trace, plan = savat.simulate_alternation_period(machine, plan)

    def cell():
        return measure_savat_samples(
            machine, pair[0], pair[1], config,
            rng=np.random.default_rng(2014),
            trace=trace, plan=plan, repetitions=repetitions,
        )

    with use_band_analyzer():
        band_samples = cell()  # warm the plan/window/workspace caches
        fast = _timed(cell, repeats)
    with use_reference_analyzer():
        started = time.perf_counter()
        reference_samples = cell()
        reference = time.perf_counter() - started
    max_rel_diff = float(
        np.max(np.abs(band_samples - reference_samples) / np.abs(reference_samples))
    )
    return {
        "repetitions": repetitions,
        "fast_s": fast,
        "reference_s": reference,
        "speedup": reference / fast,
        "max_rel_diff": max_rel_diff,
        "agreement_ok": bool(max_rel_diff <= 1e-9),
    }


#: Event subset and distances for the study benchmark — big enough for
#: the trace-production cost to dominate, small enough to run on every
#: benchmark invocation (unlike the full 11x11 --campaign stage).
STUDY_EVENTS = ("ADD", "SUB", "LDM", "STM")
STUDY_DISTANCES = (0.10, 0.50)
STUDY_RATIO_BUDGET = 2.0


def bench_study(machine, repeats: int) -> dict:
    """Cold 2-distance study (shared trace cache) vs cold single campaign.

    The acceptance bar of the trace cache: a study over two distances
    must cost **less than 2x** one cold campaign, because only the
    first distance pays for ``prime``/``core_run`` — the second reuses
    every trace and runs just the per-distance measurement stage.
    """
    from repro.core.campaign import run_campaign
    from repro.core.study import run_study

    def single():
        clear_cpi_cache()
        run_campaign(
            machine,
            events=STUDY_EVENTS,
            repetitions=2,
            seed=2014,
            trace_cache=False,
        )

    single_s = _timed(single, repeats)

    study_s = float("inf")
    study = None
    for _ in range(repeats):
        clear_cpi_cache()
        started = time.perf_counter()
        candidate = run_study(
            ["core2duo"],
            list(STUDY_DISTANCES),
            events=STUDY_EVENTS,
            repetitions=2,
            seed=2014,
        )
        elapsed = time.perf_counter() - started
        if elapsed < study_s:
            study_s, study = elapsed, candidate

    cells = len(STUDY_EVENTS) ** 2
    second = study.matrices[1].metadata["execution"]["trace_cache"]
    ratio = study_s / single_s
    return {
        "2-distance": {
            "fast_s": study_s,
            "single_campaign_s": single_s,
            "ratio": ratio,
            "ratio_budget": STUDY_RATIO_BUDGET,
            "ratio_ok": bool(ratio < STUDY_RATIO_BUDGET),
            "trace_cache_totals": dict(study.trace_cache),
            "second_distance_all_hits": bool(
                second["misses"] == 0
                and second["memory_hits"] + second["disk_hits"] == cells
            ),
        }
    }


#: Event subset for the pooled-campaign benchmark — a mixed-cost grid
#: (cheap ALU rows next to off-chip memory rows) small enough to run
#: three variants per invocation at ``method="full"`` repetition cost.
POOL_EVENTS = ("MUL", "ADD", "LDM")
POOL_REPETITIONS = 2
POOL_WORKERS = 4


def bench_pool_campaign(machine, repeats: int) -> dict:
    """Pooled mixed-cost campaign: row-major and cost schedules vs serial.

    Runs the same cold ``method="full"`` campaign three ways — serial,
    pooled in row-major order, and pooled with cost-aware scheduling —
    and gates on the property that is independent of how many cores the
    container has: samples bit-identical across all three.  The pooled
    row-major time is the stage's latency (``fast_s``, gated against the
    baseline like every other stage).  Pool-vs-serial and
    cost-vs-rowmajor speedups are *recorded*, not gated: on a
    single-core container (``cores`` in the results) a process pool
    cannot beat serial wall-clock and submission order cannot change
    it, so those ratios only carry signal on multi-core hosts.
    """
    import os

    from repro.core.campaign import run_campaign

    config = MeasurementConfig(method="full")

    def campaign(workers: int, schedule: str):
        clear_cpi_cache()
        started = time.perf_counter()
        matrix = run_campaign(
            machine,
            config=config,
            events=POOL_EVENTS,
            repetitions=POOL_REPETITIONS,
            seed=2014,
            workers=workers,
            trace_cache=False,
            schedule=schedule,
        )
        return time.perf_counter() - started, matrix

    # One warm-up pass so forked workers inherit warm module caches and
    # the first timed variant is not penalized for import costs.
    campaign(0, "rowmajor")

    def best(workers: int, schedule: str):
        best_s, best_matrix = float("inf"), None
        for _ in range(repeats):
            elapsed, matrix = campaign(workers, schedule)
            if elapsed < best_s:
                best_s, best_matrix = elapsed, matrix
        return best_s, best_matrix

    serial_s, serial = best(0, "rowmajor")
    pool_s, pooled = best(POOL_WORKERS, "rowmajor")
    cost_s, cost_matrix = best(POOL_WORKERS, "cost")

    def tail_s(matrix) -> float:
        return matrix.metadata["execution"]["scheduling"]["tail_seconds"]

    identical = all(
        np.array_equal(serial.samples_zj, matrix.samples_zj)
        for matrix in (pooled, cost_matrix)
    )
    return {
        "mixed_full": {
            "fast_s": pool_s,
            "serial_s": serial_s,
            "cost_pool_s": cost_s,
            "cores": os.cpu_count(),
            "workers": POOL_WORKERS,
            "samples_identical": bool(identical),
            "pool_speedup_vs_serial": serial_s / pool_s,
            "cost_speedup_vs_rowmajor": pool_s / cost_s,
            "rowmajor_tail_s": tail_s(pooled),
            "cost_tail_s": tail_s(cost_matrix),
        }
    }


def bench_campaign(machine) -> dict:
    """Cold, cache-disabled, serial Figure 9-sized campaign (fast path)."""
    clear_cpi_cache()
    with use_fast_path():
        started = time.perf_counter()
        samples, _stats = execute_campaign(
            machine,
            list(PAPER_EVENTS),
            repetitions=2,
            seed=2014,
            workers=1,
            cache=None,
        )
        elapsed = time.perf_counter() - started
    checksum = float(samples.sum())
    return {
        "fast_s": elapsed,
        "pre_pr_reference_s": PRE_PR_CAMPAIGN_SECONDS,
        "speedup_vs_pre_pr": PRE_PR_CAMPAIGN_SECONDS / elapsed,
        "samples_checksum": checksum,
        "pre_pr_samples_checksum": PRE_PR_CAMPAIGN_CHECKSUM,
        "checksum_matches_pre_pr": bool(
            abs(checksum - PRE_PR_CAMPAIGN_CHECKSUM)
            <= 1e-9 * abs(PRE_PR_CAMPAIGN_CHECKSUM)
        ),
        "observability": _bench_campaign_observability(machine, samples, elapsed),
    }


def _bench_campaign_observability(machine, plain_samples, plain_elapsed) -> dict:
    """The same cold campaign with every observability output enabled.

    The baseline run above carries the always-installed registry-only
    default, so the delta measured here is the cost of the optional
    outputs: the JSONL trace (one span pair per cell), the Prometheus
    metrics file, and the forced-on progress line (into a StringIO, so
    rendering cost is included but no terminal is needed).  The
    overhead is a best-of-two on both variants (one extra plain run,
    two instrumented runs): campaign-sized wall times on a shared
    container jitter by up to ~10% run to run, which is larger than
    the effect being measured, and best-of pairs under the same load
    recover the true delta.
    """

    def instrumented_run() -> tuple[float, "np.ndarray"]:
        clear_cpi_cache()
        with tempfile.TemporaryDirectory() as tmp:
            observability = CampaignObservability(
                trace=pathlib.Path(tmp) / "trace.jsonl",
                metrics_out=pathlib.Path(tmp) / "metrics.prom",
                progress=True,
                progress_stream=io.StringIO(),
            )
            with use_fast_path():
                started = time.perf_counter()
                samples, _stats = execute_campaign(
                    machine,
                    list(PAPER_EVENTS),
                    repetitions=2,
                    seed=2014,
                    workers=1,
                    cache=None,
                    observability=observability,
                )
                return time.perf_counter() - started, samples

    def plain_run() -> float:
        clear_cpi_cache()
        with use_fast_path():
            started = time.perf_counter()
            execute_campaign(
                machine,
                list(PAPER_EVENTS),
                repetitions=2,
                seed=2014,
                workers=1,
                cache=None,
            )
            return time.perf_counter() - started

    elapsed, samples = instrumented_run()
    second_elapsed, _ = instrumented_run()
    elapsed = min(elapsed, second_elapsed)
    plain_elapsed = min(plain_elapsed, plain_run())
    overhead = elapsed / plain_elapsed - 1.0
    return {
        "instrumented_s": elapsed,
        "overhead_fraction": overhead,
        "overhead_budget": OBSERVABILITY_OVERHEAD_BUDGET,
        "overhead_ok": bool(overhead < OBSERVABILITY_OVERHEAD_BUDGET),
        "samples_identical": bool(np.array_equal(samples, plain_samples)),
    }


def run(args) -> int:
    machine = load_calibrated_machine("core2duo", 0.10)
    results: dict = {
        "benchmark": "savat-simulation-fast-path",
        "machine": "core2duo@10cm",
        "repeats": args.repeats,
    }

    print("cold single-cell measurements (CPI probes + priming + period)...")
    results["cold_cell"] = {
        "ADD/SUB": bench_cold_cell(machine, ("ADD", "SUB"), args.repeats),
        "LDM/STM": bench_cold_cell(machine, ("LDM", "STM"), args.repeats),
    }
    for pair, numbers in results["cold_cell"].items():
        print(
            f"  {pair}: fast {numbers['fast_s']:.3f}s  "
            f"reference {numbers['reference_s']:.3f}s  "
            f"({numbers['speedup']:.1f}x)"
        )

    print("sweep priming in isolation...")
    results["priming"] = {"LDM/STM": bench_priming(machine, ("LDM", "STM"), args.repeats)}
    numbers = results["priming"]["LDM/STM"]
    print(
        f"  LDM/STM: fast {numbers['fast_s']:.3f}s  "
        f"reference {numbers['reference_s']:.3f}s  ({numbers['speedup']:.1f}x)"
    )

    print("trace materialization (finish) in isolation...")
    results["finish"] = bench_finish(args.repeats)
    print(
        f"  {results['finish']['events']} events -> "
        f"{results['finish']['finish_s']:.3f}s"
    )

    print("full signal-path cell (10 reps of synthesis + sweep; the")
    print("reference analyzer pass alone takes tens of seconds)...")
    results["full_cell"] = {
        "ADD/LDM": bench_full_cell(machine, ("ADD", "LDM"), args.repeats)
    }
    numbers = results["full_cell"]["ADD/LDM"]
    print(
        f"  ADD/LDM: band {numbers['fast_s']:.3f}s  "
        f"reference {numbers['reference_s']:.3f}s  "
        f"({numbers['speedup']:.1f}x); max rel diff "
        f"{numbers['max_rel_diff']:.2e} -> "
        f"{'ok' if numbers['agreement_ok'] else 'OVER BUDGET'}"
    )

    print("cold 2-distance study vs cold single campaign (trace cache)...")
    results["study"] = bench_study(machine, args.repeats)
    numbers = results["study"]["2-distance"]
    print(
        f"  study {numbers['fast_s']:.3f}s vs single campaign "
        f"{numbers['single_campaign_s']:.3f}s "
        f"(ratio {numbers['ratio']:.2f}, budget {numbers['ratio_budget']:.1f}) "
        f"-> {'ok' if numbers['ratio_ok'] else 'OVER BUDGET'}; "
        f"second distance all hits: {numbers['second_distance_all_hits']}"
    )

    print("pooled campaign, row-major and cost schedules (mixed-cost full method)...")
    results["pool_campaign"] = bench_pool_campaign(machine, args.repeats)
    numbers = results["pool_campaign"]["mixed_full"]
    print(
        f"  row-major pool {numbers['fast_s']:.3f}s vs cost pool "
        f"{numbers['cost_pool_s']:.3f}s vs serial "
        f"{numbers['serial_s']:.3f}s ({numbers['cores']} core(s)); "
        f"tail {numbers['cost_tail_s']:.3f}s (cost) vs "
        f"{numbers['rowmajor_tail_s']:.3f}s (row-major); "
        f"samples identical: {numbers['samples_identical']}"
    )

    if args.campaign:
        print("cold serial 11x11 campaign (this takes a while on the fast path,")
        print(f"and took {PRE_PR_CAMPAIGN_SECONDS:.1f}s before the fast path)...")
        results["campaign"] = bench_campaign(machine)
        numbers = results["campaign"]
        print(
            f"  fast {numbers['fast_s']:.1f}s vs pre-PR "
            f"{numbers['pre_pr_reference_s']:.1f}s "
            f"({numbers['speedup_vs_pre_pr']:.1f}x); checksum match: "
            f"{numbers['checksum_matches_pre_pr']}"
        )
        observability = numbers["observability"]
        print(
            f"  with trace+metrics+progress: "
            f"{observability['instrumented_s']:.1f}s "
            f"({observability['overhead_fraction']:+.1%} overhead, "
            f"budget {OBSERVABILITY_OVERHEAD_BUDGET:.0%}) -> "
            f"{'ok' if observability['overhead_ok'] else 'OVER BUDGET'}; "
            f"samples identical: {observability['samples_identical']}"
        )

    output = pathlib.Path(args.output)
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if args.update_baseline:
        baseline = {
            stage: {
                pair: {"fast_s": numbers["fast_s"]}
                for pair, numbers in results[stage].items()
            }
            for stage in (
                "cold_cell", "priming", "full_cell", "study", "pool_campaign",
            )
        }
        DEFAULT_BASELINE.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {DEFAULT_BASELINE}")

    if args.check is not None:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        failed = False
        for stage in (
            "cold_cell", "priming", "full_cell", "study", "pool_campaign",
        ):
            for pair, numbers in baseline.get(stage, {}).items():
                allowed = numbers["fast_s"] * REGRESSION_FACTOR
                measured = results[stage][pair]["fast_s"]
                status = "ok" if measured <= allowed else "REGRESSION"
                print(
                    f"check {stage} {pair}: {measured:.3f}s vs baseline "
                    f"{numbers['fast_s']:.3f}s (allowed {allowed:.3f}s) -> {status}"
                )
                failed = failed or measured > allowed
        # Bit-identity is a hard gate: an exact array comparison, immune
        # to container noise (unlike the recorded speedups, which mean
        # nothing on a single-core host).
        identical = results["pool_campaign"]["mixed_full"]["samples_identical"]
        print(f"check pool_campaign samples_identical: {'ok' if identical else 'FAIL'}")
        failed = failed or not identical
        if failed:
            print("FAIL: fast-path latency regressed more than "
                  f"{REGRESSION_FACTOR}x over the baseline")
            return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timing repeats per benchmark (best-of; default 2)",
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="also run the cold serial 11x11 campaign end to end",
    )
    parser.add_argument(
        "--output", default=str(DEFAULT_OUTPUT),
        help=f"result file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check", metavar="BASELINE.JSON", default=None,
        help="fail (exit 1) if cold single-cell, priming, or full-cell "
        f"fast latency regresses >{REGRESSION_FACTOR}x vs the given baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=f"rewrite {DEFAULT_BASELINE.name} from this run's numbers",
    )
    return run(parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
