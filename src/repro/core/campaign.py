"""Campaign runner: the full N-by-N, 10-repetition measurement of §IV.

One campaign measures every ordered (A, B) pairing of a chosen event set
with a fixed machine, distance, and alternation frequency, repeating
each measurement ``repetitions`` times.  As in the paper — where the ten
repetitions happened "over a period of multiple days to assess how the
measurement is affected by changes in radio signal interference, room
temperature, errors in positioning the antenna, etc." — the variation
between repetitions comes from the environment and the alternation
loop, not the code under test, so the deterministic kernel simulation is
shared across repetitions and only the noise is re-drawn.

Cell execution is delegated to :mod:`repro.core.executor`, which fans
the independent cells out across worker processes and caches finished
cells on disk, while a per-cell seed schedule keeps parallel, serial,
and cached runs bit-identical.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.core.executor import (
    DEFAULT_MAX_RETRIES,
    ProgressCallback,
    ResultCache,
    WorkerPool,
    execute_campaign,
)
from repro.core.faults import FaultPlan
from repro.core.trace_cache import TraceCache
from repro.core.matrix import SavatMatrix
from repro.core.savat import MeasurementConfig
from repro.isa.events import EVENT_ORDER, InstructionEvent, get_event
from repro.machines.calibrated import CalibratedMachine
from repro.obs import CampaignObservability

#: Repetitions used in the paper's campaigns.
PAPER_REPETITIONS = 10


def run_campaign(
    machine: CalibratedMachine,
    config: MeasurementConfig | None = None,
    events: Sequence[InstructionEvent | str] | None = None,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = 0,
    progress: ProgressCallback | None = None,
    workers: int = 0,
    cache_dir: str | os.PathLike | None = None,
    cache: ResultCache | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    cell_timeout_s: float | None = None,
    journal: str | os.PathLike | bool | None = None,
    resume: bool | str | os.PathLike = False,
    fault_plan: FaultPlan | None = None,
    observability: CampaignObservability | None = None,
    trace_cache: TraceCache | bool | None = None,
    pool: WorkerPool | None = None,
    schedule: str = "rowmajor",
) -> SavatMatrix:
    """Measure the full pairwise SAVAT matrix.

    Execution routes through :mod:`repro.core.executor`: cells carry a
    deterministic per-cell seed schedule, so serial and parallel runs
    of the same campaign produce bit-identical samples, and an optional
    on-disk cache lets repeated campaigns skip simulation entirely.

    **Timeout semantics** are identical in serial and pool modes: with
    ``cell_timeout_s`` set, an attempt that overruns the budget counts
    one timeout, its result is discarded, and the cell is retried from
    its original seed-schedule entry (one retry per overrun) until the
    ``max_retries`` budget is exhausted, at which point the campaign
    fails.  The only difference is *when* the overrun is detected:
    worker processes are preempted mid-attempt, while a serial
    in-process attempt cannot be interrupted and is judged after it
    returns.  A cell that overruns and then succeeds therefore produces
    the same ``timeouts``/``retries`` counters, the same journal
    contents, and bit-identical samples in both modes.

    Parameters
    ----------
    machine:
        Calibrated machine (fixes the distance too).
    config:
        Measurement configuration; the paper's defaults if omitted.
    events:
        Event subset (defaults to all eleven, in paper order).
    repetitions:
        Measurements per cell (paper: 10).
    seed:
        Seed for the campaign's noise randomness, expanded into the
        per-cell schedule by
        :func:`repro.core.executor.spawn_cell_seeds`.
    progress:
        Optional callback ``(event_a, event_b, done, total)`` invoked
        after each cell completes.
    workers:
        Worker processes to fan cells out across (``0`` or ``1``:
        serial, same results bit for bit).
    cache_dir:
        Directory for the on-disk result cache (``None``: no caching).
    cache:
        A pre-built :class:`~repro.core.executor.ResultCache`;
        takes precedence over ``cache_dir``.
    max_retries:
        Transient-fault retry budget per cell; a retried cell replays
        its original seed-schedule entry, so retries never change the
        campaign's samples.
    cell_timeout_s:
        Wall-clock budget per cell attempt (preemptive when worker
        processes are in use; see
        :func:`repro.core.executor.execute_campaign`).
    journal:
        Campaign journal path (or ``True`` to keep it inside the
        cache's campaign directory): completed cells are streamed to it
        so an interrupted campaign can be resumed.
    resume:
        ``True`` to restore completed cells from ``journal``, or a
        journal path (shorthand for setting ``journal`` and resuming).
        A journal whose version or campaign key does not match raises
        :class:`~repro.errors.JournalError`.
    fault_plan:
        Deterministic :class:`~repro.core.faults.FaultPlan` to inject
        (testing/debugging only).
    observability:
        Optional :class:`~repro.obs.CampaignObservability` bundle: a
        JSONL run trace, a live progress line, and a Prometheus metrics
        export, all fed by the same registry that generates the
        matrix's ``metadata["execution"]`` entry.
    trace_cache:
        Kernel-trace cache serving the prime/core_run trace-production
        stage (``None``: the process-wide cache configured by
        ``SAVAT_TRACE_CACHE[_DIR]``; ``False``: disabled).  Samples are
        bit-identical with the cache on or off.
    pool:
        Persistent :class:`~repro.core.executor.WorkerPool` to run the
        campaign over (a study shares one pool across its campaigns so
        worker trace LRUs stay warm); overrides ``workers``.
    schedule:
        Cell submission order for pooled runs: ``"rowmajor"`` (default)
        or ``"cost"``, which submits the most expensive cells first
        using recorded per-cell timings (falling back to a static
        cost prior).  Scheduling never changes samples — each cell owns
        a fixed seed-schedule entry.

    Returns
    -------
    SavatMatrix
        All repetitions of all ordered pairings, in zJ.  The matrix
        metadata carries an ``"execution"`` entry with cache hit/miss
        counters, worker count, per-cell timings, and the
        fault-tolerance counters (retries, timeouts, quarantined and
        resumed cells).
    """
    config = config or MeasurementConfig()
    if events is None:
        resolved = [get_event(name) for name in EVENT_ORDER]
    else:
        resolved = [get_event(e) if isinstance(e, str) else e for e in events]
    names = tuple(event.name for event in resolved)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if isinstance(resume, (str, os.PathLike)):
        journal, resume = resume, True

    samples, stats = execute_campaign(
        machine,
        resolved,
        config=config,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        cache=cache,
        progress=progress,
        max_retries=max_retries,
        cell_timeout_s=cell_timeout_s,
        journal=journal,
        resume=bool(resume),
        fault_plan=fault_plan,
        observability=observability,
        trace_cache=trace_cache,
        pool=pool,
        schedule=schedule,
    )

    return SavatMatrix(
        events=names,
        samples_zj=samples,
        machine=machine.name,
        distance_m=machine.distance_m,
        metadata={
            "alternation_frequency_hz": config.alternation_frequency_hz,
            "band_half_width_hz": config.band_half_width_hz,
            "method": config.method,
            "repetitions": repetitions,
            "seed": seed,
            "execution": stats.as_metadata(),
        },
    )


def selected_pairings_means(
    matrix: SavatMatrix, pairings: Sequence[tuple[str, str]]
) -> list[tuple[str, float]]:
    """Mean SAVAT for a list of (A, B) pairings, as chart-ready rows.

    Used for the paper's bar charts (Figures 11/13/15/16).
    """
    rows: list[tuple[str, float]] = []
    for event_a, event_b in pairings:
        rows.append((f"{event_a}/{event_b}", matrix.cell(event_a, event_b)))
    return rows
