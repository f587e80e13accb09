"""Span recording around the program's public functions.

The benchmark never edits ``src/``: it wraps each layer's public entry
point from the outside, after ``import repro.cli``, and rebinds every
module-level alias of it (``from x import f`` copies) so a rebinding
import cannot hide a layer.  Spans stay in memory, one list per
process.  Pool workers are forked from the traced process, so they
inherit the wrappers; each worker starts an empty span list after the
fork and writes it out when the worker exits.  The parent merges the
per-process files after the run (see ``layers.py``).

A span record is ``[layer, start, end, parent, cpu_s, extra]``:
``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC,
so comparable across processes), ``parent`` indexes the enclosing span
of the same process (-1 at top level), ``cpu_s`` is the span's
``time.process_time()`` (only for layers that ask for it), and
``extra`` carries a layer's outcome: simulated cycles for ``Core.run``,
the serving tier for a trace-cache lookup, hit or miss for a
result-cache read.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

#: (layer, module, attribute path) of every wrapped function.  The
#: layer name is the prefix of the per-layer metrics it feeds.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("machines.calibrate", "repro.machines.calibrated", "load_calibrated_machine"),
    ("machines.refine", "repro.machines.calibration", "refine_coupling_weights"),
    ("codegen.cpi_probe", "repro.codegen.frequency", "measure_cycles_per_iteration"),
    ("savat.prime", "repro.core.savat", "prime_alternation_steady_state"),
    ("uarch.core_run", "repro.uarch.core", "Core.run"),
    ("uarch.replay_stream", "repro.uarch.cache", "replay_stream"),
    ("uarch.finish", "repro.uarch.activity", "ActivityRecorder.finish"),
    ("trace_cache.produce", "repro.core.trace_cache", "produce_cell_trace"),
    ("trace_cache.load", "repro.core.trace_cache", "TraceCache.load"),
    ("em.envelope", "repro.em.synthesis", "period_envelope"),
    ("em.synthesize", "repro.em.synthesis", "synthesize_measurement"),
    (
        "instruments.measure_band",
        "repro.instruments.spectrum_analyzer",
        "SpectrumAnalyzer.measure_band",
    ),
    ("savat.measure_samples", "repro.core.savat", "measure_savat_samples"),
    ("executor.cell", "repro.core.executor", "simulate_cell"),
    ("executor.campaign", "repro.core.executor", "execute_campaign"),
    # ``concurrent.futures.wait`` as the executor binds it: the time the
    # parent blocks on pool results.
    ("executor.wait", "repro.core.executor", "wait"),
    ("executor.result_cache_load", "repro.core.executor", "ResultCache.load_cell"),
    ("executor.result_cache_store", "repro.core.executor", "ResultCache.store_cell"),
    ("executor.journal_append", "repro.core.executor", "CampaignJournal.append_cell"),
    ("executor.retry", "repro.core.executor", "CampaignStats.record_retry"),
    ("executor.timeout", "repro.core.executor", "CampaignStats.record_timeout"),
    ("study.run", "repro.core.study", "run_study"),
)

#: Layers whose spans also record the process CPU time they used.
CPU_LAYERS = frozenset({"executor.cell"})

_TIERS = ("memory_hits", "shm_hits", "disk_hits", "misses")


def _core_run_extra(args, result):
    return int(result.cycles)


def _load_cell_extra(args, result):
    return "hit" if result is not None else "miss"


#: Layer -> ``extra(args, result)`` recorded on the span.
EXTRAS = {
    "uarch.core_run": _core_run_extra,
    "executor.result_cache_load": _load_cell_extra,
}


class Tracer:
    """Per-process span store that survives forks into pool workers."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _after_fork(self) -> None:
        # The child inherits the parent's open spans; it owns none of them.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def open(self, layer: str, cpu: bool = False) -> list:
        record = [
            layer,
            time.perf_counter(),
            0.0,
            self.stack[-1] if self.stack else -1,
            time.process_time() if cpu else None,
            None,
        ]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def add(self, layer: str, start: float, end: float) -> None:
        """Record a span timed by the caller at the current nesting level."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, start, end, parent, None, None])

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        if record[4] is not None:
            record[4] = time.process_time() - record[4]
        self.stack.pop()

    def span(self, layer: str, fn):
        """``fn`` wrapped in a ``layer`` span."""
        tracer = self
        cpu = layer in CPU_LAYERS
        extra = EXTRAS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.open(layer, cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if extra is not None:
                record[5] = extra(args, result)
            return result

        return wrapper

    def trace_cache_span(self, fn):
        """``TraceCache.load`` wrapped so its span names the serving tier."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            before = [getattr(cache, name) for name in _TIERS]
            record = tracer.open("trace_cache.load")
            try:
                result = fn(cache, *args, **kwargs)
            finally:
                tracer.close(record)
            changed = [
                name
                for name, old in zip(_TIERS, before)
                if getattr(cache, name) != old
            ]
            record[5] = changed[0] if len(changed) == 1 else "unknown"
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer; return the layers whose target is missing."""
        missing = []
        for layer, module_name, path in LAYERS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(layer)
                continue
            if layer == "trace_cache.load":
                wrapped = self.trace_cache_span(original)
            else:
                wrapped = self.span(layer, original)
            setattr(owner, attr, wrapped)
            if not owner_name:
                _rebind_aliases(original, wrapped)
        return missing

    def flush(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        payload = {
            "pid": self.pid,
            "main": self.pid == self.main_pid,
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


def _rebind_aliases(original, wrapped) -> None:
    """Point every ``repro.*`` module-level alias of ``original`` at ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapped
