"""The benchmark's workloads: real ``savat`` invocations.

Each workload is one CLI command line, run in a fresh process from the
checkout root.  ``exercises`` lists the traced layers (``tracer.LAYERS``
names) the workload must reach and ``bypasses`` the layers it must not;
the traced run fails when either no longer holds, so a refactor that
moves work between layers shows up instead of silently changing what a
workload measures.

Sizes are scaled to the benchmark's time budget (every run ends within
three minutes, most within one): ``distance_full`` measures five of the
seven mixed-cost events at one repetition, which keeps its character
(full-method synthesis and analysis dominate; the second distance is
served by the trace cache) at about a third of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ALL_EVENTS = (
    "LDM", "STM", "LDL2", "STL2", "LDL1", "STL1", "NOI", "ADD", "SUB", "MUL", "DIV",
)

#: Layers every workload reaches: calibration profiles each event with
#: CPI probes that run the core, and every cell passes the result cache
#: and the journal.
_SETUP_LAYERS = frozenset(
    {
        "machines.calibrate",
        "machines.refine",
        "codegen.cpi_probe",
        "uarch.core_run",
        "uarch.replay_stream",
        "uarch.finish",
        "executor.campaign",
        "executor.result_cache_load",
        "executor.journal_append",
    }
)

#: Layers that only run when a cell is simulated.
_CELL_LAYERS = frozenset(
    {
        "savat.prime",
        "trace_cache.produce",
        "trace_cache.load",
        "savat.measure_samples",
        "executor.cell",
        "executor.result_cache_store",
    }
)

#: Layers of the full measurement method only.
_FULL_LAYERS = frozenset(
    {"em.envelope", "em.synthesize", "instruments.measure_band"}
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "campaign" or "study"
    machines: tuple[str, ...]
    distances: tuple[float, ...]
    events: tuple[str, ...]
    method: str
    repetitions: int
    workers: int
    #: Whether set-up fills the result cache, so the timed run only reads.
    warm: bool
    exercises: frozenset[str]
    bypasses: frozenset[str]

    @property
    def campaigns(self) -> list[tuple[str, float]]:
        """(machine, distance) per campaign, in the CLI's order."""
        return [(m, d) for m in self.machines for d in self.distances]

    @property
    def cells(self) -> int:
        return len(self.campaigns) * len(self.events) ** 2

    def argv(self, seed: int, workdir: Path) -> list[str]:
        """The ``savat`` arguments of one invocation writing under ``workdir``."""
        args = [
            "--method", self.method,
            "--repetitions", str(self.repetitions),
            "--seed", str(seed),
            "--workers", str(self.workers),
            "--format", "json",
            "--cache-dir", str(workdir / "cache"),
        ]
        if self.events != ALL_EVENTS:
            args += ["--events", ",".join(self.events)]
        if self.command == "campaign":
            (machine,), (distance,) = self.machines, self.distances
            return [
                "campaign", "--machine", machine, "--distance", str(distance),
                *args,
                "--journal", str(workdir / "journal.jsonl"),
                "--metrics-out", str(workdir / "metrics.prom"),
                "--no-progress",
            ]
        return [
            "study",
            "--machines", ",".join(self.machines),
            "--distances", ",".join(str(d) for d in self.distances),
            *args,
            "--output-dir", str(workdir / "obs"),
        ]

    def metrics_files(self, workdir: Path) -> list[Path]:
        """The Prometheus export of each campaign, in campaign order."""
        if self.command == "campaign":
            return [workdir / "metrics.prom"]
        return [
            workdir / "obs" / f"{machine}_{round(distance * 100)}cm.prom"
            for machine, distance in self.campaigns
        ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig9_cold",
            why=(
                "The paper's headline 11x11 Core 2 Duo matrix, cold and serial: "
                "exercises prime, core_run, result-cache and journal writes; "
                "bypasses the pool, em synthesis and cache hits."
            ),
            command="campaign",
            machines=("core2duo",),
            distances=(0.10,),
            events=ALL_EVENTS,
            method="analytic",
            repetitions=3,
            workers=0,
            warm=False,
            exercises=_SETUP_LAYERS | _CELL_LAYERS,
            bypasses=_FULL_LAYERS | {"executor.wait", "study.run"},
        ),
        Workload(
            name="distance_full",
            why=(
                "Full-method study at 10 and 50 cm on 2 workers: exercises em "
                "synthesis, the analyzer, the pool and trace-cache hits; the "
                "second distance bypasses prime and core_run."
            ),
            command="study",
            machines=("core2duo",),
            distances=(0.10, 0.50),
            events=("LDM", "LDL2", "LDL1", "ADD", "DIV"),
            method="full",
            repetitions=1,
            workers=2,
            warm=False,
            exercises=_SETUP_LAYERS
            | _CELL_LAYERS
            | _FULL_LAYERS
            | {"executor.wait", "study.run"},
            bypasses=frozenset(),
        ),
        Workload(
            name="paper_warm",
            why=(
                "Three-machine 11x11 study read from a result cache filled in "
                "set-up: exercises import, three calibrations and cache reads; "
                "bypasses every simulation layer."
            ),
            command="study",
            machines=("core2duo", "pentium3m", "turionx2"),
            distances=(0.10,),
            events=ALL_EVENTS,
            method="analytic",
            repetitions=3,
            workers=2,
            warm=True,
            exercises=_SETUP_LAYERS | {"study.run"},
            bypasses=_CELL_LAYERS | _FULL_LAYERS,
        ),
    )
}
