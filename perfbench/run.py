"""Invocation-level benchmark of the ``savat`` CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9_cold --seed 1 --seconds 20 --trace 0

Each invocation of the workload's command line (see ``workloads.py``)
runs in a fresh process, timed from spawn until it exits with the
matrix written.  With ``--trace 0`` the run repeats invocations for
``--seconds`` seconds (at least ``MIN_INVOCATIONS``) and reports the
median end-to-end metrics; each invocation is one ``setup_s`` sample.
With ``--trace 1`` it runs one
plain ``python -m repro.cli`` invocation and one traced invocation of
the same arguments, and reports the per-layer metrics of the traced one
(``layers.py``).

Every invocation's output is checked: each matrix must have the
requested shape with finite, positive samples (a non-zero exit fails
all of its cells), and its samples digest must equal the first digest
recorded for the same (workload, seed) under the same source tree, or
the whole run fails.  The last line of standard output is the JSON
result; the lines before it are the human-readable report and the host
fingerprint.  Run state (digests, result history, pre-filled caches,
scratch directories) lives under ``.perfbench_state/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

STATE = Path(".perfbench_state")
MIN_INVOCATIONS = 2
#: Every run, set-up included, stops starting work past this many seconds.
RUN_BUDGET_S = 165.0
#: Grace period for processes left in an invocation's process group.
STRAGGLER_GRACE_S = 5.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pearson": "ratio",
    "spearman": "ratio",
    "mean_rel_err": "ratio",
}

PER_LAYER_UNITS = {
    "uarch.sim_cycles": "count",
    "uarch.sim_cycles_per_s": "1/s",
    "trace_cache.hit_ratio": "ratio",
    "executor.worker_util": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    #: Import plus calibration seconds (``None`` for plain invocations).
    setup_s: float | None
    #: The parsed matrices (``None`` when the output was unreadable).
    campaigns: list[dict] | None
    missing_layers: list[str]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _stop_group(pgid: int) -> None:
    """Wait for the rest of an invocation's process group; kill stragglers."""
    deadline = time.monotonic() + STRAGGLER_GRACE_S
    killed = False
    while True:
        _reap()
        if not _group_alive(pgid):
            return
        if time.monotonic() > deadline:
            if killed:
                return
            _kill_group(pgid)
            killed = True
            deadline = time.monotonic() + STRAGGLER_GRACE_S
        time.sleep(0.02)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tmp = (STATE / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(command: list[str], workdir: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run ``command``; return wall s, tree CPU s, tree peak RSS MB, exit code.

    ``os.wait4`` reports the resource usage of the child together with
    every descendant it waited for (the pool workers), so CPU time covers
    the whole tree and ``ru_maxrss`` is its largest process.
    """
    with open(workdir / "stdout.log", "w") as out, open(workdir / "stderr.log", "w") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=out, stderr=err, env=child_env(), start_new_session=True
        )
        watchdog = threading.Timer(
            max(deadline - time.perf_counter(), 1.0), _kill_group, (process.pid,)
        )
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            _kill_group(process.pid)
            os.waitpid(process.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(process.pid)
    return (
        wall_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        process.returncode,
    )


# ----------------------------------------------------------------------
# Outputs
# ----------------------------------------------------------------------
def read_campaigns(workload: Workload, path: Path) -> list[dict] | None:
    try:
        payload = json.loads(path.read_text())
        return payload["campaigns"] if workload.command == "study" else [payload]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_campaigns(workload: Workload, campaigns: list[dict] | None) -> tuple[int, str]:
    """Failed cells and the samples digest of one invocation's matrices.

    A missing or misshapen matrix fails all its cells; a cell fails when
    any repetition is non-finite or not positive.
    """
    count = len(workload.events)
    found = {}
    for campaign in campaigns or []:
        try:
            found[(campaign["machine"], round(float(campaign["distance_m"]), 4))] = campaign
        except (KeyError, TypeError, ValueError):
            continue
    failed = 0
    digest = hashlib.sha256()
    for machine, distance in workload.campaigns:
        campaign = found.get((machine, round(distance, 4)))
        try:
            samples = np.asarray(campaign["samples_zj"], dtype=np.float64)
            events = list(campaign["events"])
        except (KeyError, TypeError, ValueError):
            samples, events = None, []
        if (
            samples is None
            or samples.shape != (count, count, workload.repetitions)
            or sorted(events) != sorted(workload.events)
        ):
            failed += count * count
            digest.update(f"{machine}/{distance}/missing".encode())
            continue
        good = np.isfinite(samples).all(axis=2) & (samples > 0).all(axis=2)
        failed += int(count * count - good.sum())
        digest.update(f"{machine}/{distance}/{','.join(events)}".encode())
        digest.update(np.ascontiguousarray(samples).tobytes())
    return failed, digest.hexdigest()


def shape_agreement(campaigns: list[dict]) -> dict[str, float]:
    """Shape agreement with the published matrices, averaged over campaigns."""
    from repro.core.matrix import SavatMatrix
    from repro.isa.events import EVENT_ORDER
    from repro.machines.reference_data import get_reference

    rows = []
    for campaign in campaigns:
        matrix = SavatMatrix(
            campaign["events"],
            campaign["samples_zj"],
            campaign["machine"],
            float(campaign["distance_m"]),
        )
        reference = get_reference(matrix.machine, matrix.distance_m)
        index = [list(EVENT_ORDER).index(event) for event in matrix.events]
        rows.append(matrix.shape_agreement(reference.values_zj[np.ix_(index, index)]))
    return {
        "pearson": statistics.fmean(row["pearson"] for row in rows),
        "spearman": statistics.fmean(row["spearman"] for row in rows),
        "mean_rel_err": statistics.fmean(row["mean_relative_error"] for row in rows),
    }


def source_hash() -> str:
    """Content hash of the program's source tree."""
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class DigestBook:
    """First samples digest per (source tree, workload, seed)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.digests = json.loads(path.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def agrees(self, key: str, digest: str) -> bool:
        if key not in self.digests:
            self.digests[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        return self.digests[key] == digest


def host_fingerprint() -> dict:
    import scipy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, workload: Workload, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = STATE / "runs" / f"{workload.name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.source = source_hash()
        self.digests = DigestBook(STATE / "digests.json")
        self.attempted = 0
        self.failed = 0
        self.digest_mismatch = False
        self.count = 0
        self.warm_cache: Path | None = None

    def workdir(self) -> Path:
        self.count += 1
        path = self.dir / f"inv-{self.count}"
        path.mkdir()
        return path

    def account(self, invocation: Invocation) -> None:
        """Check one invocation's output and add it to the run's tally."""
        self.attempted += self.workload.cells
        if invocation.exit_code != 0 or invocation.campaigns is None:
            self.failed += self.workload.cells
            return
        failed, digest = check_campaigns(self.workload, invocation.campaigns)
        self.failed += failed
        key = f"{self.source}/{self.workload.name}/{self.seed}"
        if not self.digests.agrees(key, digest):
            self.digest_mismatch = True
            print(f"samples digest {digest[:16]} differs from the first run of {key}")

    def invoke(
        self,
        workdir: Path,
        argv: list[str],
        plain: bool = False,
        trace_dir: Path | None = None,
    ) -> Invocation:
        stdout = workdir / "matrix.json"
        if plain:
            command = [sys.executable, "-m", "repro.cli", *argv]
            # The CLI writes the matrix to its standard output.
            stdout = workdir / "stdout.log"
        else:
            spec = {
                "argv": argv,
                "calibrations": [list(pair) for pair in self.workload.campaigns],
                "stdout": str(stdout),
                "timings": str(workdir / "timings.json"),
                "trace": str(trace_dir) if trace_dir is not None else None,
            }
            (workdir / "spec.json").write_text(json.dumps(spec))
            command = [sys.executable, str(HERE / "child.py"), str(workdir / "spec.json")]
        wall_s, cpu_s, rss_mb, exit_code = spawn(command, workdir, self.deadline)
        if exit_code != 0:
            tail = (workdir / "stderr.log").read_text(errors="replace")[-2000:]
            print(f"invocation exited with {exit_code}:\n{tail}", file=sys.stderr)
        timings = {}
        if not plain and exit_code == 0:
            try:
                timings = json.loads((workdir / "timings.json").read_text())
            except (OSError, ValueError):
                exit_code = -1
        return Invocation(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=rss_mb,
            exit_code=exit_code,
            setup_s=(
                timings["import_s"] + sum(timings["calibrate_s"]) if timings else None
            ),
            campaigns=read_campaigns(self.workload, stdout),
            missing_layers=timings.get("missing_layers", []),
        )

    def argv(self, workdir: Path) -> list[str]:
        """The invocation's CLI arguments; a warm workload gets a fresh cache copy."""
        if self.warm_cache is not None:
            shutil.copytree(self.warm_cache, workdir / "cache")
        return self.workload.argv(self.seed, workdir)

    def prepare(self) -> None:
        """Fill the result cache of a warm workload (kept per seed and source)."""
        if not self.workload.warm:
            return
        filled = STATE / "warm" / self.source / f"{self.workload.name}-{self.seed}"
        if not filled.is_dir():
            staging = filled.with_name(filled.name + ".staging")
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir(parents=True)
            # The fill skips the kernel-trace cache: its traces would
            # never be read again, and samples are identical either way.
            argv = self.workload.argv(self.seed, staging) + ["--no-trace-cache"]
            fill = self.invoke(staging, argv, plain=True)
            self.account(fill)
            print(f"set-up: filled the result cache in {fill.wall_s:.3f} s")
            if fill.exit_code != 0:
                return
            shutil.rmtree(staging / "obs", ignore_errors=True)
            os.replace(staging, filled)
        self.warm_cache = filled / "cache"

    def affordable(self, estimate_s: float) -> bool:
        return time.perf_counter() + estimate_s < self.deadline

    def measure(self, seconds: float) -> dict[str, float]:
        """Invocations that fit in ``seconds`` (at least ``MIN_INVOCATIONS``); medians."""
        invocations: list[Invocation] = []
        started = time.perf_counter()
        while True:
            expected = max((inv.wall_s for inv in invocations), default=0.0)
            if invocations and not self.affordable(expected):
                break
            elapsed = time.perf_counter() - started
            if len(invocations) >= MIN_INVOCATIONS and elapsed + expected > seconds:
                break
            workdir = self.workdir()
            invocation = self.invoke(workdir, self.argv(workdir))
            shutil.rmtree(workdir)
            self.account(invocation)
            invocations.append(invocation)
            print(
                f"invocation {len(invocations)}: wall {invocation.wall_s:.3f} s, "
                f"setup {invocation.setup_s or 0.0:.3f} s, cpu {invocation.cpu_s:.3f} s, "
                f"peak rss {invocation.peak_rss_mb:.1f} MB, exit {invocation.exit_code}"
            )
        setups = [inv.setup_s for inv in invocations if inv.setup_s is not None]
        good = [inv.campaigns for inv in invocations if inv.exit_code == 0 and inv.campaigns]
        agreement = shape_agreement(good[0]) if good and not self.failed else {}
        metrics = {
            "wall_s": statistics.median(inv.wall_s for inv in invocations),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "cpu_s": statistics.median(inv.cpu_s for inv in invocations),
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in invocations),
            "pearson": agreement.get("pearson", 0.0),
            "spearman": agreement.get("spearman", 0.0),
            "mean_rel_err": agreement.get("mean_rel_err", 0.0),
        }
        for name, value in metrics.items():
            print(f"{name:>14} {value:14.6f} {END_TO_END_UNITS[name]}")
        print(
            f"{len(invocations)} invocation(s); "
            f"failed_frac {self.failed / max(self.attempted, 1):.4f} "
            f"({self.failed} of {self.attempted} cells)"
        )
        return metrics

    def trace(self) -> tuple[dict[str, float], list[str]]:
        """One plain and one traced invocation; the traced one's per-layer metrics."""
        workdir = self.workdir()
        plain = self.invoke(workdir, self.argv(workdir), plain=True)
        shutil.rmtree(workdir)
        self.account(plain)
        workdir = self.workdir()
        trace_dir = workdir / "spans"
        traced = self.invoke(workdir, self.argv(workdir), trace_dir=trace_dir)
        self.account(traced)
        print(
            f"plain invocation {plain.wall_s:.3f} s, traced invocation {traced.wall_s:.3f} s"
        )
        problems = [f"layer {layer} has no target to wrap" for layer in traced.missing_layers]
        if traced.exit_code != 0 or not traced.campaigns:
            return {name: 0.0 for name in layers.METRICS}, problems + ["traced run failed"]

        from repro.obs.check import parse_prometheus

        executions = [campaign["metadata"]["execution"] for campaign in traced.campaigns]
        prometheus = []
        for path in self.workload.metrics_files(workdir):
            try:
                prometheus.append(parse_prometheus(path.read_text())[0])
            except OSError:
                problems.append(f"metrics export {path.name} missing")
        breakdown = layers.Breakdown(layers.load_processes(trace_dir))
        workers = max(int(execution["workers"]) for execution in executions)
        metrics = breakdown.metrics(traced.wall_s, plain.wall_s, workers)
        problems += layers.cross_check(
            breakdown,
            executions,
            prometheus,
            self.workload.exercises,
            self.workload.bypasses,
            self.workload.cells,
        )
        for line in breakdown.table(traced.wall_s, metrics):
            print(line)
        for name in layers.METRICS:
            print(f"{name:>30} {metrics[name]:16.6f} {per_layer_unit(name)}")
        for problem in problems:
            print(f"cross-check: {problem}")
        return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the invocation it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not Path("src/repro/cli.py").is_file():
        print(
            "perfbench: src/repro/cli.py not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    deadline = time.perf_counter() + RUN_BUDGET_S
    become_subreaper()

    workload = WORKLOADS[args.workload]
    fingerprint = host_fingerprint()
    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    run = Run(workload, args.seed, deadline)
    problems: list[str] = []
    try:
        run.prepare()
        if args.trace:
            values, problems = run.trace()
            units = {name: per_layer_unit(name) for name in values}
        else:
            values = run.measure(args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    failed = run.attempted if run.digest_mismatch else run.failed
    result = {
        "correct": failed == 0 and not problems and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in values.items()
        },
    }
    with open(STATE / "results.jsonl", "a") as history:
        history.write(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "source": run.source,
                    "host": fingerprint,
                    "problems": problems,
                    **result,
                }
            )
            + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
