"""One BLAS thread per process: the pin at the top of ``repro/__init__.py``.

Every check runs in a fresh interpreter.  The pin only works when
``repro`` is imported before numpy, and by the time a test body runs
the test process has long since loaded numpy (and, through the test
suite's conftest, set the pin in its own environment).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

CAMPAIGN = [
    "-m", "repro.cli", "campaign", "--events", "ADD,LDM",
    "--repetitions", "2", "--no-cache", "--no-progress", "--format", "json",
]


def _python(*args: str, **environment: str) -> str:
    """Run ``python *args`` with no BLAS variable set except ``environment``."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in BLAS_VARIABLES
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    env.update(environment)
    result = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _environment_after(module: str, **environment: str) -> dict:
    """BLAS variables as a fresh process sees them after importing ``module``."""
    code = (
        f"import json, os, {module}; "
        f"print(json.dumps({{name: os.environ.get(name) for name in {BLAS_VARIABLES!r}}}))"
    )
    return json.loads(_python("-c", code, **environment))


class TestPin:
    @pytest.mark.skipif(
        not Path("/proc/self/task").is_dir(), reason="counts threads via Linux /proc"
    )
    def test_import_leaves_one_thread(self):
        code = "import os, repro.cli; print(len(os.listdir('/proc/self/task')))"
        assert _python("-c", code).strip() == "1"

    def test_unset_environment_is_pinned(self):
        assert _environment_after("repro") == {
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
        }

    def test_user_setting_is_kept(self):
        assert _environment_after("repro", OMP_NUM_THREADS="2") == {
            "OPENBLAS_NUM_THREADS": None,
            "MKL_NUM_THREADS": None,
            "OMP_NUM_THREADS": "2",
        }


@pytest.mark.slow
class TestCampaignsUnderThePin:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Serial campaigns at 1 and 2 BLAS threads, and a pinned pooled one."""
        directory = tmp_path_factory.mktemp("blas")
        runs = {}
        for name, workers, environment in (
            ("serial", "0", {"OPENBLAS_NUM_THREADS": "1"}),
            ("serial_2_threads", "0", {"OPENBLAS_NUM_THREADS": "2"}),
            ("pooled", "2", {}),
        ):
            paths = {
                "trace": directory / f"{name}.jsonl",
                "metrics": directory / f"{name}.prom",
                "matrix": directory / f"{name}.json",
            }
            paths["matrix"].write_text(
                _python(
                    *CAMPAIGN, "--workers", workers,
                    "--trace", str(paths["trace"]),
                    "--metrics-out", str(paths["metrics"]),
                    **environment,
                )
            )
            runs[name] = paths
        return runs

    def test_samples_identical_at_one_and_two_blas_threads(self, runs):
        one, two = (
            json.loads(runs[name]["matrix"].read_text())["samples_zj"]
            for name in ("serial", "serial_2_threads")
        )
        assert one == two

    @pytest.mark.parametrize("mode", ["serial", "pooled"])
    def test_cell_span_ends_carry_cpu_seconds(self, runs, mode):
        records = [
            json.loads(line)
            for line in runs[mode]["trace"].read_text().splitlines()
        ]
        fragments = [
            record["fragment"]
            for record in records
            if record["kind"] == "span_end" and record["name"] == "cell"
        ]
        assert len(fragments) == 4
        assert all(fragment["cpu_s"] >= 0 for fragment in fragments)

    @pytest.mark.parametrize("mode", ["serial", "pooled"])
    def test_obs_check_passes(self, runs, mode):
        paths = runs[mode]
        _python(
            "-m", "repro.obs.check", "--trace", str(paths["trace"]),
            "--metrics", str(paths["metrics"]), "--matrix", str(paths["matrix"]),
        )
        execution = json.loads(paths["matrix"].read_text())["metadata"]["execution"]
        assert execution["cell_cpu_seconds"] > 0
