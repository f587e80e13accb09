"""Resume suite for the campaign journal.

A campaign interrupted after K cells and resumed must recompute zero
journaled cells (verified by spying on ``simulate_cell``) and still
produce a matrix bit-identical to an uninterrupted run.  A journal
written by a different executor version, or for a different campaign —
including the same campaign under a different noise environment — is
rejected instead of replayed.
"""

import dataclasses
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import executor
from repro.core.campaign import run_campaign
from repro.core.faults import FaultPlan
from repro.core.savat import MeasurementConfig
from repro.em.environment import NoiseEnvironment
from repro.errors import CellExecutionError, ConfigurationError, JournalError

FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB", "MUL")
SEED = 7
REPETITIONS = 2
TOTAL = len(EVENTS) ** 2


def _run(machine, **overrides):
    parameters = dict(
        events=EVENTS,
        repetitions=REPETITIONS,
        seed=SEED,
        config=FAST_CONFIG,
    )
    parameters.update(overrides)
    return run_campaign(machine, **parameters)


def _execution(matrix):
    return matrix.metadata["execution"]


@pytest.fixture(scope="module")
def journaled_run(core2duo_10cm, tmp_path_factory):
    """One complete journaled campaign: the matrix and its journal lines.

    The journal's cell lines are in row-major completion order, so
    "interrupted after K cells" is simply the header plus the first K
    cell lines.
    """
    path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
    matrix = _run(core2duo_10cm, journal=path)
    return matrix, path.read_text().splitlines()


def _interrupted_journal(lines, completed_cells):
    """Write a journal that stops after ``completed_cells`` cells."""
    directory = Path(tempfile.mkdtemp(prefix="savat-resume-"))
    path = directory / "journal.jsonl"
    path.write_text("\n".join(lines[: 1 + completed_cells]) + "\n")
    return path


class _SimulateSpy:
    """Counts executor.simulate_cell calls while delegating to the real one."""

    def __init__(self):
        self.calls = 0
        self._real = executor.simulate_cell

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._real(*args, **kwargs)


@pytest.mark.slow
class TestResume:
    @settings(max_examples=6, deadline=None)
    @given(completed=st.integers(min_value=0, max_value=TOTAL))
    def test_resume_recomputes_only_unjournaled_cells(
        self, core2duo_10cm, journaled_run, completed
    ):
        full, lines = journaled_run
        path = _interrupted_journal(lines, completed)
        spy = _SimulateSpy()
        with mock.patch.object(executor, "simulate_cell", spy):
            resumed = _run(core2duo_10cm, journal=path, resume=True)
        execution = _execution(resumed)
        assert spy.calls == TOTAL - completed
        assert execution["resumed"] == completed
        assert execution["cells_simulated"] == TOTAL - completed
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_fully_journaled_campaign_resumes_with_zero_simulation(
        self, core2duo_10cm, journaled_run
    ):
        full, lines = journaled_run
        path = _interrupted_journal(lines, TOTAL)
        spy = _SimulateSpy()
        with mock.patch.object(executor, "simulate_cell", spy):
            resumed = _run(core2duo_10cm, journal=path, resume=True)
        assert spy.calls == 0
        assert _execution(resumed)["resumed"] == TOTAL
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_resume_accepts_journal_path_shorthand(
        self, core2duo_10cm, journaled_run
    ):
        full, lines = journaled_run
        path = _interrupted_journal(lines, 4)
        resumed = _run(core2duo_10cm, resume=path)
        assert _execution(resumed)["resumed"] == 4
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_resume_with_missing_journal_starts_fresh(
        self, core2duo_10cm, journaled_run, tmp_path
    ):
        full, _lines = journaled_run
        path = tmp_path / "never-written.jsonl"
        resumed = _run(core2duo_10cm, journal=path, resume=True)
        assert _execution(resumed)["resumed"] == 0
        assert np.array_equal(resumed.samples_zj, full.samples_zj)
        assert path.exists()  # the fresh run journaled itself

    def test_torn_trailing_line_is_tolerated(self, core2duo_10cm, journaled_run):
        full, lines = journaled_run
        path = _interrupted_journal(lines, 5)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines[6][: len(lines[6]) // 2])  # killed mid-write
        resumed = _run(core2duo_10cm, journal=path, resume=True)
        execution = _execution(resumed)
        assert execution["resumed"] == 5
        assert execution["cells_simulated"] == TOTAL - 5
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_fatal_fault_then_resume_completes_the_campaign(
        self, core2duo_10cm, journaled_run, tmp_path
    ):
        full, _lines = journaled_run
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan.from_spec("raise@2,2x9")
        with pytest.raises(CellExecutionError):
            _run(core2duo_10cm, journal=path, max_retries=0, fault_plan=plan)
        spy = _SimulateSpy()
        with mock.patch.object(executor, "simulate_cell", spy):
            resumed = _run(core2duo_10cm, journal=path, resume=True)
        # Row-major order: every cell before (2, 2) was journaled, so
        # the resume recomputes exactly the one that failed.
        assert spy.calls == 1
        assert _execution(resumed)["resumed"] == TOTAL - 1
        assert np.array_equal(resumed.samples_zj, full.samples_zj)

    def test_cache_hits_are_journaled_for_cacheless_resume(
        self, core2duo_10cm, journaled_run, tmp_path
    ):
        full, _lines = journaled_run
        _run(core2duo_10cm, cache_dir=tmp_path / "cache")  # warm the cache
        path = tmp_path / "journal.jsonl"
        warm = _run(
            core2duo_10cm, cache_dir=tmp_path / "cache", journal=path
        )
        assert _execution(warm)["cache_hits"] == TOTAL
        # The journal alone (no cache) must now reproduce the campaign.
        resumed = _run(core2duo_10cm, journal=path, resume=True)
        assert _execution(resumed)["resumed"] == TOTAL
        assert np.array_equal(resumed.samples_zj, full.samples_zj)


@pytest.mark.slow
class TestJournalRejection:
    def test_version_mismatch_is_rejected(self, core2duo_10cm, journaled_run):
        _full, lines = journaled_run
        path = _interrupted_journal(lines, 3)
        header = json.loads(lines[0])
        header["journal_version"] = executor.JOURNAL_VERSION + 1
        rewritten = [json.dumps(header)] + lines[1:4]
        path.write_text("\n".join(rewritten) + "\n")
        with pytest.raises(JournalError, match="version"):
            _run(core2duo_10cm, journal=path, resume=True)

    def test_other_campaign_key_is_rejected(self, core2duo_10cm, journaled_run):
        _full, lines = journaled_run
        path = _interrupted_journal(lines, 3)
        with pytest.raises(JournalError, match="different campaign"):
            _run(core2duo_10cm, journal=path, resume=True, seed=SEED + 1)

    def test_other_environment_is_rejected(self, core2duo_10cm, journaled_run):
        # Same machine name, distance, and seed, but a 10^6x louder
        # instrument floor: its samples differ, so the quiet journal
        # must not be resumed.
        _full, lines = journaled_run
        path = _interrupted_journal(lines, 3)
        floor = core2duo_10cm.environment.instrument_floor_w_per_hz * 1e6
        loud = dataclasses.replace(
            core2duo_10cm,
            environment=NoiseEnvironment(instrument_floor_w_per_hz=floor),
        )
        with pytest.raises(JournalError, match="different campaign"):
            _run(loud, journal=path, resume=True)

    def test_garbage_header_is_rejected(self, core2duo_10cm, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("this is not a journal\n")
        with pytest.raises(JournalError):
            _run(core2duo_10cm, journal=path, resume=True)

    def test_missing_header_line_is_rejected(self, core2duo_10cm, journaled_run):
        _full, lines = journaled_run
        path = _interrupted_journal(lines, 3)
        path.write_text("\n".join(lines[1:4]) + "\n")  # drop the header
        with pytest.raises(JournalError):
            _run(core2duo_10cm, journal=path, resume=True)

    def test_fresh_run_overwrites_foreign_journal(
        self, core2duo_10cm, journaled_run, tmp_path
    ):
        # Without resume=True a stale journal is truncated, not rejected:
        # the caller asked for a fresh campaign.
        full, _lines = journaled_run
        path = tmp_path / "journal.jsonl"
        path.write_text("garbage that would never parse\n")
        matrix = _run(core2duo_10cm, journal=path)
        assert np.array_equal(matrix.samples_zj, full.samples_zj)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["journal_version"] == executor.JOURNAL_VERSION

    def test_journal_true_requires_a_cache(self, core2duo_10cm):
        with pytest.raises(ConfigurationError, match="cache"):
            _run(core2duo_10cm, journal=True)

    def test_journal_true_lives_in_the_cache_campaign_dir(
        self, core2duo_10cm, tmp_path
    ):
        _run(core2duo_10cm, cache_dir=tmp_path, journal=True)
        journals = list(tmp_path.glob("*/journal.jsonl"))
        assert len(journals) == 1


@pytest.mark.slow
class TestResumeMetadata:
    def test_resumed_cells_keep_their_original_timings(
        self, core2duo_10cm, journaled_run
    ):
        full, lines = journaled_run
        path = _interrupted_journal(lines, TOTAL)
        resumed = _run(core2duo_10cm, journal=path, resume=True)
        assert (
            _execution(resumed)["cell_seconds"]
            == _execution(full)["cell_seconds"]
        )

    def test_journal_samples_round_trip_exactly(self, journaled_run):
        full, lines = journaled_run
        for line in lines[1:]:
            record = json.loads(line)
            restored = np.asarray(record["samples_zj"], dtype=np.float64)
            assert np.array_equal(
                restored, full.samples_zj[record["i"], record["j"]]
            )
