"""Regression tests: parallel execution is bit-identical to serial.

The executor's contract is that the per-cell seed schedule — not the
execution order — determines every noise draw, so fanning a campaign
out across worker processes must reproduce the serial samples bit for
bit, under any cell schedule and under injected faults, and the same
seed must always yield the same matrix.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import run_campaign
from repro.core.executor import (
    WorkerPool,
    _order_by_cost,
    _PendingCell,
    _validate_schedule,
    _validate_workers,
    cell_seed,
    execute_campaign,
    spawn_cell_seeds,
)
from repro.core.faults import FaultPlan
from repro.core.savat import MeasurementConfig, _plan_pair, estimate_cell_cost
from repro.core.study import run_study
from repro.errors import ConfigurationError
from repro.isa.events import get_event

#: A fast config for executor tests: a 10x higher alternation frequency
#: shrinks the simulated period 10x without changing the code paths.
FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)

EVENTS = ("ADD", "SUB", "MUL", "NOI")

#: The two-event campaign of the validation, scheduling, and property
#: tests below.
PAIR_EVENTS = ("ADD", "SUB")
PAIR_SEED = 3
PAIR_REPETITIONS = 2


def _run_pair(machine, **overrides):
    parameters = dict(
        events=PAIR_EVENTS,
        repetitions=PAIR_REPETITIONS,
        seed=PAIR_SEED,
        config=FAST_CONFIG,
    )
    parameters.update(overrides)
    return run_campaign(machine, **parameters)


def _sleep(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


class TestSeedSchedule:
    def test_schedule_is_deterministic(self):
        first = spawn_cell_seeds(7, 4)
        second = spawn_cell_seeds(7, 4)
        assert len(first) == 16
        for a, b in zip(first, second):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key

    def test_cells_draw_distinct_streams(self):
        seeds = spawn_cell_seeds(0, 3)
        draws = {
            float(np.random.default_rng(seq).normal()) for seq in seeds
        }
        assert len(draws) == 9

    def test_cell_seed_matches_schedule_entry(self):
        seeds = spawn_cell_seeds(42, 4)
        entry = cell_seed(42, 4, 2, 3)
        assert entry.spawn_key == seeds[2 * 4 + 3].spawn_key

    def test_cell_seed_rejects_out_of_range_cells(self):
        with pytest.raises(ConfigurationError):
            cell_seed(0, 3, 3, 0)
        with pytest.raises(ConfigurationError):
            cell_seed(0, 3, 0, -1)


@pytest.mark.slow
class TestParallelMatchesSerial:
    @pytest.fixture(scope="class")
    def serial(self, core2duo_10cm):
        return run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=5,
            config=FAST_CONFIG,
        )

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_is_bit_identical(self, core2duo_10cm, serial, workers):
        parallel = run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=5,
            config=FAST_CONFIG,
            workers=workers,
        )
        assert np.array_equal(parallel.samples_zj, serial.samples_zj)
        assert parallel.events == serial.events

    def test_same_seed_reproduces_exactly(self, core2duo_10cm, serial):
        again = run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=5,
            config=FAST_CONFIG,
        )
        assert np.array_equal(again.samples_zj, serial.samples_zj)

    def test_different_seed_differs(self, core2duo_10cm, serial):
        other = run_campaign(
            core2duo_10cm,
            events=EVENTS,
            repetitions=2,
            seed=6,
            config=FAST_CONFIG,
        )
        assert not np.array_equal(other.samples_zj, serial.samples_zj)

    def test_execution_metadata_recorded(self, core2duo_10cm):
        matrix = run_campaign(
            core2duo_10cm,
            events=("ADD", "SUB"),
            repetitions=1,
            seed=5,
            config=FAST_CONFIG,
            workers=2,
        )
        execution = matrix.metadata["execution"]
        assert execution["workers"] == 2
        assert execution["cells_simulated"] == 4
        assert execution["cache_hits"] == 0
        assert execution["cache_misses"] == 0
        assert set(execution["cell_seconds"]) == {
            "ADD/ADD", "ADD/SUB", "SUB/ADD", "SUB/SUB"
        }
        assert all(t >= 0 for t in execution["cell_seconds"].values())
        assert execution["wall_seconds"] > 0

    def test_parallel_progress_reports_every_cell(self, core2duo_10cm):
        calls = []
        run_campaign(
            core2duo_10cm,
            events=("ADD", "SUB"),
            repetitions=1,
            seed=5,
            config=FAST_CONFIG,
            workers=2,
            progress=lambda a, b, done, total: calls.append((a, b, done, total)),
        )
        assert len(calls) == 4
        assert [call[2] for call in calls] == [1, 2, 3, 4]
        assert {call[:2] for call in calls} == {
            ("ADD", "ADD"), ("ADD", "SUB"), ("SUB", "ADD"), ("SUB", "SUB")
        }


class TestExecuteCampaignValidation:
    def test_rejects_empty_event_list(self, core2duo_10cm):
        with pytest.raises(ConfigurationError):
            execute_campaign(core2duo_10cm, [], repetitions=1)

    def test_rejects_zero_repetitions(self, core2duo_10cm):
        with pytest.raises(ConfigurationError):
            execute_campaign(core2duo_10cm, [get_event("ADD")], repetitions=0)


# ----------------------------------------------------------------------
# Workers and schedule validation (the old failure was a pool traceback)
# ----------------------------------------------------------------------
class TestWorkersValidation:
    @pytest.mark.parametrize("workers", [-1, -7, 2.5, "3", True, None])
    def test_bad_values_are_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            _validate_workers(workers)

    @pytest.mark.parametrize("workers", [0, 1, 4, np.int64(2)])
    def test_good_values_normalize(self, workers):
        value = _validate_workers(workers)
        assert isinstance(value, int)
        assert value == int(workers)

    def test_run_campaign_rejects_bad_workers(self, core2duo_10cm):
        with pytest.raises(ConfigurationError, match="workers"):
            _run_pair(core2duo_10cm, workers=-1)

    def test_run_study_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_study(["core2duo"], [0.10], workers=-2)

    @pytest.mark.parametrize("value", ["-1", "2.5", "lots"])
    def test_cli_rejects_bad_workers_at_parse_time(self, value, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--workers", value]
            )
        assert "workers" in capsys.readouterr().err

    def test_worker_pool_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError, match="workers"):
            WorkerPool(-1)


class TestScheduleValidation:
    def test_unknown_schedule_is_rejected(self):
        with pytest.raises(ConfigurationError, match="schedule"):
            _validate_schedule("random")

    def test_known_schedules_pass(self):
        assert _validate_schedule("rowmajor") == "rowmajor"
        assert _validate_schedule("cost") == "cost"

    def test_run_campaign_rejects_bad_schedule(self, core2duo_10cm):
        with pytest.raises(ConfigurationError, match="schedule"):
            _run_pair(core2duo_10cm, schedule="bogus")


# ----------------------------------------------------------------------
# Cost model and scheduling order
# ----------------------------------------------------------------------
class TestCostModel:
    @pytest.fixture(scope="class")
    def plans(self, core2duo_10cm):
        def plan(a, b):
            return _plan_pair(
                core2duo_10cm,
                get_event(a),
                get_event(b),
                FAST_CONFIG.alternation_frequency_hz,
            )

        return plan

    def test_memory_pairs_cost_more_than_alu_pairs(self, plans):
        alu = estimate_cell_cost(plans("ADD", "SUB"), 10, "analytic")
        memory = estimate_cell_cost(plans("LDM", "STM"), 10, "analytic")
        assert memory > alu

    def test_full_method_costs_more_than_analytic(self, plans):
        plan = plans("ADD", "SUB")
        assert estimate_cell_cost(plan, 10, "full") > estimate_cell_cost(
            plan, 10, "analytic"
        )

    def test_cost_grows_with_repetitions(self, plans):
        plan = plans("ADD", "SUB")
        assert estimate_cell_cost(plan, 10, "full") > estimate_cell_cost(
            plan, 2, "full"
        )

    def _pending(self, plans, names):
        cells = []
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                cells.append(
                    _PendingCell(
                        i=i,
                        j=j,
                        event_a=get_event(a),
                        event_b=get_event(b),
                        seed_sequence=np.random.SeedSequence(0),
                        plan=plans(a, b),
                    )
                )
        return cells

    def test_prior_puts_memory_rows_first(self, plans):
        names = ("ADD", "LDM")
        pending = self._pending(plans, names)
        ordered = _order_by_cost(pending, names, PAIR_REPETITIONS, "analytic", {})
        # The LDM/LDM cell has the largest priming footprint.
        assert ordered[0].index == (1, 1)
        # Pure-ALU ADD/ADD drains last.
        assert ordered[-1].index == (0, 0)

    def test_recorded_history_overrides_the_prior(self, plans):
        names = ("ADD", "LDM")
        pending = self._pending(plans, names)
        history = {
            "ADD/ADD": 100.0,
            "ADD/LDM": 1.0,
            "LDM/ADD": 1.0,
            "LDM/LDM": 1.0,
        }
        ordered = _order_by_cost(
            pending, names, PAIR_REPETITIONS, "analytic", history
        )
        assert ordered[0].index == (0, 0)

    def test_equal_costs_keep_row_major_order(self, plans):
        names = ("ADD", "LDM")
        pending = self._pending(plans, names)
        history = {f"{a}/{b}": 1.0 for a in names for b in names}
        ordered = _order_by_cost(
            pending, names, PAIR_REPETITIONS, "analytic", history
        )
        assert [cell.index for cell in ordered] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]


# ----------------------------------------------------------------------
# WorkerPool.drain (shutdown ordering for shared state)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestWorkerPoolDrain:
    def test_drain_with_no_outstanding_tasks(self):
        with WorkerPool(2) as pool:
            assert pool.drain() is True

    def test_drain_waits_for_outstanding_tasks(self):
        with WorkerPool(2) as pool:
            future = pool.submit(_sleep, 0.5)
            assert pool.drain(timeout=0.05) is False
            assert pool.drain() is True
            assert future.done()


# ----------------------------------------------------------------------
# Bit-identity: worker count and scheduling never change samples
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.timeout(600)
class TestBitIdentityProperty:
    @pytest.fixture(scope="class")
    def reference(self, core2duo_10cm):
        """The serial, row-major run everything must match."""
        return _run_pair(core2duo_10cm)

    @settings(max_examples=4, deadline=None)
    @given(
        schedule=st.sampled_from(("rowmajor", "cost")),
        workers=st.sampled_from((0, 2)),
    )
    def test_samples_are_invariant(
        self, core2duo_10cm, reference, schedule, workers
    ):
        matrix = _run_pair(core2duo_10cm, workers=workers, schedule=schedule)
        assert np.array_equal(matrix.samples_zj, reference.samples_zj)

    def test_combined_fault_plan_with_cost_schedule(
        self, core2duo_10cm, reference, tmp_path
    ):
        plan = FaultPlan.from_spec("raise@0,0;hang@0,1:1.5;corrupt@1,0")
        matrix = _run_pair(
            core2duo_10cm,
            cache_dir=tmp_path,
            workers=2,
            cell_timeout_s=0.4,
            max_retries=2,
            fault_plan=plan,
            schedule="cost",
        )
        execution = matrix.metadata["execution"]
        assert np.array_equal(matrix.samples_zj, reference.samples_zj)
        assert execution["faults_injected"] == {
            "raise": 1, "hang": 1, "corrupt": 1,
        }
