"""Unit tests for the per-cell CPU checks of ``repro.obs.check``."""

import json

from repro.core.executor import CampaignStats
from repro.obs.check import (
    CELL_CPU_RATIO_LIMIT,
    check_against_execution,
    check_cell_cpu,
    main,
    parse_prometheus,
)


def _stats(cell_seconds: float, cpu_seconds: float) -> CampaignStats:
    stats = CampaignStats()
    stats.record_cell("ADD", "LDM", cell_seconds)
    stats.record_cell_cpu(cpu_seconds)
    return stats


class TestCellCpu:
    def test_counter_matches_metadata(self):
        stats = _stats(0.5, 0.25)
        samples, errors = parse_prometheus(stats.registry.to_prometheus())
        assert errors == []
        execution = stats.as_metadata()
        assert execution["cell_cpu_seconds"] == 0.25
        assert check_against_execution(samples, execution) == []

    def test_counter_mismatch_is_reported(self):
        stats = _stats(0.5, 0.25)
        samples, _ = parse_prometheus(stats.registry.to_prometheus())
        execution = dict(stats.as_metadata(), cell_cpu_seconds=0.3)
        errors = check_against_execution(samples, execution)
        assert len(errors) == 1
        assert errors[0].startswith("cell_cpu_seconds:")

    def test_ratio_at_the_limit_passes(self):
        execution = _stats(2.0, 2.0 * CELL_CPU_RATIO_LIMIT).as_metadata()
        assert check_cell_cpu(execution) == []

    def test_ratio_over_the_limit_fails(self):
        execution = _stats(2.0, 3.6).as_metadata()
        (error,) = check_cell_cpu(execution)
        assert "BLAS" in error

    def test_main_fails_an_over_limit_campaign(self, tmp_path, capsys):
        stats = _stats(2.0, 3.6)
        metrics = tmp_path / "run.prom"
        metrics.write_text(stats.registry.to_prometheus())
        matrix = tmp_path / "campaign.json"
        matrix.write_text(json.dumps({"metadata": {"execution": stats.as_metadata()}}))
        assert main(["--metrics", str(metrics), "--matrix", str(matrix)]) == 1
        assert "cpu: cell_cpu_seconds" in capsys.readouterr().err

    def test_campaign_without_simulated_cells_passes(self):
        assert check_cell_cpu(CampaignStats().as_metadata()) == []
