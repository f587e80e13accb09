"""Tests for the campaign runner (small event subsets for speed)."""

import numpy as np
import pytest

from repro.core.campaign import run_campaign, selected_pairings_means
from repro.core.matrix import SavatMatrix
from repro.core.savat import MeasurementConfig


@pytest.mark.slow
class TestRunCampaign:
    @pytest.fixture(scope="class")
    def small_campaign(self, core2duo_10cm):
        return run_campaign(
            core2duo_10cm,
            events=("ADD", "MUL", "LDL2"),
            repetitions=3,
            seed=11,
        )

    def test_shape(self, small_campaign):
        assert small_campaign.samples_zj.shape == (3, 3, 3)

    def test_events_preserved(self, small_campaign):
        assert small_campaign.events == ("ADD", "MUL", "LDL2")

    def test_metadata_recorded(self, small_campaign):
        assert small_campaign.metadata["repetitions"] == 3
        assert small_campaign.metadata["alternation_frequency_hz"] == pytest.approx(80e3)

    def test_calibration_source_recorded(self, core2duo_10cm, small_campaign):
        assert small_campaign.metadata["calibration"] == {
            "weights_source": core2duo_10cm.calibration.weights_source,
            "stress": core2duo_10cm.calibration.stress,
        }

    def test_all_cells_positive(self, small_campaign):
        assert np.all(small_campaign.samples_zj > 0)

    def test_diagonal_below_offdiagonal_for_strong_pairs(self, small_campaign):
        assert small_campaign.cell("ADD", "LDL2") > small_campaign.cell("ADD", "ADD")

    def test_seeded_campaigns_reproducible(self, core2duo_10cm, small_campaign):
        again = run_campaign(
            core2duo_10cm,
            events=("ADD", "MUL", "LDL2"),
            repetitions=3,
            seed=11,
        )
        assert np.allclose(again.samples_zj, small_campaign.samples_zj)

    def test_progress_callback_counts_cells(self, core2duo_10cm):
        calls = []
        run_campaign(
            core2duo_10cm,
            events=("ADD", "SUB"),
            repetitions=1,
            progress=lambda a, b, done, total: calls.append((a, b, done, total)),
        )
        assert len(calls) == 4
        assert calls[-1][2:] == (4, 4)


class TestSelectedPairings:
    def test_rows_formatted(self):
        matrix = SavatMatrix(
            ("ADD", "LDM"), np.array([[0.6, 4.2], [4.1, 1.8]]), "m", 0.1
        )
        rows = selected_pairings_means(matrix, [("ADD", "LDM"), ("ADD", "ADD")])
        assert rows[0] == ("ADD/LDM", pytest.approx(4.2))
        assert rows[1][0] == "ADD/ADD"
