"""Tests for the pairwise SAVAT measurement pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.core.savat import (
    MeasurementConfig,
    _plan_pair,
    clear_cpi_cache,
    measure_savat,
    simulate_alternation_period,
)
from repro.errors import ConfigurationError
from repro.isa.events import get_event
from repro.machines.reference_data import CORE2DUO_10CM


class TestMeasurementConfig:
    def test_paper_defaults(self):
        config = MeasurementConfig()
        assert config.alternation_frequency_hz == pytest.approx(80e3)
        assert config.band_half_width_hz == pytest.approx(1e3)
        assert config.rbw_hz == pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(method="guesswork")

    def test_with_method(self):
        config = MeasurementConfig().with_method("full")
        assert config.method == "full"

    def test_synthesis_alias_normalizes_to_full(self):
        config = MeasurementConfig().with_method("synthesis")
        assert config.method == "full"

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(alternation_frequency_hz=0.0)

    def test_negative_duration_rejected_regardless_of_rbw(self):
        # Regression: the old check compared duration (s) against RBW
        # (Hz) and let a negative duration through whenever the RBW was
        # numerically smaller.
        with pytest.raises(ConfigurationError):
            MeasurementConfig(duration_s=-1.0, rbw_hz=-2.0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(duration_s=-1.0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(duration_s=0.0)

    def test_non_positive_rbw_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(rbw_hz=0.0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(rbw_hz=-1.0)


@pytest.mark.slow
class TestMeasureSavat:
    def test_deterministic_without_rng(self, core2duo_10cm):
        first = measure_savat(core2duo_10cm, "ADD", "MUL")
        second = measure_savat(core2duo_10cm, "ADD", "MUL")
        assert first.savat_zj == pytest.approx(second.savat_zj)

    def test_event_names_accepted(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "add", get_event("LDL1"))
        assert result.event_a == "ADD"
        assert result.event_b == "LDL1"

    def test_diagonal_reproduces_reference_floor(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "ADD", "ADD")
        assert result.savat_zj == pytest.approx(CORE2DUO_10CM.cell("ADD", "ADD"), rel=0.2)

    def test_high_savat_pair_tracks_reference(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "STL2", "DIV")
        assert result.savat_zj == pytest.approx(CORE2DUO_10CM.cell("STL2", "DIV"), rel=0.4)

    def test_achieved_frequency_near_target(self, core2duo_10cm):
        for pair in (("ADD", "SUB"), ("LDM", "STM"), ("STL2", "STM")):
            result = measure_savat(core2duo_10cm, *pair)
            assert result.achieved_frequency_hz == pytest.approx(80e3, rel=0.03)

    def test_rng_repetitions_vary_about_five_percent(self, core2duo_10cm, rng):
        config = MeasurementConfig()
        plan = _plan_pair(core2duo_10cm, get_event("ADD"), get_event("LDL2"), 80e3)
        trace, plan = simulate_alternation_period(core2duo_10cm, plan)
        samples = np.array(
            [
                measure_savat(
                    core2duo_10cm, "ADD", "LDL2", config, rng=rng, trace=trace, plan=plan
                ).savat_zj
                for _ in range(40)
            ]
        )
        ratio = samples.std() / samples.mean()
        assert 0.02 < ratio < 0.12  # the paper reports ~0.05

    def test_pairs_per_second_consistent(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "ADD", "MUL")
        expected = result.plan.spec.inst_loop_count * result.achieved_frequency_hz
        assert result.pairs_per_second == pytest.approx(expected)

    def test_str(self, core2duo_10cm):
        text = str(measure_savat(core2duo_10cm, "ADD", "MUL"))
        assert "SAVAT(ADD/MUL)" in text
        assert "zJ" in text


@pytest.mark.slow
class TestSynthesisMethod:
    def test_synthesis_agrees_with_analytic(self, core2duo_10cm):
        """The two measurement paths are independent implementations of
        the same physics; they must agree on a strong pair."""
        analytic = measure_savat(core2duo_10cm, "ADD", "LDL2")
        config = MeasurementConfig(method="synthesis", duration_s=0.25, rbw_hz=8.0)
        synthesis = measure_savat(core2duo_10cm, "ADD", "LDL2", config)
        assert synthesis.savat_zj == pytest.approx(analytic.savat_zj, rel=0.25)

    def test_synthesis_returns_spectrum(self, core2duo_10cm):
        config = MeasurementConfig(method="synthesis", duration_s=0.1, rbw_hz=20.0)
        result = measure_savat(core2duo_10cm, "ADD", "LDM", config)
        assert result.spectrum is not None
        peak = result.spectrum.peak_hz(75e3, 85e3)
        assert peak == pytest.approx(result.achieved_frequency_hz, rel=0.02)


@pytest.mark.slow
class TestSteadyStateEffects:
    def test_stl2_with_stm_partner_stays_on_frequency(self, core2duo_10cm):
        """Pair-context cache interference (the STM sweep evicting the
        STL2 array from L2) must be handled by the frequency re-tuning."""
        result = measure_savat(core2duo_10cm, "STL2", "STM")
        assert result.achieved_frequency_hz == pytest.approx(80e3, rel=0.03)

    def test_order_is_nearly_symmetric(self, core2duo_10cm):
        forward = measure_savat(core2duo_10cm, "ADD", "LDL2")
        backward = measure_savat(core2duo_10cm, "LDL2", "ADD")
        assert forward.savat_zj == pytest.approx(backward.savat_zj, rel=0.15)


class TestCpiCacheKey:
    def test_modified_spec_with_the_same_name_is_reprobed(self, core2duo_10cm):
        """The per-event CPI cache is keyed by the whole spec, not its name.

        A slower memory on a spec that keeps the catalog name must not
        reuse the stock machine's LDM timing (which would plan the pair
        at half the intended alternation frequency).
        """
        frequency = MeasurementConfig().alternation_frequency_hz
        ldm, add = get_event("LDM"), get_event("ADD")
        stock = _plan_pair(core2duo_10cm, ldm, add, frequency)
        spec = core2duo_10cm.spec
        slow_spec = dataclasses.replace(
            spec, latencies=dataclasses.replace(spec.latencies, memory_cycles=400)
        )
        assert slow_spec.name == spec.name
        slow = dataclasses.replace(core2duo_10cm, spec=slow_spec)
        after_stock = _plan_pair(slow, ldm, add, frequency)
        clear_cpi_cache()
        cold = _plan_pair(slow, ldm, add, frequency)
        assert after_stock.cycles_per_iteration_a == cold.cycles_per_iteration_a
        assert after_stock.spec.inst_loop_count == cold.spec.inst_loop_count
        assert cold.cycles_per_iteration_a > stock.cycles_per_iteration_a + 100
