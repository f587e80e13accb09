"""The checked-in refined coupling weights (``repro.machines.weights_table``).

A stored entry must be bit-equal to what ``_solve_refinement`` computes
from the same inputs today, so serving it can never move a sample.  The
table is only valid for the numpy and scipy releases it was fitted under
(they are part of every key); under other releases every lookup misses,
and the checks that need a hit are skipped.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import campaign_cache_key
from repro.core.savat import MeasurementConfig
from repro.machines.calibrated import reference_for
from repro.machines.calibration import (
    REFINE_RESTARTS,
    REFINE_SEED,
    _solve_refinement,
    calibrate,
    initial_fit,
    refine_coupling_weights,
)
from repro.machines.catalog import get_machine
from repro.machines.weights_table import (
    TABLE_PATH,
    TARGETS,
    environment_versions,
    format_entry,
    parse_table,
    refinement_key,
    stored_refined_weights,
)

SRC = Path(__file__).resolve().parents[2] / "src"

fitted_here = pytest.mark.skipif(
    f"# {environment_versions()}\n" not in TABLE_PATH.read_text(),
    reason=f"refined_weights.txt was fitted under other releases than "
    f"{environment_versions()}",
)


def _inputs(machine: str, distance_m: float) -> tuple[np.ndarray, ...]:
    fit = initial_fit(get_machine(machine), reference_for(machine, distance_m))
    return fit.refinement_inputs()


def _stored(inputs) -> np.ndarray | None:
    return stored_refined_weights(*inputs, REFINE_RESTARTS, REFINE_SEED)


def _python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _assert_bit_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestFormat:
    def test_hex_round_trip_is_exact(self):
        weights = np.random.default_rng(7).normal(0.0, 1e-14, (3, 13))
        line = format_entry("x@0.10", "k" * 64, weights)
        _assert_bit_equal(parse_table(f"# comment\n{line}\n")["k" * 64], weights)

    def test_one_entry_per_published_target(self):
        text = TABLE_PATH.read_text()
        labels = [line.split()[0] for line in text.splitlines() if not line.startswith("#")]
        assert labels == [f"{machine}@{distance:.2f}" for machine, distance in TARGETS]
        assert len(parse_table(text)) == len(TARGETS)

    def test_key_covers_every_input(self):
        inputs = [np.arange(4.0).reshape(2, 2) + index for index in range(5)]
        base = refinement_key(*inputs, 3, 1)
        for index in range(5):
            changed = list(inputs)
            changed[index] = changed[index].copy()
            changed[index][0, 0] = np.nextafter(changed[index][0, 0], np.inf)
            assert refinement_key(*changed, 3, 1) != base
        reshaped = list(inputs)
        reshaped[0] = inputs[0].reshape(4)
        assert refinement_key(*reshaped, 3, 1) != base
        assert refinement_key(*inputs, 2, 1) != base
        assert refinement_key(*inputs, 3, 2) != base


@fitted_here
class TestStoredEntriesAreCurrent:
    def test_core2duo_10cm_entry_matches_a_fresh_fit(self):
        inputs = _inputs("core2duo", 0.10)
        stored = _stored(inputs)
        assert stored is not None, "core2duo@0.10 misses the table: regenerate it"
        _assert_bit_equal(stored, _solve_refinement(*inputs))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "machine,distance_m", TARGETS, ids=[f"{m}@{d:.2f}" for m, d in TARGETS]
    )
    def test_every_entry_matches_a_fresh_fit(self, machine, distance_m):
        inputs = _inputs(machine, distance_m)
        stored = _stored(inputs)
        assert stored is not None, f"{machine}@{distance_m:.2f} misses the table"
        _assert_bit_equal(stored, _solve_refinement(*inputs))

    def test_hit_returns_a_private_copy(self):
        inputs = _inputs("core2duo", 0.10)
        first = refine_coupling_weights(*inputs)
        first[:] = 0.0
        assert np.any(refine_coupling_weights(*inputs) != 0.0)

    def test_published_calibration_reports_table(self, core2duo_10cm):
        assert core2duo_10cm.calibration.weights_source == "table"
        assert "[weights: table]" in core2duo_10cm.describe()

    def test_calibration_loads_no_scipy(self):
        code = (
            "import json, sys, repro.cli; "
            "from repro.machines.calibrated import load_calibrated_machine; "
            "machine = load_calibrated_machine('core2duo', 0.10); "
            "print(json.dumps([machine.calibration.weights_source, "
            "sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')]))"
        )
        source, scipy_modules = json.loads(_python("-c", code))
        assert source == "table"
        assert scipy_modules == []

    def test_groups_command_clusters_with_lazy_scipy(self):
        """``savat groups`` imports scipy's clustering only when it runs."""
        code = """
import sys
import repro.cli
import repro.core.campaign
from repro.core.matrix import SavatMatrix
from repro.isa.events import EVENT_ORDER
from repro.machines.reference_data import CORE2DUO_10CM

assert "scipy.cluster" not in sys.modules
repro.core.campaign.run_campaign = lambda machine, **kwargs: SavatMatrix(
    EVENT_ORDER, CORE2DUO_10CM.values_zj, "core2duo", 0.10
)
assert repro.cli.main(["groups"]) == 0
assert "scipy.cluster" in sys.modules
"""
        output = _python("-c", code)
        groups = {line.strip() for line in output.splitlines() if line.startswith("  {")}
        assert groups == {
            "{ADD, LDL1, MUL, NOI, STL1, SUB}",
            "{LDL2, STL2}",
            "{LDM, STM}",
            "{DIV}",
        }
        assert "representatives: ADD, LDL2, LDM, DIV" in output


def test_perturbed_reference_is_computed():
    """A reference off by 1% in one cell misses and is fitted from scratch."""
    published = reference_for("core2duo", 0.10)
    values = published.values_zj.copy()
    values[0, 1] *= 1.01
    perturbed = dataclasses.replace(published, values_zj=values)
    spec = get_machine("core2duo")

    inputs = initial_fit(spec, perturbed).refinement_inputs()
    assert _stored(inputs) is None
    result = calibrate(spec, perturbed)
    assert result.weights_source == "computed"
    _assert_bit_equal(result.coupling.weights, _solve_refinement(*inputs))


def test_weights_source_stays_out_of_cache_keys(core2duo_10cm):
    """Warm caches hit identically whichever path produced the weights."""
    relabelled = dataclasses.replace(
        core2duo_10cm,
        calibration=dataclasses.replace(
            core2duo_10cm.calibration, weights_source="computed"
        ),
    )
    args = (MeasurementConfig(), ("ADD", "SUB"), 2, 0)
    assert campaign_cache_key(relabelled, *args) == campaign_cache_key(
        core2duo_10cm, *args
    )
