"""savat-repro: a reproduction of "A Practical Methodology for Measuring
the Side-Channel Signal Available to the Attacker for Instruction-Level
Events" (Callan, Zajic, Prvulovic - MICRO 2014).

The paper's measurements require EM capture hardware; this library
replaces the physical bench with a simulated one - a cycle-level
microarchitectural activity simulator, an EM emanation model calibrated
against the paper's published matrices, and spectrum-analyzer /
oscilloscope instrument models - while implementing the SAVAT metric and
the alternation measurement methodology exactly as published.

Quick start::

    from repro import load_calibrated_machine, measure_savat

    machine = load_calibrated_machine("core2duo", distance_m=0.10)
    result = measure_savat(machine, "ADD", "LDM")
    print(result)   # SAVAT(ADD/LDM) = ... zJ on core2duo at 10 cm

See ``examples/`` for campaigns, distance studies, clustering, and the
RSA key-extraction demo, and ``benchmarks/`` for the per-figure
regeneration harness.

Importing ``repro`` pins BLAS to one thread per process: every cell is
single-threaded work, and a threaded OpenBLAS wakes a helper thread for
each small dgemm that then busy-waits on a second core.  The pin sets
``OPENBLAS_NUM_THREADS=1`` and ``MKL_NUM_THREADS=1`` unless the user
already set one of those or ``OMP_NUM_THREADS``, and it only takes
effect when ``repro`` is imported before numpy.  Worker processes
inherit it through the environment.
"""

import os as _os

#: Standard BLAS thread-count variables; a user value for any one wins.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

if not any(_os.environ.get(name) for name in _BLAS_THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["MKL_NUM_THREADS"] = "1"

from repro.core.campaign import run_campaign, selected_pairings_means
from repro.core.clustering import find_groups
from repro.core.study import StudyResult, run_study
from repro.core.matrix import SavatMatrix
from repro.core.savat import MeasurementConfig, SavatResult, measure_savat
from repro.core.single_instruction import (
    most_leaky_instructions,
    single_instruction_savat,
)
from repro.errors import (
    AssemblyError,
    CalibrationError,
    ConfigurationError,
    MeasurementError,
    ReproError,
    SimulationError,
)
from repro.isa.events import EVENT_ORDER, PAPER_EVENTS, get_event
from repro.machines.calibrated import CalibratedMachine, load_calibrated_machine
from repro.machines.catalog import MACHINE_NAMES, get_machine
from repro.machines.reference_data import get_reference

__version__ = "1.0.0"

__all__ = [
    "AssemblyError",
    "CalibratedMachine",
    "CalibrationError",
    "ConfigurationError",
    "EVENT_ORDER",
    "MACHINE_NAMES",
    "MeasurementConfig",
    "MeasurementError",
    "PAPER_EVENTS",
    "ReproError",
    "SavatMatrix",
    "SavatResult",
    "SimulationError",
    "StudyResult",
    "__version__",
    "find_groups",
    "get_event",
    "get_machine",
    "get_reference",
    "load_calibrated_machine",
    "measure_savat",
    "most_leaky_instructions",
    "run_campaign",
    "run_study",
    "selected_pairings_means",
    "single_instruction_savat",
]
