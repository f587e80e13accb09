"""One workload invocation in a fresh process.

Run by ``run.py`` from the checkout root as::

    python3 perfbench/child.py SPEC.json

The spec names the CLI ``argv``, the (machine, distance) pairs the
workload calibrates, the file that receives the CLI's standard output,
and the file this script writes its timings to.  With ``"trace"`` set
to a directory, every layer in ``tracer.LAYERS`` is wrapped before
calibration and each process's spans land in that directory.

The script times ``import repro.cli`` and one
``load_calibrated_machine`` call per pair; the loader memoizes
in-process, so the CLI then reuses these calibrations.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path("src").resolve()))

    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started

    tracer = None
    missing: list[str] = []
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(spec["trace"])
        tracer.add("cli.import", started, started + import_s)
        missing = tracer.install()

    from repro.machines import calibrated

    calibrate_s = []
    for machine, distance in spec["calibrations"]:
        begun = time.perf_counter()
        calibrated.load_calibrated_machine(machine, distance)
        calibrate_s.append(time.perf_counter() - begun)

    with open(spec["stdout"], "w") as handle, contextlib.redirect_stdout(handle):
        exit_code = repro.cli.main(spec["argv"])

    if tracer is not None:
        tracer.flush()
    Path(spec["timings"]).write_text(
        json.dumps(
            {
                "import_s": import_s,
                "calibrate_s": calibrate_s,
                "exit_code": exit_code,
                "missing_layers": missing,
            }
        )
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
