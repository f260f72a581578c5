"""Run a workload's CLI invocations inside one interpreter.

    python3 bench/inprocess.py PLAN.json RESULT.json

PLAN.json holds {"argv": [[subcommand, ...], ...], "traced": bool}.
Each argv list goes through homsensor.cli.main, exactly as the
`homsensor` entry point would pass it.  RESULT.json receives the import
time of homsensor, the wall time of the invocations, their exit codes
and, when traced, the per-layer summary and the number of warnings the
run raised.  The import is timed here because this process starts
fresh; the timed runs in run.py pay it once per invocation.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import warnings


def _homsensor_modules() -> dict:
    """Every loaded homsensor module by short name ("tmm", "cli", ...)."""
    return {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name == "homsensor" or name.startswith("homsensor.")}


def main(plan_path, result_path) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)

    start = time.perf_counter()
    import homsensor.cli
    import_s = time.perf_counter() - start

    tracer = None
    if plan["traced"]:
        # imported after the timed import: it loads numpy
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer, _homsensor_modules())

    codes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for argv in plan["argv"]:
            try:
                codes.append(homsensor.cli.main(argv))
            except Exception:  # record the failure, keep running the rest
                traceback.print_exc()
                codes.append(-1)
        wall_s = time.perf_counter() - start

    result = {"import_s": import_s, "wall_s": wall_s, "codes": codes,
              "warnings": len(caught)}
    if tracer is not None:
        result["layers"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
