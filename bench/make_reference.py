"""Regenerate the benchmark's fixture stack and reference CSVs.

    python3 bench/make_reference.py

Run from the root of a source checkout.  The fixture is the stack that
`homsensor calibrate` produces with its defaults; the grid and spectral
workloads load it instead of calibrating, so a change of calibration
policy does not change their inputs.  The references are each
subcommand's output on the reference grids (every default grid extended
by MAX_SHIFT steps), which hold the grid points of every seed.  Only
regenerate them when a change to the program's numbers is intended, and
say which cells moved.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import check
import workloads
from run import FIXTURE, ROOT, child_env


def homsensor(*args):
    subprocess.run([sys.executable, "-m", "homsensor", *args], cwd=ROOT,
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        homsensor("calibrate", "--out", os.path.join(tmp, "cal"))
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        shutil.copyfile(os.path.join(tmp, "cal", "calibrated_stack.json"),
                        FIXTURE)
        os.makedirs(check.REFERENCE_DIR, exist_ok=True)
        for command, cfg in workloads.reference_configs(FIXTURE):
            config = os.path.join(tmp, command + ".json")
            with open(config, "w", encoding="utf-8") as f:
                json.dump(cfg, f)
            out = os.path.join(tmp, command)
            homsensor(command, "--config", config, "--out", out)
            for name in workloads.expected_rows(command):
                shutil.copyfile(os.path.join(out, name),
                                os.path.join(check.REFERENCE_DIR, name))
                print("wrote", os.path.join(check.REFERENCE_DIR, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
