"""Print the median wall time of fresh-interpreter CLI runs as one JSON object.

Times ``python -m tricomi_lab.cli`` from spawn to exit, 5 runs each after one
untimed run, for README.md's first example of each flag subcommand
(exponents, check-geometry, symbols) and for the benchmark's ``march``,
``picard`` and ``strichartz`` configs at seed 1 (``solve-semilinear`` twice,
``verify-strichartz``), written into a temporary directory.  The untimed run
writes the bytecode caches under ``-X pycache_prefix`` in that directory, not
in the checkout, and ``PYTHONDONTWRITEBYTECODE`` is dropped from the children's
environment, so the timed runs import from the caches rather than compile.
The values are raw seconds, not scaled by a calibration; each child runs with
one BLAS/OpenMP thread, as the benchmark does:

    python3 tools/cli_wall.py > after.json   # likewise in the other checkout
"""

import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
env |= {"PYTHONPATH": str(ROOT / "src"),
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
readme = (ROOT / "README.md").read_text()
commands = {}
for sub in ("exponents", "check-geometry", "symbols"):
    line = re.search(rf"^tricomi-lab ({sub} .*)$", readme, re.M).group(1)
    commands[line] = shlex.split(line)


def median_wall(argv: list[str], tmp: str) -> float:
    cmd = [sys.executable, "-X", f"pycache_prefix={tmp}/pycache", "-m", "tricomi_lab.cli", *argv]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)  # writes the bytecode caches
    walls = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return round(statistics.median(walls), 4)


with tempfile.TemporaryDirectory() as tmp:
    walls = {line: median_wall(argv, tmp) for line, argv in commands.items()}
    for name in ("march", "picard", "strichartz"):
        (cfg,) = WORKLOADS[name](np.random.default_rng(1))
        config = Path(tmp) / f"{name}.json"
        config.write_text(json.dumps({**cfg, "output_dir": str(Path(tmp) / name)}))
        walls[f"{cfg['scenario']} {name} seed 1"] = median_wall([cfg["scenario"], "--config", str(config)], tmp)
print(json.dumps(walls, indent=1))
