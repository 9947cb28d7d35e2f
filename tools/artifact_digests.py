"""Print the manifest ``outputs`` checksums of the benchmark configs and README's example config.

Runs every ``perfbench.workloads.WORKLOADS`` config at seeds 1 and 5, the
first JSON config in README.md, three small configs that reach the other
callers of the semilinear march (a ``sweep-p`` with one global and one blowup
row, an inhomogeneous ``verify-strichartz``, and a ``solve-semilinear`` march
with a given ``t_start`` that writes its field), a ``solve-semilinear`` Picard run that
converges at its 7th iterate (three blocks of iterates: the first with a row whose source is
zero, the later ones without), and a small homogeneous
``verify-strichartz`` whose last snapshot's cone r <= phi(t_max) + M - 1 ends
within 4 h of the grid's wall (at node 508 of 512), an m=3 ``check-geometry`` with a
given ``nu`` and ``delta``, two ``check-geometry`` runs at ``nu = 0`` (m=1 and m=2, where
every angle of the shifted-cone fan gives the same ratio), a 256-point m=1 ``symbols``
dump (exponent 2/3 in ``phi_inverse``) and a 512-point m=4 dump out to w = 1e4 (mostly
the Kummer asymptotic branch; exponents 1/3 in ``phi_inverse`` and -1/3 in the
envelope), and a ``solve-linear`` at N = 4096 that writes its field (every
transform there takes the split DST-I above ``grids.SPLIT_ABOVE_N``, outputs
past N/2 included), through ``parse_config`` ->
``run_scenario`` in temporary directories, and prints one sorted JSON object.
Every march horizon is n steps of exactly horizon / n.  Two checkouts whose
outputs are byte-identical print the same text:

    python3 tools/artifact_digests.py > after.json   # likewise in the other checkout
    cmp before.json after.json

With ``--keep DIR`` each config's run directory (its artifacts and manifest)
is kept as ``DIR/<name>/`` instead of a temporary directory, so that
``tools/artifact_drift.py`` can show by how much the numbers of two
checkouts differ where their checksums do:

    python3 tools/artifact_digests.py --keep after > after.json
    python3 tools/artifact_drift.py before after
"""

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from tricomi_lab.cli import run_scenario  # noqa: E402
from tricomi_lab.config import parse_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

configs = {f"{name}/seed{seed}/{i}": cfg for name, make in WORKLOADS.items() for seed in (1, 5)
           for i, cfg in enumerate(make(np.random.default_rng(seed)))}
readme = (ROOT / "README.md").read_text()
configs["README"] = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
configs["sweep-p"] = {
    "scenario": "sweep-p", "model": {"m": 1, "n": 3, "eps": 1.0, "M": 2.0},
    "grid": {"r_max": 16.0, "N": 256, "transform": "fft"},
    "sweep": {"p_grid": [1.5, 4.0], "horizon": 1.0, "dt": 0.01, "data": {"profile": "bump", "amplitude": 40.0}},
}
configs["inhomogeneous"] = {
    "scenario": "verify-strichartz", "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
    "grid": {"r_max": 64.0, "N": 512, "transform": "fft"},
    "strichartz": {"kind": "inhomogeneous", "t_max": 10.0, "dt": 0.05},
}
configs["homogeneous"] = {
    "scenario": "verify-strichartz", "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
    "grid": {"r_max": 22.25, "N": 512, "transform": "fft"},
    "strichartz": {"kind": "homogeneous", "t_max": 10.0},
}
configs["t_start"] = {
    "scenario": "solve-semilinear", "model": {"m": 1, "n": 3, "p": 2.5, "eps": 1.0, "M": 2.0},
    "grid": {"r_max": 16.0, "N": 256, "transform": "fft"},
    "semilinear": {"horizon": 1.0, "dt": 0.01, "t_start": 0.1, "snapshots": 5, "write_field": True,
                   "field_r_points": 32, "data": {"profile": "bump", "amplitude": 1.0}},
}
configs["picard-blocks"] = {
    "scenario": "solve-semilinear", "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
    "grid": {"r_max": 16.0, "N": 256, "transform": "fft"},
    "semilinear": {"horizon": 1.5, "dt": 0.02, "mode": "picard", "data": {"profile": "bump", "amplitude": 1.0}},
}
configs["geometry-m3"] = {"scenario": "check-geometry", "model": {"m": 3, "M": 2.0}, "seed": 7,
                          "geometry": {"T0": 0.9, "nu": 0.75, "delta": 1e-5}}
for m, T0 in ((1, 0.3), (2, 0.7)):
    configs[f"geometry-nu0-m{m}"] = {"scenario": "check-geometry", "model": {"m": m, "M": 1.5}, "seed": 3,
                                     "geometry": {"T0": T0, "nu": 0.0}}
configs["symbols-m1"] = {"scenario": "symbols", "model": {"m": 1}, "symbols": {"grid": "100.000:256"}}
configs["symbols-m4"] = {"scenario": "symbols", "model": {"m": 4}, "symbols": {"grid": "10000:512"}}
configs["linear-N4096"] = {
    "scenario": "solve-linear", "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
    "grid": {"r_max": 40.0, "N": 4096},
    "linear": {"t_final": 8.0, "snapshots": 4, "field_r_points": 64, "data": {"profile": "bump", "amplitude": 1.0}},
}
parser = argparse.ArgumentParser(description="Print the manifest output checksums of a fixed set of configs.")
parser.add_argument("--keep", metavar="DIR", help="keep each config's run directory as DIR/<name>/")
args = parser.parse_args()
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    root = Path(args.keep) if args.keep else Path(tmp)
    for key, cfg in configs.items():
        outdir = root / key
        run_scenario(parse_config(json.dumps({**cfg, "output_dir": str(outdir)})))
        outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
        digests.update({f"{key}/{name}": digest for name, digest in outputs.items()})
print(json.dumps(digests, sort_keys=True, indent=1))
