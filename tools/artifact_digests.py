"""Print the manifest ``outputs`` checksums of the benchmark configs and README's example config.

Runs every ``perfbench.workloads.WORKLOADS`` config at seeds 1 and 5, plus the
first JSON config in README.md, through ``parse_config`` -> ``run_scenario`` in
temporary directories, and prints one sorted JSON object.  Two checkouts whose
outputs are byte-identical print the same text:

    python3 tools/artifact_digests.py > after.json   # likewise in the other checkout
    cmp before.json after.json
"""

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
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for key, cfg in configs.items():
        outdir = Path(tmp) / key
        run_scenario(parse_config(json.dumps({**cfg, "output_dir": str(outdir)})))
        outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
        digests.update({f"{key}/{name}": digest for name, digest in outputs.items()})
print(json.dumps(digests, sort_keys=True, indent=1))
