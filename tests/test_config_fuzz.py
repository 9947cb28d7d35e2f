"""Property test of the CLI on mutated configs: exit 0, 2 or 3, never a traceback.

The seeds are the README's config (once per scenario) and the benchmark's
workload configs, shrunk to N <= 256 and horizons <= 1.  Each example applies
one mutation (drop a key, add an unknown key, swap a value's type, pick an
off-list string, insert 0, a negative, NaN or +-inf, or replace a section by
a non-object) and runs ``cli.main`` in-process.  A validation error (exit 2)
must name the ``section.key`` it is about.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tricomi_lab import cli
from tricomi_lab.config import SCHEMA, SCENARIOS

ROOT = Path(__file__).resolve().parent.parent
FLAG_ARGV = {  # the flag subcommands get their config from _flag_payload, patched below
    "exponents": ["exponents", "--m", "1", "--n", "3"],
    "check-geometry": ["check-geometry", "--m", "1", "--M", "2.0", "--T0", "0.5"],
    "symbols": ["symbols", "--m", "1"],
}
HORIZONS = {"horizon", "t_final", "t_max", "t_max_inhom"}


def _shrunk(cfg):
    """``cfg`` with N <= 256 and every horizon <= 1."""
    out = json.loads(json.dumps(cfg))
    if "N" in out.get("grid", {}):
        out["grid"]["N"] = min(out["grid"]["N"], 256)
    for sec in out.values():
        if isinstance(sec, dict):
            for key in HORIZONS & set(sec):
                sec[key] = min(sec[key], 1.0)
    return out


def _seeds():
    readme = (ROOT / "README.md").read_text()
    base = json.loads(readme.split("### Config grammar", 1)[1].split("```json", 1)[1].split("```", 1)[0])
    seeds = [{**base, "scenario": scenario} for scenario in SCENARIOS]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for make in WORKLOADS.values():
        seeds.extend(make(np.random.default_rng(1)))
    return [_shrunk(cfg) for cfg in seeds]


SEEDS = _seeds()
SWAPS = ["x", 1, 1.5, True, None, [], {}]
NUMBERS = [0, -1, -0.5, float("nan"), float("inf"), float("-inf")]
NON_OBJECTS = [5, "x", [1], None, True]
# A message names a dotted section.key, a section, or a top-level key.
NAMED = re.compile(
    r"\b(?:" + "|".join(k for k, spec in SCHEMA.items() if isinstance(spec.kind, dict)) + r")\.\w+"
    r"|'(?:" + "|".join(SCHEMA) + r")'"
    r"|\b(?:scenario|seed|output_dir)\b"
)


def _paths(obj, prefix=()):
    """Every key path of a nested config, and whether its value is an object."""
    for key, value in obj.items():
        yield prefix + (key,), isinstance(value, dict)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _mutate(cfg, kind, pick, value):
    out = json.loads(json.dumps(cfg))
    paths = list(_paths(out))
    if kind == "add":
        objects = [()] + [p for p, is_obj in paths if is_obj]
        path = objects[pick % len(objects)]
        target = out
        for key in path:
            target = target[key]
        target["zz_unknown"] = 1
        return out
    if kind == "section":
        paths = [(p, is_obj) for p, is_obj in paths if is_obj] or paths
    path, _ = paths[pick % len(paths)]
    *outer, key = path
    target = out
    for name in outer:
        target = target[name]
    if kind == "drop":
        del target[key]
    else:
        target[key] = value
    return out


mutations = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 200), st.none()),
    st.tuples(st.just("add"), st.integers(0, 200), st.none()),
    st.tuples(st.just("swap"), st.integers(0, 200), st.sampled_from(SWAPS)),
    st.tuples(st.just("string"), st.integers(0, 200), st.just("zz-off-list")),
    st.tuples(st.just("number"), st.integers(0, 200), st.sampled_from(NUMBERS)),
    st.tuples(st.just("section"), st.integers(0, 200), st.sampled_from(NON_OBJECTS)),
)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(seed=st.integers(0, len(SEEDS) - 1), mutation=mutations)
def test_mutated_config_exits_cleanly(tmp_path, monkeypatch, seed, mutation):
    monkeypatch.chdir(tmp_path)  # a dropped output_dir writes to "."
    base = SEEDS[seed]
    scenario = base["scenario"]
    cfg = _mutate({**base, "output_dir": str(tmp_path / "out")}, *mutation)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        if scenario in FLAG_ARGV:
            with mock.patch.object(cli, "_flag_payload", lambda args: cfg):
                code = cli.main(["--output-dir", str(tmp_path / "flag"), *FLAG_ARGV[scenario]])
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            code = cli.main([scenario, "--config", str(path)])
    assert code in (0, 2, 3), (mutation, cfg)
    if code == 2:
        assert NAMED.search(err.getvalue()), (mutation, err.getvalue())
