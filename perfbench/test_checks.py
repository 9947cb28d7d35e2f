"""Self-test of the benchmark's checks: bad outputs count as failures, not timings.

    python3 -m pytest perfbench/test_checks.py -q
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from calibrate import REFERENCE_S, Calibration  # noqa: E402
from run import Runner  # noqa: E402
from tricomi_lab import cli  # noqa: E402
from workloads import MARCH_NORM_PER_AMPLITUDE, WORKLOADS  # noqa: E402


def _write_outputs(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    (outdir / "manifest.json").write_text(json.dumps({"outputs": {name: digest}}))


def _fake_march(kind="global-horizon", norm_scale=1.0):
    """A run_scenario that writes a march outcome (with a valid manifest) instantly."""

    def run_scenario(cfg):
        amplitude = cfg.data["semilinear"]["data"]["amplitude"]
        record = {"kind": kind, "tail_nonincreasing": True,
                  "weighted_norm": norm_scale * MARCH_NORM_PER_AMPLITUDE * amplitude,
                  "weighted_norm_gamma": 0.25952380952380955}
        _write_outputs(Path(cfg.output_dir), "outcome.json-lines", json.dumps(record) + "\n")
        return 0

    return run_scenario


@pytest.fixture
def march_runner(tmp_path):
    return Runner(WORKLOADS["march"](np.random.default_rng(0)), tmp_path)


def test_clean_tables_pass_is_timed(tmp_path):
    runner = Runner(WORKLOADS["tables"](np.random.default_rng(0)), tmp_path)
    assert runner.run_pass() is not None
    assert runner.failures == []
    assert runner.attempted == len(runner.op_s) == 46


def test_corrupted_output_is_a_failure(tmp_path, monkeypatch):
    real = cli.run_scenario

    def corrupting(cfg):
        code = real(cfg)
        out = Path(cfg.output_dir) / "exponents.csv"
        if out.exists():
            out.write_text(out.read_text().replace("1", "2", 1))
        return code

    monkeypatch.setattr(cli, "run_scenario", corrupting)
    runner = Runner(WORKLOADS["tables"](np.random.default_rng(0)), tmp_path)
    assert runner.run_pass() is None
    assert len(runner.failures) == 12  # the twelve exponents scenarios
    assert all("manifest checksum" in f for f in runner.failures)
    assert len(runner.op_s) == runner.attempted - 12


def test_fake_march_passes_the_checks(march_runner, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", _fake_march())
    assert march_runner.run_pass() is not None
    assert march_runner.failures == []


def test_wrong_outcome_kind_is_a_failure(march_runner, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", _fake_march(kind="blowup"))
    assert march_runner.run_pass() is None
    assert "expected 'global-horizon'" in march_runner.failures[0]
    assert march_runner.op_s == []


def test_wrong_value_is_a_failure(march_runner, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", _fake_march(norm_scale=1.01))
    assert march_runner.run_pass() is None
    assert "weighted norm" in march_runner.failures[0]


def test_rerun_with_other_checksum_is_a_failure(march_runner, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", _fake_march())
    assert march_runner.run_pass() is not None
    # within the value pin, but not the same bytes as the first run
    monkeypatch.setattr(cli, "run_scenario", _fake_march(norm_scale=1.0 + 1e-9))
    assert march_runner.run_pass() is None
    assert "rerun" in march_runner.failures[0]


def test_calibration_scales_by_the_median_round():
    cal = Calibration()
    assert len(cal.follow(0.0)) == len(cal.samples) == 1
    assert Calibration.scale([0.1, 0.2, 0.7]) == pytest.approx(REFERENCE_S / 0.2)
