"""The tools: bench_trajectory.py reads every BENCH_*.json in the one summary shape, from BENCH_16 on;
artifact_drift.py measures how far the numbers of two run trees moved."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trajectory = _tool("bench_trajectory")
artifact_drift = _tool("artifact_drift")


def test_bench_files_from_16_on_have_the_summary_shape():
    files = [p for p in ROOT.glob("BENCH_*.json") if bench_trajectory._number(p) >= 16]
    assert len(files) >= 6
    for path in files:
        rows, why = bench_trajectory.read(path)
        assert why is None, f"{path.name}: {why}"
        assert {name for _, name, _ in rows} >= {"wall_s", "peak_rss_mb"}


def test_files_without_the_shape_are_skipped_with_a_reason():
    rows, why = bench_trajectory.read(ROOT / "BENCH_2.json")
    assert rows is None and why == "no summary object"


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


class TestArtifactDrift:
    BEFORE = {
        "run/a.csv": "t,re_v1,u\n0.5,1,2.5e-3\n1,2,-4.0\n",
        "run/same.csv": "x\n1\n",
        "run/manifest.json": '{"wall_time_s": 0.1}',
    }

    def test_counts_changed_numbers_and_the_largest_relative_change(self, tmp_path, capsys):
        after = {**self.BEFORE, "run/a.csv": "t,re_v1,u\n0.5,1,2.5000000001e-3\n1,2,-4.0000000004\n",
                 "run/manifest.json": '{"wall_time_s": 0.2, "extra": 1}'}
        a, b = _tree(tmp_path / "a", self.BEFORE), _tree(tmp_path / "b", after)
        assert artifact_drift.main([str(a), str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        # 6 numbers (the 1 of re_v1 is text), 2 changed by 4e-11 and 1e-10 relative; the manifest is skipped
        row = next(line.split() for line in out if line.startswith("run/a.csv"))
        assert row[1:4] == ["6", "2", "1.00e-10"] and float(row[4]) == pytest.approx(1e-10, rel=1e-6)
        assert out[-1] == "1 of 2 files byte-identical"

    @pytest.mark.parametrize("text, why", [
        ("t,re_v2,u\n0.5,1,2.5e-3\n1,2,-4.0\n", "the text around the numbers differs"),
        ("t,re_v1,u\n0.5,1,2.5e-3\n1,2,-4.0,7\n", "6 numbers against 7"),
        ("t,re_v1,u\n0.5,1,nan\n1,2,-4.0\n", None),
    ])
    def test_not_comparable_files_exit_1(self, tmp_path, capsys, text, why):
        a, b = _tree(tmp_path / "a", self.BEFORE), _tree(tmp_path / "b", {**self.BEFORE, "run/a.csv": text})
        status = artifact_drift.main([str(a), str(b)])
        out = capsys.readouterr().out
        if why is None:  # a number turned into nan is comparable, and an infinite change
            assert status == 0 and "run/a.csv" in out and " inf" in out
        else:
            assert status == 1 and f"not comparable: {why}" in out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        a = _tree(tmp_path / "a", self.BEFORE)
        b = _tree(tmp_path / "b", {k: v for k, v in self.BEFORE.items() if k != "run/same.csv"})
        assert artifact_drift.main([str(a), str(b)]) == 1
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("run/same.csv"))
        assert row.split() == ["run/same.csv", "missing", "from", str(b)]
