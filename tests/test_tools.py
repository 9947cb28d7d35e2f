"""tools/bench_trajectory.py reads every BENCH_*.json in the one summary shape, from BENCH_16 on."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


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
