"""Print the performance trajectory recorded in the ``BENCH_<n>.json`` files at the repo root.

A file is read when it has the one ``summary`` shape: ``<workload>-seed<n>``
(optionally followed by a note, such as `` (taskset -c 0)``) maps each metric
to the parent and change medians, ``change_wins`` and ``parent_iqr`` of its
alternating pairs, and optionally ``verdict``.  Entries of a run that are not
such metrics (``failed``, ``correct``) are left out.  Every other file is
listed as skipped, with the reason:

    python3 tools/bench_trajectory.py
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_KEY = re.compile(r"[a-z_]+-seed\d+.*")
FIELDS = ("parent_median", "change_median", "change_wins", "parent_iqr")


def _metrics(run: dict) -> dict:
    """The metric entries of one summary run; any other entries are dropped."""
    return {name: m for name, m in run.items() if isinstance(m, dict) and all(f in m for f in FIELDS)}


def read(path: Path):
    """(rows, None) for a file in the summary shape, or (None, why it is skipped)."""
    summary = json.loads(path.read_text()).get("summary")
    if not isinstance(summary, dict) or not summary:
        return None, "no summary object"
    rows = []
    for key, run in summary.items():
        metrics = _metrics(run) if isinstance(run, dict) else {}
        if RUN_KEY.fullmatch(key) is None or not metrics:
            return None, f"summary entry {key!r} is not <workload>-seed<n> -> metric -> {', '.join(FIELDS)}"
        rows += [(key, name, m) for name, m in metrics.items()]
    return rows, None


def _number(path: Path) -> int:
    return int(re.search(r"\d+", path.stem).group())


def main() -> int:
    skipped = []
    print(f"{'file':<14} {'run':<34} {'metric':<12} {'parent':>10} {'change':>10} {'ratio':>6} "
          f"{'wins':>6} {'p_iqr':>9}  verdict")
    for path in sorted(ROOT.glob("BENCH_*.json"), key=_number):
        rows, why = read(path)
        if rows is None:
            skipped.append(f"{path.name}: {why}")
            continue
        for key, name, m in rows:
            ratio = m["change_median"] / m["parent_median"] if m["parent_median"] else float("nan")
            verdict = str(m.get("verdict", "-")).split(":")[0]
            print(f"{path.name:<14} {key:<34} {name:<12} {m['parent_median']:>10.5g} {m['change_median']:>10.5g} "
                  f"{ratio:>6.3f} {m['change_wins']:>6} {m['parent_iqr']:>9.3g}  {verdict}")
    for line in skipped:
        print(f"skipped {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
