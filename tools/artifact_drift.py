"""Show by how much the numbers of two run trees differ, file by file.

``A`` and ``B`` are two directories of run outputs with the same layout, for
example two ``tools/artifact_digests.py --keep`` trees made in two
checkouts.  Every file of either tree but ``manifest.json`` is compared (a
manifest's wall time and checksums differ between any two runs; the
checksums are what ``artifact_digests.py`` prints).  For each file whose
bytes differ it prints how many numbers the file holds, how many of them
changed, the largest relative change |a - b| / max(|a|, |b|), and the
largest change |a - b| scaled by the file's largest finite |number| (a value
near zero, such as a field's tail, can move far in relative terms by a
change that is rounding at the field's scale):

    python3 tools/artifact_drift.py before after

A file is comparable when the text around its numbers is the same and it
holds as many numbers in both trees.  The exit code is 1 when a file is
missing from one tree or is not comparable, else 0.
"""

import math
import re
import sys
from pathlib import Path

# a decimal number, inf or nan standing on its own (the 1 of "re_v1" and the 5 of "seed5" are text)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def split(text: str) -> tuple[list[str], list[float]]:
    """The text around the numbers of ``text``, and the numbers."""
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


def relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal numbers (nan and nan too), inf when only one is nan or inf."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a: Path, b: Path) -> tuple[str | None, int, int, float, float]:
    """(why the files are not comparable or None, numbers, numbers changed, largest relative change,
    largest change scaled by the largest finite |number|)."""
    text_a, nums_a = split(a.read_text())
    text_b, nums_b = split(b.read_text())
    if len(nums_a) != len(nums_b):
        return f"{len(nums_a)} numbers against {len(nums_b)}", len(nums_a), 0, 0.0, 0.0
    if text_a != text_b:
        return "the text around the numbers differs", len(nums_a), 0, 0.0, 0.0
    changes = [relative_change(x, y) for x, y in zip(nums_a, nums_b)]
    finite = [(x, y) for x, y in zip(nums_a, nums_b) if math.isfinite(x) and math.isfinite(y)]
    scale = max((max(abs(x), abs(y)) for x, y in finite), default=0.0)
    scaled = max((abs(x - y) for x, y in finite), default=0.0) / scale if scale else 0.0
    return None, len(nums_a), sum(c > 0.0 for c in changes), max(changes, default=0.0), scaled


def files(root: Path) -> set:
    """The paths, relative to ``root``, of every file under it but the manifests."""
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/artifact_drift.py A B", file=sys.stderr)
        return 2
    root_a, root_b = (Path(x) for x in argv)
    names_a, names_b = files(root_a), files(root_b)
    status, same = 0, 0
    print(f"{'file':<48} {'numbers':>8} {'changed':>8} {'max_rel':>9} {'scaled':>9}")
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{str(name):<48} missing from {root_a if name not in names_a else root_b}")
            status = 1
            continue
        if (root_a / name).read_bytes() == (root_b / name).read_bytes():
            same += 1
            continue
        why, count, changed, worst, scaled = compare(root_a / name, root_b / name)
        if why is not None:
            print(f"{str(name):<48} not comparable: {why}")
            status = 1
        else:
            print(f"{str(name):<48} {count:>8} {changed:>8} {worst:>9.2e} {scaled:>9.2e}")
    print(f"{same} of {len(names_a | names_b)} files byte-identical")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
