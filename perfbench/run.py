"""Benchmark for tricomi-lab: seeded scenario workloads through parse_config -> run_scenario.

    python3 perfbench/run.py --workload march --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Run from a source checkout (the package is imported from ``src/``).  Each
run builds its inputs from ``--seed``, makes one untimed warm-up *pass* of
the workload's scenarios, repeats timed passes within ``--seconds`` (and at
least twice, so reruns can be compared), and checks every output: a
scenario that raises, returns non-zero, misses its output check or writes
different checksums on a rerun is a failed operation.

``--trace 0`` reports the end-to-end metrics with no instrumentation, its
timings in reference seconds: each is scaled by rounds of a fixed
calibration workload run next to it, so host-speed drift cancels
(calibrate.py).
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of the traced passes; the difference of the two pass times is the
tracing overhead.  Metric names and units are those of BENCHMARK.json.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a run record (machine, library versions, samples,
failures, tracing overhead) and the trace's spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("march", "picard", "strichartz", "tables")
SETUP_RUNS = 4
CAL_LEAD_S = 0.5  # calibration rounds before the first timed piece of work
# One BLAS/OpenMP thread: single-process runs on a small shared machine are
# steadier, and the direct transform's matrix-vector product gains little.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tricomi_lab.cli; "
    "from tricomi_lab.config import parse_config; parse_config(sys.argv[2])"
)


def measure_setup(config_text: str, cal) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until the package is imported
    and the config validated, the cost every CLI invocation pays: raw, and
    scaled to reference seconds by the calibration rounds next to each."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), config_text]
    subprocess.run(cmd, check=True)  # the first import writes the bytecode caches
    raw, scaled = [], []
    before = cal.follow(CAL_LEAD_S)
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        raw.append(time.perf_counter() - t0)
        after = cal.follow(raw[-1])
        scaled.append(raw[-1] * cal.scale(before + after))
        before = after
    return raw, scaled


class Runner:
    """Runs passes over a fixed list of scenario configs and checks each output."""

    def __init__(self, configs: list[dict], workdir: Path):
        self.configs = configs
        self.workdir = workdir
        self.first_digests: dict[int, dict] = {}
        self.op_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> float | None:
        """Seconds spent inside the pass's scenarios, or None if one failed."""
        from tricomi_lab import cli, config  # attributes looked up per call, so traced wrappers apply
        from workloads import check_outputs, output_digests

        total, ok = 0.0, True
        for i, cfg in enumerate(self.configs):
            outdir = self.workdir / str(i)
            shutil.rmtree(outdir, ignore_errors=True)
            text = json.dumps({**cfg, "output_dir": str(outdir)})
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                code = cli.run_scenario(config.parse_config(text))
                elapsed = time.perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"run_scenario returned {code}")
                digests = output_digests(outdir)
                if self.first_digests.setdefault(i, digests) != digests:
                    raise RuntimeError("rerun wrote different output checksums")
                check_outputs(cfg, outdir)
            except Exception as exc:  # every failure mode is counted, none is fatal
                self.failures.append(f"op {i} ({cfg['scenario']}): {type(exc).__name__}: {exc}")
                ok = False
                continue
            self.op_s.append(elapsed)
            total += elapsed
        return total if ok else None


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(xs, q)) if xs else 0.0


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # this checkout only
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[THREAD_VARS[0]]),
        "seed": seed,
    }


def _loop(seconds: float, step, min_calls: int) -> int:
    """Call ``step`` ``min_calls`` times, then again while another call as long
    as the last one still ends within ``seconds`` of the start."""
    start, n, last = time.perf_counter(), 0, 0.0
    while n < min_calls or time.perf_counter() + last - start <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        n += 1
    return n


def measure_plain(runner: Runner, seconds: float, record: dict) -> dict:
    """End-to-end metrics; every timing is in reference seconds (see calibrate.py)."""
    from calibrate import Calibration

    cal = Calibration()
    cal.time()  # warm-up round
    cal.samples.clear()
    setup_raw, setup = measure_setup(json.dumps(runner.configs[0]), cal)
    # Checked but not timed: its one-time costs (lazy imports, cached matrices)
    # do not follow the calibration, and made the slowest pass swing run to run.
    runner.run_pass()
    before = cal.follow(CAL_LEAD_S)
    raw: list[float] = []
    scales: list[float] = []
    ops: list[float] = []

    def step():
        nonlocal before
        first_op = len(runner.op_s)
        t0 = time.perf_counter()
        t = runner.run_pass()
        after = cal.follow(time.perf_counter() - t0)
        scale = cal.scale(before + after)
        before = after
        ops.extend(scale * x for x in runner.op_s[first_op:])
        if t is not None:
            raw.append(t)
            scales.append(scale)

    _loop(seconds, step, min_calls=2)  # a rerun to compare checksums with
    passes = [scale * t for scale, t in zip(scales, raw)]
    record["samples"] = {"wall_s": passes, "wall_s_raw": raw, "scale": scales, "setup_s": setup,
                         "setup_s_raw": setup_raw, "calibration_s": cal.samples, "ops": len(ops)}
    return {
        "wall_s": _median(passes),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms.p50": 1e3 * _percentile(ops, 50),
        "op_ms.p99": 1e3 * _percentile(ops, 99),
    }


def measure_traced(runner: Runner, seconds: float, record: dict, spans_path: Path) -> dict:
    from layers import Tracer, layer_metrics, wronskian_residual
    from tricomi_lab.symbols import symbol_matrix

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []

    def step():
        t = runner.run_pass()
        if t is not None:
            plain.append(t)
        tracer.run_id += 1
        tracer.install()
        try:
            t = runner.run_pass()
        finally:
            tracer.remove()
        if t is not None:
            traced.append(t)

    runner.run_pass()  # warm-up: caches and lazy imports, so both sides time warm passes
    n_traced = _loop(seconds, step, min_calls=1)
    metrics = layer_metrics(tracer, n_traced, wronskian_residual(tracer, symbol_matrix))
    tracer.write_spans(spans_path)
    selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    record.update(
        samples={"plain_pass_s": plain, "traced_pass_s": traced},
        trace_overhead_s=_median(traced) - _median(plain),
        largest_self_time=max(selfs, key=selfs.get),
        untraced_targets=tracer.missing,
        spans=str(spans_path.relative_to(ROOT)),
    )
    return metrics


def run_one(args, spec: dict) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np  # after the thread variables, which BLAS reads at load time
    from workloads import WORKLOADS

    configs = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    runner = Runner(configs, workdir)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "run": run_record(args.seed)}
    try:
        if args.trace:
            metrics = measure_traced(runner, args.seconds, record, OUT / f"spans-{tag}.jsonl")
        else:
            metrics = measure_plain(runner, args.seconds, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in listed):
        print("metrics computed differ from those BENCHMARK.json lists", file=sys.stderr)
        return 1
    failed = len(runner.failures)
    record.update(attempted=runner.attempted, failed=failed,
                  fail_frac=failed / runner.attempted, failures=runner.failures[:20], metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes of {len(configs)} scenario(s)")
    for m in listed:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<48} {failed / runner.attempted:>14.6g} ({failed}/{runner.attempted} operations)")
    for line in runner.failures[:5]:
        print(f"  FAILED {line}")
    if args.trace:
        print(f"  largest self time: {record['largest_self_time']}; "
              f"tracing overhead {record['trace_overhead_s']:+.4f} s per pass")
    else:
        s = record["samples"]
        print(f"  wall_s is the median of {len(s['wall_s'])} passes, setup_s of {SETUP_RUNS} "
              f"fresh interpreters, op_ms over {s['ops']} operations; all in reference "
              f"seconds, each pass scaled by the calibration rounds next to it "
              f"({len(s['calibration_s'])} rounds, median scale {statistics.median(s['scale']):.4f})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(last)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tricomi_lab" / "__init__.py").is_file():
        print(f"no tricomi_lab package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
