"""leakbench benchmark: run one workload for a fixed time and print its
metrics, with the result as a JSON object on the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Load model: a closed loop with one client. Each pass runs in its own fresh
process (passrun.py) and the next starts when it ends, until the next pass
would overrun --seconds (at least MIN_PASSES run). The grid runs with
workers=1 and nproc BLAS threads. --trace 0 reports the end-to-end metrics of
BENCHMARK.json as medians over the passes; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, medians over the traced
passes, plus the tracing overhead. Needs only the standard library here; the
passes need numpy and scipy.

Time metrics are normalised for machine speed. On shared cores the speed a
pass gets drifts by tens of percent over minutes. So before every pass, and
once after the last, this process times a fixed calibration kernel that
churns small Python objects and touches fresh memory, as the passes do. The
end-to-end times are wall-time medians multiplied by
CALIBRATION_REF_S / (median calibration time of the run): wall seconds at
the speed the machine had when CALIBRATION_REF_S was measured. The raw wall
samples and the calibration times are kept in summary.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PASSRUN = HERE / "passrun.py"

MIN_PASSES = 3
# A run must end within 180 s even when passes are slow: no pass starts
# after LAST_START_S, and every child is killed at DEADLINE_S, both counted
# from the start of the run.
LAST_START_S = 110.0
DEADLINE_S = 170.0

# Median calibration time on the 2-core machine the benchmark was defined
# on. Changing it rescales every end-to-end time, so it stays fixed.
CALIBRATION_REF_S = 0.09
CALIBRATION_REPEATS = 3


def _calibration_kernel() -> int:
    windows = [tuple(range(i, i + 11)) for i in range(30_000)]
    covered: set = set()
    for footprint in map(frozenset, windows[::2]):
        covered |= footprint
    by_start = {w[0]: w for w in windows}
    fresh = b"\x01" * (64 << 20)  # 64 MiB of newly mapped pages
    return len(fresh) + sum(w[-1] in covered for w in windows) + len(sorted(by_start))


def calibrate() -> float:
    """Median time of a few runs of the calibration kernel."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, str(PASSRUN), *args], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=deadline - monotonic(),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args[0]} of {args[1]} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {args[0]} of {args[1]} exited {proc.returncode}")
    return proc


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    started = monotonic()
    deadline = started + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    load_start = os.getloadavg()
    spawn(["prepare", name, str(inputs), str(seed)], env, deadline)

    passes: list[dict] = []
    walls: list[float] = []
    calibrations: list[float] = []
    _calibration_kernel()  # the first run maps this process's heap
    start = monotonic()
    while True:
        elapsed = monotonic() - start
        if passes and monotonic() - started > LAST_START_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        out.mkdir()
        t_start = monotonic()
        calibrations.append(calibrate())
        t_spawn = monotonic()
        spawn(["pass", name, str(inputs), str(seed), str(out), repr(t_spawn), str(int(traced))], env, deadline)
        walls.append(monotonic() - t_start)
        result = json.loads((out / "result.json").read_text())
        result["traced"] = traced
        passes.append(result)
    calibrations.append(calibrate())

    summary = summarize(passes, calibrations, trace, bench)
    summary["environment"] = {
        **passes[0]["environment"],
        "blas_threads": nproc,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workers": 1,
        "seed": seed,
        "commit": git_commit(),
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
    }
    summary["passes"] = passes
    (work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(passes: list[dict], calibrations: list[float], trace: bool, bench: dict) -> dict:
    """End-to-end values are medians of the untraced passes' samples, times
    multiplied by `speed` and rates divided by it; per-layer values are
    medians of the traced passes' unscaled wall times and counts."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    speed = CALIBRATION_REF_S / statistics.median(calibrations)
    samples = {
        "setup_s": [p["setup_s"] for p in plain],
        "run_s": [p["run_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "pairs_per_s": [p["pairs"] / p["run_s"] for p in plain],
    }
    if plain[0]["fits"]:
        samples["fits_per_s"] = [p["fits"] / p["run_s"] for p in plain]
    scale = {"setup_s": speed, "run_s": speed, "pairs_per_s": 1 / speed, "fits_per_s": 1 / speed}
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    values = {k: statistics.median(v) * scale.get(k, 1.0) for k, v in samples.items()}
    values["ops_failed_ratio"] = len(failures) / attempted
    if trace:
        for name in traced[0]["layers"]:
            values[name] = _median([p["layers"][name] for p in traced])
        values["trace.overhead_ratio"] = (
            statistics.median(p["run_s"] for p in traced) / statistics.median(samples["run_s"])
        )
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {
        "samples": samples,
        "calibration_s": calibrations,
        "speed": speed,
        "values": values,
        "units": {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]},
        "reported": [m["name"] for m in section],
        "attempted": attempted,
        "failures": failures,
        "absent": sorted({a for p in traced for a in p["absent"]}),
    }


def print_summary(name: str, s: dict) -> None:
    env = s["environment"]
    print(f"== {name}  seed {env['seed']}  passes {len(s['passes'])}"
          f"  (untraced {len(s['samples']['run_s'])})  trace {env['trace']}")
    print("   env: python {python}  numpy {numpy}  scipy {scipy}  blas {blas}"
          " x{blas_threads} threads  nproc {nproc}  workers {workers}"
          "  load {loadavg_start[0]:.2f}->{loadavg_end[0]:.2f}  commit {commit}".format(**env))
    print(f"   speed {s['speed']:.4f}: calibration median {statistics.median(s['calibration_s']):.4f} s"
          f" of {len(s['calibration_s'])}, reference {CALIBRATION_REF_S} s (times x speed,"
          " rates / speed; the bracketed figures are raw wall samples)")
    units = dict(s["units"], fits_per_s="1/s", pairs_per_s="1/s", ops_failed_ratio="ratio")
    shown = ["setup_s", "run_s", "fits_per_s", "pairs_per_s", "peak_rss_mb", "ops_failed_ratio"]
    if env["trace"]:
        shown = s["reported"]
    for metric in shown:
        if metric not in s["values"]:
            continue
        value = s["values"][metric]
        text = "absent" if value is None else f"{value:.6g}"
        extra = ""
        if metric in s["samples"]:
            xs = s["samples"][metric]
            extra = (f"  (wall median {statistics.median(xs):.6g} of {len(xs)},"
                     f" min {min(xs):.6g}, max {max(xs):.6g})")
        print(f"   {metric:<52} {text:>14} {units.get(metric, '')}{extra}")
    print(f"   ops: {s['attempted']} attempted, {len(s['failures'])} failed")
    for line in s["failures"][:10]:
        print(f"   FAILED {line}")
    for fn in s["absent"]:
        print(f"   absent from the program: {fn}")


def result_line(s: dict) -> str:
    metrics = {}
    for name in s["reported"]:
        value = s["values"].get(name)
        # an absent per-layer metric (its function was renamed or removed)
        # reads 0 here and is listed as absent above
        metrics[name] = {"value": 0.0 if value is None else value, "unit": s["units"][name]}
    return json.dumps({
        "correct": not s["failures"],
        "attempted": s["attempted"],
        "failed": len(s["failures"]),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "leakbench" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"perfbench: no leakbench source tree under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (expected one of {names} or all)")
    for name in names if args.workload == "all" else [args.workload]:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), bench)
        print_summary(name, summary)
        print(result_line(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
