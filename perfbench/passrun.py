"""One pass of one workload in a fresh process, started by run.py.

    python3 perfbench/passrun.py prepare WORKLOAD INPUTS SEED
    python3 perfbench/passrun.py pass WORKLOAD INPUTS SEED OUT T_SPAWN TRACE

`prepare` writes the workload's inputs for a seed into INPUTS. `pass`
imports leakbench, sets up (set-up time counts from T_SPAWN, the parent's
CLOCK_MONOTONIC reading just before it started this process), runs the
timed region, checks the outputs and writes OUT/result.json. With TRACE=1
the public functions are wrapped first and the spans go to OUT/spans.jsonl.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_leakbench():
    """Import the checkout's leakbench, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import leakbench

    if Path(leakbench.__file__).resolve().parent != SRC / "leakbench":
        raise SystemExit(f"leakbench imported from {leakbench.__file__}, not {SRC}")
    return leakbench


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM) in MiB. It belongs to
    the memory map made at exec, so unlike ru_maxrss it does not start from
    the peak of the process that started this one."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("perfbench: no VmHWM in /proc/self/status")


def load_reference(workload: str) -> dict:
    return json.loads((Path(__file__).parent / "reference.json").read_text())[workload]


def run_pass(w, inputs: Path, seed: int, out: Path, t_spawn: float, trace: bool) -> dict:
    import leakbench.cli  # noqa: F401  (so the tracer can wrap cli.main)

    tracer = None
    if trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("leakbench", layers.targets())
        root = tracer.open(layers.SETUP_ROOT)
    meta = json.loads((inputs / "meta.json").read_text())
    state = w.setup(inputs)
    if tracer:
        tracer.close(root)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn

    if tracer:
        root = tracer.open(layers.RUN_ROOT)
    t0 = time.perf_counter()
    p = w.run(state, out)
    run_s = time.perf_counter() - t0
    if tracer:
        tracer.close(root)

    w.read_reports(p, out)
    failures = w.check(p, load_reference(w.name), seed)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        # the grids split the same series in every pass, so prepare counted them
        "pairs": meta.get("pairs_per_pass", p.pairs),
        "fits": meta.get("fits_per_pass", 0),
        "attempted": w.attempted(p),
        "failures": failures,
        "environment": environment(),
        "layers": None,
        "absent": [],
    }
    if tracer:
        tracer.dump(out / "spans.jsonl")
        result["layers"] = layers.layer_metrics(tracer.spans, tracer.absent)
        result["absent"] = tracer.absent
    return result


def main(argv: list[str]) -> int:
    command, name, inputs, seed = argv[0], argv[1], Path(argv[2]), int(argv[3])
    import_leakbench()
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    if command == "prepare":
        meta = w.prepare(inputs, seed)
        (inputs / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        return 0
    out, t_spawn, trace = Path(argv[4]), float(argv[5]), argv[6] == "1"
    result = run_pass(w, inputs, seed, out, t_spawn, trace)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
