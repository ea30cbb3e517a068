"""Per-layer timings of the LSTM kernel: `LstmModel.forward`,
`loss_and_gradients` and one `_Adam.step`, each at M = 1 and M = 10 stacked
models (H 16, B 32, W 10, the kfold-lstm shape), printed as one JSON object.

    python3 benchmarks/layers.py --src parent=OTHER/src --src change=src \\
        --rounds 15 --loops 20

Each `--src LABEL=DIR` is a leakbench source tree, timed in a worker
process of its own. The rounds interleave: in every round each worker times
each layer once (a loop of `--loops` calls), and the tree that goes first
alternates from round to round, so a drift in the speed of a shared machine
hits every tree and layer alike. At M = 10, forward is `_forward_cached` on
the stack (what `train_many` calls for validation losses). Each layer is
timed the way a run calls it: `forward.m1` (what `predict` calls) as a bare
call, the others inside `train_many`'s scratch scope (`_scratch_kept`)
where a tree has one. The output holds, per tree and layer, the median and
quartiles over the rounds of the time per call in microseconds, with the
core count and load averages. The parent process needs only the standard
library; the workers need numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HIDDEN, BATCH, WINDOW = 16, 32, 10
STACKS = (1, 10)


def _worker(src: str, loops: int) -> None:
    """Answer each line on stdin with one JSON line: seconds per call of
    every layer, timed once."""
    sys.path.insert(0, src)
    import contextlib

    import numpy as np

    from leakbench import forecaster as fc

    in_training = getattr(fc, "_scratch_kept", contextlib.nullcontext)

    rng = np.random.default_rng(0)
    cases = {}
    for m in STACKS:
        theta = np.stack([fc.LstmModel.initialize(HIDDEN, rng).theta for _ in range(m)])
        x = rng.normal(size=(m, BATCH, WINDOW))
        y = rng.normal(size=(m, BATCH))
        _, grad = fc.loss_and_gradients(theta, x, y, HIDDEN)
        adam = fc._Adam(theta.shape, 1e-3)
        model = fc.LstmModel(HIDDEN, theta[0].copy())
        forward = (lambda: model.forward(x[0])) if m == 1 else (
            lambda theta=theta, x=x: fc._forward_cached(theta, x, HIDDEN))
        cases[f"forward.m{m}"] = forward
        cases[f"loss_and_gradients.m{m}"] = (
            lambda theta=theta, x=x, y=y: fc.loss_and_gradients(theta, x, y, HIDDEN))
        # Steps a copy, so theta (and the other layers' inputs) stay fixed.
        stepped = theta.copy()
        cases[f"adam_step.m{m}"] = (
            lambda adam=adam, stepped=stepped, grad=grad: adam.step(stepped, grad, slice(None)))
    for case in cases.values():
        case()
    for _ in sys.stdin:
        times = {}
        for name, case in cases.items():
            with contextlib.nullcontext() if name == "forward.m1" else in_training():
                start = time.perf_counter()
                for _ in range(loops):
                    case()
                times[name] = (time.perf_counter() - start) / loops
        print(json.dumps(times), flush=True)


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median_us": median * 1e6, "q1_us": q1 * 1e6, "q3_us": q3 * 1e6}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="LABEL=DIR of a leakbench source tree (repeatable)")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--loops", type=int, default=20)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.loops)
        return 0

    trees = dict(spec.split("=", 1) if "=" in spec else (spec, spec) for spec in args.src)
    workers = {
        label: subprocess.Popen(
            [sys.executable, __file__, "--src", label, "--worker", os.path.abspath(src),
             "--loops", str(args.loops)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for label, src in trees.items()
    }
    samples: dict[str, list[dict]] = {label: [] for label in trees}
    loadavg_start = os.getloadavg()
    try:
        for r in range(args.rounds):
            order = list(workers) if r % 2 == 0 else list(reversed(workers))
            for label in order:
                proc = workers[label]
                proc.stdin.write("\n")
                proc.stdin.flush()
                samples[label].append(json.loads(proc.stdout.readline()))
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    report = {
        "shape": {"hidden_size": HIDDEN, "batch": BATCH, "window": WINDOW},
        "rounds": args.rounds,
        "loops": args.loops,
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "trees": {
            label: {name: _quartiles([s[name] for s in rows]) for name in rows[0]}
            for label, rows in samples.items()
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
