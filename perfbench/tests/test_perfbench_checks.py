"""The benchmark's correctness checks pass on recorded outputs and fail on
deliberately perturbed ones."""

import copy
import json
from pathlib import Path

import workloads
from workloads import WORKLOADS, GridWorkload, Pass

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "reference.json").read_text())


def recorded_pass(name: str, seed: str) -> Pass:
    ref = REFERENCE[name]
    p = Pass()
    if "observed" in ref:
        p.observed = copy.deepcopy(ref["observed"])
        return p
    for key, value in ref["rmse"][seed].items():
        p.observed[key] = list(ref["cells"][key]) + value if key.startswith("cell|") else list(value)
    return p


def test_every_workload_has_a_reference():
    assert set(REFERENCE) == set(WORKLOADS)


def test_audit_check_flags_each_perturbed_operation():
    w = WORKLOADS[workloads.AuditWorkload.name]
    p = recorded_pass(w.name, "")
    assert w.check(p, REFERENCE[w.name], seed=12345) == []
    p.observed["10-fold|leaky|audit|3"][0] += 1
    p.observed["2-way|leaky|gap"] += 1
    p.observed["3-way|clean|split"][0][2] -= 1
    p.observed["2-way|clean|audit|0"][0] = 5
    failures = w.check(p, REFERENCE[w.name], seed=12345)
    assert len(failures) == 4
    assert any("clean fold overlaps by 5" in f for f in failures)
    assert w.attempted(p) == len(REFERENCE[w.name]["observed"])


def test_lstm_check_uses_recorded_rmse_only_on_recorded_seeds():
    w = WORKLOADS["kfold-lstm"]
    p = recorded_pass(w.name, "0")
    assert w.check(p, REFERENCE[w.name], seed=0) == []
    p.observed["cell|10|3|10-fold|leaky"][2] *= 1 + 1e-4
    assert len(w.check(p, REFERENCE[w.name], seed=0)) == 1
    # another seed's RMSEs are not recorded: only finiteness is checked
    assert w.check(p, REFERENCE[w.name], seed=987654) == []
    p.observed["cell|10|3|10-fold|clean"][2] = float("nan")
    assert len(w.check(p, REFERENCE[w.name], seed=987654)) == 1


def test_grid_check_fails_both_cells_of_a_wrong_gain_and_every_task_of_a_cell():
    w = WORKLOADS["desk-grid-ar"]
    p = recorded_pass(w.name, "*")
    assert w.check(p, REFERENCE[w.name], seed=31) == []
    p.observed["gain|10|2|3-way"][2] += 0.01
    assert len(w.check(p, REFERENCE[w.name], seed=31)) == 2 * w.grid["repetitions"]
    p = recorded_pass(w.name, "*")
    p.observed["cell|10|1|10-fold|clean"][1] = 1
    del p.observed["cell|10|3|2-way|leaky"]
    assert len(w.check(p, REFERENCE[w.name], seed=31)) == 2 * w.grid["repetitions"]
    p.errors.append("leakbench run exited 2")
    p.observed.clear()
    assert len(w.check(p, REFERENCE[w.name], seed=31)) == w.tasks() == w.attempted(p)


def test_check_reads_written_reports(tmp_path):
    grid = {
        **workloads.DESK_GRID_AR, "name": "tiny", "lags": [1], "model": "persistence",
        "plans": [{"kind": "two_way"}], "repetitions": 2,
    }
    w = GridWorkload(grid, via_cli=True, rtol=workloads.AR_RTOL, seed_independent=True)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    meta = w.prepare(inputs, seed=5)
    p = w.run(w.setup(inputs), out)
    w.read_reports(p, out)
    assert p.errors == [] and len(p.observed) == 3
    reference = w.record(p, 5, {})
    assert w.check(p, reference, seed=6) == []

    cells = (out / "cells.csv").read_text().splitlines()
    head, row = cells[0].split(","), cells[1].split(",")
    mean = head.index("mean")
    row[mean] = repr(float(row[mean]) * 1.001)
    (out / "cells.csv").write_text("\n".join([cells[0], ",".join(row), *cells[2:]]) + "\n")
    p = Pass()
    w.read_reports(p, out)
    assert len(w.check(p, reference, seed=6)) == grid["repetitions"]
    # 2 repetitions of clean (1159 train + 283 test pairs) and leaky (1452 pairs)
    assert meta == {"pairs_per_pass": 2 * (1159 + 283 + 1452), "fits_per_pass": 2 * 2}

