from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
]


def record(seed, run_s, rate):
    return {
        "workload": "w",
        "seed": seed,
        "result": {"metrics": {"run_s": {"value": run_s}, "rate": {"value": rate}}},
    }


def test_compare_counts_wins_by_direction_and_reports_quartiles():
    runs = {
        "parent": [record(s, v, 10.0) for s, v in zip((1, 2, 3, 4), (1.0, 2.0, 3.0, 4.0))],
        # listed out of seed order: pairs are matched by seed, not position
        "change": [
            record(4, 3.0, 12.0),
            record(1, 0.5, 11.0),
            record(3, 3.5, 9.0),
            record(2, 2.0, 10.0),  # a tie on both metrics counts for neither side
        ],
    }
    table = pairs.compare(runs, END_TO_END)
    assert set(table) == {"w"}
    run_s, rate = table["w"]["run_s"], table["w"]["rate"]
    assert (run_s["change_wins"], run_s["pairs"]) == (2, 4)
    assert (rate["change_wins"], rate["pairs"]) == (2, 4)
    assert run_s["parent"] == pytest.approx({"q1": 1.25, "median": 2.5, "q3": 3.75})
    assert run_s["change"] == pytest.approx({"q1": 0.875, "median": 2.5, "q3": 3.375})
    assert rate["parent"] == pytest.approx({"q1": 10.0, "median": 10.0, "q3": 10.0})


def write_tree(root, files):
    for rel, body in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)
    return root


SOURCES = {"pkg/__init__.py": b"", "pkg/a.py": b"x = 1\n", "pkg/sub/b.py": b"y = 2\n"}


def test_src_digest_names_the_package_sources(tmp_path):
    base = pairs.src_digest(write_tree(tmp_path / "base", SOURCES))
    assert len(base) == 64
    # the same sources written in another order, with non-.py files beside them
    twin = write_tree(tmp_path / "twin", dict(reversed(SOURCES.items())))
    (twin / "src" / "pkg" / "notes.txt").write_text("not source")
    (twin / "README.md").write_text("outside src/")
    assert pairs.src_digest(twin) == base

    changed = {**SOURCES, "pkg/a.py": b"x = 2\n"}
    changed = pairs.src_digest(write_tree(tmp_path / "changed", changed))
    moved = {**SOURCES, "pkg/c.py": SOURCES["pkg/a.py"]}
    del moved["pkg/a.py"]
    renamed = pairs.src_digest(write_tree(tmp_path / "renamed", moved))
    assert len({base, changed, renamed}) == 3


def test_main_refuses_a_tree_with_a_bytecode_cache(tmp_path, monkeypatch, capsys):
    parent = write_tree(tmp_path / "parent", SOURCES)
    change = write_tree(tmp_path / "change", SOURCES)
    cache = change / "src" / "pkg" / "sub" / "__pycache__"
    cache.mkdir()
    (cache / "b.cpython-311.pyc").write_bytes(b"\0")

    def no_run(*args):
        raise AssertionError("ran a benchmark pass")

    monkeypatch.setattr(pairs, "run_side", no_run)
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", "1", "--out", str(out)]
    assert pairs.main(argv) == 1
    assert f"bytecode cache: {cache}" in capsys.readouterr().err
    assert (cache / "b.cpython-311.pyc").is_file()
    assert not out.exists()
    assert pairs.bytecode_caches(parent) == []
