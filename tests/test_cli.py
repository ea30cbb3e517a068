from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from leakbench.cli import main
from leakbench.runner import ExperimentConfig, run_experiment
from leakbench.splitting import SplitPlan
from leakbench.synthetic import write_reference_csv


@pytest.fixture(scope="module")
def climate_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "climate.csv"
    write_reference_csv(path)
    return str(path)


def write_config(tmp_path, climate_csv, **overrides) -> str:
    payload = {
        "name": "cli-test",
        "dataset": climate_csv,
        "windows": [5],
        "lags": [1],
        "plans": [SplitPlan.two_way().to_dict(), SplitPlan.k_fold(4).to_dict()],
        "modes": ["leaky", "clean"],
        "order": "sequential",
        "model": "persistence",
        "train": {"epochs": 2},
        "repetitions": 2,
        "base_seed": 9,
    }
    payload.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


class TestStats:
    def test_prints_profile(self, climate_csv, capsys):
        assert main(["stats", climate_csv]) == 0
        out = capsys.readouterr().out
        assert "count   1462" in out
        assert "mean    25.5" in out
        assert "decomposition (period 365)" in out

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.csv")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_short_series_skips_decomposition(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("date,meantemp\n2020-01-01,1\n2020-01-02,2\n")
        assert main(["stats", str(p)]) == 0
        assert "decomposition skipped" in capsys.readouterr().out


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_argument_exits_1(self, capsys):
        assert main(["stats"]) == 1

    def test_bad_format_choice_exits_1(self, tmp_path):
        assert main(["report", str(tmp_path), "--format", "xml"]) == 1

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_1(self, tmp_path, climate_csv, capsys, workers):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "out"
        assert main(["run", cfg, "--workers", workers, "--out", str(out)]) == 1
        assert "--workers: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period", ["0", "-3"])
    def test_period_below_one_exits_1(self, climate_csv, capsys, period):
        # Before, the statistics were printed, then the decomposition
        # failed with exit 2.
        assert main(["stats", climate_csv, "--period", period]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--period: must be >= 1" in captured.err


RUN_FILES = {"report.json", "cells.csv", "gains.csv", "runs.csv"}


class TestRun:
    def test_writes_reports(self, tmp_path, climate_csv, capsys):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        assert capsys.readouterr().out.split() == [
            str(out / name) for name in ("report.json", "cells.csv", "gains.csv", "runs.csv")
        ]

    def test_readme_reports_lists_the_files_run_writes(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Reports", 1)[1].split("\n## ", 1)[0]
        # each bullet names its files in backticks before the dash
        listed = [name for names in re.findall(r"^- (.+?) —", section, re.M)
                  for name in re.findall(r"`([^`]+)`", names)]
        assert sorted(listed) == sorted(RUN_FILES)

    def test_byte_identical_reruns(self, tmp_path, climate_csv):
        cfg = write_config(tmp_path, climate_csv)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "cells.csv").read_bytes() == (out_b / "cells.csv").read_bytes()
        assert (out_a / "gains.csv").read_bytes() == (out_b / "gains.csv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path, climate_csv):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "seeded"
        assert main(["run", cfg, "--seed", "123", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["config"]["base_seed"] == 123

    def test_infeasible_grid_is_data_error(self, tmp_path, climate_csv, capsys):
        cfg = write_config(tmp_path, climate_csv, windows=[2000])
        assert main(["run", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_repeated_plan_label_is_data_error(self, tmp_path, climate_csv, capsys):
        cfg = write_config(
            tmp_path, climate_csv, model="linear_ar", windows=[10],
            plans=[{"kind": "two_way"}, {"kind": "two_way", "fractions": [0.6, 0.4]}],
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert "grid list 'plans' repeats '2-way'" in capsys.readouterr().err
        assert not out.exists()

    def test_hidden_size_below_one_is_data_error(self, tmp_path, climate_csv, capsys):
        # Before, the config loaded, all its cells split and audited, and then
        # every repetition failed (with --keep-going: exit 0, no cells).
        cfg = write_config(tmp_path, climate_csv, model="lstm", hidden_size=0)
        out = tmp_path / "out"
        assert main(["run", cfg, "--keep-going", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: hidden_size must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_is_data_error(self, tmp_path, climate_csv, capsys, rate):
        # json.dumps writes the bare NaN/Infinity literals that json.loads reads.
        # Before, a NaN loaded, every cell split and audited, and then every
        # repetition diverged (with --keep-going: exit 0, no cells).
        cfg = write_config(tmp_path, climate_csv, model="lstm",
                           train={"epochs": 2, "learning_rate": rate})
        out = tmp_path / "out"
        assert main(["run", cfg, "--keep-going", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: learning_rate must be finite and positive, got {rate!r}\n")
        assert not out.exists()

    def test_missing_config_is_data_error(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == 2

    def test_keep_going_reports_failed_runs(self, tmp_path, climate_csv, capsys):
        # W=2000 is infeasible in both modes: 2 cells x 2 repetitions fail.
        cfg = write_config(
            tmp_path, climate_csv, windows=[5, 2000], plans=[SplitPlan.two_way().to_dict()]
        )
        out = tmp_path / "kept"
        assert main(["run", cfg, "--keep-going", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "4 run(s) failed (kept going):" in err
        assert err.count("cell W=2000") == 4
        rows = (out / "cells.csv").read_text().splitlines()[1:]
        assert sorted(row.split(",")[4] for row in rows) == ["clean", "leaky"]
        assert all(row.split(",")[1] == "5" for row in rows)


class TestUnreadableInput:
    """An input that is a directory or not UTF-8 exits 2 with an error
    naming it, not with a traceback."""

    def test_directory_as_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read: ")

    @pytest.mark.parametrize("command, files", [
        ("audit", 1), ("stats", 1), ("gain", 2),
    ])
    def test_non_utf8_file(self, tmp_path, capsys, command, files):
        p = tmp_path / "latin1.txt"
        p.write_bytes("date,meantemp\n2020-01-01,1.5 \u00b0C\n".encode("latin-1"))
        assert main([command, *[str(p)] * files]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: cannot read: ")
        assert "can't decode byte 0xb0" in err


def with_bom(path: Path) -> Path:
    """A copy of `path` beside it that starts with a UTF-8 byte-order mark."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


class TestByteOrderMark:
    """Every input file loads with a leading UTF-8 byte-order mark, as
    series CSVs do."""

    def test_config(self, tmp_path, climate_csv, capsys):
        cfg = Path(write_config(tmp_path, climate_csv))
        assert main(["audit", str(cfg)]) == 0
        plain = capsys.readouterr().out
        assert main(["audit", str(with_bom(cfg))]) == 0
        assert capsys.readouterr().out == plain

    def test_report_json(self, tmp_path, climate_csv):
        out = tmp_path / "orig"
        assert main(["run", write_config(tmp_path, climate_csv), "--out", str(out)]) == 0
        report = with_bom(out / "report.json")
        re_out = tmp_path / "re"
        assert main(["report", str(report), "--format", "csv", "--out", str(re_out)]) == 0
        for name in ("cells.csv", "gains.csv", "runs.csv"):
            assert (re_out / name).read_bytes() == (out / name).read_bytes(), name

    def test_cells_csv(self, tmp_path, capsys):
        # The mark sticks to the first column's name when it is not skipped.
        cells = tmp_path / "cells.csv"
        cells.write_text("window,lag,plan,mode,mean\n5,1,2-way,clean,1.5\n5,1,2-way,leaky,1.2\n")
        assert main(["gain", str(cells), str(cells)]) == 0
        plain = capsys.readouterr().out
        bom = str(with_bom(cells))
        assert main(["gain", bom, bom]) == 0
        assert capsys.readouterr().out == plain


class TestOutIsAFile:
    """An --out that names an existing file, or lies under one, exits 2
    naming it before anything is run or written."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_run_fails_before_the_grid_runs(self, tmp_path, climate_csv, capsys, monkeypatch,
                                            under):
        import leakbench.cli as cli_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli_mod, "run_experiment", no_run)
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        out = taken / "sub" if under else taken
        assert main(["run", write_config(tmp_path, climate_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output directory {out}: {taken} is not a directory\n")
        assert taken.read_text() == "keep me"

    def test_audit(self, tmp_path, climate_csv, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        assert main(["audit", write_config(tmp_path, climate_csv), "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory {taken}: {taken} is not a directory\n"
        assert taken.read_text() == "keep me"

    def test_gain(self, tmp_path, climate_csv, capsys):
        run_out = tmp_path / "run-out"
        assert main(["run", write_config(tmp_path, climate_csv), "--out", str(run_out)]) == 0
        capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        cells = str(run_out / "cells.csv")
        assert main(["gain", cells, cells, "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory {taken}: {taken} is not a directory\n"
        assert taken.read_text() == "keep me"


class TestAudit:
    def test_prints_rows_without_training(self, tmp_path, climate_csv, capsys):
        cfg = write_config(tmp_path, climate_csv, model="lstm", windows=[10])
        assert main(["audit", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("window,lag,plan,mode,fold")
        # 2 plans x 2 modes: two_way has 1 fold each, k_fold(4) has 4 each
        assert len(lines) == 1 + (1 + 4) * 2

    def test_writes_csv_with_out(self, tmp_path, climate_csv):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "audits"
        assert main(["audit", cfg, "--out", str(out)]) == 0
        assert (out / "audits.csv").exists()

    def test_clean_rows_report_zero_overlap(self, tmp_path, climate_csv, capsys):
        cfg = write_config(tmp_path, climate_csv)
        main(["audit", cfg])
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            fields = line.split(",")
            if fields[3] == "clean":
                assert fields[7] == "0"
            else:
                assert int(fields[7]) > 0

    def test_contaminated_clean_cell_exits_3_after_every_row(
        self, tmp_path, climate_csv, capsys, monkeypatch
    ):
        import leakbench.cli as cli_mod
        from leakbench.splitting import split as real_split

        def poisoned_split(series, spec):
            return real_split(series, replace(spec, mode="leaky"))

        monkeypatch.setattr(cli_mod, "split", poisoned_split)
        cfg = write_config(tmp_path, climate_csv)
        assert main(["audit", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: clean cell audited contaminated\n"
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        # 2 plans x 2 modes: two_way has 1 fold each, k_fold(4) has 4 each
        assert len(rows) == (1 + 4) * 2
        assert {row[3] for row in rows} == {"leaky", "clean"}
        assert all(int(row[7]) > 0 for row in rows)

    def test_audits_the_splits_run_trains_on(self, tmp_path, climate_csv, capsys):
        # Random order gives every repetition its own split; the audit must
        # report the split whose audits the run stores (repetition 0).
        cfg = write_config(
            tmp_path, climate_csv, windows=[10], lags=[1],
            plans=[SplitPlan.two_way().to_dict()], modes=["leaky"],
            order="random", base_seed=7,
        )
        assert main(["audit", cfg]) == 0
        (row,) = capsys.readouterr().out.strip().splitlines()[1:]
        report = run_experiment(ExperimentConfig.from_json_file(cfg))
        assert int(row.split(",")[7]) == report.cells[0].audits[0].overlap_count == 1335


class TestGain:
    def test_recomputes_from_reports(self, tmp_path, climate_csv, capsys):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "run-out"
        main(["run", cfg, "--out", str(out)])
        capsys.readouterr()  # drop the run command's output
        cells = str(out / "cells.csv")
        assert main(["gain", cells, cells]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "window,lag,plan,clean,leaky,gain_percent,direction,rank"
        assert len(lines) == 3  # header + 2 plans

    def test_matches_run_gains(self, tmp_path, climate_csv):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "run-out2"
        main(["run", cfg, "--out", str(out)])
        gain_out = tmp_path / "gain-out"
        assert main([
            "gain", str(out / "cells.csv"), str(out / "cells.csv"),
            "--out", str(gain_out),
        ]) == 0
        assert (gain_out / "gains.csv").read_bytes() == (out / "gains.csv").read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["gain", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2

    def test_missing_column_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "cells.csv"
        p.write_text("name,lag,plan,mode,mean\nx,1,2-way,clean,1.5\n")
        assert main(["gain", str(p), str(p)]) == 2
        err = capsys.readouterr().err
        assert str(p) in err and "missing column 'window'" in err

    def test_unparsable_row_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "cells.csv"
        p.write_text(
            "name,window,lag,plan,mode,mean\n"
            "x,5,1,2-way,clean,1.5\n"
            "x,ten,1,2-way,clean,1.5\n"
        )
        assert main(["gain", str(p), str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}: line 3: cannot parse row" in err

    def test_repeated_cell_is_data_error(self, tmp_path, capsys):
        # two 2-way plans (50/50 and 60/40) share one label
        p = tmp_path / "cells.csv"
        p.write_text(
            "name,window,lag,plan,mode,mean\n"
            "x,10,1,2-way,clean,1.4366\n"
            "x,10,1,2-way,leaky,1.43\n"
            "x,10,1,2-way,clean,1.4928\n"
        )
        assert main(["gain", str(p), str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {p}: line 4: repeats cell W=10 L=1 plan=2-way mode=clean\n"
        assert captured.out == ""


class TestReport:
    def test_reemits_csv_from_run_dir(self, tmp_path, climate_csv):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "orig"
        main(["run", cfg, "--out", str(out)])
        re_out = tmp_path / "re"
        assert main(["report", str(out), "--format", "csv", "--out", str(re_out)]) == 0
        for name in ("cells.csv", "gains.csv", "runs.csv"):
            assert (re_out / name).read_bytes() == (out / name).read_bytes(), name

    def test_report_file_reemits_beside_it(self, tmp_path, climate_csv, capsys):
        # Before, the default output directory was the report.json file
        # itself: FileExistsError and exit 1.
        out = tmp_path / "orig"
        assert main(["run", write_config(tmp_path, climate_csv), "--out", str(out)]) == 0
        cells = (out / "cells.csv").read_bytes()
        (out / "cells.csv").unlink()
        capsys.readouterr()
        assert main(["report", str(out / "report.json"), "--format", "csv"]) == 0
        assert capsys.readouterr().out.split() == [
            str(out / name) for name in ("cells.csv", "gains.csv", "runs.csv")]
        assert (out / "cells.csv").read_bytes() == cells

    def test_json_round_trip(self, tmp_path, climate_csv):
        cfg = write_config(tmp_path, climate_csv)
        out = tmp_path / "orig2"
        main(["run", cfg, "--out", str(out)])
        re_out = tmp_path / "re2"
        assert main(["report", str(out), "--format", "json", "--out", str(re_out)]) == 0
        assert json.loads((re_out / "report.json").read_text()) == json.loads(
            (out / "report.json").read_text()
        )

    def test_missing_run_dir_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost")]) == 2

    def test_unparsable_report_is_data_error(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("{nope")
        assert main(["report", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestSynth:
    def test_writes_reference_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "ref.csv"
        assert main(["synth", str(out_csv)]) == 0
        text = out_csv.read_text().splitlines()
        assert text[0] == "date,meantemp"
        assert len(text) == 1 + 1462

    def test_output_under_a_file_is_data_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        assert main(["synth", str(taken / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory {taken}: {taken} is not a directory\n"
        assert taken.read_text() == "keep me"

    def test_output_that_is_a_directory_is_data_error(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output file {tmp_path} is a directory\n"
