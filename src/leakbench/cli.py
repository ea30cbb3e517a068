"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/split error, 3 contaminated
clean cell.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .audit import audit
from .errors import ContaminationError, LeakbenchError
from .runner import (
    ExperimentConfig,
    _csv_text,
    cell_key,
    emit_report,
    gains_csv,
    grid_splits,
    load_report,
    recompute_gains,
    run_experiment,
)
from .series import describe, load_csv, seasonal_decompose
from .splitting import split
from .synthetic import write_reference_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONTAMINATED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leakbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="descriptive stats + seasonal decomposition summary")
    p_stats.add_argument("csv", help="input CSV file")
    p_stats.add_argument("--value-column", default="meantemp")
    p_stats.add_argument("--date-column", default="date")
    p_stats.add_argument("--period", type=positive_int, default=365,
                         help="decomposition period in days")

    p_run = sub.add_parser("run", help="execute a full experiment grid")
    p_run.add_argument("config", help="experiment config (JSON)")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--workers", type=positive_int, default=1)
    p_run.add_argument("--keep-going", action="store_true")
    p_run.add_argument("--out", default=None, help="output directory (default ./runs/<name>)")

    p_audit = sub.add_parser("audit", help="split + contamination audit only, no training")
    p_audit.add_argument("config", help="experiment config (JSON)")
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--out", default=None, help="write audits.csv here")

    p_gain = sub.add_parser("gain", help="recompute gains from two prior cells.csv reports")
    p_gain.add_argument("clean_csv")
    p_gain.add_argument("leaky_csv")
    p_gain.add_argument("--out", default=None, help="write gains.csv here (default stdout)")

    p_report = sub.add_parser("report", help="re-emit a saved run as csv or json")
    p_report.add_argument("run_dir", help="directory containing report.json")
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
    p_report.add_argument("--out", default=None, help="output directory (default run dir)")

    p_synth = sub.add_parser("synth", help="write the bundled reference dataset as CSV")
    p_synth.add_argument("out_csv")

    return parser


def _cmd_stats(args) -> int:
    series = load_csv(args.csv, args.value_column, args.date_column)
    st = describe(series)
    print(f"series: {series.name}  ({series.timestamps[0]} .. {series.timestamps[-1]})")
    print(f"count   {st.count}")
    print(f"mean    {st.mean:.4f}")
    print(f"std     {st.std:.4f}")
    print(f"min     {st.min:.4f}")
    print(f"median  {st.median:.4f}")
    print(f"max     {st.max:.4f}")
    if len(series) >= 2 * args.period:
        dec = seasonal_decompose(series, args.period)
        profile = dec.seasonal[: args.period]
        print(f"decomposition (period {args.period}):")
        print(f"  trend range      {np.nanmin(dec.trend):.4f} .. {np.nanmax(dec.trend):.4f}")
        print(f"  seasonal span    {profile.min():.4f} .. {profile.max():.4f}")
        print(f"  residual std     {np.nanstd(dec.residual):.4f}")
    else:
        print(f"decomposition skipped: need >= {2 * args.period} points for period {args.period}")
    return EXIT_OK


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    return cfg


def _out_dir(path: Path) -> Path:
    """`path`, checked before any work is done: a LeakbenchError names it
    when it, or its nearest existing parent, is not a directory."""
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise LeakbenchError(f"output directory {path}: {p} is not a directory")
            break
    return path


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(Path(args.out) if args.out else Path("runs") / cfg.name)
    report = run_experiment(cfg, workers=args.workers, keep_going=args.keep_going)
    for fmt in ("json", "csv"):
        for path in emit_report(report, out_dir, fmt=fmt):
            print(path)
    if report.errors:
        print(f"{len(report.errors)} run(s) failed (kept going):", file=sys.stderr)
        for msg in report.errors:
            print(f"  {msg}", file=sys.stderr)
    return EXIT_OK


def _emit(out: str | None, name: str, body: str) -> None:
    """Write `body` to `name` under the directory `out` and print its path,
    or print `body` itself when there is no `out`."""
    if out:
        path = _out_dir(Path(out)) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        print(path)
    else:
        print(body, end="")


def _cmd_audit(args) -> int:
    """Audit the split of each cell's first repetition: the split whose
    audits `run` stores in its report."""
    cfg = _load_config(args)
    series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
    rows = []
    contaminated_clean = False
    for specs in grid_splits(cfg):
        for res in split(series, specs[0]):
            rep = audit(res)
            if specs[0].mode == "clean" and rep.is_contaminated:
                contaminated_clean = True
            rows.append((
                *cell_key(specs[0]), res.fold_index,
                len(res.train), len(res.test),
                rep.overlap_count, rep.contaminated_test_pairs,
            ))
    _emit(args.out, "audits.csv", _csv_text(
        "window,lag,plan,mode,fold,train_pairs,test_pairs,overlap,contaminated_test_pairs",
        rows,
    ))
    if contaminated_clean:
        print("error: clean cell audited contaminated", file=sys.stderr)
        return EXIT_CONTAMINATED
    return EXIT_OK


def _cmd_gain(args) -> int:
    _emit(args.out, "gains.csv", gains_csv(recompute_gains(args.clean_csv, args.leaky_csv)))
    return EXIT_OK


def _cmd_report(args) -> int:
    report = load_report(args.run_dir)
    run_dir = Path(args.run_dir)
    # load_report also takes the report.json file itself
    default = run_dir if run_dir.is_dir() else run_dir.parent
    out_dir = _out_dir(Path(args.out) if args.out else default)
    for path in emit_report(report, out_dir, fmt=args.format):
        print(path)
    return EXIT_OK


def _cmd_synth(args) -> int:
    path = Path(args.out_csv)
    if path.is_dir():
        raise LeakbenchError(f"output file {path} is a directory")
    _out_dir(path.parent)
    print(write_reference_csv(path))
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "run": _cmd_run,
    "audit": _cmd_audit,
    "gain": _cmd_gain,
    "report": _cmd_report,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ContaminationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTAMINATED
    except LeakbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
