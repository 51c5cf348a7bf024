"""Command-line front end.

Exit codes: 0 all checks passed, 2 regime or check failure, 3 I/O failure
or out of memory, 4 config error (unparsable, or a number a float cannot
hold) or a command line the parser refuses.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .config import check_run_number, parse_experiment, parse_sweep
from .errors import ConfigError, ModstabError
from .pipeline import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_IO,
    run_experiment,
    run_modular_check,
    write_report_text,
    write_sweep,
)
from .report import canonical_json, csv_lines


class _Parser(argparse.ArgumentParser):
    """Raises a ``ConfigError`` on a command line it refuses, instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # built on the first main call, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modstab",
        description="Construct exact radical mappings from perturbed solutions "
                    "and verify quantitative stability bounds in modular spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("config", help="path to the experiment config")
    sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sweep.add_argument("config", help="path to the sweep config")
    check = sub.add_parser("check-modular", help="certify the axioms of a modular spec")
    check.add_argument("spec", help='modular spec string, e.g. "power:p=2" or "exp"')

    for p in (run, sweep, check):
        p.add_argument("--out", help="output path (run/check) or directory (sweep)")
    for p in (run, check):
        p.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       help="report format override")
    for p in (run, sweep):
        p.add_argument("--tol", type=float, help="convergence tolerance override")
        p.add_argument("--n-max", type=int, help="iteration cap override")
        p.add_argument("--seed", type=int, help="sampling seed override")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _apply_overrides(cfg, args):
    updates = {}
    for key, label in (("tol", "--tol"), ("n_max", "--n-max"), ("seed", "--seed")):
        value = getattr(args, key)
        if value is not None:
            check_run_number(key, value, label)
            updates[key] = value
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(parse_experiment(_read(args.config)), args)
    report, code = run_experiment(cfg)
    text = write_report_text(report, cfg.fmt if args.fmt is None else args.fmt)
    _write(cfg.out if args.out is None else args.out, text)
    return code


def _cmd_sweep(args) -> int:
    sweep = parse_sweep(_read(args.config))
    sweep = dataclasses.replace(sweep, base=_apply_overrides(sweep.base, args))
    outdir = args.out if args.out is not None else sweep.outdir
    summary_path, code = write_sweep(sweep, outdir)
    print(f"wrote {summary_path}")
    return code


def _cmd_check_modular(args) -> int:
    report, code = run_modular_check(args.spec)
    if args.fmt == "csv":
        header = ["name", "passed", "worst_sample", "worst_value", "tolerance"]
        rows = [[e["name"], e["passed"], str(e["worst_sample"]),
                 e["worst_value"], e["tolerance"]] for e in report["axioms"]]
        text = csv_lines(header, rows)
    else:
        text = canonical_json(report)
    _write(args.out, text)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check_modular(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # As a sweep worker that dies before it sends its rows (an OSError).
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_IO
    except ModstabError as exc:
        # Anything that escapes the structured paths is a failed check.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
