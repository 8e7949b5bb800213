"""Command-line entry point: argument parsing, commands and exit codes.

Commands: ``spectrum <config>``, ``decay <config>``, ``sweep <config>``,
``verify``.  Scenario configs are parsed, computed and written by
``leveldecay.scenario``, the same pipeline that ``verify`` runs.  Each command
takes only the flags it reads.  Exit codes: 0 ok, 2 numerical inconsistency
(any ``NumericalError``), 3 config, usage or output error (``ConfigError``,
which covers an output directory that cannot be made, a usage error from
argparse, or an ``OSError`` while writing an artifact).  A command that
fails leaves no output directory it made behind, unless it wrote into it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

from .quadrature import NumericalError
from .scenario import (
    ConfigError,
    Scenario,
    check_positive_finite,
    load_scenario,
    run_decay,
    sweep_points,
    write_decay,
    write_spectrum,
    write_sweep,
)
from .spectrum import build_spectral_data

_DEVIATION_GATE = 1e-2


def cmd_spectrum(scenario: Scenario, out_dir: Path) -> int:
    spec = build_spectral_data(scenario.params)
    write_spectrum(out_dir, scenario.name, spec)
    return 0


def cmd_decay(scenario: Scenario, out_dir: Path) -> int:
    run = run_decay(scenario)
    write_decay(out_dir, scenario.name, run)
    if run.deviation > _DEVIATION_GATE:
        raise NumericalError(
            f"cross-method deviation {run.deviation!r} exceeds {_DEVIATION_GATE}"
        )
    return 0


def cmd_sweep(scenario: Scenario, out_dir: Path) -> int:
    values = scenario.sweep.values
    points = sweep_points(scenario.params, scenario.sweep)
    for value, (check, _, _) in zip(values, points):
        if check.marginal:
            print(
                f"note: sweep point {value!r} sits on the threshold within 1e-8; skipped",
                file=sys.stderr,
            )
    write_sweep(out_dir, scenario.name, values, points)
    return 0


def cmd_verify(out_dir: Path) -> int:
    from .verification import run_matrix

    results = run_matrix(out_dir)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def _resolve_out_dir(args, scenario: Scenario | None) -> tuple[Path, list[Path]]:
    """The output directory, made if missing, and the directories this call
    made for it, innermost first."""
    out = args.out or (scenario and scenario.output_dir) or Path.cwd()
    if out.is_dir():
        return out, []
    made = [d for d in (out, *out.parents) if not d.is_dir()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot make output directory {str(out)!r}: {exc.strerror or exc}"
        ) from exc
    return out, made


def _run(command, args, scenario: Scenario | None) -> int:
    """Run ``command`` on the output directory.  If it fails, the directories
    made for it are removed again as far as they are empty."""
    out_dir, made = _resolve_out_dir(args, scenario)
    code = 1
    try:
        code = command(out_dir)
        return code
    finally:
        if code:
            for directory in made:
                try:
                    directory.rmdir()
                except OSError:
                    break


def _dispatch(args) -> int:
    if args.command == "verify":
        return _run(cmd_verify, args, None)
    scenario = load_scenario(args.config)
    if args.command == "decay" and args.horizon is not None:
        check_positive_finite("--horizon", args.horizon)
        scenario = replace(scenario, horizon=args.horizon)
    if args.command == "sweep":
        if args.jobs != 1:
            raise ConfigError(
                f"--jobs must be 1 (sweep points run in one process), got {args.jobs}"
            )
        if scenario.sweep is None:
            raise ConfigError("sweep command requires sweep.parameter and sweep.values")
    command = {"spectrum": cmd_spectrum, "decay": cmd_decay, "sweep": cmd_sweep}[args.command]
    return _run(partial(command, scenario), args, scenario)


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each command gets only
    the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="leveldecay",
        description="Spectral simulator for decay of a level coupled to a continuum",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spectrum = sub.add_parser(
        "spectrum", help="eigenvalue, weight, threshold, and density table"
    )
    decay = sub.add_parser("decay", help="survival probability via both routes, cross-checked")
    sweep = sub.add_parser("sweep", help="threshold scan over a model parameter")
    verify = sub.add_parser("verify", help="run the built-in verification matrix")
    for cmd in (spectrum, decay, sweep, verify):
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
    for cmd in (spectrum, decay, sweep):
        cmd.add_argument("config", type=Path, help="scenario config file")
    decay.add_argument("--horizon", type=float, default=None, help="override time horizon")
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="must be 1: sweep points run in one process (kept for existing command lines)",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage error, after printing the usage
            return 3
        raise
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
