"""Command-line entry point: argument parsing, commands and exit codes.

Commands: ``spectrum <config>``, ``decay <config>``, ``sweep <config>``,
``verify``.  Scenario configs are parsed, computed and written by
``leveldecay.scenario``, the same pipeline that ``verify`` runs.  Each command
takes only the flags it reads.  Exit codes: 0 ok, 2 numerical inconsistency,
3 config or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import cache
from pathlib import Path

from .evolution import OscillatoryBudgetExceededError
from .quadrature import NonConvergenceError, _check_tail
from .scenario import (
    ConfigError,
    Scenario,
    load_scenario,
    run_decay,
    sweep_models,
    sweep_point,
    write_decay,
    write_spectrum,
    write_sweep,
)
from .spectrum import (
    BracketFailureError,
    ClosedFormMismatchError,
    ModelParams,
    NormalizationFailureError,
    ThresholdMarginalError,
    build_spectral_data,
)
from .volterra import KernelMismatchError

_DEVIATION_GATE = 1e-2


def cmd_spectrum(scenario: Scenario, out_dir: Path) -> int:
    spec = build_spectral_data(scenario.params)
    write_spectrum(out_dir, scenario.name, spec)
    return 0


def cmd_decay(scenario: Scenario, out_dir: Path) -> int:
    run = run_decay(scenario)
    write_decay(out_dir, scenario.name, run)
    if run.deviation > _DEVIATION_GATE:
        msg = f"cross-method deviation {run.deviation!r} exceeds {_DEVIATION_GATE}"
        print(f"error: numerical: {msg}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(scenario: Scenario, swept: list[ModelParams], out_dir: Path, jobs: int) -> int:
    if scenario.sweep is None:
        raise ConfigError("sweep command requires sweep.parameter and sweep.values")
    values = scenario.sweep.values
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(sweep_point, swept, values))
    else:
        rows = list(map(sweep_point, swept, values))
    for row in rows:
        if row["exists"] == "skipped":
            print(
                f"note: sweep point {row['sweep_value']!r} sits on the threshold "
                "within 1e-8; skipped",
                file=sys.stderr,
            )
    write_sweep(out_dir, scenario.name, rows)
    return 0


def cmd_verify(out_dir: Path) -> int:
    from .verification import run_matrix

    results = run_matrix(out_dir)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def _certify_truncation(scenario: Scenario, swept: list[ModelParams]) -> None:
    """Reject a model, or any swept model, whose |V|^2 remainder beyond the
    truncation exceeds its bound (3d g2 L >= 1.1e16, 2d g2 >= 6.9e17)."""
    for params in [scenario.params, *swept]:
        try:
            _check_tail(params, 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _resolve_out_dir(args, scenario: Scenario | None) -> Path:
    out = args.out or (scenario and scenario.output_dir) or Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dispatch(args) -> int:
    if args.command == "verify":
        return cmd_verify(_resolve_out_dir(args, None))
    scenario = load_scenario(args.config)
    if args.command == "decay" and args.horizon is not None:
        if args.horizon <= 0:
            raise ConfigError("--horizon must be positive")
        scenario = replace(scenario, horizon=args.horizon)
    if args.command == "sweep" and args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    swept = sweep_models(scenario)
    _certify_truncation(scenario, swept)
    out_dir = _resolve_out_dir(args, scenario)
    if args.command == "spectrum":
        return cmd_spectrum(scenario, out_dir)
    if args.command == "decay":
        return cmd_decay(scenario, out_dir)
    return cmd_sweep(scenario, swept, out_dir, args.jobs)


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
        help="worker processes for sweep points (at most the CPU count)",
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
    except (
        NonConvergenceError,
        BracketFailureError,
        ClosedFormMismatchError,
        NormalizationFailureError,
        ThresholdMarginalError,
        KernelMismatchError,
        OscillatoryBudgetExceededError,
    ) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
