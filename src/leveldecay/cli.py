"""Command-line entry point: scenario configs, computations, CSV/JSON artifacts.

Scenario files are flat key-value text: one ``key = value`` per line, ``#``
comments allowed.  Keys use dotted paths (model.e1, coupling.family, ...);
the full schema is documented in the README.

Commands: ``spectrum <config>``, ``decay <config>``, ``sweep <config>``,
``verify``.  Exit codes: 0 ok, 2 numerical inconsistency, 3 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import artifacts
from .coupling import CouplingFamily, CouplingModel
from .evolution import (
    AmplitudeSeries,
    OscillatoryBudgetExceededError,
    amplitude_spectral,
    asymptotic_limit,
    weak_coupling_rate,
)
from .quadrature import NonConvergenceError, QuadratureConfig, _check_tail
from .spectrum import (
    BracketFailureError,
    ClosedFormMismatchError,
    ModelParams,
    NormalizationFailureError,
    SpectralData,
    ThresholdMarginalError,
    build_spectral_data,
    eigen_weight,
    find_eigenvalue,
    threshold_check,
)
from .volterra import KernelMismatchError, StepTooLargeError, default_step, solve_ide


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter scan: which knob to move and the values to visit."""

    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: model, tolerances, horizon, output, optional sweep."""

    name: str
    params: ModelParams
    quadrature: QuadratureConfig
    horizon: float
    output_dir: Path | None = None
    sweep: SweepSpec | None = None
    series_points: int = 2000
    volterra_step: float | None = None


_FAMILIES = {f.value: f for f in CouplingFamily}
_SWEEP_PARAMETERS = ("g_sq", "lambda_cutoff", "level_gap")
_DEVIATION_GATE = 1e-2


def _parse_kv(text: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in table:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        table[key] = value.strip()
    return table


def _take_float(table: dict[str, str], key: str, required: bool = True) -> float | None:
    if key not in table:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return None
    raw = table.pop(key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc


def parse_scenario_text(text: str) -> Scenario:
    """Parse a scenario config from flat key-value text."""
    table = _parse_kv(text)
    name = table.pop("name", "")
    if not name:
        raise ConfigError("missing required key 'name' (must be nonempty)")

    e1 = _take_float(table, "model.e1")
    e2 = _take_float(table, "model.e2")
    family_raw = table.pop("coupling.family", None)
    if family_raw is None:
        raise ConfigError("missing required key 'coupling.family'")
    if family_raw not in _FAMILIES:
        raise ConfigError(
            f"coupling.family must be one of {sorted(_FAMILIES)}, got {family_raw!r}"
        )
    g_sq = _take_float(table, "coupling.g_sq")
    cutoff = _take_float(table, "coupling.lambda_cutoff")
    try:
        model = CouplingModel(_FAMILIES[family_raw], g_sq, cutoff)
        params = ModelParams(e1, e2, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    quad_kwargs = {}
    for field, key in (
        ("abs_tol", "quadrature.abs_tol"),
        ("rel_tol", "quadrature.rel_tol"),
        ("pv_window", "quadrature.pv_window"),
        ("tail_cut", "quadrature.tail_cut"),
    ):
        value = _take_float(table, key, required=False)
        if value is not None:
            quad_kwargs[field] = value
    if "quadrature.max_subdivisions" in table:
        quad_kwargs["max_subdivisions"] = int(
            _take_float(table, "quadrature.max_subdivisions")
        )
    try:
        quadrature = QuadratureConfig(**quad_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    horizon = _take_float(table, "horizon", required=False)
    if horizon is None:
        horizon = 200.0 / params.level_gap
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ConfigError(f"horizon must be positive and finite, got {horizon!r}")

    series_points = 2000
    if "series.points" in table:
        series_points = int(_take_float(table, "series.points"))
        if series_points < 2:
            raise ConfigError("series.points must be at least 2")
    volterra_step = _take_float(table, "volterra.step", required=False)
    if volterra_step is not None and volterra_step <= 0.0:
        raise ConfigError("volterra.step must be positive")

    output_dir = table.pop("output_dir", None)

    sweep = None
    sweep_param = table.pop("sweep.parameter", None)
    sweep_values_raw = table.pop("sweep.values", None)
    if (sweep_param is None) != (sweep_values_raw is None):
        raise ConfigError("sweep.parameter and sweep.values must be given together")
    if sweep_param is not None:
        if sweep_param not in _SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep.parameter must be one of {_SWEEP_PARAMETERS}, got {sweep_param!r}"
            )
        try:
            values = tuple(float(v) for v in sweep_values_raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"sweep.values: not a number list: {sweep_values_raw!r}") from exc
        if not values or not all(math.isfinite(v) for v in values):
            raise ConfigError("sweep.values must be a nonempty list of finite numbers")
        if sweep_param in ("lambda_cutoff", "level_gap") and any(v <= 0 for v in values):
            raise ConfigError(f"sweep over {sweep_param} requires positive values")
        if sweep_param == "g_sq" and any(v < 0 for v in values):
            raise ConfigError("sweep over g_sq requires nonnegative values")
        sweep = SweepSpec(sweep_param, values)

    if table:
        raise ConfigError(f"unknown keys: {sorted(table)}")
    return Scenario(
        name=name,
        params=params,
        quadrature=quadrature,
        horizon=horizon,
        output_dir=Path(output_dir) if output_dir else None,
        sweep=sweep,
        series_points=series_points,
        volterra_step=volterra_step,
    )


def load_scenario(path: Path) -> Scenario:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_scenario_text(text)


def decay_series(
    scenario: Scenario,
) -> tuple[AmplitudeSeries, AmplitudeSeries, float, SpectralData]:
    """Spectral and time-domain series on a shared grid, max |C_s - C_v|, and
    the spectral data the spectral series was built from.

    The solver step is chosen as an exact divisor of the output spacing so
    both series sample identical times.
    """
    params = scenario.params
    spec_data = build_spectral_data(params, cfg=scenario.quadrature)
    n_out = scenario.series_points
    dt = scenario.horizon / (n_out - 1)
    h_target = scenario.volterra_step or default_step(params)
    per_output = max(1, math.ceil(dt / h_target))
    step = dt / per_output
    vol = artifacts.subsample(
        solve_ide(params, horizon=scenario.horizon, step=step), per_output
    )
    spectral = amplitude_spectral(spec_data, vol.times)
    deviation = float(np.max(np.abs(spectral.amplitude - vol.amplitude)))
    return spectral, vol, deviation, spec_data


def cmd_spectrum(scenario: Scenario, out_dir: Path) -> int:
    spec = build_spectral_data(scenario.params, cfg=scenario.quadrature)
    artifacts.write_density_csv(out_dir / f"{scenario.name}_density.csv", spec)
    artifacts.write_spectral_json(out_dir / f"{scenario.name}_spectral.json", spec)
    return 0


def cmd_decay(scenario: Scenario, out_dir: Path) -> int:
    spectral, vol, deviation, spec_data = decay_series(scenario)
    artifacts.write_series_csv(out_dir / f"{scenario.name}_spectral.csv", spectral)
    artifacts.write_series_csv(out_dir / f"{scenario.name}_volterra.csv", vol)
    artifacts.write_decay_json(
        out_dir / f"{scenario.name}_decay.json",
        p_infinity=asymptotic_limit(spec_data),
        gamma_estimate=weak_coupling_rate(scenario.params).gamma,
        max_deviation=deviation,
    )
    if deviation > _DEVIATION_GATE:
        print(
            f"error: numerical: cross-method deviation {deviation!r} exceeds "
            f"{_DEVIATION_GATE}",
            file=sys.stderr,
        )
        return 2
    return 0


def _apply_sweep_value(params: ModelParams, parameter: str, value: float) -> ModelParams:
    if parameter == "g_sq":
        return replace(params, coupling=replace(params.coupling, strength_sq=value))
    if parameter == "lambda_cutoff":
        return replace(params, coupling=replace(params.coupling, cutoff=value))
    return replace(params, e2=params.e1 + value)


def sweep_point(scenario: Scenario, value: float, params: ModelParams | None = None) -> dict:
    """Threshold data for one sweep point (``params``: its model, if already built);
    marginal points are flagged, not solved."""
    if params is None:
        params = _apply_sweep_value(scenario.params, scenario.sweep.parameter, value)
    check = threshold_check(params)
    row = {
        "sweep_value": value,
        "threshold_rhs": check.rhs,
        "exists": "true" if check.exists else "false",
        "e0": None,
        "weight": None,
        "p_infinity": None,
    }
    if check.marginal:
        row["exists"] = "skipped"
        return row
    if check.degenerate:
        # Zero coupling: the unperturbed level survives as a point mass.
        row.update(weight=1.0, p_infinity=1.0)
        return row
    if check.exists:
        e0 = find_eigenvalue(params)
        weight = eigen_weight(params, e0)
        row.update(e0=e0, weight=weight, p_infinity=weight**2)
    else:
        row.update(weight=0.0, p_infinity=0.0)
    return row


def cmd_sweep(scenario: Scenario, swept: list[ModelParams], out_dir: Path, jobs: int) -> int:
    if scenario.sweep is None:
        raise ConfigError("sweep command requires sweep.parameter and sweep.values")
    values = scenario.sweep.values
    worker = partial(sweep_point, scenario)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(worker, values, swept))
    else:
        rows = list(map(worker, values, swept))
    for row in rows:
        if row["exists"] == "skipped":
            print(
                f"note: sweep point {row['sweep_value']!r} sits on the threshold "
                "within 1e-8; skipped",
                file=sys.stderr,
            )
    artifacts.write_sweep_csv(out_dir / f"{scenario.name}_sweep.csv", rows)
    return 0


def cmd_verify(out_dir: Path) -> int:
    from .verification import run_matrix

    results = run_matrix(out_dir)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def _certify_truncation(scenario: Scenario, swept: list[ModelParams]) -> None:
    """Reject a tail_cut too short for the model's cutoff or any swept model."""
    for params in [scenario.params, *swept]:
        try:
            _check_tail(params, 0.0, scenario.quadrature)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _resolve_out_dir(args, scenario: Scenario | None) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif scenario is not None and scenario.output_dir is not None:
        out = scenario.output_dir
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dispatch(args) -> int:
    if args.command == "verify":
        return cmd_verify(_resolve_out_dir(args, None))
    scenario = load_scenario(args.config)
    if args.tol is not None:
        scenario = replace(
            scenario, quadrature=replace(scenario.quadrature, abs_tol=args.tol)
        )
    if args.horizon is not None:
        if args.horizon <= 0:
            raise ConfigError("--horizon must be positive")
        scenario = replace(scenario, horizon=args.horizon)
    swept = []  # the model at each sweep value, built once
    if (spec := scenario.sweep) is not None:
        swept = [_apply_sweep_value(scenario.params, spec.parameter, v) for v in spec.values]
    _certify_truncation(scenario, swept)
    out_dir = _resolve_out_dir(args, scenario)
    if args.command == "spectrum":
        return cmd_spectrum(scenario, out_dir)
    if args.command == "decay":
        return cmd_decay(scenario, out_dir)
    return cmd_sweep(scenario, swept, out_dir, args.jobs)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--tol", type=float, default=None, help="override quadrature abs_tol"
    )
    parser.add_argument(
        "--horizon", type=float, default=None, help="override time horizon"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for sweeps"
    )


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="leveldecay",
        description="Spectral simulator for decay of a level coupled to a continuum",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("spectrum", "eigenvalue, weight, threshold, and density table"),
        ("decay", "survival probability via both routes, cross-checked"),
        ("sweep", "threshold scan over a model parameter"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", type=Path, help="scenario config file")
        _add_common_flags(cmd)
    verify = sub.add_parser("verify", help="run the built-in verification matrix")
    _add_common_flags(verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
        StepTooLargeError,
        OscillatoryBudgetExceededError,
    ) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
