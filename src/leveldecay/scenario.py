"""Scenarios: parsing, the decay pipeline and the artifact layout.

Scenario files are flat key-value text: one ``key = value`` per line, ``#``
comments allowed.  Keys use dotted paths (model.e1, coupling.family, ...);
the full schema is documented in the README.

``run_decay`` computes C(t) from the spectral data and from the time-domain
solver on one shared grid; ``write_spectrum``, ``write_decay`` and
``write_sweep`` name the artifact files.  The CLI and ``verify`` share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import artifacts
from .coupling import CouplingFamily, CouplingModel
from .evolution import (
    AmplitudeSeries,
    amplitude_spectral,
    asymptotic_limit,
    weak_coupling_rate,
)
from .spectrum import (
    ModelParams,
    SpectralData,
    build_spectral_data,
    eigen_weight,
    find_eigenvalue,
    threshold_check,
)
from .volterra import default_step, solve_ide


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter scan: which knob to move and the values to visit."""

    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: model, horizon, output, optional sweep."""

    name: str
    params: ModelParams
    horizon: float
    output_dir: Path | None = None
    sweep: SweepSpec | None = None
    series_points: int = 2000
    volterra_step: float | None = None


_FAMILIES = {f.value: f for f in CouplingFamily}
_SWEEP_PARAMETERS = ("g_sq", "lambda_cutoff", "level_gap")


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


@dataclass(frozen=True)
class DecayRun:
    """Both routes' series on one grid, max |C_s - C_v|, and the spectral data."""

    spec: SpectralData
    spectral: AmplitudeSeries
    vol: AmplitudeSeries
    deviation: float


def run_decay(scenario: Scenario) -> DecayRun:
    """The spectral and the time-domain series of a scenario on a shared grid.

    The solver step is an exact divisor of the output spacing, so every
    ``per_output``-th solver sample is an output time.  The transform runs
    first: a horizon past its panel budget fails before the solve.
    """
    spec = build_spectral_data(scenario.params)
    dt = scenario.horizon / (scenario.series_points - 1)
    h_target = scenario.volterra_step or default_step(scenario.params)
    per_output = max(1, math.ceil(dt / h_target))
    step = dt / per_output
    n = (scenario.series_points - 1) * per_output
    spectral = amplitude_spectral(spec, np.arange(0, n + 1, per_output) * step)
    vol = artifacts.subsample(
        solve_ide(scenario.params, horizon=scenario.horizon, step=step), per_output
    )
    if not np.array_equal(vol.times, spectral.times):
        raise RuntimeError("solver grid does not contain the output grid")
    deviation = float(np.max(np.abs(spectral.amplitude - vol.amplitude)))
    return DecayRun(spec, spectral, vol, deviation)


def write_spectrum(out_dir: Path, name: str, spec: SpectralData) -> None:
    """The density table and the spectral summary of one scenario."""
    artifacts.write_density_csv(out_dir / f"{name}_density.csv", spec)
    artifacts.write_spectral_json(out_dir / f"{name}_spectral.json", spec)


def write_decay(out_dir: Path, name: str, run: DecayRun) -> None:
    """Both series of one scenario and their summary."""
    artifacts.write_series_csv(out_dir / f"{name}_spectral.csv", run.spectral)
    artifacts.write_series_csv(out_dir / f"{name}_volterra.csv", run.vol)
    artifacts.write_decay_json(
        out_dir / f"{name}_decay.json",
        p_infinity=asymptotic_limit(run.spec),
        gamma_estimate=weak_coupling_rate(run.spec.params).gamma,
        max_deviation=run.deviation,
    )


def write_sweep(out_dir: Path, name: str, rows: list[dict]) -> None:
    """The threshold table of one sweep."""
    artifacts.write_sweep_csv(out_dir / f"{name}_sweep.csv", rows)


def _apply_sweep_value(params: ModelParams, parameter: str, value: float) -> ModelParams:
    if parameter == "g_sq":
        return replace(params, coupling=replace(params.coupling, strength_sq=value))
    if parameter == "lambda_cutoff":
        return replace(params, coupling=replace(params.coupling, cutoff=value))
    return replace(params, e2=params.e1 + value)


def sweep_models(scenario: Scenario) -> list[ModelParams]:
    """The model at each sweep value, in order; [] without a sweep."""
    if (spec := scenario.sweep) is None:
        return []
    return [_apply_sweep_value(scenario.params, spec.parameter, v) for v in spec.values]


def sweep_point(params: ModelParams, value: float) -> dict:
    """Threshold data for the sweep point ``value`` with model ``params``;
    marginal points are flagged, not solved."""
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
