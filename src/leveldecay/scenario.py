"""Scenarios: parsing, the decay pipeline and the artifact layout.

Scenario files are flat key-value text: one ``key = value`` per line, ``#``
comments allowed.  Keys use dotted paths (model.e1, coupling.family, ...);
the full schema is documented in the README.

``run_decay`` computes C(t) from the spectral data and from the time-domain
solver on one shared grid, one route after the other: the transform first,
so that a series past its panel budget fails before the far longer solves
start.  The time-domain series is extrapolated from a pair of solves at
steps 2h and 4h, h the nominal step.
``write_spectrum``, ``write_decay`` and ``write_sweep`` name the artifact
files.  The CLI and ``verify`` share them; a sweep's rows are the
``point_mass`` results of its models, rendered by ``artifacts``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .coupling import CouplingFamily, CouplingModel
from .evolution import (
    AmplitudeSeries,
    MethodTag,
    ProbabilityBoundError,
    amplitude_spectral,
    asymptotic_limit,
    weak_coupling_rate,
)
from .quadrature import NumericalError, _check_tail
from .spectrum import ModelParams, SpectralData, build_spectral_data
from .volterra import default_step, solve_ide


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter scan: the values visited and the model at each."""

    values: tuple[float, ...]
    models: tuple[ModelParams, ...]


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: model, horizon, output, optional sweep.

    ``volterra_step`` is the target of the nominal step h of ``run_decay``'s
    pair of solves at 2h and 4h; None takes ``default_step``.
    """

    name: str
    params: ModelParams
    horizon: float
    output_dir: Path | None = None
    sweep: SweepSpec | None = None
    series_points: int = 2000
    volterra_step: float | None = None


_FAMILIES = {f.value: f for f in CouplingFamily}
# The longest artifact file suffix (``write_spectrum``) and the file-name limit
# in bytes of common file systems.
_LONGEST_SUFFIX = "_spectral.json"
_NAME_MAX = 255
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


def check_positive_finite(what: str, value: float) -> None:
    """Raise ConfigError unless ``value`` is positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigError(f"{what} must be positive and finite, got {value!r}")


def _swept_model(base: ModelParams, parameter: str, value: float) -> ModelParams:
    """``base`` with ``parameter`` set to ``value`` (level_gap: e2 = e1 + value),
    its truncation certified; raises ValueError."""
    e1, coupling = base.e1, base.coupling
    if parameter == "g_sq":
        coupling = CouplingModel(coupling.family, value, coupling.cutoff)
    elif parameter == "lambda_cutoff":
        coupling = CouplingModel(coupling.family, coupling.strength_sq, value)
    params = ModelParams(e1, e1 + value if parameter == "level_gap" else base.e2, coupling)
    _check_tail(params)
    return params


def parse_scenario_text(text: str) -> Scenario:
    """Parse a scenario config from flat key-value text.

    The model and every swept model are built here, once, and each must pass
    the truncation check (60 L finite and the |V|^2 remainder past it below
    1e-10: 3d g2 L < 1.1e16, 2d g2 < 6.9e17); any invalid model is a ConfigError.
    """
    table = _parse_kv(text)
    name = table.pop("name", "")
    if not name:
        raise ConfigError("missing required key 'name' (must be nonempty)")
    # Every artifact path is <out>/<name>_<kind>, so the name must stay a file name.
    if name in (".", "..") or any(c and c in name for c in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(
            f"name must be a plain file name (no path separator or NUL, not . or ..), "
            f"got {name!r}"
        )
    n_bytes = len(f"{name}{_LONGEST_SUFFIX}".encode())
    if n_bytes > _NAME_MAX:
        raise ConfigError(
            f"name too long: <name>{_LONGEST_SUFFIX} takes {n_bytes} UTF-8 bytes, "
            f"above the file-name limit of {_NAME_MAX}"
        )

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
    check_positive_finite("horizon", horizon)

    series_points = 2000
    if "series.points" in table:
        points = _take_float(table, "series.points")
        if not (points.is_integer() and points >= 2):
            raise ConfigError(f"series.points must be a finite integer >= 2, got {points!r}")
        series_points = int(points)
    volterra_step = _take_float(table, "volterra.step", required=False)
    if volterra_step is not None:
        check_positive_finite("volterra.step", volterra_step)

    output_dir = table.pop("output_dir", None)

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

    if table:
        raise ConfigError(f"unknown keys: {sorted(table)}")
    sweep = None
    try:
        _check_tail(params)
        if sweep_param is not None:
            sweep = SweepSpec(values, tuple(_swept_model(params, sweep_param, v) for v in values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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


# The most solver steps ``run_decay`` accepts (one complex array is then 1 GiB).
_MAX_STEPS = 2**26


@dataclass(frozen=True)
class DecayRun:
    """Both routes' series on one grid, max |C_s - C_v|, the spectral data,
    and the (v_2h, v_4h) pair of solves on that grid that ``vol`` is
    extrapolated from."""

    spec: SpectralData
    spectral: AmplitudeSeries
    vol: AmplitudeSeries
    deviation: float
    pair: tuple[AmplitudeSeries, AmplitudeSeries]


def run_decay(scenario: Scenario) -> DecayRun:
    """The spectral and the time-domain series of a scenario on a shared grid.

    The time-domain series is the Richardson extrapolation (4 v_2h - v_4h) / 3
    of two solves at steps 2h and 4h, h the nominal step: the Heun scheme's
    h^2 error cancels, and the larger solve holds half the samples of one at
    h.  h is an exact divisor of the output spacing with ``per_output`` a
    multiple of 4, so every ``per_output // 2``-th sample of the 2h solve and
    every ``per_output // 4``-th of the 4h solve is an output time, and the
    solves return only those; the run keeps them as its ``pair``.  A grid of
    more than 2**26 steps at h is a ConfigError before any work.  The
    transform runs first: it checks its panel budget before it builds a node,
    so a horizon past the budget raises before either solve starts.  Then the
    2h solve runs, then the 4h solve.  An extrapolation that leaves the
    overshoot budget, where each solve kept it, raises ProbabilityBoundError
    naming the extrapolation and the fix.
    """
    dt = scenario.horizon / (scenario.series_points - 1)
    h_target = scenario.volterra_step or default_step(scenario.params)
    # Steps of h per output interval: the smallest multiple of 4 that is at
    # least dt / h_target, ceiled as a float, so that an infinite ratio is
    # refused below instead of raising in math.ceil.
    per_output = 4.0 * np.ceil(dt / h_target / 4.0)
    steps = (scenario.series_points - 1) * per_output
    if not steps <= _MAX_STEPS:
        raise ConfigError(
            f"the time-domain solve needs {steps:.4g} steps, more than "
            f"{_MAX_STEPS:,}; lower --horizon (horizon =) or series.points, "
            "or raise volterra.step"
        )
    spec = build_spectral_data(scenario.params)
    per_output = int(per_output)
    step = dt / per_output
    n = (scenario.series_points - 1) * per_output
    times = np.arange(0, n + 1, per_output) * step
    spectral = amplitude_spectral(spec, times)
    v2h, v4h = (
        solve_ide(scenario.params, horizon=scenario.horizon, step=f * step,
                  stride=per_output // f)
        for f in (2, 4)
    )
    if not (np.array_equal(v2h.times, times) and np.array_equal(v4h.times, times)):
        raise NumericalError("solver grid does not contain the output grid")
    try:
        vol = AmplitudeSeries(
            times, (4.0 * v2h.amplitude - v4h.amplitude) / 3.0, MethodTag.VOLTERRA
        )
    except ProbabilityBoundError as exc:
        raise ProbabilityBoundError(
            f"{exc} in the extrapolation (4 v_2h - v_4h)/3 of two solves that "
            "each kept their budget; shorten --horizon (horizon =) or lower "
            "volterra.step"
        ) from exc
    deviation = float(np.max(np.abs(spectral.amplitude - vol.amplitude)))
    return DecayRun(spec, spectral, vol, deviation, (v2h, v4h))


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
        gamma_estimate=weak_coupling_rate(run.spec.params),
        max_deviation=run.deviation,
    )


def write_sweep(
    out_dir: Path, name: str, values: Iterable[float], points: Iterable[tuple]
) -> None:
    """The threshold table of one sweep: each value and its ``point_mass``."""
    artifacts.write_sweep_csv(out_dir / f"{name}_sweep.csv", values, points)
