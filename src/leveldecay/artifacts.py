"""Deterministic CSV/JSON artifact writers shared by the CLI and verification.

Floats are rendered with 17 significant digits in lowercase scientific
notation so that repeated runs produce byte-identical files.  CSV files are
comma-separated with a header row and UNIX newlines.  JSON summaries are flat
objects; divergent (infinite) quantities are encoded as null, since JSON has
no literal for them.
"""

from __future__ import annotations

import json
import math
from itertools import starmap
from pathlib import Path

import numpy as np

from .evolution import AmplitudeSeries
from .spectrum import SpectralData


# 17 significant digits, lowercase scientific.
_FLOAT_FORMAT = ".16e"


def fmt(x: float) -> str:
    """17-significant-digit lowercase scientific rendering of a float."""
    return format(x, _FLOAT_FORMAT)


def _render_columns(header: str, columns) -> str:
    """CSV of float columns: one format call per row, from Python floats.

    Python floats format about twice as fast as numpy scalars.
    """
    row = ",".join(["{:" + _FLOAT_FORMAT + "}"] * len(columns)).format
    lines = [header]
    lines.extend(starmap(row, zip(*(c.tolist() for c in columns))))
    return "\n".join(lines) + "\n"


def _json_value(x):
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def render_json(obj: dict) -> str:
    payload = {k: _json_value(v) for k, v in obj.items()}
    return json.dumps(payload, indent=2) + "\n"


def write_json(path: Path, obj: dict) -> None:
    path.write_text(render_json(obj), encoding="utf-8")


def render_density_csv(spec: SpectralData) -> str:
    return _render_columns("lambda,rho", (spec.grid, spec.density))


def write_density_csv(path: Path, spec: SpectralData) -> None:
    path.write_text(render_density_csv(spec), encoding="utf-8", newline="\n")


def render_spectral_json(spec: SpectralData) -> str:
    return render_json({
        "e0": spec.eigenvalue,
        "weight": spec.weight,
        "threshold_lhs": spec.threshold_lhs,
        "threshold_rhs": spec.threshold_rhs,
        "normalization_defect": spec.normalization_defect,
        "degenerate": spec.degenerate,
    })


def write_spectral_json(path: Path, spec: SpectralData) -> None:
    path.write_text(render_spectral_json(spec), encoding="utf-8")


def render_series_csv(series: AmplitudeSeries) -> str:
    return _render_columns("t,re_c,im_c,p", (
        series.times, series.amplitude.real, series.amplitude.imag, series.probability
    ))


def write_series_csv(path: Path, series: AmplitudeSeries) -> None:
    path.write_text(render_series_csv(series), encoding="utf-8", newline="\n")


def write_decay_json(
    path: Path, p_infinity: float, gamma_estimate: float, max_deviation: float
) -> None:
    write_json(path, {
        "p_infinity": p_infinity,
        "gamma_estimate": gamma_estimate,
        "max_deviation_vs_volterra": max_deviation,
    })


def render_sweep_csv(rows: list[dict]) -> str:
    lines = ["sweep_value,threshold_rhs,exists,e0,weight,p_infinity"]
    for row in rows:
        rhs = row["threshold_rhs"]
        rhs_txt = "inf" if math.isinf(rhs) else fmt(rhs)
        e0 = row["e0"]
        lines.append(",".join([
            fmt(row["sweep_value"]),
            rhs_txt,
            row["exists"],
            fmt(e0) if e0 is not None else "",
            fmt(row["weight"]) if row["weight"] is not None else "",
            fmt(row["p_infinity"]) if row["p_infinity"] is not None else "",
        ]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path: Path, rows: list[dict]) -> None:
    path.write_text(render_sweep_csv(rows), encoding="utf-8", newline="\n")


def subsample(series: AmplitudeSeries, step: int) -> AmplitudeSeries:
    """Every ``step``-th sample of a series, as a new series.

    The samples are copied, not viewed, so the full series can be freed.
    """
    return AmplitudeSeries(
        np.asarray(series.times)[::step].copy(),
        np.asarray(series.amplitude)[::step].copy(),
        np.asarray(series.probability)[::step].copy(),
        series.method_tag,
    )
