"""Correctness checks of leveldecay outputs, independent of its solvers.

Eigenvalue and weight come from closed forms in the exponential integral E1
(Abramowitz & Stegun 5.1), solved by brentq in u = ln(e1 - e0) so that roots
whose distance to the edge underflows are still found.  With a = e1 - lam and
z = a / L:

    2d:  k(a) = g e^z E1(z)             I(a) = g (1/a - e^z E1(z) / L)
    3d:  k(a) = g (L - a e^z E1(z))     I(a) = g ((1 + z) e^z E1(z) - 1)

where e2 - lam = k(lam) fixes e0 and w = 1 / (1 + I(a0)).  The cross-route
and P(0) checks read the CSVs the program wrote.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1

EULER_GAMMA = 0.5772156649015329

E0_TOL = 1e-8          # criterion 8 of the acceptance matrix
WEIGHT_TOL = 1e-8
CROSS_TOL = 1e-3       # criterion 5: |C_s - C_v| up to t = 50 / gap
CROSS_T = 50.0
P0_TOL = 1e-6


@dataclass(frozen=True)
class Model:
    """One scenario as the benchmark generated it (e1 = 0 throughout)."""

    family: str        # "2d-exp" or "3d-exp"
    g_sq: float
    cutoff: float
    gap: float


@dataclass(frozen=True)
class BoundState:
    exists: bool
    e0: float | None
    weight: float


def _ee1(u: float, cutoff: float) -> float:
    """e^z E1(z) at z = e^u / cutoff, with the small-z limit where z underflows."""
    z = math.exp(u) / cutoff
    if z < 1e-300:
        return -EULER_GAMMA - (u - math.log(cutoff))
    return math.exp(z) * float(exp1(z))


def bound_state(m: Model) -> BoundState:
    """Closed-form e0 and weight; weight 0 and no e0 below the 3d threshold."""
    g, cut = m.g_sq, m.cutoff
    if m.family == "3d-exp" and g * cut <= m.gap:
        return BoundState(False, None, 0.0)

    def k(u: float) -> float:
        if m.family == "2d-exp":
            return g * _ee1(u, cut)
        return g * (cut - math.exp(u) * _ee1(u, cut))

    def f(u: float) -> float:
        return m.gap + math.exp(u) - k(u)

    u_hi = math.log(g * cut + math.sqrt(g * cut) + 1.0)
    u_lo = min(-700.0, -(m.gap / g) - abs(math.log(cut)) - 10.0)
    if not f(u_lo) < 0.0 < f(u_hi):
        raise ValueError(f"closed-form bracket failed for {m}")
    u = brentq(f, u_lo, u_hi, xtol=1e-14, rtol=1e-15, maxiter=500)
    a = math.exp(u)
    if a < 1e-280:
        return BoundState(True, -a, 0.0)
    ee1 = _ee1(u, cut)
    if m.family == "2d-exp":
        integral = g * (1.0 / a - ee1 / cut)
    else:
        integral = g * ((1.0 + a / cut) * ee1 - 1.0)
    return BoundState(True, -a, 1.0 / (1.0 + integral))


def coupling_sq(m: Model, x: float) -> float:
    if m.family == "3d-exp":
        return m.g_sq * x * math.exp(-x / m.cutoff)
    return m.g_sq * math.exp(-x / m.cutoff)


class Margins:
    """Largest observed distance to each gate, over all items of a run."""

    def __init__(self) -> None:
        self.e0_err = 0.0
        self.pinf_err = 0.0
        self.cross_dev = 0.0


def _err(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def _check_sweep_row(m: Model, value: float, cols: list[str], margins: Margins) -> list[str]:
    errors: list[str] = []
    sweep_value, rhs, exists, e0, weight, p_inf = cols
    _err(errors, float(sweep_value) == value, f"sweep_value {sweep_value} != {value!r}")
    ref = bound_state(m)
    if m.family == "2d-exp":
        _err(errors, rhs == "inf", f"2d threshold_rhs {rhs!r} is not inf")
    else:
        gl = m.g_sq * m.cutoff
        _err(errors, abs(float(rhs) - gl) <= 1e-12 * gl, f"threshold_rhs {rhs} != g2*L {gl!r}")
    _err(errors, exists == ("true" if ref.exists else "false"),
         f"exists={exists!r}, closed form says {ref.exists}")
    if errors:
        return errors
    if ref.exists:
        e0_err = abs(float(e0) - ref.e0)
        w_err = abs(float(weight) - ref.weight)
        pinf_err = abs(float(p_inf) - ref.weight**2)
        margins.e0_err = max(margins.e0_err, e0_err)
        margins.pinf_err = max(margins.pinf_err, pinf_err)
        _err(errors, e0_err <= E0_TOL, f"|e0 - closed form| = {e0_err:.3e} > {E0_TOL}")
        _err(errors, w_err <= WEIGHT_TOL, f"|w - closed form| = {w_err:.3e} > {WEIGHT_TOL}")
        _err(errors, pinf_err <= WEIGHT_TOL,
             f"|p_inf - w^2| = {pinf_err:.3e} > {WEIGHT_TOL}")
    else:
        _err(errors, e0 == "" and float(weight) == 0.0 and float(p_inf) == 0.0,
             f"below threshold but e0={e0!r}, w={weight}, p_inf={p_inf}")
    return [f"value {value!r}: {e}" for e in errors]


def check_sweep(models, values, csv_path: Path, margins: Margins) -> list[str]:
    """Check every row of a sweep CSV against the closed forms."""
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != len(values):
        return [f"{csv_path.name}: {len(rows)} rows for {len(values)} sweep values"]
    errors: list[str] = []
    for m, value, row in zip(models, values, rows):
        errors += _check_sweep_row(m, value, row.split(","), margins)
    return errors


def _read_series(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3]


def check_decay(m: Model, out_dir: Path, name: str, margins: Margins) -> list[str]:
    """Check the two series CSVs and the decay JSON of one decay item."""
    errors: list[str] = []
    t_s, c_s, p_s = _read_series(out_dir / f"{name}_spectral.csv")
    t_v, c_v, p_v = _read_series(out_dir / f"{name}_volterra.csv")
    summary = json.loads((out_dir / f"{name}_decay.json").read_text(encoding="utf-8"))
    if t_s.shape != t_v.shape or np.any(t_s != t_v):
        return ["spectral and volterra series sample different times"]
    for tag, t, p in (("spectral", t_s, p_s), ("volterra", t_v, p_v)):
        _err(errors, t[0] == 0.0 and abs(p[0] - 1.0) <= P0_TOL,
             f"{tag}: P(0) = {p[0]!r} at t = {t[0]!r}, expected 1")
    mask = t_s <= CROSS_T / m.gap
    dev = float(np.max(np.abs(c_s[mask] - c_v[mask])))
    margins.cross_dev = max(margins.cross_dev, dev)
    _err(errors, dev <= CROSS_TOL,
         f"max |C_s - C_v| up to t = {CROSS_T}/gap is {dev:.3e} > {CROSS_TOL}")
    ref = bound_state(m)
    pinf_err = abs(summary["p_infinity"] - ref.weight**2)
    margins.pinf_err = max(margins.pinf_err, pinf_err)
    _err(errors, pinf_err <= WEIGHT_TOL,
         f"|p_infinity - closed-form w^2| = {pinf_err:.3e} > {WEIGHT_TOL}")
    gamma = 2.0 * math.pi * coupling_sq(m, m.gap)
    _err(errors, abs(summary["gamma_estimate"] - gamma) <= 1e-12 * gamma,
         f"gamma_estimate {summary['gamma_estimate']!r} != 2*pi*|V(gap)|^2 = {gamma!r}")
    return errors
