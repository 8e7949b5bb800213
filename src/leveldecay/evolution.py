"""Survival amplitude and probability from spectral data.

The amplitude of the initially excited state is the Fourier transform of its
spectral measure: a point-mass term w * exp(-i e0 t) when the bound state
exists, plus the transform of the continuous density,

    C(t) = w exp(-i e0 t) + integral of exp(-i lam t) rho(lam) d lam,

and P(t) = |C(t)|^2.  The continuous term is evaluated from the tabulated
density with a phase-aware panel rule: each table segment is split so that no
panel spans more than a quarter oscillation period 2*pi/t, and a fixed
Gauss-Legendre rule is applied to the interpolated density times the phase
factor on every panel.  As t grows the panel count grows linearly; requests
beyond the configured panel budget raise instead of silently degrading.

The point term survives at late times while the continuous term decays, so
P(t) tends to w^2 (zero when no bound state exists).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .coupling import coupling_sq
from .quadrature import QuadratureConfig
from .spectrum import ModelParams, SpectralData, k_pv_closed


class OscillatoryBudgetExceededError(RuntimeError):
    """Requested time needs more oscillation panels than the configured budget."""


class MethodTag(enum.Enum):
    """Which route produced an amplitude series."""

    SPECTRAL = "spectral"
    VOLTERRA = "volterra"


# Small overshoot budgets on P: the spectral route is held to the spectral
# measure's own tolerance, the time-stepped route to its discretization budget
# |y| <= 1 + 1e-4.
_P_BOUND = {MethodTag.SPECTRAL: 1e-6, MethodTag.VOLTERRA: 2.1e-4}


@dataclass(frozen=True)
class AmplitudeSeries:
    """Survival amplitude C(t) and probability P(t) on an increasing time grid."""

    times: np.ndarray
    amplitude: np.ndarray
    probability: np.ndarray
    method_tag: MethodTag

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.amplitude)
        p = np.asarray(self.probability, dtype=float)
        if not (t.ndim == 1 and t.shape == c.shape == p.shape):
            raise ValueError("times, amplitude, probability must be 1-d and congruent")
        if t.size == 0:
            raise ValueError("empty series")
        if t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be nonnegative and strictly increasing")
        if np.max(np.abs(np.abs(c) ** 2 - p)) > 1e-12:
            raise ValueError("probability is not |amplitude|^2")
        bound = 1.0 + _P_BOUND[self.method_tag]
        if np.any(p > bound) or np.any(p < 0.0):
            raise ValueError(f"probability leaves [0, {bound}]: overshoot or bad series")
        if t[0] == 0.0 and abs(p[0] - 1.0) > 1e-6:
            raise ValueError(f"P(0) = {p[0]!r} deviates from 1 beyond 1e-6")


# 6-point Gauss-Legendre rule on [-1, 1]; with panels capped at a quarter
# period the phase factor is resolved far below the table's own accuracy.
_GL_X = np.array([
    -0.9324695142031521, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031521,
])
_GL_W = np.array([
    0.1713244923791704, 0.3607615730481386, 0.4679139345726910,
    0.4679139345726910, 0.3607615730481386, 0.1713244923791704,
])

_SEGMENT_MASS_FLOOR = 1e-15


def _ac_transform_single(
    interp: PchipInterpolator,
    edges: np.ndarray,
    widths: np.ndarray,
    masses: np.ndarray,
    t: float,
    max_panels: int,
) -> complex:
    """Transform of the tabulated density at one (possibly negative) time."""
    if t == 0.0:
        reps = np.ones(widths.shape, dtype=np.int64)
    else:
        quarter = 0.5 * math.pi / abs(t)
        reps = np.ceil(widths / quarter).astype(np.int64)
        np.clip(reps, 1, None, out=reps)
        reps[masses < _SEGMENT_MASS_FLOOR] = 1
    total = int(reps.sum())
    if total > max_panels:
        raise OscillatoryBudgetExceededError(
            f"t={t!r} needs {total} panels, budget is {max_panels}; "
            "raise the budget or report the asymptotic level instead"
        )
    sub_w = np.repeat(widths / reps, reps)
    offset = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
    sub_a = np.repeat(edges[:-1], reps) + offset * sub_w
    half = 0.5 * sub_w
    nodes = (sub_a + half)[:, None] + half[:, None] * _GL_X[None, :]
    dens = interp(nodes.ravel()).reshape(nodes.shape)
    phase = np.exp(-1j * t * nodes)
    return complex(((dens * phase) @ _GL_W * half).sum())


def _amplitude_points(
    spec: SpectralData,
    times: np.ndarray,
    max_panels: int,
) -> np.ndarray:
    """C(t) at arbitrary (signed) times; no series-level validation."""
    if spec.normalization_defect > 1e-4:
        raise ValueError("spectral data failed its normalization check")
    times = np.asarray(times, dtype=float)
    if spec.degenerate:
        return np.exp(-1j * spec.eigenvalue * times)
    interp = PchipInterpolator(spec.grid, spec.density)
    widths = np.diff(spec.segments)
    out = np.empty(times.shape, dtype=complex)
    for i, t in enumerate(times):
        out[i] = _ac_transform_single(
            interp, spec.segments, widths, spec.segment_mass, float(t), max_panels
        )
    if spec.eigenvalue is not None:
        out += spec.weight * np.exp(-1j * spec.eigenvalue * times)
    return out


def amplitude_spectral(
    spec: SpectralData,
    times,
    cfg: QuadratureConfig | None = None,
    max_panels_per_time: int = 500_000,
) -> AmplitudeSeries:
    """Survival amplitude series over ``times`` from assembled spectral data.

    ``times`` must be nonnegative and strictly increasing.  The spectral data
    must have passed its normalization check (build_spectral_data enforces
    this).  Raises OscillatoryBudgetExceededError for times whose panel count
    exceeds ``max_panels_per_time``.
    """
    del cfg  # tolerances are baked into the density table; kept for symmetry
    times = np.asarray(times, dtype=float)
    amp = _amplitude_points(spec, times, max_panels_per_time)
    prob = np.abs(amp) ** 2
    return AmplitudeSeries(times, amp, prob, MethodTag.SPECTRAL)


def asymptotic_limit(spec: SpectralData) -> float:
    """Late-time limit of P(t): the squared eigenvalue weight, or 0 without one."""
    if spec.eigenvalue is None:
        return 0.0
    return spec.weight**2


@dataclass(frozen=True)
class WeakCouplingRate:
    """Lorentzian-approximation decay width and level-shift estimate."""

    gamma: float
    shift_estimate: float


def weak_coupling_rate(
    params: ModelParams,
    cfg: QuadratureConfig | None = None,
) -> WeakCouplingRate:
    """Resonance width 2*pi*|V(e2 - e1)|^2 and shift -PV k(e2), for diagnostics.

    In the weak-coupling decaying regime, ln P(t) falls with slope -gamma over
    the first few lifetimes; the estimate degrades as coupling grows.  ``cfg``
    is accepted for interface uniformity; the shift is a closed form.
    """
    gamma = 2.0 * math.pi * coupling_sq(params.coupling, params.level_gap)
    shift = -float(k_pv_closed(params, params.e2)) if params.coupling.strength_sq > 0.0 else 0.0
    return WeakCouplingRate(gamma=gamma, shift_estimate=shift)


def conjugate_symmetry_check(
    spec: SpectralData,
    t: float,
    tol: float = 1e-8,
    max_panels_per_time: int = 500_000,
) -> bool:
    """Verify C(-t) equals the complex conjugate of C(t) within ``tol``.

    Holds exactly for any real spectral measure, so a failure indicates a
    defect in the transform evaluation, not in the data.
    """
    pair = _amplitude_points(spec, np.array([t, -t]), max_panels_per_time)
    return bool(abs(pair[1] - np.conj(pair[0])) <= tol)


def fitted_decay_rate(series: AmplitudeSeries, p_lo: float = 0.1, p_hi: float = 0.9) -> float:
    """Decay rate from a linear fit of ln P(t) where p_lo < P < p_hi.

    Returns the positive rate (minus the fitted slope).  Raises if fewer than
    two samples fall inside the window.
    """
    t = np.asarray(series.times, dtype=float)
    p = np.asarray(series.probability, dtype=float)
    mask = (p > p_lo) & (p < p_hi) & (t > 0.0)
    if int(mask.sum()) < 2:
        raise ValueError("not enough samples inside the fit window")
    slope = np.polyfit(t[mask], np.log(p[mask]), 1)[0]
    return float(-slope)
