"""Survival amplitude and probability from spectral data.

The amplitude of the initially excited state is the Fourier transform of its
spectral measure: a point-mass term w * exp(-i e0 t) when the bound state
exists, plus the transform of the continuous density,

    C(t) = w exp(-i e0 t) + integral of exp(-i lam t) rho(lam) d lam,

and P(t) = |C(t)|^2.  The continuous term is evaluated with a phase-aware
panel rule on the exact (closed-form) density: each converged segment of the
density table is split so that no panel spans more than a quarter of the
period 2*pi/t_max at the largest requested |t|, and a fixed 6-point
Gauss-Legendre rule on every panel gives one node set x_j with weights
a_j = rho(x_j) * w_j * half-width.  Then
C(t) = sum of a_j exp(-i t x_j) for every requested t.  A segment cut into r
panels of width w holds six arithmetic progressions x = c_g + p w, so on a
uniform grid t_k = t0 + k dt its sum is
sum over g of exp(-i t_k c_g) * sum over p of a_gp exp(-i t0 p w) W^(kp),
W = exp(-i dt w): a chirp-z transform (Rabiner, Schafer & Rader 1969), which
Bluestein's kp = (k^2 + p^2 - (k - p)^2) / 2 turns into one FFT convolution
per segment.  A series of n times then costs O((n + r) log(n + r)) per
segment instead of one exp per node and time.  Any other grid (signed, or
off a straight line) takes the exact exp at every node and time.  The panel
count grows linearly with t_max; a series that needs more than 500,000 panels
raises instead of silently degrading.

The point term survives at late times while the continuous term decays, so
P(t) tends to w^2 (zero when no bound state exists).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .coupling import coupling_sq
from .quadrature import _EPS, _GL_W, _GL_X
from .spectrum import (
    _NORMALIZATION_GATE,
    ModelParams,
    SpectralData,
    _density,
    k_pv_closed,
)


class OscillatoryBudgetExceededError(RuntimeError):
    """Requested time needs more oscillation panels than the transform's budget."""


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


_SEGMENT_MASS_FLOOR = 1e-15
# Panels in the node set that resolves the largest time.
_MAX_PANELS = 500_000


def _transform_nodes(
    spec: SpectralData, t_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights a (rho(x) times the rule weight) and panel counts.

    Every table segment is cut into equal panels no wider than a quarter
    period 0.5 * pi / t_max (one panel when t_max = 0 or the segment's mass is
    negligible), so the set resolves exp(-i t x) for every |t| <= t_max.  The
    nodes run segment by segment and panel by panel, six to a panel.
    """
    widths = np.diff(spec.segments)
    if t_max == 0.0:
        reps = np.ones(widths.shape, dtype=np.int64)
    else:
        quarter = 0.5 * math.pi / t_max
        reps = np.ceil(widths / quarter).astype(np.int64)
        np.clip(reps, 1, None, out=reps)
        reps[spec.segment_mass < _SEGMENT_MASS_FLOOR] = 1
    total = int(reps.sum())
    if total > _MAX_PANELS:
        raise OscillatoryBudgetExceededError(
            f"t={t_max!r} needs {total} panels, budget is {_MAX_PANELS}; "
            "the panel count grows with the largest time, so shorten the series "
            "with --horizon (or horizon = in the config)"
        )
    sub_w = np.repeat(widths / reps, reps)
    offset = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
    sub_a = np.repeat(spec.segments[:-1], reps) + offset * sub_w
    half = 0.5 * sub_w
    nodes = ((sub_a + half)[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    dens = _density(spec.params, nodes)
    return nodes, dens * (half[:, None] * _GL_W[None, :]).ravel(), reps


def _chirp_z(b: np.ndarray, theta: float, n: int) -> np.ndarray:
    """sum over p of b[:, p] exp(-i theta k p) for k < n, row by row.

    With kp = (k^2 + p^2 - (k - p)^2) / 2 the sum is
    exp(-i theta k^2/2) times the convolution of b[:, p] exp(-i theta p^2/2)
    with the chirp exp(i theta m^2/2), m = -(r-1)..n-1, done as one FFT
    product of a length that holds it without wrap-around.
    """
    r = b.shape[1]
    size = next_fast_len(n + r - 1)
    m = np.arange(max(n, r), dtype=float)
    chirp = np.exp(0.5j * theta * (m * m))
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp[:n]
    kernel[size - r + 1:] = chirp[r - 1:0:-1]  # m = -(r-1)..-1, wrapped
    rows = np.zeros((b.shape[0], size), dtype=complex)
    np.multiply(b, chirp[:r].conj(), out=rows[:, :r])
    conv = np.fft.ifft(np.fft.fft(rows, axis=1) * np.fft.fft(kernel), axis=1)
    return conv[:, :n] * chirp[:n].conj()


def _grid_phases(c: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i t_k c) on a uniform grid, as (len(c), n).

    Every m-th time (m^2 >= n) takes its exact exp and the times between it
    and the next add exp(-i s dt c), s < m: two short exp tables and one
    outer product, with no rounding carried from one time to the next.
    """
    n = times.size
    m = math.isqrt(n - 1) + 1
    coarse = np.exp(np.multiply.outer(c, -1j * times[::m]))
    fine = np.exp(np.multiply.outer(c, -1j * dt * np.arange(m)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(c.size, -1)[:, :n]


def _uniform_sums(
    spec: SpectralData, x: np.ndarray, a: np.ndarray, reps: np.ndarray,
    times: np.ndarray, dt: float,
) -> np.ndarray:
    """sum of a_j exp(-i t_k x_j) on a uniform grid, one segment at a time.

    A segment of r panels of width w has nodes c_g + p w (c_g its first
    panel's nodes), so its sum is the chirp-z transform of
    a_gp exp(-i t0 p w) at W = exp(-i dt w), each row g turned by
    exp(-i t_k c_g).  A one-panel segment's inner sum is a_g0 (W^0 = 1).
    """
    widths = np.diff(spec.segments)
    rule = _GL_X.size
    t0 = float(times[0])
    out = np.zeros(times.shape, dtype=complex)
    start = 0
    for width, r in zip(widths, reps.tolist()):
        stop = start + rule * r
        c = x[start:start + rule]
        b = a[start:stop].reshape(r, rule).T
        if r > 1:
            w = width / r
            b = _chirp_z(b * np.exp(-1j * t0 * w * np.arange(r)), dt * w, times.size)
        out += (_grid_phases(c, times, dt) * b).sum(axis=0)
        start = stop
    return out


def _amplitude_points(spec: SpectralData, times: np.ndarray) -> np.ndarray:
    """C(t) at arbitrary (signed) times; no series-level validation.

    C(t_k) = sum of a_j exp(-i t_k x_j) over one node set resolved at max |t|.
    On a uniform grid every segment's sum is a chirp-z transform
    (``_uniform_sums``); on any other grid every node and time takes the
    exact exp.
    """
    if spec.normalization_defect > _NORMALIZATION_GATE:
        raise ValueError("spectral data failed its normalization check")
    times = np.asarray(times, dtype=float)
    if spec.degenerate:
        return np.exp(-1j * spec.eigenvalue * times)
    t_max = float(np.max(np.abs(times), initial=0.0))
    x, a, reps = _transform_nodes(spec, t_max)
    n = times.size
    dt = float(times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    # Uniform means increasing and off a straight line by rounding only.
    uniform = dt > 0.0 and float(
        np.max(np.abs(times - (times[0] + dt * np.arange(n))))
    ) <= 64.0 * _EPS * t_max
    if uniform:
        out = _uniform_sums(spec, x, a, reps, times, dt)
    else:
        phase = np.empty(x.shape, dtype=complex)
        # a @ (real, imag) pairs sums both parts in one real product, in place.
        phase_re_im = phase.view(np.float64).reshape(-1, 2)
        out = np.empty(times.shape, dtype=complex)
        for i, t in enumerate(times):
            np.multiply(x, -1j * t, out=phase)
            np.exp(phase, out=phase)
            re, im = a @ phase_re_im
            out[i] = complex(re, im)
    if spec.eigenvalue is not None:
        out += spec.weight * np.exp(-1j * spec.eigenvalue * times)
    return out


def amplitude_spectral(spec: SpectralData, times) -> AmplitudeSeries:
    """Survival amplitude series over ``times`` from assembled spectral data.

    ``times`` must be nonnegative and strictly increasing.  The spectral data
    must have passed its normalization check (build_spectral_data enforces
    this).  Raises OscillatoryBudgetExceededError when the panel set that
    resolves the largest time exceeds 500,000 panels.
    """
    times = np.asarray(times, dtype=float)
    amp = _amplitude_points(spec, times)
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


def weak_coupling_rate(params: ModelParams) -> WeakCouplingRate:
    """Resonance width 2*pi*|V(e2 - e1)|^2 and shift -PV k(e2), for diagnostics.

    In the weak-coupling decaying regime, ln P(t) falls with slope -gamma over
    the first few lifetimes; the estimate degrades as coupling grows.  The
    shift is a closed form.
    """
    gamma = 2.0 * math.pi * coupling_sq(params.coupling, params.level_gap)
    shift = -float(k_pv_closed(params, params.e2)) if params.coupling.strength_sq > 0.0 else 0.0
    return WeakCouplingRate(gamma=gamma, shift_estimate=shift)


def conjugate_symmetry_check(spec: SpectralData, t: float, tol: float = 1e-8) -> bool:
    """Verify C(-t) equals the complex conjugate of C(t) within ``tol``.

    Holds exactly for any real spectral measure, so a failure indicates a
    defect in the transform evaluation, not in the data.
    """
    pair = _amplitude_points(spec, np.array([t, -t]))
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
