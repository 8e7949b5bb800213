"""Survival amplitude and probability from spectral data.

The amplitude of the initially excited state is the Fourier transform of its
spectral measure: a point-mass term w * exp(-i e0 t) when the bound state
exists, plus the transform of the continuous density,

    C(t) = w exp(-i e0 t) + integral of exp(-i lam t) rho(lam) d lam,

and P(t) = |C(t)|^2.  The continuous term is evaluated with a phase-aware
panel rule on the exact (closed-form) density, on a uniform grid
t_k = t0 + k dt only: at least two increasing times, off a straight line by
at most 64 eps max|t|, signed times allowed.  Any other grid raises
ValueError.  Panels come from one lattice of points e1 + P w, anchored at the
threshold, with w = pi / (Q dt), Q = ceil(2 t_max / dt), no wider than a
quarter of the period 2*pi/t_max at the largest requested |t|: the lattice
points inside each converged segment of the density table cut it into full
lattice panels plus at most a head and a tail remainder, so no panel crosses
a segment boundary.  A fixed 6-point Gauss-Legendre rule on every panel gives
one node set x_j with weights a_j = rho(x_j) * w_j * half-width, and
C(t) = sum of a_j exp(-i t x_j) for every requested t.

The full panels' nodes form six arithmetic progressions
e1 + w (P + (1 + x_g) / 2) over the global index P, and their sum is
sum over g of exp(-i t_k c_g) * sum over p of a_gp exp(-i t0 p w) W^(kp),
with c_g the first panel's nodes, a_gp the weight of node g of panel
P_first + p (zero where no lattice panel lies) and W = exp(-i pi / Q): a
chirp-z transform (Rabiner, Schafer & Rader 1969), which Bluestein's
kp = (k^2 + p^2 - (k - p)^2) / 2 turns into one FFT convolution.  Its chirp
exp(i pi m^2 / (2Q)) is periodic in m^2 modulo 4Q, so the exponent is reduced
in integers and stays exact however long the lattice.  A series of n times
over a lattice of R panels then costs O((n + R) log(n + R)) once.  The few
remainder and one-panel nodes are summed directly, as one product of a coarse
and a fine table of exact exps.  The panel count grows linearly with t_max; a
series that needs more than 500,000 panels raises instead of silently
degrading.

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
    spec: SpectralData, w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights a (rho(x) times the rule weight) and lattice indices.

    The lattice points e1 + P w inside a segment cut it into the full panels
    between them plus a head and a tail remainder (none of zero width).  A
    segment with no lattice point inside, or of negligible mass, is one
    panel.  The full panels come first, in increasing P, with nodes
    e1 + w (P + (1 + x_g) / 2), six to a panel; their indices P are the third
    result.  The other panels follow.
    """
    edges = spec.segments
    e1 = float(edges[0])
    live = spec.segment_mass >= _SEGMENT_MASS_FLOOR
    first = np.ceil((edges[:-1][live] - e1) / w).astype(np.int64)
    last = np.floor((edges[1:][live] - e1) / w).astype(np.int64)
    cut = first <= last  # a lattice point lies inside the segment
    first, last = first[cut], last[cut]
    counts = last - first
    seg = np.flatnonzero(live)[cut]
    whole = np.ones(live.shape, dtype=bool)
    whole[seg] = False
    # Head and tail remainders, then the segments that stay one panel.
    left = np.concatenate([edges[seg], e1 + last * w, edges[:-1][whole]])
    right = np.concatenate([e1 + first * w, edges[seg + 1], edges[1:][whole]])
    keep = right > left
    total = int(counts.sum()) + int(keep.sum())
    if total > _MAX_PANELS:
        raise OscillatoryBudgetExceededError(
            f"the series needs {total} panels of width {w:.6g}, budget is {_MAX_PANELS}; "
            "the panel count grows with the largest time, so shorten the series "
            "with --horizon (or horizon = in the config)"
        )
    # Segment i's panels first_i, first_i + 1, ... in a run starting at offset_i.
    offset = np.cumsum(counts) - counts
    lattice = np.arange(counts.sum()) + np.repeat(first - offset, counts)
    half = 0.5 * (right[keep] - left[keep])
    mid = left[keep] + half
    nodes = np.concatenate([
        (e1 + w * (lattice[:, None] + 0.5 * (1.0 + _GL_X)[None, :])).ravel(),
        (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel(),
    ])
    scale = np.concatenate([np.full(lattice.size, 0.5 * w), half])
    dens = _density(spec.params, nodes)
    return nodes, dens * (scale[:, None] * _GL_W[None, :]).ravel(), lattice


def _chirp_z(b: np.ndarray, q: int, n: int) -> np.ndarray:
    """sum over p of b[:, p] exp(-i pi k p / q) for k < n, row by row.

    With kp = (k^2 + p^2 - (k - p)^2) / 2 the sum is
    exp(-i pi k^2 / (2q)) times the convolution of b[:, p] exp(-i pi p^2 / (2q))
    with the chirp exp(i pi m^2 / (2q)), m = -(r-1)..n-1, done as one FFT
    product of a length that holds it without wrap-around.  The chirp's
    exponent is reduced modulo 4q in integers, so it is exact for any m.
    """
    r = b.shape[1]
    size = next_fast_len(n + r - 1)
    m = np.arange(max(n, r), dtype=np.int64)
    chirp = np.exp((0.5j * math.pi / q) * (m * m % (4 * q)))
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp[:n]
    kernel[size - r + 1:] = chirp[r - 1:0:-1]  # m = -(r-1)..-1, wrapped
    rows = np.zeros((b.shape[0], size), dtype=complex)
    np.multiply(b, chirp[:r].conj(), out=rows[:, :r])
    kernel_hat = np.fft.fft(kernel)
    for row in rows:  # in place, row by row: FFT scratch for one row only
        np.fft.fft(row, out=row)
        row *= kernel_hat
        np.fft.ifft(row, out=row)
    return rows[:, :n] * chirp[:n].conj()


def _phase_tables(c: np.ndarray, times: np.ndarray, dt: float):
    """Coarse and fine exp tables with exp(-i t_(jm+s) c) = coarse[:, j] fine[:, s].

    Every m-th time (m^2 >= n) takes its exact exp and the times between it
    and the next add exp(-i s dt c), s < m: two short exp tables, with no
    rounding carried from one time to the next.
    """
    m = math.isqrt(times.size - 1) + 1
    coarse = np.multiply.outer(c, -1j * times[::m])
    fine = np.multiply.outer(c, -1j * dt * np.arange(m))
    return np.exp(coarse, out=coarse), np.exp(fine, out=fine)


def _uniform_sums(
    x: np.ndarray, a: np.ndarray, lattice: np.ndarray,
    times: np.ndarray, dt: float, q: int, w: float,
) -> np.ndarray:
    """sum of a_j exp(-i t_k x_j) on a uniform grid: one chirp-z in all.

    The lattice panels' nodes are c_g + p w, p = P - P_first, so their sum is
    the chirp-z transform of a_gp exp(-i t0 p w) at W = exp(-i pi / q),
    dt w = pi / q, each row g turned by exp(-i t_k c_g).  The other nodes are
    contracted directly with their coarse and fine phase tables.
    """
    n = times.size
    rule = _GL_X.size
    split = rule * lattice.size
    coarse, fine = _phase_tables(x[split:], times, dt)
    coarse *= a[split:, None]
    out = (coarse.T @ fine).ravel()[:n]
    if lattice.size:
        p = lattice - lattice[0]
        b = np.zeros((rule, int(p[-1]) + 1), dtype=complex)
        b[:, p] = a[:split].reshape(-1, rule).T
        b *= np.exp(-1j * float(times[0]) * w * np.arange(b.shape[1]))
        coarse, fine = _phase_tables(x[:rule], times, dt)
        rows = (coarse[:, :, None] * fine[:, None, :]).reshape(rule, -1)[:, :n]
        out += (rows * _chirp_z(b, q, n)).sum(axis=0)
    return out


def _amplitude_points(spec: SpectralData, times: np.ndarray) -> np.ndarray:
    """C(t) on a uniform, possibly signed, grid; no series-level validation.

    C(t_k) = sum of a_j exp(-i t_k x_j) over one node set on the lattice
    w = pi / (Q dt), Q = ceil(2 max|t| / dt); the lattice panels' sum is one
    chirp-z transform (``_uniform_sums``).  Raises ValueError unless the grid
    holds at least two times, increases, and lies off a straight line by at
    most 64 eps max|t|.
    """
    if spec.normalization_defect > _NORMALIZATION_GATE:
        raise ValueError("spectral data failed its normalization check")
    times = np.asarray(times, dtype=float)
    n = times.size
    dt = float(times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    t_max = float(np.max(np.abs(times), initial=0.0))
    # Uniform means increasing and off a straight line by rounding only.
    uniform = dt > 0.0 and float(
        np.max(np.abs(times - (times[0] + dt * np.arange(n))))
    ) <= 64.0 * _EPS * t_max
    if not uniform:
        raise ValueError(
            "the spectral transform needs a uniform grid: at least two increasing "
            "times t0 + k dt, off a straight line by at most 64 eps max|t|"
        )
    if spec.degenerate:
        return np.exp(-1j * spec.eigenvalue * times)
    q = math.ceil(2.0 * t_max / dt)
    w = math.pi / (q * dt)
    x, a, lattice = _transform_nodes(spec, w)
    out = _uniform_sums(x, a, lattice, times, dt, q, w)
    if spec.eigenvalue is not None:
        out += spec.weight * np.exp(-1j * spec.eigenvalue * times)
    return out


def amplitude_spectral(spec: SpectralData, times) -> AmplitudeSeries:
    """Survival amplitude series over ``times`` from assembled spectral data.

    ``times`` must be a uniform grid of at least two nonnegative, increasing
    times (ValueError otherwise).  The spectral data must have passed its
    normalization check (build_spectral_data enforces this).  Raises
    OscillatoryBudgetExceededError when the panel set that resolves the
    largest time exceeds 500,000 panels.
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
