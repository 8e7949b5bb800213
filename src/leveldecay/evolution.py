"""Survival amplitude and probability from spectral data.

The amplitude of the initially excited state is the Fourier transform of its
spectral measure: a point-mass term w * exp(-i e0 t) when the bound state
exists, plus the transform of the continuous density,

    C(t) = w exp(-i e0 t) + integral of exp(-i lam t) rho(lam) d lam,

and P(t) = |C(t)|^2.  The transform is canonical (``coupling``): it takes
C~(tau) at tau = L t from the spectral data as stored, in xi = (lam - e1) / L
with the point at ``xi0``, and C(t) = e^{-i e1 t} C~(L t), its only two maps.
The continuous term is evaluated with a phase-aware panel rule on the exact
(closed-form) density, on a uniform grid from 0 only, t_k = k dt: at least
two increasing times starting at t = 0, off a straight line by at most 64 eps
t_max.  Any other grid, an offset or signed one included, raises ValueError
before any node is built; one late time t is the grid [0, t].  Panels come
from one lattice of points P w in xi, anchored at the threshold, with
w = pi / (Q dtau), Q = ceil(t_max / (2 dt)), no wider than one period
2*pi/tau_max at the largest time.  The converged segments of the density
table with a lattice point inside come in runs of consecutive segments, and
the lattice points cut each run into full lattice panels plus at most a head
and a tail remainder; every other segment is one panel.  So a lattice panel may cross a
boundary between two segments of a run, where the density is smooth, but
never a run's ends.  A fixed 10-point Gauss-Legendre rule on every panel
gives one node set x_j with weights a_j = rho~(x_j) * w_j * half-width, and
C~(tau) = sum of a_j exp(-i tau x_j) for every requested tau.

The full panels' nodes form ten arithmetic progressions
w (P + (1 + x_g) / 2) over the global index P, and their sum is
sum over g of exp(-i tau_k c_g) * sum over p of a_gp exp(-i pi k p / Q),
with c_g the first panel's nodes and a_gp the weight of node g of panel
P_first + p.  The phase depends on p modulo 2Q only, so the inner sum is
the length-2Q DFT of row g's weights folded modulo 2Q, read at k modulo 2Q;
2Q is within one of n.  A series of n times over a lattice of R panels then
costs O(R + n log n) once.  The few remainder and one-panel nodes are
summed directly, as one product of a coarse and a fine table of exact exps.
The panel count grows linearly with t_max; a series that needs more than
125,000 panels raises instead of silently degrading.

The point term survives at late times while the continuous term decays, so
P(t) tends to w^2 (zero when no bound state exists).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .coupling import Units, coupling_sq
from .quadrature import _EPS, _GL_W, _GL_X, NumericalError
from .spectrum import _NORMALIZATION_GATE, ModelParams, SpectralData, spectral_density


class OscillatoryBudgetExceededError(NumericalError):
    """Requested time needs more oscillation panels than the transform's budget."""


class ProbabilityBoundError(NumericalError, ValueError):
    """A series' P(t) leaves [0, 1] by more than its route's overshoot budget."""


class MethodTag(enum.Enum):
    """Which route produced an amplitude series."""

    SPECTRAL = "spectral"
    VOLTERRA = "volterra"


# Small overshoot budgets on P: the spectral route is held to the spectral
# measure's own tolerance, the time-stepped route to its discretization budget
# |y| <= 1 + 1e-4.
_P_BOUND = {MethodTag.SPECTRAL: 1e-6, MethodTag.VOLTERRA: 2.1e-4}


def check_probability(tag: MethodTag, p: np.ndarray) -> None:
    """Raise ProbabilityBoundError if P leaves [0, 1] by more than the route's budget."""
    bound = 1.0 + _P_BOUND[tag]
    if np.any(p > bound) or np.any(p < 0.0):
        raise ProbabilityBoundError(f"{tag.value} probability leaves [0, {bound}]: overshoot")


@dataclass(frozen=True)
class AmplitudeSeries:
    """Survival amplitude C(t) on an increasing time grid, and which route made it.

    The survival probability P(t) = |C(t)|^2 is derived, not stored.
    """

    times: np.ndarray
    amplitude: np.ndarray
    method_tag: MethodTag

    @property
    def probability(self) -> np.ndarray:
        """P(t) = |C(t)|^2."""
        return np.abs(self.amplitude) ** 2

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.amplitude)
        if not (t.ndim == 1 and t.shape == c.shape):
            raise ValueError("times and amplitude must be 1-d and congruent")
        if t.size == 0:
            raise ValueError("empty series")
        if t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be nonnegative and strictly increasing")
        p = self.probability
        check_probability(self.method_tag, p)
        if t[0] == 0.0 and abs(p[0] - 1.0) > 1e-6:
            raise ValueError(f"P(0) = {p[0]!r} deviates from 1 beyond 1e-6")


_SEGMENT_MASS_FLOOR = 1e-15
# Panels in the node set that resolves the largest time.
_MAX_PANELS = 125_000


def _panel_cuts(
    edges: np.ndarray, mass: np.ndarray, w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The module docstring's panels of the lattice P w over the segments
    ``edges`` in xi, of masses ``mass``; a segment of negligible mass is one
    panel, and no remainder has zero width.  Returns (first, counts, left,
    right): ``counts`` full panels from index ``first`` per run, then the
    edges of the other panels.  Raises OscillatoryBudgetExceededError past
    125,000 panels in all.
    """
    live = mass >= _SEGMENT_MASS_FLOOR
    # Floats until the budget is met: a count past 2**63 would wrap in int64.
    first = np.ceil(edges[:-1] / w)
    last = np.floor(edges[1:] / w)
    cut = live & (first <= last)  # a lattice point lies inside the segment
    # Runs of cut segments: where one starts, the segment before is not cut.
    starts = np.flatnonzero(cut & ~np.append(False, cut[:-1]))
    ends = np.flatnonzero(cut & ~np.append(cut[1:], False))
    first, last = first[starts], last[ends]
    counts = last - first
    # Head and tail remainders, then the segments that stay one panel.
    left = np.concatenate([edges[starts], last * w, edges[:-1][~cut]])
    right = np.concatenate([first * w, edges[ends + 1], edges[1:][~cut]])
    keep = right > left
    total = float(counts.sum()) + float(keep.sum())
    if not total <= _MAX_PANELS:
        raise OscillatoryBudgetExceededError(
            f"the series needs {total:.7g} panels of width {w:.6g}, budget is "
            f"{_MAX_PANELS}; the panel count grows with the largest time, so "
            "shorten the series with --horizon (or horizon = in the config)"
        )
    return first.astype(np.int64), counts.astype(np.int64), left[keep], right[keep]


def _transform_nodes(
    spec: SpectralData, w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x in xi, weights a (rho~(x) times the rule weight) and the
    lattice indices P of ``_panel_cuts``'s full panels, which come first, in
    increasing P, ten nodes to a panel; the other panels follow."""
    first, counts, left, right = _panel_cuts(spec.segments, spec.segment_mass, w)
    # Segment i's panels first_i, first_i + 1, ... in a run starting at offset_i.
    offset = np.cumsum(counts) - counts
    lattice = np.arange(counts.sum()) + np.repeat(first - offset, counts)
    half = 0.5 * (right - left)
    mid = left + half
    nodes = np.concatenate([
        (w * (lattice[:, None] + 0.5 * (1.0 + _GL_X)[None, :])).ravel(),
        (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel(),
    ])
    scale = np.concatenate([np.full(lattice.size, 0.5 * w), half])
    dens = spectral_density(spec.params.canonical, nodes)
    return nodes, dens * (scale[:, None] * _GL_W[None, :]).ravel(), lattice


def _lattice_dft(a: np.ndarray, p: np.ndarray, q: int, n: int) -> np.ndarray:
    """sum over j of a[:, j] exp(-i pi k p_j / q) for k < n, row by row, for
    distinct p_j >= 0: the fold modulo 2q and its DFT.  Each bin's weights
    lie along the last axis, which numpy sums pairwise: a two-time grid
    (q = 1) folds thousands of panels into each bin."""
    period = 2 * q
    bins = np.zeros((a.shape[0], period, int(p[-1]) // period + 1))
    bins[:, p % period, p // period] = a
    return np.fft.fft(bins.sum(axis=2))[:, np.arange(n) % period]


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
    times: np.ndarray, dt: float, q: int,
) -> np.ndarray:
    """sum of a_j exp(-i t_k x_j) on a grid t_k = k dt: the lattice nodes by
    ``_lattice_dft`` turned by exp(-i t_k c_g), the others directly with
    their coarse and fine phase tables."""
    n = times.size
    rule = _GL_X.size
    split = rule * lattice.size
    coarse, fine = _phase_tables(x[split:], times, dt)
    coarse *= a[split:, None]
    out = (coarse.T @ fine).ravel()[:n]
    if lattice.size:
        coarse, fine = _phase_tables(x[:rule], times, dt)
        rows = (coarse[:, :, None] * fine[:, None, :]).reshape(rule, -1)[:, :n]
        b = a[:split].reshape(-1, rule).T
        out += (rows * _lattice_dft(b, lattice - lattice[0], q, n)).sum(axis=0)
    return out


def _uniform_lattice(times: np.ndarray) -> tuple[float, int, float]:
    """(dt, Q, w) of a grid t_k = k dt: Q = ceil(t_max / (2 dt)), w = pi / (Q dt).

    Raises ValueError unless the grid holds at least two increasing times
    from t = 0, off a straight line by at most 64 eps t_max.
    """
    n = times.size
    t_max = float(times[-1]) if n > 1 and times[0] == 0.0 else 0.0
    dt = t_max / (n - 1) if t_max > 0.0 else 0.0
    # Uniform means increasing and off a straight line by rounding only.
    uniform = dt > 0.0 and float(
        np.max(np.abs(times - dt * np.arange(n)))
    ) <= 64.0 * _EPS * t_max
    if not uniform:
        raise ValueError(
            "the spectral transform needs a uniform grid from 0: at least two "
            "increasing times t_k = k dt, off a straight line by at most 64 eps "
            "t_max; for one late time t, pass [0, t]"
        )
    q = math.ceil(0.5 * t_max / dt)
    return dt, q, math.pi / (q * dt)


def _amplitude_points(spec: SpectralData, times: np.ndarray) -> np.ndarray:
    """C(t) on a uniform grid from 0, from C~ at tau = L t on the lattice
    ``_uniform_lattice`` gives; no series-level validation."""
    if spec.normalization_defect > _NORMALIZATION_GATE:
        raise ValueError("spectral data failed its normalization check")
    times = np.asarray(times, dtype=float)
    units = Units(spec.params)
    tau = units.up(times)
    dt, q, w = _uniform_lattice(tau)
    x, a, lattice = _transform_nodes(spec, w)
    out = _uniform_sums(x, a, lattice, tau, dt, q)
    if spec.xi0 is not None:
        out += spec.weight * np.exp(-1j * spec.xi0 * tau)
    return units.phase(out, times)


def amplitude_spectral(spec: SpectralData, times) -> AmplitudeSeries:
    """Survival amplitude series over ``times`` from assembled spectral data.

    ``times`` must be a uniform grid t_k = k dt from 0 (ValueError otherwise),
    and the spectral data must have passed its normalization check
    (build_spectral_data enforces this).  Raises
    OscillatoryBudgetExceededError past 125,000 panels.
    """
    times = np.asarray(times, dtype=float)
    return AmplitudeSeries(times, _amplitude_points(spec, times), MethodTag.SPECTRAL)


def asymptotic_limit(spec: SpectralData) -> float:
    """Late-time limit of P(t): w^2, the squared weight of the point part
    (0 without a bound state, 1 at zero coupling)."""
    return spec.weight**2


def weak_coupling_rate(params: ModelParams) -> float:
    """Resonance width gamma = 2*pi*|V(e2 - e1)|^2, the golden-rule decay rate,
    as L times the canonical twin's 2*pi*|V~(beta)|^2.

    In the weak-coupling decaying regime, ln P(t) falls with slope -gamma over
    the first few lifetimes; the estimate degrades as coupling grows.
    """
    units = Units(params)
    return units.up(2.0 * math.pi * coupling_sq(units.model.coupling, units.model.beta))


# fitted_decay_rate's window: the samples with _FIT_P_LO < P < _FIT_P_HI.
_FIT_P_LO = 0.1
_FIT_P_HI = 0.9


def fitted_decay_rate(series: AmplitudeSeries) -> float:
    """Decay rate from a linear fit of ln P(t) where 0.1 < P < 0.9.

    Returns the positive rate (minus the fitted slope).  Raises if fewer than
    two samples fall inside the window.
    """
    t = np.asarray(series.times, dtype=float)
    p = series.probability
    mask = (p > _FIT_P_LO) & (p < _FIT_P_HI) & (t > 0.0)
    if int(mask.sum()) < 2:
        raise ValueError("not enough samples inside the fit window")
    slope = np.polyfit(t[mask], np.log(p[mask]), 1)[0]
    return float(-slope)
