"""The time-domain layers against direct references kept here.

``_direct_heun`` is the O(N^2) stepper with two full history dots per step,
``_extended_heun`` the step-by-step recurrence in extended precision,
``_per_time_transform`` the spectral transform that cuts every segment into
its own equal quarter-period panels for every time, and ``_node_sum`` the
transform's own node sum with an exact exp at every node and time.  The
solver must reproduce its reference to rounding, the transform the per-time
panels to the panel rule's own error (its single node set is finer than the
per-time one at every time but the largest) and its node sum to rounding.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    ModelParams,
    OscillatoryBudgetExceededError,
    amplitude_spectral,
    build_kernel_table,
    build_spectral_data,
    evolution,
    solve_ide,
)
from leveldecay.evolution import _amplitude_points, _transform_nodes
from leveldecay.quadrature import _GL_W, _GL_X
from leveldecay.spectrum import _density
from leveldecay.volterra import _SHORT_LAGS

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


def _direct_heun(params: ModelParams, horizon: float, h: float) -> np.ndarray:
    """C(t) from trapezoidal convolution with both history sums as full dots."""
    table = build_kernel_table(params, horizon, h)
    k = table.values
    n_steps = len(k) - 1
    y = np.empty(n_steps + 1, dtype=complex)
    y[0] = 1.0
    k_rev = k[::-1].copy()

    def history_integral(n, extra=None):
        if extra is None:
            if n == 0:
                return 0.0 + 0.0j
            dot = np.dot(k_rev[n_steps - n:n_steps + 1], y[:n + 1])
            return h * (dot - 0.5 * (k[n] * y[0] + k[0] * y[n]))
        m = n + 1
        dot = np.dot(k_rev[n_steps - m:n_steps], y[:m]) + k[0] * extra
        return h * (dot - 0.5 * (k[m] * y[0] + k[0] * extra))

    phi_n = history_integral(0)
    for n in range(n_steps):
        predictor = y[n] + h * phi_n
        phi_next = history_integral(n, extra=predictor)
        y[n + 1] = y[n] + 0.5 * h * (phi_n + phi_next)
        if n + 1 < n_steps:
            phi_n = history_integral(n + 1)
    return y * np.exp(-1j * params.e2 * table.times)


def _extended_heun(params: ModelParams, horizon: float, h: float) -> np.ndarray:
    """C(t) from the Heun recurrence one step at a time in np.clongdouble.

    The kernel samples are the solver's own doubles, so this differs from the
    solver only by the solver's rounding.
    """
    table = build_kernel_table(params, horizon, h)
    k = table.values.astype(np.clongdouble)
    hl = np.longdouble(h)
    n_steps = len(k) - 1
    y = np.zeros(n_steps + 1, dtype=np.clongdouble)
    y[0] = 1
    k_rev = k[::-1].copy()
    half_k0 = k[0] / 2
    phi = np.clongdouble(0)
    for m in range(1, n_steps + 1):
        s = np.dot(k_rev[n_steps - m:n_steps], y[:m]) - k[m] * y[0] / 2
        phi_next = hl * (s + half_k0 * (y[m - 1] + hl * phi))
        y[m] = y[m - 1] + hl / 2 * (phi + phi_next)
        phi = hl * (s + half_k0 * y[m])
    return y.astype(complex) * np.exp(-1j * params.e2 * table.times)


def _lattice_width(times) -> float:
    """Panel width pi / (Q dt), Q = ceil(2 max|t| / dt), of a uniform grid."""
    dt = float(times[-1] - times[0]) / (times.size - 1)
    return math.pi / (math.ceil(2.0 * float(np.max(np.abs(times))) / dt) * dt)


def _panel_counts(spec, times) -> np.ndarray:
    """Panels per segment on a uniform grid: the lattice cells a segment meets.

    An edge within rounding of a lattice point lies on it; a segment of
    negligible mass is one panel.
    """
    u = (spec.segments - spec.segments[0]) / _lattice_width(times)
    nearest = np.round(u)
    on_point = np.abs(u - nearest) <= 8.0 * np.finfo(float).eps * nearest
    u[on_point] = nearest[on_point]
    reps = (np.ceil(u[1:]) - np.floor(u[:-1])).astype(np.int64)
    reps[spec.segment_mass < 1e-15] = 1
    return reps


def _per_time_transform(spec, times) -> np.ndarray:
    """C(t) with equal quarter-period panels in every segment, rebuilt for every t."""
    edges = spec.segments
    widths = np.diff(edges)
    out = np.empty(len(times), dtype=complex)
    for i, t in enumerate(times):
        reps = np.ones(widths.shape, dtype=np.int64)
        if t != 0.0:
            reps = np.ceil(widths / (0.5 * math.pi / abs(t))).astype(np.int64)
            np.clip(reps, 1, None, out=reps)
            reps[spec.segment_mass < 1e-15] = 1
        total = int(reps.sum())
        sub_w = np.repeat(widths / reps, reps)
        offset = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
        sub_a = np.repeat(edges[:-1], reps) + offset * sub_w
        half = 0.5 * sub_w
        nodes = (sub_a + half)[:, None] + half[:, None] * _GL_X[None, :]
        dens = _density(spec.params, nodes.ravel()).reshape(nodes.shape)
        out[i] = complex(((dens * np.exp(-1j * t * nodes)) @ _GL_W * half).sum())
    if spec.eigenvalue is not None:
        out += spec.weight * np.exp(-1j * spec.eigenvalue * np.asarray(times))
    return out


def _node_sum(spec, times) -> np.ndarray:
    """sum of a_j exp(-i t x_j) over a uniform grid's node set, one t at a time."""
    x, a, _ = _transform_nodes(spec, _lattice_width(times))
    out = np.array([a @ np.exp(-1j * t * x) for t in times])
    if spec.eigenvalue is not None:
        out += spec.weight * np.exp(-1j * spec.eigenvalue * times)
    return out


def _split_segments(spec, cuts):
    """``spec`` with its segments also cut at ``cuts``, mass shared by width."""
    edges = np.union1d(spec.segments, cuts)
    owner = np.searchsorted(spec.segments, edges[:-1], side="right") - 1
    share = np.diff(edges) / np.diff(spec.segments)[owner]
    return replace(spec, segments=edges, segment_mass=spec.segment_mass[owner] * share)


# The 2d and 3d fixtures' lattices hold R = 1044 and 1238 panels at the
# first grid, 5265 and 6224 at the second, and 347 and 410 at the third.
UNIFORM_GRIDS = {
    "t0=0, 301 times": np.linspace(0.0, 60.0, 301),
    "t0>0, 41 times": np.linspace(20.0, 300.0, 41),
    "t0=0, more times than lattice panels": np.linspace(0.0, 20.0, 1001),
    "t0<0": np.linspace(-30.0, 60.0, 301),
    "far, narrow window": np.linspace(1000.0, 1001.0, 201),
    "t0=0, two times": np.array([0.0, 250.0]),
    "t0>0, two times": np.array([7.5, 120.0]),
    "t0>0, three times": np.array([40.0, 70.0, 100.0]),
}

# Extra segment boundaries at e1 + (P + c) w, in units of w.
LATTICE_CUTS = {
    "boundary on a lattice point": (0.0,),
    "segment narrower than w": (0.3, 0.6),
    "segment of one lattice panel": (0.0, 1.0),
}


@pytest.fixture(scope="module")
def spectra():
    return {
        "2d": build_spectral_data(_params(TWO, 0.5)),
        "3d": build_spectral_data(_params(THREE, 2.0)),
    }


class TestSolver:
    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    def test_matches_direct_history_sums(self, family, g_sq):
        n_steps = 5000  # not a power of two; blocks of 1024..4096 samples
        assert n_steps > 4 * _SHORT_LAGS
        params = _params(family, g_sq)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _direct_heun(params, n_steps * h, h)
        assert got.shape == ref.shape == (n_steps + 1,)
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    @pytest.mark.parametrize("n_steps", [
        1, 2, _SHORT_LAGS - 1, _SHORT_LAGS, _SHORT_LAGS + 1,
        2 * _SHORT_LAGS - 1, 2 * _SHORT_LAGS, 2 * _SHORT_LAGS + 1,
    ])
    def test_chunk_edges_match_direct_history_sums(self, family, g_sq, n_steps):
        params = _params(family, g_sq)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _direct_heun(params, n_steps * h, h)
        assert got.shape == ref.shape == (n_steps + 1,)
        assert float(np.max(np.abs(got - ref))) <= 1e-13

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
    )
    @pytest.mark.parametrize("family, g_sq", [(TWO, 1.0), (THREE, 2.0)])
    def test_no_drift_against_extended_precision(self, family, g_sq):
        # 3000 steps span 3 chunks and end inside one.  Solving each chunk
        # for y instead of for its increments drifts past the bound here.
        n_steps = 3000
        assert n_steps % _SHORT_LAGS
        params = _params(family, g_sq)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _extended_heun(params, n_steps * h, h)
        assert float(np.max(np.abs(got - ref))) <= 1e-14

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
    )
    def test_no_drift_over_ten_chunks(self):
        # T^-1's unit diagonal is applied exactly; putting it inside the FFT
        # product drifts past the bound from about 10,000 steps.
        n_steps = 10_000
        params = _params(THREE, 2.0)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _extended_heun(params, n_steps * h, h)
        assert float(np.max(np.abs(got - ref))) <= 1e-14

    def test_memory_peak_is_a_few_arrays(self):
        n_steps = 20_000
        params = _params(THREE, 2.0)
        h = 0.01
        solve_ide(params, horizon=10.0, step=h)  # the kernel self-check runs once
        tracemalloc.start()
        try:
            solve_ide(params, horizon=n_steps * h, step=h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 16 * (n_steps + 1) + 0.5e6

    def test_kernel_band_spectra_are_computed_once(self, monkeypatch):
        # 20,000 steps run the bands of 1024 ... 16384 lags, most of them
        # over several full blocks and a truncated last one.  No input, of
        # the kernel or of y, is transformed twice at the same length.
        n_steps = 20_000
        params = _params(THREE, 2.0)
        h = 0.01
        k = build_kernel_table(params, n_steps * h, h).values
        sizes = [_SHORT_LAGS << p for p in range(5)]
        kernel_slices = []
        inputs = []
        fft = np.fft.fft

        def recording_fft(a, n=None, *args, **kwargs):
            a = np.asarray(a)
            kernel_slices.extend(
                (size, a.size, n) for size in sizes
                if np.array_equal(a, k[size:size + a.size])
            )
            inputs.append((a.tobytes(), n))
            return fft(a, n, *args, **kwargs)

        def no_convolve(*args, **kwargs):
            raise AssertionError("np.convolve called")

        monkeypatch.setattr(np.fft, "fft", recording_fft)
        monkeypatch.setattr(np, "convolve", no_convolve)
        solve_ide(params, horizon=n_steps * h, step=h)
        assert {size for size, _, _ in kernel_slices} == set(sizes)
        assert len(set(kernel_slices)) == len(kernel_slices)
        assert len(set(inputs)) == len(inputs)

    def test_repeat_solve_is_byte_identical(self):
        params = _params(THREE, 1.2)
        first = solve_ide(params, horizon=30.0, step=0.01)
        second = solve_ide(params, horizon=30.0, step=0.01)
        assert first.amplitude.tobytes() == second.amplitude.tobytes()


class TestTransform:
    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_uniform_grid_matches_per_time_panels(self, spectra, name):
        spec = spectra[name]
        times = np.linspace(0.0, 60.0, 301)  # uniform: the chirp-z path
        got = amplitude_spectral(spec, times).amplitude
        ref = _per_time_transform(spec, times)
        assert float(np.max(np.abs(got - ref))) <= 1e-7

    @pytest.mark.parametrize("name", ["2d", "3d"])
    @pytest.mark.parametrize("grid", list(UNIFORM_GRIDS))
    def test_uniform_grid_matches_exact_node_sum(self, spectra, name, grid, monkeypatch):
        spec = spectra[name]
        times = UNIFORM_GRIDS[grid]
        calls = []
        chirp_z = evolution._chirp_z
        monkeypatch.setattr(
            evolution, "_chirp_z", lambda *args: calls.append(1) or chirp_z(*args)
        )
        got = _amplitude_points(spec, times)
        assert calls == [1]
        assert float(np.max(np.abs(got - _node_sum(spec, times)))) <= 1e-13

    @pytest.mark.parametrize("name", ["2d", "3d"])
    @pytest.mark.parametrize("cuts", list(LATTICE_CUTS))
    def test_segment_edges_at_and_between_lattice_points(self, spectra, name, cuts):
        base = spectra[name]
        times = UNIFORM_GRIDS["t0=0, 301 times"]
        w = _lattice_width(times)
        seg = base.segments
        e1 = float(seg[0])
        # P is the second lattice point inside a live segment over 4 w wide.
        wide = np.flatnonzero((np.diff(seg) > 4.0 * w) & (base.segment_mass >= 1e-15))[0]
        p = math.ceil((seg[wide] - e1) / w) + 1
        edges = [e1 + (p + c) * w for c in LATTICE_CUTS[cuts]]
        spec = _split_segments(base, edges)
        x, _, _ = _transform_nodes(spec, w)
        assert x.size == 6 * int(_panel_counts(spec, times).sum())
        if len(edges) == 2:  # the new segment between the cuts is one panel
            assert np.count_nonzero((x > edges[0]) & (x < edges[1])) == 6
        got = _amplitude_points(spec, times)
        assert float(np.max(np.abs(got - _node_sum(spec, times)))) <= 1e-13

    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_uniform_grids_straddle_the_largest_panel_count(self, spectra, name):
        for grid, more in (("t0=0, 301 times", False),
                           ("t0>0, 41 times", False),
                           ("t0=0, more times than lattice panels", True)):
            times = UNIFORM_GRIDS[grid]
            _, _, lattice = _transform_nodes(spectra[name], _lattice_width(times))
            assert (times.size > int(lattice[-1] - lattice[0]) + 1) is more

    def test_uniform_transform_is_byte_identical(self, spectra):
        times = np.linspace(0.0, 300.0, 1001)
        first = _amplitude_points(spectra["3d"], times)
        second = _amplitude_points(spectra["3d"], times)
        assert first.tobytes() == second.tobytes()

    def test_budget_applies_at_the_largest_time(self, spectra, monkeypatch):
        spec = spectra["3d"]
        times = np.linspace(0.0, 500.0, 11)
        needed = int(_panel_counts(spec, times).sum())
        assert needed > int(_panel_counts(spec, np.linspace(0.0, 450.0, 11)).sum())
        monkeypatch.setattr(evolution, "_MAX_PANELS", needed)
        amplitude_spectral(spec, times)
        monkeypatch.setattr(evolution, "_MAX_PANELS", needed - 1)
        with pytest.raises(OscillatoryBudgetExceededError):
            amplitude_spectral(spec, times)
