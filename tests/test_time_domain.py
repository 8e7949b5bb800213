"""The time-domain layers against direct references kept here.

``_direct_heun`` is the O(N^2) stepper with two full history dots per step,
``_extended_heun`` the step-by-step recurrence in extended precision,
``_per_time_transform`` the spectral transform that cuts every segment into
its own equal quarter-period panels for every time, ``_quarter_period_sum``
a 6-point rule on the lattice of quarter periods of the largest time, summed
directly, and ``_node_sum`` the transform's own node sum with an exact exp at
every node and time.  The solver must reproduce its reference to rounding,
the transform the per-time panels to the panel rule's own error, the
quarter-period sums and its own node sum to rounding.  The transform
references read the spectral data as it is stored, in xi, on the canonical
density and with the point at ``xi0``: they give C~(tau), which is C(t) for
every model they see, all at e1 = 0 and L = 1.
"""

from __future__ import annotations

import gc
import math
import sys
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
    spectral_density,
    volterra,
)
from leveldecay.evolution import _amplitude_points, _transform_nodes
from leveldecay.quadrature import _GL_W, _GL_X
from leveldecay.volterra import _CHUNK, _RADIX, _chunk_operators

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


def _direct_heun(params: ModelParams, horizon: float, h: float) -> np.ndarray:
    """C(t) from trapezoidal convolution with both history sums as full dots."""
    k = build_kernel_table(params, horizon, h)
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
    return y * np.exp(-1j * params.e2 * (np.arange(n_steps + 1) * h))


def _extended_heun(params: ModelParams, horizon: float, h: float) -> np.ndarray:
    """C(t) from the Heun recurrence one step at a time in np.clongdouble.

    The kernel samples are the solver's own doubles, so this differs from the
    solver only by the solver's rounding.
    """
    k = build_kernel_table(params, horizon, h).astype(np.clongdouble)
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
    return y.astype(complex) * np.exp(-1j * params.e2 * (np.arange(n_steps + 1) * h))


def _lattice_width(times) -> float:
    """Panel width pi / (Q dt), Q = ceil(max|t| / (2 dt)), of a uniform grid."""
    dt = float(times[-1] - times[0]) / (times.size - 1)
    return math.pi / (math.ceil(0.5 * float(np.max(np.abs(times))) / dt) * dt)


def _panel_counts(spec, times) -> np.ndarray:
    """Panels per run of cut segments, then per other segment, on a uniform grid.

    A segment of negligible mass, or that meets one lattice cell only, is one
    panel.  The others are cut, and a run of consecutive cut segments has a
    panel for every lattice cell it meets.  An edge within rounding of a
    lattice point lies on it.
    """
    u = (spec.segments - spec.segments[0]) / _lattice_width(times)
    nearest = np.round(u)
    on_point = np.abs(u - nearest) <= 8.0 * np.finfo(float).eps * nearest
    u[on_point] = nearest[on_point]
    cut = (np.ceil(u[1:]) - np.floor(u[:-1]) > 1) & (spec.segment_mass >= 1e-15)
    runs = np.split(np.flatnonzero(cut), np.flatnonzero(np.diff(np.flatnonzero(cut)) > 1) + 1)
    cells = [int(np.ceil(u[run[-1] + 1]) - np.floor(u[run[0]])) for run in runs if run.size]
    return np.array(cells + [1] * int(np.count_nonzero(~cut)), dtype=np.int64)


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
        dens = spectral_density(spec.params.canonical.params, nodes)
        out[i] = complex(((dens * np.exp(-1j * t * nodes)) @ _GL_W * half).sum())
    if spec.xi0 is not None:
        out += spec.weight * np.exp(-1j * spec.xi0 * np.asarray(times))
    return out


def _quarter_period_sum(spec, times, at) -> np.ndarray:
    """C(t) at the times ``at`` from the 6-point rule on the lattice P w in xi,
    w = pi / (Q dt), Q = ceil(2 max|t| / dt): a quarter of the period of the
    largest time of ``times``, four times finer than the transform's.  Each
    live segment is cut at the lattice points inside it; the sum is direct.
    """
    dt = float(times[-1] - times[0]) / (times.size - 1)
    w = math.pi / (math.ceil(2.0 * float(np.max(np.abs(times))) / dt) * dt)
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    lattice, left, right = [], [], []
    for lo, hi, mass in zip(spec.segments[:-1], spec.segments[1:], spec.segment_mass):
        first, last = math.ceil(lo / w), math.floor(hi / w)
        if mass < 1e-15 or first > last:
            left.append(lo)
            right.append(hi)
            continue
        lattice.append(np.arange(first, last))
        left += [lo, last * w]
        right += [first * w, hi]
    lattice = np.concatenate(lattice)
    left, right = np.array(left), np.array(right)
    keep = right > left
    half = 0.5 * (right - left)[keep]
    nodes = np.concatenate([
        (w * (lattice[:, None] + 0.5 * (1.0 + gl_x)[None, :])).ravel(),
        ((left[keep] + half)[:, None] + half[:, None] * gl_x[None, :]).ravel(),
    ])
    scale = np.concatenate([np.full(lattice.size, 0.5 * w), half])
    rho = spectral_density(spec.params.canonical.params, nodes)
    a = rho * (scale[:, None] * gl_w[None, :]).ravel()
    out = np.array([a @ np.exp(-1j * t * nodes) for t in at])
    if spec.xi0 is not None:
        out += spec.weight * np.exp(-1j * spec.xi0 * np.asarray(at))
    return out


def _node_sum(spec, times) -> np.ndarray:
    """sum of a_j exp(-i t x_j) over a uniform grid's node set, one t at a time."""
    x, a, _ = _transform_nodes(spec, _lattice_width(times))
    out = np.array([a @ np.exp(-1j * t * x) for t in times])
    if spec.xi0 is not None:
        out += spec.weight * np.exp(-1j * spec.xi0 * times)
    return out


def _split_segments(spec, cuts):
    """``spec`` with its segments also cut at ``cuts``, mass shared by width."""
    edges = np.union1d(spec.segments, cuts)
    owner = np.searchsorted(spec.segments, edges[:-1], side="right") - 1
    share = np.diff(edges) / np.diff(spec.segments)[owner]
    return replace(spec, segments=edges, segment_mass=spec.segment_mass[owner] * share)


# Grids t_k = k dt.  The 2d and 3d fixtures' lattices span R = 259 and 309
# panels at the first grid against 2Q = 300 (one fold block, then a partial
# second), 522 and 619 at the second (2Q = 200), 80 and 100 at the third
# (2Q = 1000, one block), 2185 and 2585 at the fourth (2Q = 2) and 1310 and
# 1550 at the fifth (2Q = 10, an exact multiple).  Every grid but the fourth
# has n = 2Q + 1 times, so its last k wraps to 0.
UNIFORM_GRIDS = {
    "t0=0, 301 times": np.linspace(0.0, 60.0, 301),
    "t0=0, 201 times": np.linspace(0.0, 120.0, 201),
    "t0=0, more times than lattice panels": np.linspace(0.0, 20.0, 1001),
    "t0=0, two times": np.array([0.0, 250.0]),
    "t0=0, span a multiple of 2Q": np.linspace(0.0, 300.0, 11),
}

# Windows that do not start at 0, which the transform refuses.  Each of their
# times is read from its own grid [0, |t|] (``_late_points``), the route for
# one late time.  At t = 1000 that grid's lattice spans about 20,000 panels.
LATE_WINDOWS = {
    "t0>0, 41 times": np.linspace(20.0, 300.0, 41),
    "t0<0": np.linspace(-30.0, 60.0, 301),
    "far, narrow window": np.linspace(1000.0, 1001.0, 201),
    "t0>0, two times": np.array([7.5, 120.0]),
    "t0>0, three times": np.array([40.0, 70.0, 100.0]),
}


def _late_points(points, times) -> np.ndarray:
    """``points(grid)`` at every nonzero t of ``times``, each read from the
    grid [0, |t|] and conjugated where t < 0: a real spectral measure gives
    C(-t) = conj C(t)."""
    out = np.array([points(np.array([0.0, abs(t)]))[1] for t in times])
    return np.where(times < 0.0, out.conj(), out)

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
        "2d, gap 0.25": build_spectral_data(_params(TWO, 0.3, e2=0.25)),
        "3d, gap 0.25": build_spectral_data(_params(THREE, 0.1, e2=0.25)),
    }


class TestSolver:
    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    def test_matches_direct_history_sums(self, family, g_sq):
        n_steps = 5000  # not a power of two; five chunks, the last partial
        assert n_steps > 4 * _CHUNK
        params = _params(family, g_sq)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _direct_heun(params, n_steps * h, h)
        assert got.shape == ref.shape == (n_steps + 1,)
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    @pytest.mark.parametrize("n_steps", [
        1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
        2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1,
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
        assert n_steps % _CHUNK
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
        # At the top block's last sub-block 43,978 steps hold the spectra of
        # five blocks of 8192 samples and of five kernel partitions, 65,535
        # steps seven of each.
        params = _params(THREE, 2.0)
        h = 0.01
        solve_ide(params, horizon=10.0, step=h)  # the kernel self-check runs once
        for n_steps in (20_000, 43_978, 65_535):
            tracemalloc.start()
            try:
                solve_ide(params, horizon=n_steps * h, step=h)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * 16 * (n_steps + 1) + 0.5e6, n_steps

    def test_solve_holds_no_array_after_it_returns(self):
        # The recursion is a local function that refers to itself, a
        # reference cycle: left in place, it holds y and K (0.64 MB here)
        # until the next garbage collection.
        params = _params(THREE, 2.0)
        h = 0.01
        solve_ide(params, horizon=10.0, step=h)  # the kernel self-check runs once
        gc.disable()
        tracemalloc.start()
        try:
            series = solve_ide(params, horizon=20_000 * h, step=h, stride=1000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert series.times.size == 21
        assert held <= 0.05e6

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    @pytest.mark.parametrize("n_steps, bound", [
        (_RADIX * _CHUNK - 1, 1e-13), (_RADIX * _CHUNK, 1e-13),
        (_RADIX * _CHUNK + 1, 1e-13), (2 * _RADIX * _CHUNK + _CHUNK + 1, 1e-12),
    ])
    def test_coarse_level_edges_match_direct_history_sums(self, family, g_sq, n_steps, bound):
        # Across the first block of the second level, and on past a second
        # such block into a partial chunk.
        params = _params(family, g_sq)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _direct_heun(params, n_steps * h, h)
        assert got.shape == ref.shape == (n_steps + 1,)
        assert float(np.max(np.abs(got - ref))) <= bound

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    @pytest.mark.parametrize("radix", [2, 3])
    def test_small_radix_matches_direct_history_sums(self, monkeypatch, family, g_sq, radix):
        # At a radix of 2 a 5000-step solve runs levels of 1024, 2048 and
        # 4096 samples, at 3 levels of 1024 and 3072: each sub-block's
        # window must sum every earlier sub-block of its parent once.
        monkeypatch.setattr(volterra, "_RADIX", radix)
        n_steps = 5000
        params = _params(family, g_sq)
        h = 0.01
        got = solve_ide(params, horizon=n_steps * h, step=h).amplitude
        ref = _direct_heun(params, n_steps * h, h)
        assert got.shape == ref.shape == (n_steps + 1,)
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    def test_history_transforms_each_input_once(self, monkeypatch):
        # 20,000 steps run levels of 1024 and 8192 samples, each over full
        # parents and a truncated last one.  Every kernel partition is
        # transformed once per solve, every block of y once at its level,
        # and every block that takes history takes one inverse.
        n_steps = 20_000
        params = _params(THREE, 2.0)
        h = 0.01
        k = build_kernel_table(params, n_steps * h, h)
        partitions = {
            (size, delta): k[(delta - 1) * size + 1:(delta + 1) * size]
            for size, deltas in ((_CHUNK, range(1, _RADIX)), (_RADIX * _CHUNK, (1, 2)))
            for delta in deltas
        }
        kernel_calls = []
        block_calls = []
        other_calls = []
        inverse_sizes = []
        fft, ifft = np.fft.fft, np.fft.ifft

        def recording_fft(a, n=None, *args, **kwargs):
            a = np.asarray(a)
            keys = [key for key, taps in partitions.items() if np.array_equal(a, taps)]
            if keys:
                kernel_calls.extend(keys)
            elif a.base is not None and a.base.size == n_steps + 1:
                # A view of the solution: its level and block.
                offset = (a.ctypes.data - a.base.ctypes.data) // a.itemsize
                block_calls.append((a.size, offset, n))
            else:
                other_calls.append(n)
            return fft(a, n, *args, **kwargs)

        def recording_ifft(a, *args, **kwargs):
            inverse_sizes.append(np.size(a))
            return ifft(a, *args, **kwargs)

        convolve = np.convolve

        def chunk_operator_convolve(a, v, *args, **kwargs):
            # The history sums are FFT products: only the chunk operator's
            # doubling convolves directly, on inputs of at most one chunk.
            caller = sys._getframe(1).f_code.co_name
            if caller != "_chunk_operators" or max(np.size(a), np.size(v)) > _CHUNK:
                raise AssertionError(f"np.convolve called from {caller}")
            return convolve(a, v, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recording_fft)
        monkeypatch.setattr(np.fft, "ifft", recording_ifft)
        monkeypatch.setattr(np, "convolve", chunk_operator_convolve)
        solve_ide(params, horizon=n_steps * h, step=h)
        # Every partition once: 7 at the first level, 2 at the second.
        assert sorted(kernel_calls) == sorted(partitions)
        # One block of y per target: chunks 0-6, 8-14 and 16-18 at the
        # first level, blocks 0 and 1 of 8192 samples at the second, each
        # aligned to its level and transformed once, at 2L points.
        expected_blocks = (
            [(_CHUNK, c) for c in (*range(0, 7), *range(8, 15), *range(16, 19))]
            + [(_RADIX * _CHUNK, 0), (_RADIX * _CHUNK, 1)]
        )
        assert sorted(block_calls) == sorted(
            (size, c * size, 2 * size) for size, c in expected_blocks
        )
        # The rest: T^-1 (rhs) for each of 20 chunks, and u_hat once.
        assert other_calls == [2 * _CHUNK] * (20 + 1)
        # One inverse per target block (19), one per chunk for T^-1 (20).
        assert sorted(inverse_sizes) == sorted(
            [2 * _CHUNK] * (17 + 20) + [2 * _RADIX * _CHUNK] * 2
        )
        total = len(kernel_calls) + len(block_calls) + len(other_calls) + len(inverse_sizes)
        assert total == 9 + 19 + 21 + 39 == 88

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
    )
    @pytest.mark.parametrize("family, g_sq, h", [
        (THREE, 2.0, 0.02), (THREE, 2.0, 0.04), (TWO, 0.5, 0.01),
        (THREE, 0.02, 0.02), (TWO, 1.0, 0.03),
    ])
    def test_chunk_operator_column_against_extended_precision(self, family, g_sq, h):
        # T^-1's first column by doubling against forward substitution in
        # np.clongdouble on the same T.  Doubling reads 2.6e-18 to 6.1e-17
        # here (forward substitution in doubles read 9.7e-20 to 4.2e-17, a
        # Newton reciprocal by FFT products 7.1e-17 to 2.1e-16).
        n = _CHUNK
        k = build_kernel_table(_params(family, g_sq), n * h, h)
        delta, b, c, g, u = _chunk_operators(k, h, n)
        t = np.empty(n, dtype=np.clongdouble)
        t[0] = 1
        t[1:] = -delta - b * g[:-1] - c * g[1:]
        ref = np.empty(n, dtype=np.clongdouble)
        ref[0] = 1
        for i in range(1, n):
            ref[i] = -np.dot(t[1:i + 1], ref[i - 1::-1])
        assert float(np.max(np.abs(u - ref))) <= 1e-16

    def test_chunk_operator_is_log_n_convolutions(self, monkeypatch):
        # No loop of n Python steps: two direct products per doubling, and
        # a few lines of Python each.
        n = _CHUNK
        k = build_kernel_table(_params(THREE, 2.0), n * 0.01, 0.01)
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(
            np, "convolve", lambda *args: calls.append(1) or convolve(*args)
        )
        lines = []

        def trace(frame, event, arg):
            if frame.f_code is _chunk_operators.__code__:
                lines.append(event)
                return trace
            return None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            _chunk_operators(k, 0.01, n)
        finally:
            sys.settrace(previous)
        assert 0 < len(calls) <= 2 * math.log2(n)
        assert lines.count("line") < n // 8

    def test_repeat_solve_is_byte_identical(self):
        params = _params(THREE, 1.2)
        first = solve_ide(params, horizon=30.0, step=0.01)
        second = solve_ide(params, horizon=30.0, step=0.01)
        assert first.amplitude.tobytes() == second.amplitude.tobytes()


class TestTransform:
    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_uniform_grid_matches_per_time_panels(self, spectra, name):
        spec = spectra[name]
        times = np.linspace(0.0, 60.0, 301)  # uniform: the lattice DFT path
        got = amplitude_spectral(spec, times).amplitude
        ref = _per_time_transform(spec, times)
        assert float(np.max(np.abs(got - ref))) <= 1e-7

    @pytest.mark.parametrize("name", ["2d", "3d"])
    @pytest.mark.parametrize("grid", [*UNIFORM_GRIDS, *LATE_WINDOWS])
    def test_uniform_grid_matches_exact_node_sum(self, spectra, name, grid, monkeypatch):
        # One lattice DFT per grid: one for a grid from 0, one per time of a
        # late window, read at the 8 times the quarter-period rule checks.
        spec = spectra[name]
        calls = []
        lattice_dft = evolution._lattice_dft
        monkeypatch.setattr(
            evolution, "_lattice_dft", lambda *args: calls.append(1) or lattice_dft(*args)
        )
        if grid in UNIFORM_GRIDS:
            times = UNIFORM_GRIDS[grid]
            got, ref = _amplitude_points(spec, times), _node_sum(spec, times)
            assert calls == [1]
        else:
            window = LATE_WINDOWS[grid]
            times = window[np.linspace(0, window.size - 1, 8).round().astype(int)]
            got = _late_points(lambda g: _amplitude_points(spec, g), times)
            ref = _late_points(lambda g: _node_sum(spec, g), times)
            assert calls == [1] * times.size
        assert float(np.max(np.abs(got - ref))) <= 1e-13

    @pytest.mark.parametrize("name, grid", [
        *((name, grid) for name in ("2d", "3d") for grid in [*UNIFORM_GRIDS, *LATE_WINDOWS]),
        ("2d, gap 0.25", "t0=0, horizon 3200"),
        ("3d, gap 0.25", "t0=0, horizon 3200"),
    ])
    def test_matches_quarter_period_rule(self, spectra, name, grid):
        # Ten nodes a full period wide against six a quarter period wide: the
        # two rules differ by rounding only, at 8 times including the largest.
        # A late window's reference is on the quarter periods of its own
        # largest time and its own dt, finer than each [0, |t|] lattice.
        spec = spectra[name]
        times = {**UNIFORM_GRIDS, **LATE_WINDOWS}.get(grid, np.linspace(0.0, 3200.0, 2000))
        at = np.linspace(0, times.size - 1, 8).round().astype(int)
        if grid in LATE_WINDOWS:
            got = _late_points(lambda g: _amplitude_points(spec, g), times[at])
        else:
            got = _amplitude_points(spec, times)[at]
        ref = _quarter_period_sum(spec, times, times[at])
        assert float(np.max(np.abs(got - ref))) <= 1e-13

    @pytest.mark.parametrize("name", ["2d", "3d"])
    @pytest.mark.parametrize("cuts", list(LATTICE_CUTS))
    def test_segment_edges_at_and_between_lattice_points(self, spectra, name, cuts):
        base = spectra[name]
        times = UNIFORM_GRIDS["t0=0, 301 times"]
        w = _lattice_width(times)
        seg = base.segments  # in xi, from the threshold 0
        # P is the second lattice point inside a live segment over 4 w wide.
        wide = np.flatnonzero((np.diff(seg) > 4.0 * w) & (base.segment_mass >= 1e-15))[0]
        p = math.ceil(seg[wide] / w) + 1
        edges = [(p + c) * w for c in LATTICE_CUTS[cuts]]
        spec = _split_segments(base, edges)
        x, _, _ = _transform_nodes(spec, w)
        assert x.size == _GL_X.size * int(_panel_counts(spec, times).sum())
        if len(edges) == 2:  # the new segment between the cuts is one panel
            assert np.count_nonzero((x > edges[0]) & (x < edges[1])) == _GL_X.size
        got = _amplitude_points(spec, times)
        assert float(np.max(np.abs(got - _node_sum(spec, times)))) <= 1e-13

    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_off_lattice_edge_inside_a_run_is_one_lattice_panel(self, spectra, name):
        # Split a wide segment halfway between two lattice points: both
        # halves are cut segments of one run, so the cell across the new
        # edge stays one lattice panel of ten nodes, not a tail and a head
        # remainder of ten nodes each, and the split adds no panel.
        base = spectra[name]
        times = UNIFORM_GRIDS["t0=0, 301 times"]
        w = _lattice_width(times)
        seg = base.segments  # in xi, from the threshold 0
        wide = np.flatnonzero((np.diff(seg) > 4.0 * w) & (base.segment_mass >= 1e-15))[0]
        p = math.ceil(seg[wide] / w) + 1
        spec = _split_segments(base, [(p + 0.5) * w])
        x, _, lattice = _transform_nodes(spec, w)
        cell = np.flatnonzero((x > p * w) & (x < (p + 1) * w))
        assert cell.size == _GL_X.size
        assert p in lattice and cell.max() < _GL_X.size * lattice.size
        assert x.size == _transform_nodes(base, w)[0].size
        got = _amplitude_points(spec, times)
        assert float(np.max(np.abs(got - _node_sum(spec, times)))) <= 1e-13

    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_uniform_grids_straddle_the_largest_panel_count(self, spectra, name):
        for grid, more in (("t0=0, 201 times", False),
                           ("t0=0, span a multiple of 2Q", False),
                           ("t0=0, more times than lattice panels", True)):
            times = UNIFORM_GRIDS[grid]
            _, _, lattice = _transform_nodes(spectra[name], _lattice_width(times))
            assert (times.size > int(lattice[-1] - lattice[0]) + 1) is more

    def test_uniform_grids_cover_every_fold_case(self, spectra):
        # One fold block, several with a partial last one, a span that is
        # an exact multiple of 2Q, and more times than 2Q (k wraps).
        for name in ("2d", "3d"):
            cases = set()
            for times in UNIFORM_GRIDS.values():
                _, _, lattice = _transform_nodes(spectra[name], _lattice_width(times))
                span = int(lattice[-1] - lattice[0]) + 1
                dt = float(times[-1]) / (times.size - 1)
                period = 2 * math.ceil(0.5 * float(times[-1]) / dt)
                cases.add("one block" if span <= period else
                          "partial last block" if span % period else "exact multiple")
                if times.size > period:
                    cases.add("k wraps")
            assert cases == {"one block", "partial last block", "exact multiple", "k wraps"}

    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_fold_of_many_panels_per_bin_is_rounding_only(self, spectra, name):
        # [0, 3200] has Q = 1: about 15,000 lattice panels fold into each of
        # the two bins, and the DFT is their sum and alternating sum.  Added
        # one after another they drift to 3e-15 of fsum's exact sums.
        times = np.array([0.0, 3200.0])
        _, a, lattice = _transform_nodes(spectra[name], _lattice_width(times))
        p = lattice - lattice[0]
        rows = a[:_GL_X.size * lattice.size].reshape(-1, _GL_X.size).T
        got = evolution._lattice_dft(rows, p, 1, 2)
        sign = np.where(p % 2 == 0, 1.0, -1.0)
        ref = np.array([[math.fsum(row), math.fsum(row * sign)] for row in rows])
        assert float(np.max(np.abs(got - ref))) <= 2e-16

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
        with pytest.raises(OscillatoryBudgetExceededError, match=f"needs {needed} panels"):
            amplitude_spectral(spec, times)
