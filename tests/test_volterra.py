from __future__ import annotations

import math

import numpy as np
import pytest

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    KernelMismatchError,
    ModelParams,
    amplitude_spectral,
    build_kernel_table,
    build_spectral_data,
    kernel,
    l2_norm_sq,
    solve_ide,
)
from leveldecay.evolution import MethodTag, ProbabilityBoundError
import leveldecay.volterra as volterra

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP

# K(1) for the 3d family at g2=1, cutoff=1, gap=1:
# -exp(i) / (1 + i)^2 = (i/2) exp(i).
K1_3D = complex(-0.42073549240394825, 0.2701511529340699)


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


class TestKernel:
    def test_at_zero_equals_minus_norm(self):
        for family, g2, cut in ((TWO, 0.8, 1.5), (THREE, 2.0, 0.7)):
            params = _params(family, g2, cutoff=cut)
            assert kernel(params, 0.0) == pytest.approx(-l2_norm_sq(params.coupling))

    def test_three_dim_frozen_value(self):
        got = kernel(_params(THREE, 1.0), 1.0)
        assert got == pytest.approx(K1_3D, abs=1e-14)

    def test_decays_at_long_times(self):
        assert abs(kernel(_params(THREE, 1.0), 100.0)) < 1e-3

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            kernel(_params(TWO, 1.0), -1.0)

    @pytest.mark.parametrize("family", [TWO, THREE])
    def test_closed_form_agrees_with_quadrature(self, family):
        model = CouplingModel(family, 1.3, 0.8)
        for t in (0.0, 0.5, 2.0, 7.0):
            cf = complex(volterra._fourier_closed_form(model, model.cutoff * t))
            quad = volterra._fourier_quad(model, t)
            assert abs(cf - quad) <= 1e-9 * max(1.0, abs(cf))

    def test_table_gated_by_self_check(self):
        params = _params(THREE, 0.9)
        k = build_kernel_table(params, horizon=2.0, step=0.1)
        assert k[0] == pytest.approx(-l2_norm_sq(params.coupling))

    def test_mismatch_detected(self, monkeypatch):
        volterra._self_check.cache_clear()
        true_form = volterra._fourier_closed_form
        monkeypatch.setattr(
            volterra, "_fourier_closed_form", lambda model, t: 1.001 * true_form(model, t)
        )
        with pytest.raises(KernelMismatchError):
            build_kernel_table(_params(THREE, 0.654321), horizon=1.0, step=0.1)
        volterra._self_check.cache_clear()


class TestSolver:
    def test_zero_coupling_stays_excited(self):
        series = solve_ide(_params(THREE, 0.0), horizon=5.0, step=0.05)
        assert np.allclose(series.probability, 1.0, atol=1e-12)
        assert series.method_tag is MethodTag.VOLTERRA

    def test_short_time_quadratic_law(self):
        # P(t) = 1 - l2 t^2 + O(t^4) for small t
        params = _params(THREE, 1.0)
        t_star = 1e-2
        series = solve_ide(params, horizon=t_star, step=t_star / 16.0)
        predicted = 1.0 - l2_norm_sq(params.coupling) * t_star**2
        assert series.probability[-1] == pytest.approx(predicted, abs=1e-5)

    def test_amplitude_bounded(self):
        params = _params(THREE, 2.0)
        series = solve_ide(params, horizon=50.0, step=0.01)
        y_mag = np.abs(series.amplitude)
        assert np.all(y_mag <= 1.0 + 1e-4)

    def test_richardson_consistency(self):
        # Halving the step from 0.04 to 0.02 quarters a second-order solve's
        # error against the spectral route, which is exact to 2e-15 here.
        params = _params(THREE, 2.0)
        v_4h = solve_ide(params, horizon=20.0, step=0.04)
        v_2h = solve_ide(params, horizon=20.0, step=0.02, stride=2)
        assert v_2h.times.tobytes() == v_4h.times.tobytes()
        c_s = amplitude_spectral(build_spectral_data(params), v_4h.times).amplitude
        e_2h, e_4h = (np.max(np.abs(v.amplitude - c_s)) for v in (v_2h, v_4h))
        assert 3.0 <= e_4h / e_2h <= 5.0

    def test_late_plateau_matches_eigen_weight(self):
        from leveldecay import point_mass

        params = _params(THREE, 2.0)
        _, _, w = point_mass(params)
        series = solve_ide(params, horizon=200.0, step=0.02)
        window = series.times >= 100.0
        plateau = float(np.abs(series.amplitude[window]).mean())
        assert plateau == pytest.approx(w, abs=1e-2)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            solve_ide(_params(THREE, 1.0), horizon=1.0, step=0.0)
        with pytest.raises(ValueError):
            solve_ide(_params(THREE, 1.0), horizon=0.05, step=0.1)

    @pytest.mark.parametrize("horizon", [50.0, 200.0], ids=["5k-steps", "20k-steps"])
    def test_stride_keeps_every_stride_th_row_bit_identically(self, horizon):
        params = _params(THREE, 2.0)
        full = solve_ide(params, horizon=horizon, step=0.01)
        for stride in (7, 100):
            rows = solve_ide(params, horizon=horizon, step=0.01, stride=stride)
            assert rows.times.tobytes() == full.times[::stride].tobytes()
            assert rows.amplitude.tobytes() == full.amplitude[::stride].tobytes()

    def test_stride_hides_no_overshoot(self):
        # Steps this coarse overshoot |y| <= 1 from the first step on, and a
        # stride past the last step returns only t = 0, where P = 1.
        with pytest.raises(ProbabilityBoundError, match="volterra probability"):
            solve_ide(_params(THREE, 2.0), horizon=50.0, step=2.0, stride=26)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            solve_ide(_params(THREE, 1.0), horizon=1.0, step=0.1, stride=0)

    def test_interoperates_with_gap_scaling(self):
        # doubling all energies halves the natural time scale but not |y|
        base = solve_ide(_params(THREE, 2.0), horizon=10.0, step=0.01)
        scaled = solve_ide(
            ModelParams(0.0, 2.0, CouplingModel(THREE, 2.0, 1.0)), horizon=10.0, step=0.01
        )
        assert not np.allclose(base.probability, scaled.probability)
        assert math.isclose(base.probability[0], scaled.probability[0])
