from __future__ import annotations

import math

import numpy as np
import pytest

from leveldecay import (
    AmplitudeSeries,
    CouplingFamily,
    CouplingModel,
    DensityGridSpec,
    ModelParams,
    OscillatoryBudgetExceededError,
    QuadratureConfig,
    amplitude_spectral,
    asymptotic_limit,
    build_spectral_data,
    conjugate_symmetry_check,
    fitted_decay_rate,
    solve_ide,
    weak_coupling_rate,
)
from leveldecay.evolution import MethodTag

CFG = QuadratureConfig()
TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP

GAMMA_WEAK_3D = 0.023114546995818438  # 2*pi * 0.01 * exp(-1)


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


@pytest.fixture(scope="module")
def spec_3d_above():
    return build_spectral_data(_params(THREE, 2.0), cfg=CFG)


@pytest.fixture(scope="module")
def spec_2d_moderate():
    return build_spectral_data(_params(TWO, 0.5), cfg=CFG)


@pytest.fixture(scope="module")
def spec_degenerate():
    return build_spectral_data(_params(THREE, 0.0), cfg=CFG)


class TestAmplitude:
    def test_initial_probability_is_total_mass(self, spec_3d_above):
        series = amplitude_spectral(spec_3d_above, np.array([0.0, 1.0]))
        assert series.probability[0] == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_pure_phase(self, spec_degenerate):
        ts = np.linspace(0.0, 10.0, 21)
        series = amplitude_spectral(spec_degenerate, ts)
        assert np.allclose(series.probability, 1.0, atol=1e-14)
        assert np.allclose(series.amplitude, np.exp(-1j * 1.0 * ts))

    def test_amplitude_stays_inside_unit_disk(self, spec_3d_above):
        ts = np.linspace(0.0, 40.0, 201)
        series = amplitude_spectral(spec_3d_above, ts)
        assert np.all(np.abs(series.amplitude) <= 1.0 + 1e-6)
        assert series.method_tag is MethodTag.SPECTRAL

    def test_matches_volterra_pointwise(self, spec_3d_above):
        params = _params(THREE, 2.0)
        vol = solve_ide(params, horizon=5.0, step=0.005)
        series = amplitude_spectral(spec_3d_above, np.array([0.0, 5.0]))
        assert abs(series.amplitude[-1] - vol.amplitude[-1]) <= 1e-3

    def test_budget_exceeded_for_tiny_budget(self, spec_3d_above):
        with pytest.raises(OscillatoryBudgetExceededError):
            amplitude_spectral(spec_3d_above, np.array([500.0]), max_panels_per_time=50)

    def test_stable_under_grid_doubling(self):
        params = _params(TWO, 0.5)
        base = build_spectral_data(params, cfg=CFG)
        fine = build_spectral_data(params, grid=DensityGridSpec(extra_refine=1), cfg=CFG)
        assert len(fine.grid) > len(base.grid)
        ts = np.linspace(0.0, 50.0, 101)
        p_base = amplitude_spectral(base, ts).probability
        p_fine = amplitude_spectral(fine, ts).probability
        assert float(np.max(np.abs(p_base - p_fine))) <= 1e-4

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    def test_transform_is_exact_on_the_converged_segments(self, family, g_sq):
        # rho is evaluated exactly at the transform nodes, so refining the
        # segments three more times moves C(t) by rounding only.
        params = _params(family, g_sq)
        base = build_spectral_data(params, cfg=CFG)
        fine = build_spectral_data(params, grid=DensityGridSpec(extra_refine=3), cfg=CFG)
        ts = np.linspace(0.0, 50.0, 101)
        c_base = amplitude_spectral(base, ts).amplitude
        c_fine = amplitude_spectral(fine, ts).amplitude
        assert float(np.max(np.abs(c_base - c_fine))) <= 1e-12

    def test_requires_normalized_input(self, spec_3d_above):
        from dataclasses import replace

        broken = replace(spec_3d_above, normalization_defect=1e-2)
        with pytest.raises(ValueError):
            amplitude_spectral(broken, np.array([0.0]))


class TestAsymptotics:
    def test_no_eigenvalue_decays_to_zero(self):
        spec = build_spectral_data(_params(THREE, 0.5), cfg=CFG)
        assert asymptotic_limit(spec) == 0.0

    def test_degenerate_stays_at_one(self, spec_degenerate):
        assert asymptotic_limit(spec_degenerate) == 1.0

    def test_plateau_equals_squared_weight(self, spec_2d_moderate):
        target = spec_2d_moderate.weight**2
        assert asymptotic_limit(spec_2d_moderate) == pytest.approx(target)
        ts = np.linspace(0.0, 120.0, 601)
        series = amplitude_spectral(spec_2d_moderate, ts)
        window = ts >= 60.0
        assert float(series.probability[window].mean()) == pytest.approx(target, abs=1e-2)


class TestWeakCoupling:
    def test_zero_coupling_rate(self):
        rate = weak_coupling_rate(_params(THREE, 0.0))
        assert rate.gamma == 0.0

    def test_rate_closed_form(self):
        rate = weak_coupling_rate(_params(THREE, 0.01))
        assert rate.gamma == pytest.approx(GAMMA_WEAK_3D, rel=1e-12)

    def test_shift_is_minus_pv_at_upper_level(self):
        from leveldecay import k_pv

        params = _params(THREE, 0.5)
        rate = weak_coupling_rate(params)
        assert rate.shift_estimate == pytest.approx(-k_pv(params, params.e2, CFG), abs=1e-12)

    def test_fitted_slope_matches_rate(self):
        params = _params(THREE, 0.01)
        spec = build_spectral_data(params, cfg=CFG)
        ts = np.linspace(0.0, 150.0, 751)
        series = amplitude_spectral(spec, ts)
        fitted = fitted_decay_rate(series)
        assert fitted == pytest.approx(GAMMA_WEAK_3D, rel=0.15)

    def test_fit_needs_window_samples(self, spec_degenerate):
        series = amplitude_spectral(spec_degenerate, np.linspace(0.0, 5.0, 11))
        with pytest.raises(ValueError):
            fitted_decay_rate(series)


class TestConjugateSymmetry:
    def test_at_zero(self, spec_3d_above):
        assert conjugate_symmetry_check(spec_3d_above, 0.0)

    def test_generic_time(self, spec_3d_above, spec_2d_moderate):
        assert conjugate_symmetry_check(spec_3d_above, 3.7)
        assert conjugate_symmetry_check(spec_2d_moderate, 3.7)

    def test_degenerate_exact(self, spec_degenerate):
        assert conjugate_symmetry_check(spec_degenerate, 11.3, tol=0.0)


class TestSeriesValidation:
    def test_rejects_decreasing_times(self):
        t = np.array([0.0, 1.0, 0.5])
        c = np.exp(-1j * t)
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, np.abs(c) ** 2, MethodTag.SPECTRAL)

    def test_rejects_negative_times(self):
        t = np.array([-1.0, 0.0])
        c = np.exp(-1j * t)
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, np.abs(c) ** 2, MethodTag.SPECTRAL)

    def test_rejects_inconsistent_probability(self):
        t = np.array([0.0, 1.0])
        c = np.array([1.0 + 0.0j, 0.5 + 0.0j])
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, np.array([1.0, 0.9]), MethodTag.SPECTRAL)

    def test_rejects_initial_probability_off_one(self):
        t = np.array([0.0, 1.0])
        c = np.array([0.99 + 0.0j, 0.5 + 0.0j])
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, np.abs(c) ** 2, MethodTag.SPECTRAL)

    def test_rejects_overshoot(self):
        t = np.array([0.0, 1.0])
        c = np.array([1.0 + 0.0j, 1.01 + 0.0j])
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, np.abs(c) ** 2, MethodTag.SPECTRAL)

    def test_volterra_tag_allows_discretization_budget(self):
        t = np.array([0.0, 1.0])
        mag = math.sqrt(1.0 + 1.5e-4)
        c = np.array([1.0 + 0.0j, mag + 0.0j])
        series = AmplitudeSeries(t, c, np.abs(c) ** 2, MethodTag.VOLTERRA)
        assert series.probability[-1] > 1.0
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, np.abs(c) ** 2, MethodTag.SPECTRAL)
