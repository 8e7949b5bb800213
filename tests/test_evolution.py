from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from leveldecay import (
    AmplitudeSeries,
    CouplingFamily,
    CouplingModel,
    ModelParams,
    OscillatoryBudgetExceededError,
    amplitude_spectral,
    asymptotic_limit,
    build_spectral_data,
    fitted_decay_rate,
    solve_ide,
    weak_coupling_rate,
)
from leveldecay import evolution
from leveldecay.evolution import MethodTag, _amplitude_points

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP

GAMMA_WEAK_3D = 0.023114546995818438  # 2*pi * 0.01 * exp(-1)


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


@pytest.fixture(scope="module")
def spec_3d_above():
    return build_spectral_data(_params(THREE, 2.0))


@pytest.fixture(scope="module")
def spec_2d_moderate():
    return build_spectral_data(_params(TWO, 0.5))


@pytest.fixture(scope="module")
def spec_degenerate():
    return build_spectral_data(_params(THREE, 0.0))


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

    def test_budget_exceeded_for_tiny_budget(self, spec_3d_above, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_PANELS", 50)
        with pytest.raises(OscillatoryBudgetExceededError):
            amplitude_spectral(spec_3d_above, np.array([0.0, 500.0]))

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    def test_transform_is_exact_on_the_converged_segments(self, family, g_sq):
        # rho is evaluated exactly at the transform nodes, so cutting every
        # segment into 8 moves C(t) by rounding only.
        base = build_spectral_data(_params(family, g_sq))
        seg = base.segments
        cuts = seg[:-1, None] + np.diff(seg)[:, None] * (np.arange(8) / 8.0)
        fine = replace(
            base,
            segments=np.append(cuts.ravel(), seg[-1]),
            segment_mass=np.repeat(base.segment_mass / 8.0, 8),
        )
        ts = np.linspace(0.0, 50.0, 101)
        c_base = amplitude_spectral(base, ts).amplitude
        c_fine = amplitude_spectral(fine, ts).amplitude
        assert float(np.max(np.abs(c_base - c_fine))) <= 1e-12

    def test_requires_normalized_input(self, spec_3d_above):
        broken = replace(spec_3d_above, normalization_defect=1e-2)
        with pytest.raises(ValueError, match="normalization"):
            amplitude_spectral(broken, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("times", [
        [5.0],
        [0.0, 2.0, 1.0, 3.0],
        [3.0, 2.0, 1.0, 0.0],
        [0.0, 1.0, 2.5, 3.0],
        [0.0, 1.0, 2.0 + 1e-9, 3.0],
    ], ids=["one time", "not increasing", "decreasing", "off a line", "off by 1e-9"])
    def test_rejects_a_grid_that_is_not_uniform(self, spec_3d_above, spec_degenerate, times):
        for spec in (spec_3d_above, spec_degenerate):
            with pytest.raises(ValueError, match="uniform grid"):
                _amplitude_points(spec, np.array(times))


class TestAsymptotics:
    def test_no_eigenvalue_decays_to_zero(self):
        spec = build_spectral_data(_params(THREE, 0.5))
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
        assert rate.shift_estimate == pytest.approx(-k_pv(params, params.e2), abs=1e-12)

    def test_fitted_slope_matches_rate(self):
        params = _params(THREE, 0.01)
        spec = build_spectral_data(params)
        ts = np.linspace(0.0, 150.0, 751)
        series = amplitude_spectral(spec, ts)
        fitted = fitted_decay_rate(series)
        assert fitted == pytest.approx(GAMMA_WEAK_3D, rel=0.15)

    def test_fit_needs_window_samples(self, spec_degenerate):
        series = amplitude_spectral(spec_degenerate, np.linspace(0.0, 5.0, 11))
        with pytest.raises(ValueError):
            fitted_decay_rate(series)


class TestConjugateSymmetry:
    # A real spectral measure gives C(-t) = conj C(t); the signed grid
    # [-t, t] is uniform, so it runs the transform's one path.
    @given(
        family=st.sampled_from([TWO, THREE]),
        scale=st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
        cutoff=st.floats(0.25, 4.0),
        t=st.floats(1e-3, 50.0),
    )
    def test_negative_time_is_the_conjugate(self, family, scale, cutoff, t):
        # scale is g2 L^p (p = 1 for 3d, 0 for 2d); 3d at g2 L = 1 sits on
        # the bound-state threshold of the gap-1 model.
        assume(family is TWO or abs(scale - 1.0) > 1e-6)
        p = 1 if family is THREE else 0
        spec = build_spectral_data(_params(family, scale / cutoff**p, cutoff))
        pair = _amplitude_points(spec, np.array([-t, t]))
        tol = 0.0 if scale == 0.0 else 1e-12
        assert abs(pair[0] - np.conj(pair[1])) <= tol


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
