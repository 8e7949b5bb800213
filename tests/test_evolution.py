from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from leveldecay import (
    AmplitudeSeries,
    CouplingFamily,
    CouplingModel,
    ModelParams,
    NumericalError,
    OscillatoryBudgetExceededError,
    ProbabilityBoundError,
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

    def test_budget_holds_where_the_panel_count_passes_int64(self, spec_3d_above):
        # About 2e301 panels: an int64 count would wrap and pass the budget.
        with pytest.raises(OscillatoryBudgetExceededError):
            amplitude_spectral(spec_3d_above, np.array([0.0, 1e300]))

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
        np.linspace(20.0, 300.0, 41),
        np.linspace(-30.0, 60.0, 301),
        np.linspace(1000.0, 1001.0, 201),
        np.linspace(3000.0, 3000.1, 201),
    ], ids=["one time", "not increasing", "decreasing", "off a line", "off by 1e-9",
            "offset", "signed", "far window", "farther window"])
    def test_rejects_a_grid_that_is_not_uniform(
        self, spec_3d_above, spec_degenerate, times, monkeypatch
    ):
        # Refused before any node is built: a window far from 0 would fold
        # a lattice of about t_max / dt panels.
        monkeypatch.setattr(evolution, "_transform_nodes", None)
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

    @pytest.mark.parametrize("g_sq, cutoff, gap", [
        (0.5, 1.0, 1.0), (0.3, 1.0, 1.0), (0.2, 2.0, 1.0),  # below the threshold
        (2.0, 1.0, 1.0), (3.0, 1.0, 1.0), (1.0, 2.0, 1.0),  # above it
    ])
    def test_3d_tail_follows_the_edge_law(self, g_sq, cutoff, gap):
        # In 3d rho(e1 + x) = c x + O(x^2 ln x) at the edge, c = g2 / (gap - g2 L)^2,
        # so past the resonance C(t) - w exp(-i e0 t) = -c exp(-i e1 t) / t^2
        # + O(ln t / t^3) (Khalfin, Sov. Phys. JETP 6, 1053 (1958)).
        params = _params(THREE, g_sq, cutoff, e2=gap)
        spec = build_spectral_data(params)
        assert (spec.eigenvalue is not None) is (g_sq * cutoff > gap)
        assert 400.0 * weak_coupling_rate(params) > 20.0  # the pole's e^(-Gt/2) is gone
        c = g_sq / (gap - g_sq * cutoff) ** 2
        err = {}
        for t in (400.0, 1600.0):
            tail = amplitude_spectral(spec, np.array([0.0, 0.5 * t, t])).amplitude[-1]
            if spec.eigenvalue is not None:
                tail -= spec.weight * np.exp(-1j * spec.eigenvalue * t)
            err[t] = abs(tail * t**2 / -c - 1.0)
        assert err[1600.0] <= 5e-2
        assert err[400.0] >= 2.5 * err[1600.0]  # ln t / t falls 3.2x


class TestWeakCoupling:
    def test_zero_coupling_rate(self):
        assert weak_coupling_rate(_params(THREE, 0.0)) == 0.0

    def test_rate_closed_form(self):
        rate = weak_coupling_rate(_params(THREE, 0.01))
        assert rate == pytest.approx(GAMMA_WEAK_3D, rel=1e-12)

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


class TestSeriesValidation:
    def test_rejects_decreasing_times(self):
        t = np.array([0.0, 1.0, 0.5])
        c = np.exp(-1j * t)
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, MethodTag.SPECTRAL)

    def test_rejects_negative_times(self):
        t = np.array([-1.0, 0.0])
        c = np.exp(-1j * t)
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, MethodTag.SPECTRAL)

    def test_rejects_initial_probability_off_one(self):
        t = np.array([0.0, 1.0])
        c = np.array([0.99 + 0.0j, 0.5 + 0.0j])
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, MethodTag.SPECTRAL)

    def test_rejects_overshoot(self):
        t = np.array([0.0, 1.0])
        c = np.array([1.0 + 0.0j, 1.01 + 0.0j])
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, MethodTag.SPECTRAL)

    @pytest.mark.parametrize("tag", list(MethodTag))
    def test_overshoot_is_a_numerical_error(self, tag):
        # Both bases: callers that catch ValueError still see it.
        c = np.array([1.0 + 0.0j, 1.01 + 0.0j])
        with pytest.raises(ProbabilityBoundError, match=f"{tag.value} probability") as exc:
            AmplitudeSeries(np.array([0.0, 1.0]), c, tag)
        assert isinstance(exc.value, NumericalError) and isinstance(exc.value, ValueError)

    def test_volterra_tag_allows_discretization_budget(self):
        t = np.array([0.0, 1.0])
        mag = math.sqrt(1.0 + 1.5e-4)
        c = np.array([1.0 + 0.0j, mag + 0.0j])
        series = AmplitudeSeries(t, c, MethodTag.VOLTERRA)
        assert series.probability[-1] > 1.0
        with pytest.raises(ValueError):
            AmplitudeSeries(t, c, MethodTag.SPECTRAL)
