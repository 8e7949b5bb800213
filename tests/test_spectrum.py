from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    DensityGridSpec,
    ModelParams,
    NoEigenvalueError,
    NonConvergenceError,
    QuadratureConfig,
    ThresholdMarginalError,
    build_spectral_data,
    eigen_weight,
    find_eigenvalue,
    spectral_density,
    threshold_check,
)

CFG = QuadratureConfig()
TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP

# Frozen eigenvalue/weight references (e1=0, e2=1, cutoff=1), each confirmed
# two ways: brute-force bisection over fine-grid Simpson quadrature, and
# root-finding on the exponential-integral closed form of k.
E0_3D_G2 = -0.2847792477167630
W_3D_G2 = 0.4490925369778847
E0_2D_G05 = -0.08295680111776502
W_2D_G05 = 0.16822904996794696
E0_2D_G01 = -2.5490870973312442e-05
W_2D_G01 = 2.549087113894817e-04


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, CouplingModel(TWO, 1.0, 1.0))
    with pytest.raises(ValueError):
        ModelParams(2.0, 1.0, CouplingModel(TWO, 1.0, 1.0))


class TestThreshold:
    def test_three_dim_above(self):
        res = threshold_check(_params(THREE, 2.0))
        assert res.exists and res.rhs == pytest.approx(2.0) and res.lhs == pytest.approx(1.0)

    def test_three_dim_below(self):
        res = threshold_check(_params(THREE, 0.1))
        assert not res.exists and res.rhs == pytest.approx(0.1)

    def test_two_dim_always_exists(self):
        res = threshold_check(_params(TWO, 0.3))
        assert res.exists and math.isinf(res.rhs)

    def test_degenerate_zero_coupling(self):
        res = threshold_check(_params(THREE, 0.0))
        assert res.degenerate and not res.exists

    def test_marginal_flagged(self):
        res = threshold_check(_params(THREE, 1.0))
        assert res.marginal

    def test_marginal_rejected_by_solver(self):
        with pytest.raises(ThresholdMarginalError):
            find_eigenvalue(_params(THREE, 1.0))

    def test_marginal_rejected_by_builder(self):
        with pytest.raises(ThresholdMarginalError):
            build_spectral_data(_params(THREE, 1.0 + 5e-9), cfg=CFG)


class TestEigenvalue:
    def test_three_dim_matches_reference(self):
        got = find_eigenvalue(_params(THREE, 2.0))
        assert got == pytest.approx(E0_3D_G2, abs=1e-10)

    def test_two_dim_matches_reference(self):
        got = find_eigenvalue(_params(TWO, 0.5))
        assert got == pytest.approx(E0_2D_G05, abs=1e-10)

    def test_two_dim_near_edge_matches_reference(self):
        got = find_eigenvalue(_params(TWO, 0.1))
        assert got == pytest.approx(E0_2D_G01, rel=1e-8)

    def test_two_dim_underflow_regime_stays_below_edge(self):
        got = find_eigenvalue(_params(TWO, 1e-3))
        assert got < 0.0

    def test_below_threshold_raises(self):
        with pytest.raises(NoEigenvalueError):
            find_eigenvalue(_params(THREE, 0.9))

    def test_zero_coupling_raises(self):
        with pytest.raises(NoEigenvalueError):
            find_eigenvalue(_params(THREE, 0.0))

    def test_independent_of_initial_bracket(self):
        params = _params(THREE, 2.0)
        a = find_eigenvalue(params, initial_span=None)
        b = find_eigenvalue(params, initial_span=7.0)
        assert abs(a - b) <= 1e-10

    def test_ordering_below_both_levels(self):
        for params in (_params(THREE, 1.5), _params(TWO, 0.7), _params(TWO, 2.0)):
            e0 = find_eigenvalue(params)
            assert e0 < params.e1 < params.e2

    def test_monotone_repulsion_in_strength(self):
        roots = [find_eigenvalue(_params(THREE, g)) for g in (1.2, 1.5, 2.0, 3.0, 4.0)]
        assert all(b < a for a, b in zip(roots[:-1], roots[1:]))

    def test_two_dim_root_moves_toward_edge_as_coupling_shrinks(self):
        roots = [find_eigenvalue(_params(TWO, g)) for g in (0.3, 0.1, 0.03)]
        assert roots[0] < roots[1] < roots[2] < 0.0

    def test_shifted_levels(self):
        # same scenario translated by +5 in energy: root translates along
        params = _params(THREE, 2.0, e1=5.0, e2=6.0)
        got = find_eigenvalue(params)
        assert got == pytest.approx(5.0 + E0_3D_G2, abs=1e-9)


class TestWeight:
    def test_zero_coupling_weight_is_one(self):
        assert eigen_weight(_params(THREE, 0.0), -1.0) == 1.0

    def test_three_dim_matches_reference(self):
        params = _params(THREE, 2.0)
        e0 = find_eigenvalue(params)
        assert eigen_weight(params, e0) == pytest.approx(W_3D_G2, abs=1e-9)

    def test_two_dim_matches_reference(self):
        params = _params(TWO, 0.5)
        e0 = find_eigenvalue(params)
        assert eigen_weight(params, e0) == pytest.approx(W_2D_G05, abs=1e-9)

    def test_two_dim_near_edge_matches_reference(self):
        params = _params(TWO, 0.1)
        e0 = find_eigenvalue(params)
        assert eigen_weight(params, e0) == pytest.approx(W_2D_G01, rel=1e-7)

    def test_strictly_inside_unit_interval(self):
        for family, g in ((THREE, 1.2), (THREE, 4.0), (TWO, 0.05), (TWO, 3.0)):
            params = _params(family, g)
            e0 = find_eigenvalue(params)
            assert 0.0 < eigen_weight(params, e0) < 1.0

    def test_requires_e0_below_edge(self):
        with pytest.raises(ValueError):
            eigen_weight(_params(THREE, 2.0), 0.5)


class TestDensity:
    def test_zero_below_edge(self):
        assert spectral_density(_params(THREE, 2.0), -0.5) == 0.0
        assert spectral_density(_params(TWO, 0.5), -1e-9) == 0.0

    def test_zero_at_edge(self):
        assert spectral_density(_params(THREE, 2.0), 0.0) == 0.0
        assert spectral_density(_params(TWO, 0.5), 0.0) == 0.0

    def test_zero_coupling(self):
        assert spectral_density(_params(THREE, 0.0), 1.3) == 0.0

    def test_nonnegative_on_grid(self):
        params = _params(TWO, 0.5)
        for t in np.linspace(0.001, 20.0, 40):
            assert spectral_density(params, float(t)) >= 0.0

    @pytest.mark.parametrize("t", [0.4, 0.9, 1.0, 1.4, 3.0])
    def test_matches_independent_pv_oracle(self, t):
        # denominator principal value via scipy's Cauchy-weight quadrature
        params = _params(THREE, 0.5)
        g2, cut = 0.5, 1.0
        v = g2 * t * math.exp(-t / cut)
        pv, _ = integrate.quad(
            lambda x: g2 * x * np.exp(-x / cut), 0.0, 80.0, weight="cauchy", wvar=t,
            limit=400,
        )
        oracle = v / ((1.0 - t - pv) ** 2 + (math.pi * v) ** 2)
        assert spectral_density(params, t) == pytest.approx(oracle, rel=1e-8)

    def test_weak_coupling_peak_location_and_height(self):
        # narrow resonance near the shifted upper level
        params = _params(THREE, 0.01)
        ts = np.linspace(0.9, 1.1, 81)
        rho = [spectral_density(params, float(t)) for t in ts]
        t_peak = ts[int(np.argmax(rho))]
        assert abs(t_peak - 1.0) < 0.02
        v_peak = 0.01 * t_peak * math.exp(-t_peak)
        assert max(rho) == pytest.approx(1.0 / (math.pi**2 * v_peak), rel=0.05)


class TestSpectralData:
    def test_degenerate_record(self):
        spec = build_spectral_data(_params(THREE, 0.0), cfg=CFG)
        assert spec.degenerate
        assert spec.eigenvalue == 1.0 and spec.weight == 1.0
        assert spec.grid.size == 0 and spec.normalization_defect == 0.0

    def test_above_threshold_normalization(self):
        spec = build_spectral_data(_params(TWO, 0.5), cfg=CFG)
        assert spec.normalization_defect <= 1e-6
        assert spec.eigenvalue == pytest.approx(E0_2D_G05, abs=1e-9)
        assert spec.weight == pytest.approx(W_2D_G05, abs=1e-8)
        assert np.all(spec.density >= 0.0)
        assert np.all(np.diff(spec.grid) > 0.0)

    def test_below_threshold_normalization(self):
        spec = build_spectral_data(_params(THREE, 0.5), cfg=CFG)
        assert spec.eigenvalue is None and spec.weight == 0.0
        assert spec.normalization_defect <= 1e-6

    def test_panel_budget_exhaustion_raises(self):
        # The narrow resonance of this model needs more than three splits.
        grid = DensityGridSpec(max_panels=3)
        with pytest.raises(NonConvergenceError):
            build_spectral_data(_params(THREE, 0.5, cutoff=0.1), grid=grid, cfg=CFG)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            DensityGridSpec(mass_tol=0.0)
        with pytest.raises(ValueError):
            DensityGridSpec(extra_refine=-1)
