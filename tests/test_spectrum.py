from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    ModelParams,
    NonConvergenceError,
    NormalizationFailureError,
    ThresholdMarginalError,
    build_spectral_data,
    eigen_weight,
    point_mass,
    spectral_density,
    threshold_check,
)
from leveldecay import spectrum
from leveldecay.coupling import Units
from leveldecay.verification import MATRIX

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


def _model(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    """The canonical twin of ``_params``, the model ``spectral_density`` takes."""
    return _params(family, g_sq, cutoff, e1, e2).canonical


def _e0(params):
    """The eigenvalue of ``point_mass``, the one route to it."""
    return point_mass(params)[1]


def _ln_s(params):
    """ln s0 of the eigenvalue solve, the distance ``eigen_weight`` takes."""
    return spectrum._solve_eigenvalue(Units(params).model)[0]


def _threshold(params):
    """``threshold_check`` of a caller's model."""
    return threshold_check(Units(params).model, params.coupling.cutoff)


def _weight(params, ln_s):
    """``eigen_weight`` of a caller's model at ln s0, its canonical twin's."""
    return eigen_weight(Units(params).model, ln_s)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, CouplingModel(TWO, 1.0, 1.0))
    with pytest.raises(ValueError):
        ModelParams(2.0, 1.0, CouplingModel(TWO, 1.0, 1.0))


class TestThreshold:
    def test_three_dim_above(self):
        res = _threshold(_params(THREE, 2.0))
        assert res.exists and res.rhs == pytest.approx(2.0)

    def test_three_dim_below(self):
        res = _threshold(_params(THREE, 0.1))
        assert not res.exists and res.rhs == pytest.approx(0.1)

    def test_two_dim_always_exists(self):
        res = _threshold(_params(TWO, 0.3))
        assert res.exists and math.isinf(res.rhs)

    def test_degenerate_zero_coupling(self):
        res = _threshold(_params(THREE, 0.0))
        assert res.degenerate and not res.exists

    def test_marginal_flagged(self):
        res = _threshold(_params(THREE, 1.0))
        assert res.marginal

    def test_marginal_rejected_by_solver(self):
        check, e0, w = point_mass(_params(THREE, 1.0 - 5e-9))
        assert check.marginal and (e0, w) == (None, None)

    def test_marginal_rejected_by_builder(self):
        with pytest.raises(ThresholdMarginalError, match=r"\|beta - r\| = .* 1e-08"):
            build_spectral_data(_params(THREE, 1.0 + 5e-9))


class TestEigenvalue:
    def test_three_dim_matches_reference(self):
        got = _e0(_params(THREE, 2.0))
        assert got == pytest.approx(E0_3D_G2, abs=1e-10)

    def test_two_dim_matches_reference(self):
        got = _e0(_params(TWO, 0.5))
        assert got == pytest.approx(E0_2D_G05, abs=1e-10)

    def test_two_dim_near_edge_matches_reference(self):
        got = _e0(_params(TWO, 0.1))
        assert got == pytest.approx(E0_2D_G01, rel=1e-8, abs=0)

    def test_two_dim_underflow_regime_stays_below_edge(self):
        # e1 - e0 is about e^-1000: e0 is the float below e1, and the weight
        # a / (a + g2) at the underflowed a = 0 is 0.
        _, got, w = point_mass(_params(TWO, 1e-3))
        assert got < 0.0 and w == 0.0

    @pytest.mark.parametrize("g_sq, gap", [(1e-309, 1.0), (1e-200, 1e200)])
    def test_two_dim_root_below_the_float_range(self, g_sq, gap):
        # beta / gamma overflows, so the root ln s0 = -beta / gamma - gamma_E
        # is below -1.8e308: the answer at gamma = 1e-308, e0 the float
        # below e1 and w = 0, where the solve used not to converge.
        for e1 in (0.0, 5.0):
            check, e0, w = point_mass(_params(TWO, g_sq, e1=e1, e2=e1 + gap))
            assert check.exists and e0 == np.nextafter(e1, -np.inf) and w == 0.0
        assert _ln_s(_params(TWO, g_sq, e2=gap)) == -math.inf

    def test_below_threshold_has_none(self):
        check, e0, w = point_mass(_params(THREE, 0.9))
        assert not check.exists and not check.marginal and (e0, w) == (None, 0.0)

    def test_zero_coupling_keeps_e2(self):
        check, e0, w = point_mass(_params(THREE, 0.0))
        assert check.degenerate and (e0, w) == (1.0, 1.0)

    def test_ordering_below_both_levels(self):
        for params in (_params(THREE, 1.5), _params(TWO, 0.7), _params(TWO, 2.0)):
            e0 = _e0(params)
            assert e0 < params.e1 < params.e2

    def test_monotone_repulsion_in_strength(self):
        roots = [_e0(_params(THREE, g)) for g in (1.2, 1.5, 2.0, 3.0, 4.0)]
        assert all(b < a for a, b in zip(roots[:-1], roots[1:]))

    def test_two_dim_root_moves_toward_edge_as_coupling_shrinks(self):
        roots = [_e0(_params(TWO, g)) for g in (0.3, 0.1, 0.03)]
        assert roots[0] < roots[1] < roots[2] < 0.0

    def test_shifted_levels(self):
        # same scenario translated by +5 in energy: root translates along
        params = _params(THREE, 2.0, e1=5.0, e2=6.0)
        got = _e0(params)
        assert got == pytest.approx(5.0 + E0_3D_G2, abs=1e-9)

    # scale is g2 L^p (p = 1 for 3d, 0 for 2d); the 3d threshold is
    # g2 L = gap, and points within 1e-6 of it are left out.
    @settings(max_examples=300)
    @given(
        family=st.sampled_from([TWO, THREE]),
        scale=st.floats(0.01, 10.0),
        cutoff=st.floats(0.1, 10.0),
        gap=st.floats(0.01, 10.0),
        factor=st.floats(1.01, 2.0),
    )
    @example(family=TWO, scale=0.01, cutoff=1.0, gap=10.0, factor=1.01)  # underflow
    def test_threshold_agrees_with_the_solver(self, family, scale, cutoff, gap, factor):
        assume(family is TWO or abs(scale - gap) > 1e-6)
        p = 1 if family is THREE else 0
        params = _params(family, scale / cutoff**p, cutoff, e2=gap)
        exists = _threshold(params).exists
        check, e0, w = point_mass(params)
        if e0 is None:
            assert not exists and not check.marginal and w == 0.0
            return
        assert exists and e0 < params.e1
        stronger = _e0(_params(family, factor * scale / cutoff**p, cutoff, e2=gap))
        # Strictly lower, unless the edge distance underflows (weak 2d
        # coupling, gap / g2 beyond about 700): then both are the closest
        # float below e1.
        floor = np.nextafter(params.e1, -np.inf)
        assert stronger < e0 or stronger == e0 == floor


class TestWeight:
    def test_zero_coupling_weight_is_one(self):
        assert _weight(_params(THREE, 0.0), 0.0) == 1.0

    def test_three_dim_matches_reference(self):
        params = _params(THREE, 2.0)
        assert _weight(params, _ln_s(params)) == pytest.approx(W_3D_G2, abs=1e-9)

    def test_two_dim_matches_reference(self):
        params = _params(TWO, 0.5)
        assert _weight(params, _ln_s(params)) == pytest.approx(W_2D_G05, abs=1e-9)

    def test_two_dim_near_edge_matches_reference(self):
        params = _params(TWO, 0.1)
        assert _weight(params, _ln_s(params)) == pytest.approx(W_2D_G01, rel=1e-7)

    def test_strictly_inside_unit_interval(self):
        for family, g in ((THREE, 1.2), (THREE, 4.0), (TWO, 0.05), (TWO, 3.0)):
            params = _params(family, g)
            assert 0.0 < _weight(params, _ln_s(params)) < 1.0

    def test_weight_does_not_depend_on_e1(self):
        # The weight is taken at the solve's own distance a, not at e1 - e0,
        # so a weak 2d bound state far below the rounding of e1 keeps the
        # weight of its e1 = 0 twin, bit for bit.
        for g in (0.1, 0.05, 0.02, 0.01):
            w_twin = point_mass(_params(TWO, g))[2]
            for e1 in (-3.0, 5.0, 1e6):
                assert point_mass(_params(TWO, g, e1=e1, e2=e1 + 1.0))[2] == w_twin

    @pytest.mark.parametrize("g_sq, cutoff, gap", [
        (1e-3, 1e300, 1.0),
        (1e-3, 1e306, 1.0),
        # The first model's canonical twin at L = 1: gamma 1e-303, beta 1e-300.
        (1e-303, 1.0, 1e-300),
    ])
    def test_two_dim_where_the_scaled_distance_underflows(self, g_sq, cutoff, gap):
        # s0 is about 3e-435 here, far below the float range, where e^s E1(s)
        # is infinite; the 2d slope's limit -1 gives w = s0 / (s0 + gamma),
        # about 3e-132 and 3e-126.  s0 and gamma are scaled by 2^-m, gamma =
        # f 2^m, and s0 2^-m = exp(ln s0 - m ln 2) rounds by half an ulp of
        # that exponent, about 290: 2.8e-14 (measured 4.3e-16 and 2.0e-14).
        params = _params(TWO, g_sq, cutoff=cutoff, e2=gap)
        model = Units(params).model
        ln_s, s_dk = spectrum._solve_eigenvalue(model)
        assert ln_s < spectrum._EDGE_LN_S and math.exp(ln_s) == 0.0
        with mpmath.workdps(50):
            gamma_over_s = mpmath.mpf(model.gamma) / mpmath.exp(mpmath.mpf(ln_s))
            want = float(1 / (1 - mpmath.mpf(s_dk) * gamma_over_s))
        w = _weight(params, ln_s)
        assert w == pytest.approx(want, rel=3e-14, abs=0)
        # The weight is a pure number: the model's is its canonical twin's.
        twin = ModelParams(0.0, model.beta, CouplingModel(TWO, model.gamma, 1.0))
        assert point_mass(params)[2] == point_mass(twin)[2] == w


class TestDensity:
    def test_zero_below_edge(self):
        assert spectral_density(_model(THREE, 2.0), -0.5) == 0.0
        assert spectral_density(_model(TWO, 0.5), -1e-9) == 0.0

    def test_zero_at_edge(self):
        assert spectral_density(_model(THREE, 2.0), 0.0) == 0.0
        assert spectral_density(_model(TWO, 0.5), 0.0) == 0.0

    def test_zero_coupling(self):
        assert spectral_density(_model(THREE, 0.0), 1.3) == 0.0

    def test_nonnegative_on_grid(self):
        model = _model(TWO, 0.5)
        for t in np.linspace(0.001, 20.0, 40):
            assert spectral_density(model, float(t)) >= 0.0

    @pytest.mark.parametrize("t", [0.4, 0.9, 1.0, 1.4, 3.0])
    def test_matches_independent_pv_oracle(self, t):
        # denominator principal value via scipy's Cauchy-weight quadrature
        model = _model(THREE, 0.5)
        g2, cut = 0.5, 1.0
        v = g2 * t * math.exp(-t / cut)
        pv, _ = integrate.quad(
            lambda x: g2 * x * np.exp(-x / cut), 0.0, 80.0, weight="cauchy", wvar=t,
            limit=400,
        )
        oracle = v / ((1.0 - t - pv) ** 2 + (math.pi * v) ** 2)
        assert spectral_density(model, t) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("family, g_sq", [(TWO, 0.5), (THREE, 2.0)])
    def test_array_equals_its_scalar_calls_bit_for_bit(self, family, g_sq):
        model = _model(family, g_sq)
        xs = np.array([-1.3, -1e-12, 0.0, 1e-12, 0.01, 0.7, 1.0, 4.7, 39.7])
        scalars = [spectral_density(model, float(x)) for x in xs]
        assert all(type(rho) is float for rho in scalars)
        assert type(spectral_density(model, np.float64(1.0))) is float
        assert spectral_density(model, xs).tobytes() == np.array(scalars).tobytes()
        grid = xs.reshape(3, 3)
        assert spectral_density(model, grid).tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("e2", [1e155, 1e200, 1e300])
    def test_shift_that_squares_past_overflow_gives_zero(self, e2):
        # (e2 - t - PV k)^2 overflows to inf; rho = v / inf = 0 is the exact
        # limit, reached without an overflow warning.
        model = _model(THREE, 2.0, e2=e2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_density(model, 1.0) == 0.0
            assert not np.any(spectral_density(model, np.linspace(0.5, 60.0, 7)))

    def test_weak_coupling_peak_location_and_height(self):
        # narrow resonance near the shifted upper level
        model = _model(THREE, 0.01)
        ts = np.linspace(0.9, 1.1, 81)
        rho = [spectral_density(model, float(t)) for t in ts]
        t_peak = ts[int(np.argmax(rho))]
        assert abs(t_peak - 1.0) < 0.02
        v_peak = 0.01 * t_peak * math.exp(-t_peak)
        assert max(rho) == pytest.approx(1.0 / (math.pi**2 * v_peak), rel=0.05)


class TestPointMass:
    def test_zero_coupling_keeps_the_unperturbed_level(self):
        check, e0, w = point_mass(_params(THREE, 0.0, e2=1.5))
        assert check.degenerate and (e0, w) == (1.5, 1.0)

    def test_marginal_resolves_nothing(self):
        check, e0, w = point_mass(_params(THREE, 1.0))
        assert check.marginal and (e0, w) == (None, None)

    def test_no_bound_state_has_no_weight(self):
        check, e0, w = point_mass(_params(THREE, 0.5))
        assert not check.exists and (e0, w) == (None, 0.0)

    def test_bound_state_is_the_solvers(self):
        params = _params(TWO, 0.5)
        check, e0, w = point_mass(params)
        ln_s = _ln_s(params)
        assert check.exists and e0 == params.e1 - math.exp(ln_s + math.log(params.coupling.cutoff))
        assert w == _weight(params, ln_s)
        assert e0 == pytest.approx(E0_2D_G05, abs=1e-9)


class TestSpectralData:
    def test_degenerate_record(self):
        spec = build_spectral_data(_params(THREE, 0.0))
        assert spec.degenerate
        assert spec.eigenvalue == 1.0 and spec.weight == 1.0
        assert spec.grid.size == 0 and spec.normalization_defect == 0.0

    def test_above_threshold_normalization(self):
        spec = build_spectral_data(_params(TWO, 0.5))
        assert spec.normalization_defect <= 1e-6
        assert spec.eigenvalue == pytest.approx(E0_2D_G05, abs=1e-9)
        assert spec.weight == pytest.approx(W_2D_G05, abs=1e-8)
        assert np.all(spec.density >= 0.0)
        assert np.all(np.diff(spec.grid) > 0.0)

    def test_below_threshold_normalization(self):
        spec = build_spectral_data(_params(THREE, 0.5))
        assert spec.eigenvalue is None and spec.weight == 0.0
        assert spec.normalization_defect <= 1e-6

    @pytest.mark.parametrize("cutoff", [1e24, 1e50, 1e100, 2.9e306])
    @pytest.mark.parametrize("g_sq", [0.1, 1.0])
    def test_two_dim_large_cutoff_normalizes(self, g_sq, cutoff):
        # a0 = e1 - e0 is 4 to 700 here, below the rounding of a span of 60
        # cutoffs in lambda, where the sum of two panel ends at 2.9e306
        # overflows; the table is built in xi, with every edge-bump seed at
        # s0 e^{-8..8}, s0 = exp(ln s0) of the solve.
        # Defects read 4.8e-7 to 7.8e-6.
        spec = build_spectral_data(_params(TWO, g_sq, cutoff=cutoff))
        assert spec.normalization_defect <= 1e-5

    @pytest.mark.parametrize("g_sq, cutoff", [
        (1e-3, 1e24), (2e-3, 1e24), (1e-2, 1e24), (1e-3, 1e100), (2e-3, 1e100),
        (1e-3, 1e300), (1e-3, 1e306),
    ])
    def test_two_dim_resonance_below_the_edge_ladder_normalizes(self, g_sq, cutoff):
        # The resonance sits at xi = (1 - g2 P_0(1 / L)) / L, 0.31 / L to
        # 0.95 / L, far below the edge ladder's lowest seed 60 * 2^-44; its
        # octaves up to that seed resolve it.  Defects read 7.7e-12 to 1.8e-10.
        spec = build_spectral_data(_params(TWO, g_sq, cutoff=cutoff))
        assert spec.normalization_defect <= 1e-6

    def test_nan_weight_fails_normalization(self, monkeypatch):
        monkeypatch.setattr(spectrum, "eigen_weight", lambda *_: math.nan)
        with pytest.raises(NormalizationFailureError, match="defect nan"):
            build_spectral_data(_params(TWO, 0.5))

    def test_panel_budget_exhaustion_raises(self, monkeypatch):
        # The narrow resonance of this model needs more than three splits.
        monkeypatch.setattr(spectrum, "_MAX_PANELS", 3)
        with pytest.raises(NonConvergenceError):
            build_spectral_data(_params(THREE, 0.5, cutoff=0.1))


# 20-point Gauss-Legendre on each converged panel of the density table.
_GL20_X, _GL20_W = np.polynomial.legendre.leggauss(20)


@pytest.mark.parametrize("ms", MATRIX, ids=lambda ms: ms.name)
def test_the_spectral_sum_rules_hold_on_the_verify_models(ms):
    # The excited level's spectral measure has the moments <2|H^k|2>: 1,
    # beta and beta^2 + gamma p! (the norm of |V|^2) in the canonical model.  The point at xi0 plus rho~ integrated on spec.segments holds
    # all three to 1e-14 (measured at most 8.9e-16, 7.8e-16 and 8.8e-16).
    # The point enters the higher moments as w xi0^k, so this check sees e0:
    # an xi0 off by 1e-9 relative moves the first by 1.3e-10 at 3d g2 2.
    params = ms.scenario().params
    spec = build_spectral_data(params)
    model = params.canonical
    family, gamma, beta = model
    a, b = spec.segments[:-1], spec.segments[1:]
    half = 0.5 * (b - a)
    xi = (a + half)[:, None] + half[:, None] * _GL20_X
    mass = spectral_density(model, xi) * half[:, None] * _GL20_W
    m0, m1, m2 = (float((mass * xi**k).sum()) for k in range(3))
    w, xi0 = spec.weight, spec.xi0 if spec.xi0 is not None else 0.0
    second = beta**2 + gamma * math.factorial(family.power)
    assert abs(w + m0 - 1.0) <= 1e-14
    assert abs(w * xi0 + m1 - beta) <= 1e-14 * (beta + abs(xi0))
    assert abs(w * xi0**2 + m2 - second) <= 1e-14 * second
