from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    DivergentAtE1Error,
    InvalidSingularityError,
    ModelParams,
    NonConvergenceError,
    integrate_semiinf,
    k_pv,
    k_regular,
    principal_value,
)
from leveldecay import quadrature
from leveldecay.quadrature import _ABS_TOL, TAIL_CUT, _edges_toward, _refine

# Frozen oracle values.  SEMIINF_RATIONAL comes from composite Simpson with
# 1e7 points on [0, 50] (regenerated below); the PV constants come from
# symmetric-limit Riemann sums with two-stage eps -> 0 extrapolation, and
# independently equal -exp(-1)*Ei(1) and 1 - exp(-1)*Ei(1).
SEMIINF_RATIONAL = 0.4036526376766784
PV_EXP_AT_1 = -0.6971748832350662
PV_XEXP_AT_1 = 0.30282511676493384


def simpson_oracle(f, a, b, n):
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (xs[1] - xs[0]) / 3.0 * float(np.dot(w, f(xs)))


def test_semiinf_oracle_value_regenerates():
    got = simpson_oracle(lambda x: np.exp(-x) / (x + 1.0) ** 2, 0.0, 50.0, 10_000_001)
    assert got == pytest.approx(SEMIINF_RATIONAL, abs=1e-12)


def test_semiinf_standard_integrals():
    value, err = integrate_semiinf(lambda x: np.exp(-x))
    assert value == pytest.approx(1.0, abs=1e-10)
    assert abs(value - 1.0) <= max(err, 1e-12)
    value, err = integrate_semiinf(lambda x: x * np.exp(-x))
    assert value == pytest.approx(1.0, abs=1e-8)
    assert abs(value - 1.0) <= max(err, 1e-12)


def test_semiinf_rational_matches_frozen_oracle():
    value, _ = integrate_semiinf(lambda x: np.exp(-x) / (x + 1.0) ** 2)
    assert value == pytest.approx(SEMIINF_RATIONAL, abs=1e-9)


def test_error_estimate_bounds_true_error_on_closed_forms():
    cases = [
        (lambda x: np.exp(-x), 1.0),
        (lambda x: x * np.exp(-x), 1.0),
        (lambda x: x * x * np.exp(-2.0 * x), 0.25),
    ]
    for f, exact in cases:
        value, err = integrate_semiinf(f)
        assert abs(value - exact) <= err + 1e-14


def test_semiinf_nonconvergence_on_tiny_budget():
    edges = _edges_toward(0.0, TAIL_CUT, levels=42)
    with pytest.raises(NonConvergenceError):
        _refine(lambda x: np.exp(-x) / (x + 1e-5), edges, 1e-14, 1e-14, 2)


def test_pv_antisymmetric_interval_is_zero():
    got = principal_value(lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, upper=2.0)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_pv_zero_integrand_is_zero():
    got = principal_value(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.7)
    assert got == 0.0


def test_pv_exponential_matches_frozen_oracle():
    got = principal_value(lambda x: np.exp(-x), 1.0)
    assert got == pytest.approx(PV_EXP_AT_1, abs=1e-9)
    # independent closed form
    assert got == pytest.approx(-math.exp(-1.0) * special.expi(1.0), abs=1e-10)


def test_pv_oracle_value_regenerates():
    # symmetric-limit Riemann sums with second-order extrapolation in eps
    def excluded(eps):
        f = lambda x: np.exp(-x) / (x - 1.0)
        return simpson_oracle(f, 0.0, 1.0 - eps, 1_000_001) + simpson_oracle(
            f, 1.0 + eps, 60.0, 1_000_001
        )

    i1, i2, i3 = excluded(0.04), excluded(0.02), excluded(0.01)
    first = 2.0 * i2 - i1, 2.0 * i3 - i2
    extrapolated = (8.0 * first[1] - first[0]) / 7.0
    assert extrapolated == pytest.approx(PV_EXP_AT_1, abs=1e-9)


def test_pv_window_independence(monkeypatch):
    results = []
    for w in (0.125, 0.25, 0.5):
        monkeypatch.setattr(quadrature, "_PV_WINDOW", w)
        results.append(principal_value(lambda x: np.exp(-x), 1.0))
    for r in results[1:]:
        assert abs(r - results[0]) <= 10.0 * _ABS_TOL


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_pv_invalid_singularity(c):
    with pytest.raises(InvalidSingularityError):
        principal_value(lambda x: np.exp(-x), c)


def test_pv_singularity_outside_finite_domain():
    with pytest.raises(InvalidSingularityError):
        principal_value(lambda x: np.exp(-x), 3.0, upper=2.0)


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


def test_k_regular_zero_coupling():
    params = _params(CouplingFamily.THREE_DIM_EXP, 0.0)
    assert k_regular(params, -3.0) == 0.0


def test_k_regular_at_edge_three_dim_is_sq_over_x():
    params = _params(CouplingFamily.THREE_DIM_EXP, 2.0, cutoff=1.0)
    assert k_regular(params, 0.0) == pytest.approx(2.0, rel=1e-9)


def test_k_regular_at_edge_two_dim_diverges():
    params = _params(CouplingFamily.TWO_DIM_EXP, 1.0)
    with pytest.raises(DivergentAtE1Error):
        k_regular(params, 0.0)


def test_k_regular_above_edge_rejected():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    with pytest.raises(ValueError):
        k_regular(params, 0.5)


def test_k_regular_far_below_edge_is_small():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    assert k_regular(params, -1e6) < 1e-4


def test_k_regular_monotone_increasing():
    params = _params(CouplingFamily.TWO_DIM_EXP, 0.8)
    lams = [-10.0, -3.0, -1.0, -0.3, -0.05, -0.001]
    values = [k_regular(params, lam) for lam in lams]
    assert all(b > a for a, b in zip(values[:-1], values[1:]))
    assert all(v > 0.0 for v in values)


@pytest.mark.parametrize(
    "family,closed_form",
    [
        (
            CouplingFamily.TWO_DIM_EXP,
            lambda g2, a: g2 * math.exp(a) * special.exp1(a),
        ),
        (
            CouplingFamily.THREE_DIM_EXP,
            lambda g2, a: g2 * (1.0 - a * math.exp(a) * special.exp1(a)),
        ),
    ],
)
@pytest.mark.parametrize("a", [1e-7, 1e-4, 0.3, 2.0])
def test_k_regular_matches_closed_form(family, closed_form, a):
    g2 = 0.7
    params = _params(family, g2, cutoff=1.0)
    got = k_regular(params, -a)
    assert got == pytest.approx(closed_form(g2, a), rel=1e-8)


def test_k_pv_zero_coupling():
    params = _params(CouplingFamily.TWO_DIM_EXP, 0.0)
    assert k_pv(params, 2.0) == 0.0


def test_k_pv_matches_frozen_oracle():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    assert k_pv(params, 1.0) == pytest.approx(PV_XEXP_AT_1, abs=1e-9)


def test_k_pv_negative_in_far_tail():
    # beyond the coupling support the transform looks like -l2/(t - e1)
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    assert k_pv(params, 30.0) < 0.0


def test_k_pv_matches_closed_form_both_families():
    for family, closed in (
        (CouplingFamily.TWO_DIM_EXP, lambda g2, c: -g2 * math.exp(-c) * special.expi(c)),
        (
            CouplingFamily.THREE_DIM_EXP,
            lambda g2, c: g2 * (1.0 - c * math.exp(-c) * special.expi(c)),
        ),
    ):
        for c in (0.05, 0.4, 1.7, 6.0):
            params = _params(family, 1.3)
            assert k_pv(params, c) == pytest.approx(closed(1.3, c), abs=1e-8)


def test_k_pv_below_edge_rejected():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    with pytest.raises(InvalidSingularityError):
        k_pv(params, -0.5)


def test_uncertified_truncation_rejected(monkeypatch):
    # A cut at 5 cutoffs leaves a remainder bound far above TAIL_TOL for cutoff 1
    monkeypatch.setattr(quadrature, "TAIL_CUT", 5.0)
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    with pytest.raises(ValueError):
        k_regular(params, -1.0)
    with pytest.raises(ValueError):
        k_pv(params, 2.0)
