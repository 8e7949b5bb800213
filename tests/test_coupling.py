from __future__ import annotations

import math

import numpy as np
import pytest

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    ModelParams,
    coupling_sq,
    l2_norm_sq,
    sq_over_x_integral,
)
from leveldecay import volterra
from leveldecay.coupling import tail_mass
from leveldecay.quadrature import (
    _ABS_TOL,
    _MAX_SUBDIVISIONS,
    _REL_TOL,
    TAIL_CUT,
    _edges_toward,
    _refine,
)

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP


def _semiinf_edges(cutoff):
    return _edges_toward(0.0, TAIL_CUT * cutoff, levels=42)


def _adapt(f, edges):
    """The engine on one integral of f over [edges[0], edges[-1]]: its value
    and error estimate."""
    _, _, vals, errs, _ = _refine(
        lambda x, _: f(x), [edges], _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS
    )
    return float(vals.sum()), float(errs.sum())


def test_three_dim_vanishes_at_zero():
    assert coupling_sq(CouplingModel(THREE, 1.0, 1.0), 0.0) == 0.0


def test_zero_coupling_is_zero_everywhere():
    model = CouplingModel(TWO, 0.0, 1.0)
    assert coupling_sq(model, 5.0) == 0.0


def test_three_dim_closed_form_value():
    # g2 * x * exp(-x/L) at g2=2, L=1, x=1
    got = coupling_sq(CouplingModel(THREE, 2.0, 1.0), 1.0)
    assert got == pytest.approx(0.7357588823428847, abs=1e-15)


def test_two_dim_nonzero_at_origin():
    model = CouplingModel(TWO, 0.3, 2.0)
    assert coupling_sq(model, 0.0) == pytest.approx(0.3)


def test_array_evaluation_matches_scalar():
    model = CouplingModel(THREE, 1.5, 0.7)
    xs = np.array([0.0, 0.1, 1.0, 10.0])
    vec = coupling_sq(model, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == coupling_sq(model, float(x))


def test_negative_x_rejected():
    model = CouplingModel(TWO, 1.0, 1.0)
    with pytest.raises(ValueError):
        coupling_sq(model, -0.1)


@pytest.mark.parametrize("strength_sq,cutoff", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
def test_invalid_model_rejected(strength_sq, cutoff):
    with pytest.raises(ValueError):
        CouplingModel(TWO, strength_sq, cutoff)


def test_l2_norm_closed_forms():
    assert l2_norm_sq(CouplingModel(TWO, 1.0, 2.0)) == pytest.approx(2.0)
    assert l2_norm_sq(CouplingModel(THREE, 1.0, 1.0)) == pytest.approx(1.0)
    assert l2_norm_sq(CouplingModel(TWO, 0.0, 3.0)) == 0.0
    assert l2_norm_sq(CouplingModel(THREE, 0.0, 3.0)) == 0.0


def test_l2_norm_finite_where_the_cutoff_power_overflows():
    # L**2 overflows at L = 1e160, but g2 L^2 = 1e166 is a float, and the
    # model passes the truncation check and its point_mass solves.
    params = ModelParams(0.0, 1.0, CouplingModel(THREE, 1e-154, 1e160))
    l2 = l2_norm_sq(params.coupling)
    assert l2 == pytest.approx(1e166, rel=1e-15)
    # The canonical K~(0) is -gamma p!, here -gamma = -g2.
    assert volterra.kernel(params.canonical, 0.0) == -1e-154
    assert l2_norm_sq(CouplingModel(THREE, 0.0, 1e160)) == 0.0


@pytest.mark.parametrize("family", [TWO, THREE])
@pytest.mark.parametrize("g_sq", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("cutoff", [0.5, 1.0, 2.5])
def test_l2_norm_matches_quadrature(family, g_sq, cutoff):
    model = CouplingModel(family, g_sq, cutoff)
    value, err = _adapt(lambda x: coupling_sq(model, x), _semiinf_edges(cutoff))
    assert value == pytest.approx(l2_norm_sq(model), abs=max(1e-10, 1e-8 * value))
    assert err <= max(_ABS_TOL, _REL_TOL * abs(value))


def test_sq_over_x_closed_forms():
    assert sq_over_x_integral(THREE, 2.0, 1.0) == pytest.approx(2.0)
    assert sq_over_x_integral(THREE, 0.0, 1.0) == 0.0
    assert math.isinf(sq_over_x_integral(TWO, 1.0, 1.0))
    assert sq_over_x_integral(TWO, 0.0, 1.0) == 0.0


def test_sq_over_x_matches_quadrature_three_dim():
    model = CouplingModel(THREE, 2.0, 1.3)
    value, _ = _adapt(lambda x: coupling_sq(model, x) / x, _semiinf_edges(model.cutoff))
    assert value == pytest.approx(sq_over_x_integral(THREE, 2.0, 1.3), rel=1e-9)


@pytest.mark.parametrize("family", [TWO, THREE])
def test_strict_positivity_on_open_axis(family):
    for g_sq in (1e-6, 0.5, 4.0):
        model = CouplingModel(family, g_sq, 1.0)
        xs = np.geomspace(1e-12, 500.0, 200)
        assert np.all(coupling_sq(model, xs) > 0.0)


def test_three_dim_edge_slope_limit():
    # coupling_sq(x)/x -> g2 as x -> 0+
    for g_sq in (0.2, 1.0, 5.0):
        model = CouplingModel(THREE, g_sq, 1.0)
        x = 1e-8
        assert coupling_sq(model, x) / x == pytest.approx(g_sq, rel=1e-6)


@pytest.mark.parametrize("family", [TWO, THREE])
def test_tail_mass_matches_complement(family):
    model = CouplingModel(family, 1.7, 1.0)
    x0 = 3.0
    head, _ = _adapt(lambda x: coupling_sq(model, x), np.linspace(0.0, x0, 9))
    assert tail_mass(family, 1.7, x0) == pytest.approx(l2_norm_sq(model) - head, abs=1e-9)
