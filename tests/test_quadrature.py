from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy import special

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    ModelParams,
    NonConvergenceError,
    k_regular,
)
from leveldecay import coupling, quadrature
from leveldecay.coupling import tail_mass
from leveldecay.quadrature import (
    _ABS_TOL,
    _MAX_SUBDIVISIONS,
    _REL_TOL,
    TAIL_CUT,
    _edges_toward,
    _refine,
    gate_integrals,
)

# Frozen oracle values.  SEMIINF_RATIONAL comes from composite Simpson with
# 1e7 points on [0, 50] (regenerated below); the PV constants come from
# symmetric-limit Riemann sums with two-stage eps -> 0 extrapolation, and
# independently equal -exp(-1)*Ei(1) and 1 - exp(-1)*Ei(1).
SEMIINF_RATIONAL = 0.4036526376766784
PV_EXP_AT_1 = -0.6971748832350662
PV_XEXP_AT_1 = 0.30282511676493384


def semiinf(f):
    """The engine on [0, TAIL_CUT], its panels graded toward 0: the integral
    of f and its error estimate."""
    edges = _edges_toward(0.0, TAIL_CUT, levels=42)
    _, _, vals, errs, _ = _refine(
        lambda x, _: f(x), [edges], _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS
    )
    return float(vals.sum()), float(errs.sum())


def _params(family, g_sq, cutoff=1.0, e1=0.0, e2=1.0):
    return ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))


# |V(x)|^2 = exp(-x): PV k at t = 1 is the PV of exp(-x)/(x - 1).
EXP_UNIT = _params(CouplingFamily.TWO_DIM_EXP, 1.0)

# _pv_part's refusal of a point not inside the continuum; gate_integrals
# checks it before _k_part's own.
NOT_INSIDE = r"PV k requires e1 < t < inf"


def pv_k(params, s):
    """PV k at e1 + s of a model at e1 = 0 and L = 1, from the gate's pass on
    its canonical twin at the one distance s."""
    return float(gate_integrals(params.canonical, [s])[1][0])


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
    value, err = semiinf(lambda x: np.exp(-x))
    assert value == pytest.approx(1.0, abs=1e-10)
    assert abs(value - 1.0) <= max(err, 1e-12)
    value, err = semiinf(lambda x: x * np.exp(-x))
    assert value == pytest.approx(1.0, abs=1e-8)
    assert abs(value - 1.0) <= max(err, 1e-12)


def test_semiinf_rational_matches_frozen_oracle():
    value, _ = semiinf(lambda x: np.exp(-x) / (x + 1.0) ** 2)
    assert value == pytest.approx(SEMIINF_RATIONAL, abs=1e-9)


def test_error_estimate_bounds_true_error_on_closed_forms():
    cases = [
        (lambda x: np.exp(-x), 1.0),
        (lambda x: x * np.exp(-x), 1.0),
        (lambda x: x * x * np.exp(-2.0 * x), 0.25),
    ]
    for f, exact in cases:
        value, err = semiinf(f)
        assert abs(value - exact) <= err + 1e-14


def test_semiinf_nonconvergence_on_tiny_budget():
    edges = _edges_toward(0.0, TAIL_CUT, levels=42)
    with pytest.raises(NonConvergenceError):
        _refine(lambda x, _: np.exp(-x) / (x + 1e-5), [edges], 1e-14, 1e-14, 2)


def test_nan_integrand_is_nonconvergence_not_a_hang():
    # A panel whose error is NaN is never picked for bisection; once every
    # other panel is below its share, nothing is left to bisect.
    with pytest.raises(NonConvergenceError):
        _refine(
            lambda x, _: np.where(x < 0.5, np.nan, np.exp(-x)), [np.linspace(0.0, 1.0, 5)],
            1e-10, 1e-8, 4000,
        )


def test_many_integrals_keep_their_own_tolerance_and_budget():
    # Three integrals refined at once: each meets its own tolerance and
    # equals its one-integral refinement, and a budget of 2 fails one alone.
    edges = _edges_toward(0.0, TAIL_CUT, levels=42)
    funcs = [lambda x: np.exp(-x), lambda x: x * np.exp(-x), lambda x: np.exp(-x) / (x + 1e-5)]
    rel = [1e-10, 1e-12, 1e-9]

    def f(x, which):
        return np.choose(np.repeat(which, x.size // which.size), [g(x) for g in funcs])

    _, _, vals, errs, which = _refine(f, [edges] * 3, 1e-12, rel, 4000)
    for i, g in enumerate(funcs):
        value, err = vals[which == i].sum(), errs[which == i].sum()
        assert err <= max(1e-12, rel[i] * value)
        alone = _refine(lambda x, _: g(x), [edges], 1e-12, rel[i], 4000)[2].sum()
        assert abs(value - alone) <= 1e-15 * abs(alone)
    with pytest.raises(NonConvergenceError, match=r"value=10\.9"):  # the third
        _refine(f, [edges] * 3, 1e-14, 1e-14, [4000, 4000, 2])


def test_pv_exponential_matches_frozen_oracle():
    got = pv_k(EXP_UNIT, 1.0)
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


@pytest.mark.parametrize("family", list(CouplingFamily))
@pytest.mark.parametrize("s", [1e-8, 1.0, 30.0])
def test_pv_truncation_independence(monkeypatch, family, s):
    # The log term carries the subtracted |V(c)|^2 / (x - c) to the cut
    # exactly, so moving the cut moves PV k only by the certified tail.
    params = _params(family, 1.0)
    results = []
    for cut in (40.0, 60.0, 80.0):
        monkeypatch.setattr(quadrature, "TAIL_CUT", cut)
        results.append(pv_k(params, s))
    for r in results[1:]:
        assert abs(r - results[0]) <= 10.0 * _ABS_TOL


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_pv_invalid_singularity(c):
    with pytest.raises(ValueError, match=NOT_INSIDE):
        gate_integrals(EXP_UNIT.canonical, [c])


def test_k_regular_zero_coupling():
    params = _params(CouplingFamily.THREE_DIM_EXP, 0.0)
    assert k_regular(params.canonical, 3.0) == 0.0


def test_k_regular_near_edge_three_dim_is_sq_over_x():
    # 3d: k(e1-) is the finite integral of |V|^2 / x, g2 L
    params = _params(CouplingFamily.THREE_DIM_EXP, 2.0, cutoff=1.0)
    assert k_regular(params.canonical, 1e-14) == pytest.approx(2.0, rel=1e-9)
    # a distance below 60 / DBL_MAX, where (U + s) / s overflows
    assert k_regular(params.canonical, 1e-310) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("family", list(CouplingFamily))
@pytest.mark.parametrize("s", [0.0, -0.5])
def test_k_regular_above_edge_rejected(family, s):
    # s = 0 (lambda = e1) as well: 2d's k diverges there, and the integral needs s > 0
    params = _params(family, 1.0)
    with pytest.raises(ValueError):
        k_regular(params.canonical, s)


@pytest.mark.parametrize("lam, cutoff", [(-math.inf, 1.0), (-1e308, 1e-10)])
def test_k_regular_needs_a_finite_distance(lam, cutoff):
    # s = (e1 - lambda) / L is inf, where the panel seeds in ln s would be
    # NaN: refused with its own message, as PV k refuses its pole.
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0, cutoff=cutoff)
    with pytest.raises(ValueError, match=r"k requires 0 < s < inf, got s = inf$"):
        k_regular(params.canonical, -params.xi(lam))


def test_k_regular_far_below_edge_is_small():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    assert k_regular(params.canonical, 1e6) < 1e-4


def test_k_regular_monotone_increasing():
    params = _params(CouplingFamily.TWO_DIM_EXP, 0.8)
    lams = [-10.0, -3.0, -1.0, -0.3, -0.05, -0.001]
    values = [k_regular(params.canonical, -lam) for lam in lams]
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
    got = k_regular(params.canonical, a)
    assert got == pytest.approx(closed_form(g2, a), rel=1e-8)


def test_pv_k_zero_coupling():
    params = _params(CouplingFamily.TWO_DIM_EXP, 0.0)
    assert pv_k(params, 2.0) == 0.0


def test_pv_k_matches_frozen_oracle():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    assert pv_k(params, 1.0) == pytest.approx(PV_XEXP_AT_1, abs=1e-9)


def test_pv_k_negative_in_far_tail():
    # beyond the coupling support the transform looks like -l2/(t - e1)
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    assert pv_k(params, 30.0) < 0.0


def test_pv_k_matches_closed_form_both_families():
    for family, closed in (
        (CouplingFamily.TWO_DIM_EXP, lambda g2, c: -g2 * math.exp(-c) * special.expi(c)),
        (
            CouplingFamily.THREE_DIM_EXP,
            lambda g2, c: g2 * (1.0 - c * math.exp(-c) * special.expi(c)),
        ),
    ):
        for c in (0.05, 0.4, 1.7, 6.0):
            params = _params(family, 1.3)
            assert pv_k(params, c) == pytest.approx(closed(1.3, c), abs=1e-8)


def test_pv_k_below_edge_rejected():
    params = _params(CouplingFamily.THREE_DIM_EXP, 1.0)
    with pytest.raises(ValueError, match=NOT_INSIDE):
        gate_integrals(params.canonical, [-0.5])


def test_uncertified_truncation_rejected(monkeypatch):
    # A cut at 5 cutoffs leaves a remainder bound far above TAIL_TOL for cutoff 1:
    # the model is refused when built, so no integral can be truncated there.
    monkeypatch.setattr(coupling, "TAIL_CUT", 5.0)
    bound = tail_mass(CouplingFamily.THREE_DIM_EXP, 1.0, 5.0) / 5.0
    with pytest.raises(ValueError, match=re.escape(f"remainder {bound!r};")):
        _params(CouplingFamily.THREE_DIM_EXP, 1.0)


def test_gauss_legendre_literals_are_the_ten_point_rule():
    x, w = np.polynomial.legendre.leggauss(10)
    assert float(np.max(np.abs(quadrature._GL_X - x))) <= 1e-15
    assert float(np.max(np.abs(quadrature._GL_W - w))) <= 1e-15
