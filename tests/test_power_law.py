"""The coupling as one power law |V|^2 = g2 x^p e^{-x/L}: every form written
in p against the two families' own expressions, bit for bit; the recurrences
in p beyond the two families against mpmath quadrature; and the eigenvalue
bracket's one bound."""

from __future__ import annotations

import math
import types
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    coupling_sq,
    l2_norm_sq,
    spectrum,
    sq_over_x_integral,
    volterra,
)
from leveldecay.coupling import Canonical, tail_mass

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP


# The 2d and 3d expressions as they were written before the forms in p.
def _ref_coupling_sq(model, x):
    xa = np.asarray(x, dtype=float)
    decay = np.exp(-xa / model.cutoff)
    if model.family is THREE:
        out = model.strength_sq * xa * decay
    else:
        out = model.strength_sq * decay
    return float(out) if out.ndim == 0 else out


def _ref_l2_norm_sq(model):
    if model.family is THREE:
        return model.strength_sq * model.cutoff**2
    return model.strength_sq * model.cutoff


def _ref_sq_over_x_integral(model):
    if model.strength_sq == 0.0:
        return 0.0
    if model.family is THREE:
        return model.strength_sq * model.cutoff
    return math.inf


def _ref_tail_mass(model, x0):
    decay = math.exp(-x0 / model.cutoff)
    if model.family is THREE:
        return model.strength_sq * model.cutoff * (x0 + model.cutoff) * decay
    return model.strength_sq * model.cutoff * decay


def _ref_k_scale(model):
    if model.family is THREE:
        return model.strength_sq
    return model.strength_sq / model.cutoff


def _ref_k_unit_and_slope(family, s, e):
    if family is TWO:
        return e, s * e - 1.0
    return 1.0 - s * e, s * (1.0 - (1.0 + s) * e)


def _ref_pv_k_unit(family, s):
    e = spectrum._scaled_ei(s)
    return -e if family is TWO else 1.0 - s * e


def _ref_fourier_closed_form(model, t):
    t = np.asarray(t, dtype=float)
    denom = 1.0 + 1j * model.cutoff * t
    if model.family is THREE:
        return model.strength_sq * model.cutoff**2 / (denom * denom)
    return model.strength_sq * model.cutoff / denom


def _same_bits(got, ref) -> bool:
    """Equal type and bytes: ``==`` on every element, signed zeros and NaNs
    included."""
    return type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()


# s from 1e-300 to 1e4: through the series and asymptotic branches of the
# exponential integrals, the latter above s = 700.
_S = np.geomspace(1e-300, 1e4, 1201)
_MODELS = st.builds(
    CouplingModel,
    st.sampled_from(list(CouplingFamily)),
    st.one_of(st.just(0.0), st.floats(1e-300, 1e16)),
    st.floats(1e-150, 1e150),
)


def test_same_bits_sees_sign_and_type():
    assert _same_bits(1.0, 1.0) and _same_bits(np.array([1.0]), np.array([1.0]))
    assert not _same_bits(0.0, -0.0)
    assert not _same_bits(1.0, np.float64(1.0))


@pytest.mark.parametrize("family", [TWO, THREE])
def test_unit_forms_keep_the_bits(family):
    for s in _S.tolist():
        e = spectrum._scaled_e1(s)
        assert _same_bits(
            spectrum._k_unit_and_slope(family, s, e), _ref_k_unit_and_slope(family, s, e)
        ), s
        assert _same_bits(spectrum._pv_k_unit(family, s), _ref_pv_k_unit(family, s)), s
    assert _same_bits(spectrum._pv_k_unit(family, _S), _ref_pv_k_unit(family, _S))
    # Below ln s = -700 the solve passes s = 0 and the edge asymptote of e.
    for ln_s in (-700.5, -1e3, -1e5, -1e300):
        e = -np.euler_gamma - ln_s
        assert _same_bits(
            spectrum._k_unit_and_slope(family, 0.0, e), _ref_k_unit_and_slope(family, 0.0, e)
        )


@given(model=_MODELS, x=st.floats(0.0, 1e300))
# A cutoff whose square pow and a product round apart; a tail mass that
# overflows, and one whose truncation point does.
@example(model=CouplingModel(THREE, 1.0, 8.938702100198698e74), x=1.0)
@example(model=CouplingModel(THREE, 1.0, 1e150), x=6e151)
@example(model=CouplingModel(THREE, 1.0, 3.1e306), x=60.0 * 3.1e306)
@example(model=CouplingModel(TWO, 1.0, 1e307), x=math.inf)
def test_model_forms_keep_the_bits(model, x):
    # Both sides overflow, or take inf * 0, at the same elements.
    with np.errstate(over="ignore", invalid="ignore"):
        _check_model_forms(model, x)


def _check_model_forms(model, x):
    xs = x * np.array([0.0, 1e-3, 0.5, 1.0, 2.0])
    ts = np.array([0.0, 1e-3, 1.0, 1e3]) / model.cutoff
    assert _same_bits(coupling_sq(model, x), _ref_coupling_sq(model, x))
    assert _same_bits(coupling_sq(model, xs), _ref_coupling_sq(model, xs))
    floats = (model.family, model.strength_sq, model.cutoff)
    assert _same_bits(sq_over_x_integral(*floats), _ref_sq_over_x_integral(model))
    # tail_mass is the canonical model's (L = 1), of strength gamma.
    assert _same_bits(tail_mass(model.family, model.strength_sq, x),
                      _ref_tail_mass(replace(model, cutoff=1.0), x))
    assert _same_bits(Canonical.of(*floats, 1.0).gamma, _ref_k_scale(model))
    if model.cutoff < 1e154:  # beyond it both square forms raise OverflowError
        assert _same_bits(l2_norm_sq(model), _ref_l2_norm_sq(model))
        for t in (ts[1], ts):
            assert _same_bits(
                volterra._fourier_closed_form(model, model.cutoff * t),
                _ref_fourier_closed_form(model, t),
            )


def _mp_unit_forms(p: int, s: float) -> tuple:
    """k_p(s), s dk_p/ds and P_p(s) by mpmath quadrature of x^p e^{-x} against
    1/(x + s), -s/(x + s)^2 and the principal value of 1/(x - s)."""
    s = mpmath.mpf(s)
    f = lambda x: x**p * mpmath.exp(-x)  # noqa: E731
    k = mpmath.quad(lambda x: f(x) / (x + s), [0, s, 1, mpmath.inf])
    s_dk = -s * mpmath.quad(lambda x: f(x) / (x + s) ** 2, [0, s, 1, mpmath.inf])
    # PV of 1/(x - s) over [0, 2s] is 0, so f(s) is subtracted there.
    fs = f(s)
    pv = mpmath.quad(lambda x: (f(x) - fs) / (x - s), [0, s, 2 * s])
    pv += mpmath.quad(lambda x: f(x) / (x - s), [2 * s, 2 * s + 1, mpmath.inf])
    return k, s_dk, pv


# Largest relative errors read at s = geomspace(1e-3, 10, 25), about 2.5 times
# over: p = 2 read 7.8e-15 (k), 1.2e-13 (slope), 2.7e-15 (PV k); p = 3 read
# 2.8e-14, 5.0e-13 and 7.4e-15.  The forward recurrences lose digits with p.
@pytest.mark.parametrize(
    "power, bounds", [(2, (2e-14, 3e-13, 7e-15)), (3, (7e-14, 1.2e-12, 2e-14))]
)
def test_recurrences_beyond_the_families_match_quadrature(power, bounds):
    family = types.SimpleNamespace(power=power)  # no member has p > 1
    with mpmath.workdps(30):
        for s in np.geomspace(1e-3, 10.0, 13).tolist():
            got = (
                *spectrum._k_unit_and_slope(family, s, spectrum._scaled_e1(s)),
                float(spectrum._pv_k_unit(family, s)),
            )
            for value, ref, bound in zip(got, _mp_unit_forms(power, s), bounds):
                assert abs(value - ref) <= bound * abs(ref), (s, value, ref)


@given(
    family=st.sampled_from(list(CouplingFamily)),
    g_sq=st.floats(1e-3, 1e3),
    cutoff=st.floats(1e-3, 1e3),
    gap=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
)
def test_equation_is_positive_from_the_norm_bound(family, g_sq, cutoff, gap):
    # k(e1 - a) < (integral of |V|^2) / a, so F = gap + a - k > 0 from
    # a = sqrt(integral of |V|^2) on, for every family: the bracket's bound.
    model = CouplingModel(family, g_sq, cutoff)
    a = math.sqrt(l2_norm_sq(model))
    gamma = Canonical.of(family, g_sq, cutoff, 1.0).gamma
    f = spectrum._eigen_equation(family, gap / cutoff, gamma, math.log(a) - math.log(cutoff))[0]
    assert f > 0.0
