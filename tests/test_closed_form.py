"""Closed-form k, PV k, rho and w against the adaptive-quadrature reference,
and the Newton eigenvalue solve against brentq on the same closed form."""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

from leveldecay import (
    BracketFailureError,
    ClosedFormMismatchError,
    CouplingFamily,
    CouplingModel,
    ModelParams,
    coupling_sq,
    eigen_weight,
    k_regular,
    point_mass,
    spectral_density,
    spectrum,
    threshold_check,
)
from leveldecay.cli import main
from leveldecay.coupling import Canonical
from leveldecay.quadrature import gate_integrals

TOL = 1e-8
TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP
E0_TOL = 1e-12


def _close(got: float, ref: float, slack: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - ref) <= TOL * max(1.0, abs(ref)) + slack


def _at_least(count: int) -> settings:
    """``count`` examples, or the loaded profile's where that is larger: 2,000
    under HYPOTHESIS_PROFILE=deep (tests/conftest.py)."""
    return settings(max_examples=max(count, settings.default.max_examples))


@_at_least(60)
@given(
    family=st.sampled_from(list(CouplingFamily)),
    g_sq=st.floats(1e-3, 10.0),
    cutoff=st.floats(0.05, 20.0),
    log10_s=st.floats(-10.0, math.log10(2e3)),
)
def test_closed_forms_match_quadrature(family, g_sq, cutoff, log10_s):
    model = CouplingModel(family, g_sq, cutoff)
    params = ModelParams(0.0, 1.0, model)
    s = 10.0**log10_s
    x = s * cutoff

    # k at e1 - x, PV k at e1 + x and the weight integral at x, in one pass
    # on the canonical twin at x / L; k and PV k are L times the twin's.
    k_ref, pv_ref, weight_ref = (
        float(q[0]) for q in gate_integrals(params.canonical, [x / cutoff])
    )
    k_ref, pv_ref = cutoff * k_ref, cutoff * pv_ref

    k_unit = spectrum._k_unit_and_slope(family, s, spectrum._scaled_e1(s))[0]
    k_below = cutoff * params.canonical.gamma * k_unit
    assert _close(k_below, k_ref)

    pv = cutoff * float(spectrum.k_pv_closed(params.canonical, s))
    assert _close(pv, pv_ref)

    # rho inherits the reference principal value's tolerance, amplified by
    # |d rho / d PV k| = 2 rho^2 |shift| / |V|^2 near the resonance.
    v = coupling_sq(model, x)
    shift = 1.0 - x - pv_ref
    rho_ref = v / (shift * shift + (math.pi * v) ** 2) if v > 0.0 else 0.0
    slope = 2.0 * rho_ref**2 * abs(shift) / v if v > 0.0 else 0.0
    rho = spectral_density(params.canonical, x / cutoff) / cutoff
    assert _close(rho, rho_ref, slope * TOL * max(1.0, abs(pv_ref)))

    w_ref = 1.0 / (1.0 + weight_ref)
    assert _close(eigen_weight(params.canonical, math.log(s)), w_ref)


def test_mismatch_detected(tmp_path, monkeypatch, capsys):
    spectrum._closed_form_gate.cache_clear()
    true_form = spectrum._pv_k_unit
    monkeypatch.setattr(
        spectrum, "_pv_k_unit", lambda family, s: 1.001 * true_form(family, s)
    )
    model = Canonical(CouplingFamily.THREE_DIM_EXP, 0.5, 1.0)
    with pytest.raises(ClosedFormMismatchError):
        spectral_density(model, 0.7)
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(
        "name = demo\nmodel.e1 = 0.0\nmodel.e2 = 1.0\ncoupling.family = 3d-exp\n"
        "coupling.g_sq = 0.5\ncoupling.lambda_cutoff = 1.0\nhorizon = 10\n"
        "series.points = 51\n",
        encoding="utf-8",
    )
    assert main(["decay", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: numerical:")
    spectrum._closed_form_gate.cache_clear()


def _perturb(monkeypatch, form, part, at):
    """Put a relative error of 1e-6 into spectrum's closed form ``form`` at
    s = ``at``: into its ``part``-th component when it returns (k, s dk/ds)."""
    true_form = getattr(spectrum, form)

    def wrong(family, s, *rest):
        got = true_form(family, s, *rest)
        factor = 1.0 + 1e-6 if s == at else 1.0
        if part is None:
            return got * factor
        return tuple(v * factor if i == part else v for i, v in enumerate(got))

    monkeypatch.setattr(spectrum, form, wrong)


@pytest.mark.parametrize("family", [TWO, THREE])
def test_gate_is_relative_where_the_value_is_small(monkeypatch, family):
    # At s = 1e3 the weight integral is about 1e-6, so an error of 1e-6 of
    # it is far below 1e-8 in absolute terms; a relative gate still sees it.
    far = spectrum._GATE_POINTS[-1]
    assert far == 1e3
    _perturb(monkeypatch, "_k_unit_and_slope", 1, far)
    spectrum._closed_form_gate.cache_clear()
    try:
        with pytest.raises(ClosedFormMismatchError, match="weight integral"):
            spectrum._closed_form_gate(family)
    finally:
        spectrum._closed_form_gate.cache_clear()


@pytest.mark.parametrize("family", [TWO, THREE])
def test_gate_integrals_equal_one_pass_per_point(family):
    # One pass over all 36 integrals against one pass per distance, and
    # k against k_regular's pass of the one integral.
    params = ModelParams(0.0, 1.0, CouplingModel(family, 1.0, 1.0))
    k, pv, weight = gate_integrals(Canonical(family, 1.0, 1.0), spectrum._GATE_POINTS)
    for i, s in enumerate(spectrum._GATE_POINTS):
        k_s, pv_s, weight_s = (
            float(q[0]) for q in gate_integrals(Canonical(family, 1.0, 1.0), [s])
        )
        for got, ref in ((k[i], k_regular(params.canonical, s)), (k[i], k_s), (pv[i], pv_s),
                         (weight[i], weight_s)):
            assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("family", [TWO, THREE])
def test_gate_integrals_hold_the_closed_forms_to_1e11(family):
    # The runtime gate allows 1e-8; the engine holds every gate point 1000
    # times tighter, so a 1000-fold loss of its accuracy fails here first.
    # The worst, about 2e-12, is the 3d weight integral at s = 1e3, where the
    # closed-form slope s (1 - (1 + s) e^s E1(s)) cancels.
    k, pv, weight = gate_integrals(Canonical(family, 1.0, 1.0), spectrum._GATE_POINTS)
    for i, s in enumerate(spectrum._GATE_POINTS):
        k_closed, s_dk = spectrum._k_unit_and_slope(family, s, spectrum._scaled_e1(s))
        for quad, closed in ((k[i], k_closed), (pv[i], spectrum._pv_k_unit(family, s)),
                             (weight[i], -s_dk / s)):
            assert abs(quad - closed) <= 1e-11 * abs(closed), (s, quad, closed)


@pytest.mark.parametrize("family", [TWO, THREE])
@pytest.mark.parametrize("name, form, part", [
    ("k", "_k_unit_and_slope", 0), ("PV k", "_pv_k_unit", None),
    ("weight integral", "_k_unit_and_slope", 1),
])
def test_gate_names_the_integral_and_s(monkeypatch, family, name, form, part):
    # Any closed form 1e-6 off at one gate point fails the batched gate there;
    # the weight integral is -(s dk/ds)/s, so the slope is gated through it.
    s = spectrum._GATE_POINTS[5]
    _perturb(monkeypatch, form, part, s)
    spectrum._closed_form_gate.cache_clear()
    try:
        with pytest.raises(
            ClosedFormMismatchError, match=f"closed-form {name} .* at s={re.escape(repr(s))};"
        ):
            spectrum._closed_form_gate(family)
    finally:
        spectrum._closed_form_gate.cache_clear()


@pytest.mark.parametrize("family", [TWO, THREE])
@pytest.mark.parametrize("s", spectrum._GATE_POINTS)
def test_gate_checks_the_slope(monkeypatch, family, s):
    # Newton steps on s dk/ds and eigen_weight reads w from it; a slope 1e-6
    # off at any one gate point, with k itself exact, fails the gate there.
    _perturb(monkeypatch, "_k_unit_and_slope", 1, s)
    spectrum._closed_form_gate.cache_clear()
    try:
        with pytest.raises(
            ClosedFormMismatchError,
            match=f"closed-form weight integral .* at s={re.escape(repr(s))};",
        ):
            spectrum._closed_form_gate(family)
    finally:
        spectrum._closed_form_gate.cache_clear()


def _scaled_e1_array(s):
    """e^s E1(s) on arrays, apart from spectrum's scalar form: the 12-term
    asymptotic series above s = 700."""
    near = np.minimum(s, 700.0)
    out = np.exp(near) * special.exp1(near)
    far = s > 700.0
    if np.any(far):
        inv = 1.0 / np.maximum(s, 700.0)
        term = total = inv
        for n in range(1, 12):
            term = term * (-n) * inv
            total = total + term
        out = np.where(far, total, out)
    return out


def _weight_from_its_closed_form(model: CouplingModel, a: float) -> float:
    """w = 1 / (1 + weight integral) at a = e1 - e0, with the integral of
    |V(x)|^2 / (x + a)^2 in its own closed form at s = a / L: (g2/L)(1/s - e)
    for 2d and g2((1 + s) e - 1) for 3d, e = e^s E1(s)."""
    s = a / model.cutoff
    e = float(_scaled_e1_array(s))
    if model.family is TWO:
        return 1.0 / (1.0 + model.strength_sq / model.cutoff * (1.0 / s - e))
    return 1.0 / (1.0 + model.strength_sq * ((1.0 + s) * e - 1.0))


@_at_least(300)
@given(
    family=st.sampled_from(list(CouplingFamily)),
    log10_g_sq=st.floats(-3.0, 6.0),
    log10_cutoff=st.floats(-3.0, 4.0),
    log10_s=st.floats(-12.0, 1.0),
)
def test_weight_from_the_slope_matches_its_closed_form(
    family, log10_g_sq, log10_cutoff, log10_s
):
    # Both forms cancel alike in 1 - (1 + s) e, which is about 1/s^2 (3d),
    # so they part by up to 4.7e-14 at s in [5.6, 10] and each is as far
    # from 40-digit mpmath there; below s = 1 they agree to 2e-15.
    model = CouplingModel(family, 10.0**log10_g_sq, 10.0**log10_cutoff)
    s = 10.0**log10_s
    a = s * model.cutoff
    want = _weight_from_its_closed_form(model, a)
    got = eigen_weight(ModelParams(0.0, 1.0, model).canonical, math.log(s))
    assert abs(got - want) <= 1e-14 * max(1.0, s * s) * want


def _e0(params: ModelParams) -> float | None:
    return point_mass(params)[1]


def _brentq_eigenvalue(params: ModelParams) -> float | None:
    """``point_mass``'s e0 by brentq in u = ln(e1 - e0) on an array closed
    form of k, with the bracket search, its give-up bound, the residual gate
    and the underflow rule of ``spectrum._solve_eigenvalue``: e2 at zero
    coupling, None on the threshold or without a bound state."""
    model = params.coupling
    check = threshold_check(params.canonical, model.cutoff)
    if check.degenerate:
        return params.e2
    if check.marginal or not check.exists:
        return None
    two = model.family is TWO
    gap = params.level_gap
    scale = model.strength_sq * (1.0 if two else model.cutoff)
    ln_cutoff = math.log(model.cutoff)

    def k_unit(ln_s):
        if ln_s > -700.0:
            s = math.exp(ln_s)
            e = float(_scaled_e1_array(s))
            return e if two else 1.0 - s * e
        return -np.euler_gamma - ln_s if two else 1.0

    def f_of(u):
        return gap + math.exp(u) - scale * k_unit(u - ln_cutoff)

    d = gap
    # F > 0 from a = g2 L (3d: k < g2 L) or a = sqrt(g2 L) (2d: k < g2 L / a).
    d_limit = 2.0 * max(math.sqrt(scale * model.cutoff) if two else scale, d)
    u_hi = math.log(d)
    while f_of(u_hi) < 0.0:
        d *= 2.0
        if d > d_limit:
            raise BracketFailureError("far-end bracket expansion")
        u_hi = math.log(d)
    step = 1.0
    while f_of(u_hi - step) > 0.0:
        step *= 2.0
        if step > 2.0**60:
            raise BracketFailureError("near-edge bracket expansion")
    eps = float(np.finfo(float).eps)
    u_root = brentq(f_of, u_hi - step, u_hi, xtol=1e-15, rtol=4.0 * eps, maxiter=200)
    if not abs(f_of(u_root)) <= 1e-10 * max(1.0, gap + math.exp(u_root)):
        raise BracketFailureError("root residual")
    e0 = params.e1 - math.exp(u_root)
    return e0 if e0 < params.e1 else float(np.nextafter(params.e1, -math.inf))


def _outcome(solve, params):
    try:
        return solve(params)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


@st.composite
def _eigen_models(draw):
    """Both families over the solvable envelope: L in [1e-3, 1e4], gap in
    [1e-3, 1e3], 2d g2 in [1e-4, 1e6] and 3d g2 * L in [1e-3, 1e6] (both
    sides of the threshold g2 * L = gap).  Both routes gate the residual
    relative to gap + a, so roots far below e1 are solved, not refused."""
    family = draw(st.sampled_from(list(CouplingFamily)))
    cutoff = 10.0 ** draw(st.floats(-3.0, 4.0))
    gap = 10.0 ** draw(st.floats(-3.0, 3.0))
    e1 = draw(st.floats(-10.0, 10.0))
    if family is TWO:
        g_sq = 10.0 ** draw(st.floats(-4.0, 6.0))
    else:
        g_sq = 10.0 ** draw(st.floats(-3.0, 6.0)) / cutoff
    return ModelParams(e1, e1 + gap, CouplingModel(family, g_sq, cutoff))


# ln s < -700 at the root: the first gives e0 = nextafter(e1), the second an
# e1 - e0 that is still a normal float.
_EDGE_MODELS = (
    ModelParams(0.0, 1.0, CouplingModel(TWO, 1e-3, 1.0)),
    ModelParams(0.0, 1.0, CouplingModel(TWO, 1.4e-3, 1e3)),
)
# s > 700 at the root, where e^s E1(s) is its asymptotic series.
_FAR_MODELS = (
    ModelParams(0.0, 1e-3, CouplingModel(TWO, 1e3, 1e-3)),
    ModelParams(0.0, 1e-3, CouplingModel(THREE, 1e6, 1e-3)),
)
# g2 * L = 4.8e5: F moves by 6e-11 per ulp of u at the root, so only a u
# within about one ulp of it passes the 1e-10 residual gate.
_STEEP_MODEL = ModelParams(
    1.320764717716587, 1.3387045514152902,
    CouplingModel(THREE, 706.6133845345073, 677.9526213095294),
)

# Roots far from the level gap: the doubling search from a = gap needs more
# than 2^20 steps (the first two), or F rounds to more than 1e-10 at the root
# because a and k are 1e5 (the last two).  e0 is frozen from a 40-digit
# mpmath root of gap + a = k(e1 - a) on the same closed form of k.
_WIDE_MODELS = (
    (ModelParams(0.0, 1e-3, CouplingModel(TWO, 2e5, 10.0)), -1409.2565237831525),
    (ModelParams(0.0, 2e-3, CouplingModel(THREE, 1.0, 5e3)), -2640.167276576533),
    (ModelParams(0.0, 1.0, CouplingModel(THREE, 200.0, 1e4)), -132324.7970526621),
    (ModelParams(0.0, 1.0, CouplingModel(THREE, 1e3, 1e4)), -306666.13860173407),
)


@pytest.mark.parametrize("params, e0", _WIDE_MODELS)
def test_wide_models_match_frozen_roots(params, e0):
    assert abs(_e0(params) - e0) <= E0_TOL * abs(e0)


# 300, not the profile's count, until ROADMAP item 13 lands: at depth 3 of
# 13,839 bound states fail where k_1 = 1 - s e^s E1(s) cancels.
@settings(max_examples=300)
@given(params=_eigen_models())
@example(params=_EDGE_MODELS[0])
@example(params=_EDGE_MODELS[1])
@example(params=_FAR_MODELS[0])
@example(params=_FAR_MODELS[1])
@example(params=_STEEP_MODEL)
@example(params=_WIDE_MODELS[0][0])
@example(params=_WIDE_MODELS[3][0])
def test_newton_solve_matches_brentq_route(params):
    got = _outcome(_e0, params)
    want = _outcome(_brentq_eigenvalue, params)
    if want is None or isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, float)
    assert abs(got - want) <= E0_TOL * max(1.0, abs(want))
    if params.e1 == 0.0 and -want >= sys.float_info.min:
        # e0 = -(e1 - e0) exactly: the edge distance itself must agree too.
        assert abs(got - want) <= 1e-11 * -want


_SAFEGUARD_MODELS = (
    ModelParams(0.0, 1.0, CouplingModel(THREE, 2.0, 1.0)),
    ModelParams(0.0, 1.0, CouplingModel(TWO, 0.5, 1.0)),
    ModelParams(-3.0, 7.0, CouplingModel(THREE, 30.0, 0.5)),
) + _EDGE_MODELS + _FAR_MODELS


@pytest.mark.parametrize("slope", [1e3, 1e-3, -1.0, 0.0, math.nan])
def test_wrong_slope_only_costs_evaluations(monkeypatch, slope):
    true_equation = spectrum._eigen_equation

    def wrong_slope(*args):
        f, _, s_dk = true_equation(*args)
        return f, slope, s_dk

    monkeypatch.setattr(spectrum, "_eigen_equation", wrong_slope)
    for params in _SAFEGUARD_MODELS:
        want = _brentq_eigenvalue(params)
        assert abs(_e0(params) - want) <= E0_TOL * max(1.0, abs(want))


def test_no_root_in_bracket_raises(monkeypatch):
    params = _SAFEGUARD_MODELS[0]
    true_equation = spectrum._eigen_equation

    def jump(*args):
        # Changes sign where F does, but never comes closer to 0 than 1.
        f, df, s_dk = true_equation(*args)
        return math.copysign(max(abs(f), 1.0), f), df, s_dk

    monkeypatch.setattr(spectrum, "_eigen_equation", jump)
    with pytest.raises(BracketFailureError, match="residual"):
        _e0(params)
    monkeypatch.setattr(
        spectrum, "_eigen_equation", lambda *args: (abs(true_equation(*args)[0]) + 1.0, 1.0)
    )
    with pytest.raises(BracketFailureError, match="near-edge"):
        _e0(params)
    monkeypatch.setattr(
        spectrum, "_eigen_equation", lambda *args: (-abs(true_equation(*args)[0]) - 1.0, 1.0)
    )
    with pytest.raises(BracketFailureError, match="must be positive"):
        _e0(params)


# Newton reaches |F| of about 1e-15 from above at these roots, and F's
# rounding keeps it there; without a probe across the root the loop bisects
# the far end of the bracket for 56 and 58 evaluations.
_ONE_SIDED_MODELS = (
    ModelParams(0.0, 1.0, CouplingModel(THREE, 1.2148264828527866, 1.8904675637650066)),
    ModelParams(0.0, 1.0, CouplingModel(THREE, 2.163343490180788, 2.283479149488851)),
)


# A half-step rule that compared a Newton step with the last step refused
# Newton after every bisection, whose last step is half the remaining
# distance: these took 56, 58, 28, 57 and 58 evaluations.  The last model
# took 34 when a probe that did not cross the root counted as a step the
# rule compares with, so that the next Newton step bisected a wide bracket.
_HALF_STEP_MODELS = tuple(
    ModelParams(0.0, 1.0, CouplingModel(THREE, g_sq, cutoff))
    for g_sq, cutoff in (
        (7.049934547335551, 0.5062810345801827),
        (5.449486360472129, 0.7733871006475055),
        (5.693695366758004, 0.7593316800830008),
        (5.744264038735871, 0.6929701279610805),
        (3.721377562465965, 1.1782865592416027),
        (7.249612987193776, 0.5128971560617616),
    )
)


@pytest.mark.parametrize("params", _ONE_SIDED_MODELS + _HALF_STEP_MODELS)
def test_one_sided_convergence_closes_in_few_evaluations(monkeypatch, params):
    calls = []
    true_equation = spectrum._eigen_equation
    monkeypatch.setattr(
        spectrum, "_eigen_equation", lambda *args: calls.append(1) or true_equation(*args)
    )
    got = _e0(params)
    assert len(calls) <= 12
    want = _brentq_eigenvalue(params)
    assert abs(got - want) <= E0_TOL * max(1.0, abs(want))


def _sweep_band_models() -> list[ModelParams]:
    """200 bound states per family, log-uniform over the bands of perfbench's
    ``sweep``: gap 1, L in [0.5, 2], 2d g2 in [1e-3, 3], 3d g2 L in [1.1, 5]."""
    rng = np.random.default_rng(2018)
    models = []
    for family, (lo, hi) in ((TWO, (1e-3, 3.0)), (THREE, (1.1, 5.0))):
        draws = np.exp(rng.uniform(np.log([lo, 0.5]), np.log([hi, 2.0]), (200, 2)))
        for scale, cutoff in draws.tolist():
            g_sq = scale / cutoff**family.power
            models.append(ModelParams(0.0, 1.0, CouplingModel(family, g_sq, cutoff)))
    return models


def test_sweep_band_solves_take_few_evaluations(monkeypatch):
    # With the near end stepped by 1, 2, 4, ..., a half-step rule against the
    # last step and a probe of a full tolerance, these 400 solves took 9.855
    # evaluations of F on average (2d 10.33, 3d 9.38) and at most 16.  With
    # the near end at twice the Newton step, the rule against the step before
    # the last and a half-tolerance probe, they take 7.235 and at most 11.
    calls = []
    true_equation = spectrum._eigen_equation
    monkeypatch.setattr(
        spectrum, "_eigen_equation", lambda *args: calls.append(1) or true_equation(*args)
    )
    counts = []
    for params in _sweep_band_models():
        start = len(calls)
        assert _e0(params) < params.e1
        counts.append(len(calls) - start)
    assert max(counts) <= 12
    assert sum(counts) / len(counts) <= 0.75 * 9.855
