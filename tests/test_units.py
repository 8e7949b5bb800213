"""Scale invariance: a model in the caller's units (e1, L) and its canonical
twin at e1 = 0, L = 1 with the same (family, gamma, beta) give the same
spectrum and the same P(t) once the maps of ``coupling.Units`` are applied."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leveldecay import (
    CouplingFamily,
    CouplingModel,
    ModelParams,
    amplitude_spectral,
    build_spectral_data,
    point_mass,
    solve_ide,
    weak_coupling_rate,
)
from leveldecay import spectrum, volterra
from leveldecay.coupling import Canonical, Units
from leveldecay.scenario import ConfigError, parse_scenario_text, run_decay

EPS = float(np.finfo(float).eps)
_DEEP = settings.default is settings.get_profile("deep")


# Every result but e0 is the canonical twin's, mapped by ``Units``: the
# density tables, w, the golden-rule rate and both routes' C(t) equal the
# twin's byte for byte.  e0 = e1 - exp(ln s0 + ln L) alone is taken in the
# caller's units; over the 2,000 draws of the deep profile its largest error
# is 1.0 of the rounding the bound below allows twice.  L spans [1e-300,
# 1e300] and e1 is up to 1e12 L, wherever e1 and e2 stay finite.  Tier-1
# draws 30 models, the deep profile (HYPOTHESIS_PROFILE=deep,
# tests/conftest.py) 2,000.
@settings(max_examples=settings.default.max_examples if _DEEP else 30)
@given(
    family=st.sampled_from(list(CouplingFamily)),
    gamma=st.floats(0.05, 5.0),
    beta=st.floats(0.2, 5.0),
    e1_over_cutoff=st.floats(-1e12, 1e12),
    log10_cutoff=st.floats(-300.0, 300.0),
)
# Weak 2d bound states whose distance a is far below the rounding of e1.
@example(family=CouplingFamily.TWO_DIM_EXP, gamma=0.02, beta=1.0, e1_over_cutoff=5.0,
         log10_cutoff=0.0)
@example(family=CouplingFamily.TWO_DIM_EXP, gamma=0.05, beta=1.0,
         e1_over_cutoff=-8.0 / 10.0**1.5, log10_cutoff=1.5)
# e1 t reaches 2.7e5: with the table in lambda this read 1.1e-11.
@example(family=CouplingFamily.TWO_DIM_EXP, gamma=3.9453125, beta=1.0,
         e1_over_cutoff=9.0 / 10.0**-2.875, log10_cutoff=-2.875)
# g2 L overflows a float; w is the twin's 0.5104.
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=400.0, beta=1.0, e1_over_cutoff=0.0,
         log10_cutoff=306.0)
# A subnormal L, where L s0 keeps only a few digits; w is the twin's 0.44909.
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=2.0, beta=1.0, e1_over_cutoff=0.0,
         log10_cutoff=-320.0)
# e1 t reaches 4e13: each route's C(t) is e^{-i e1 t} of the twin's C~.
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=2.0, beta=1.0, e1_over_cutoff=1e12,
         log10_cutoff=0.0)
def test_a_model_and_its_canonical_twin_agree(family, gamma, beta, e1_over_cutoff,
                                               log10_cutoff):
    assume(family.power == 0 or abs(gamma - beta) > 0.05 * beta)
    cutoff = 10.0**log10_cutoff
    e1 = e1_over_cutoff * cutoff
    e2 = e1 + beta * cutoff
    assume(math.isfinite(e2) and math.isfinite(e2 - e1) and e2 > e1)
    g_sq = gamma * cutoff ** (1 - family.power)
    params = ModelParams(e1, e2, CouplingModel(family, g_sq, cutoff))
    units = Units(params)
    twin = ModelParams(0.0, units.model.beta, CouplingModel(family, units.model.gamma, 1.0))

    check, e0, w = point_mass(params)
    check_twin, xi0, w_twin = point_mass(twin)
    assert check.exists == check_twin.exists
    assert w == w_twin
    if e0 is not None:
        # e0 = e1 - exp(ln s0 + ln L) rounds by eps |e1|, by the exponent's
        # rounding, eps (|ln s0| + |ln L|) at most, and, where L s0 or
        # (e0 - e1) / L is subnormal, by half the least subnormal each.
        s0 = -xi0
        scale = abs(e1) / cutoff + (1.0 + abs(math.log(s0)) + abs(math.log(cutoff))) * s0
        floor = math.ulp(0.0) * (1.0 + 1.0 / cutoff)
        assert abs((e0 - e1) / cutoff - xi0) <= 2.0 * EPS * scale + floor
    rate = weak_coupling_rate(params)
    assert rate == units.up(weak_coupling_rate(twin))

    spec, spec_twin = build_spectral_data(params), build_spectral_data(twin)
    for table in ("grid", "density", "segments", "segment_mass"):
        assert getattr(spec, table).tobytes() == getattr(spec_twin, table).tobytes()
    # Where L is too small for the model's own times, 40 / L, to be floats,
    # there are no series to compare.
    if not math.isfinite(40.0 / cutoff):
        return
    # C(t) = e^{-i e1 t} C~(L t), with C~ the twin's amplitude at tau = L t,
    # which the twin's Volterra solve reaches at step L h and horizon L T.
    t = np.linspace(0.0, 40.0 / max(beta, 1.0), 201) / cutoff
    tau = units.up(t)
    c = amplitude_spectral(spec, t).amplitude
    c_twin = amplitude_spectral(spec_twin, tau).amplitude
    assert c.tobytes() == units.phase(c_twin, t).tobytes()

    h = 0.01 / max(1.0, beta)
    step, horizon = h / cutoff, 2000 * (h / cutoff)
    series = solve_ide(params, horizon, step)
    c_twin = solve_ide(twin, units.up(horizon), units.up(step)).amplitude
    assert series.amplitude.tobytes() == units.phase(c_twin, series.times).tobytes()


def test_a_table_far_above_zero_energy_is_its_twins(monkeypatch):
    # 2d g2 0.05, gap 1, L 1 at e1 = 1e6: the 125 segments are 125 values in
    # xi (in lambda they rounded to 105), P(0) - 1 is the e1 = 0 twin's, and
    # the edge bump is seeded at exp(ln s0) of the solve, not at e1 - e0.
    seeds = []
    seed = spectrum._edge_bump_seeds
    monkeypatch.setattr(
        spectrum, "_edge_bump_seeds", lambda *args: seeds.append(seed(*args)) or seeds[-1]
    )
    model = CouplingModel(CouplingFamily.TWO_DIM_EXP, 0.05, 1.0)
    far, twin = (build_spectral_data(ModelParams(e1, e1 + 1.0, model)) for e1 in (1e6, 0.0))
    assert np.unique(far.segments).size == far.segments.size == 125
    p0, p0_twin = (amplitude_spectral(s, [0.0, 1.0]).probability[0] for s in (far, twin))
    assert abs(p0 - p0_twin) <= 4.0 * EPS
    # The bump's middle seed is s0 itself.
    ln_s = spectrum._solve_eigenvalue(Units(twin.params).model)[0]
    assert [s[16] for s in seeds] == [math.exp(ln_s)] * 2
    assert seeds[0].tobytes() == seeds[1].tobytes()


def test_a_decay_run_builds_no_model_below_its_entry_point(monkeypatch):
    # Building a ModelParams is the model check, made once at parse.  Below
    # the entry point the density table, the transform, the kernel tables
    # and both gates (caches cleared, so they run) take the Canonical they
    # hold.
    scen = parse_scenario_text(
        "name = twin\nmodel.e1 = 0.0\nmodel.e2 = 1.0\ncoupling.family = 3d-exp\n"
        "coupling.g_sq = 2.0\ncoupling.lambda_cutoff = 1.0\nhorizon = 50\n"
        "series.points = 501\n"
    )
    builds = []
    post_init = ModelParams.__post_init__
    monkeypatch.setattr(
        ModelParams, "__post_init__", lambda self: builds.append(self) or post_init(self)
    )
    spectrum._closed_form_gate.cache_clear()
    volterra._self_check.cache_clear()
    run_decay(scen)
    assert builds == []


def test_a_level_gap_that_underflows_over_the_cutoff_is_refused():
    # beta = gap / L would be 0: the model has no canonical form.
    model = CouplingModel(CouplingFamily.THREE_DIM_EXP, 0.5, 10.0)
    with pytest.raises(ValueError, match="over the cutoff underflows"):
        ModelParams(0.0, 5e-324, model)
    assert Units(ModelParams(0.0, 5e-324, CouplingModel(model.family, 0.5, 0.5))).model.beta > 0


def test_a_coupling_whose_gamma_underflows_over_the_cutoff_is_refused():
    # gamma = g2 / L would be 0 from g2 > 0, which reads as no coupling.
    text = (
        "name = tiny\nmodel.e1 = 0.0\nmodel.e2 = 1.0\ncoupling.family = 2d-exp\n"
        "coupling.g_sq = 1e-300\ncoupling.lambda_cutoff = 1e300\n"
    )
    with pytest.raises(ConfigError, match=r"g_sq=1e-300, cutoff=1e\+300: gamma underflows to 0"):
        parse_scenario_text(text)
    # Nor can the model be built, so point_mass never answers as at zero coupling.
    model = CouplingModel(CouplingFamily.TWO_DIM_EXP, 1e-300, 1e300)
    with pytest.raises(ValueError, match="gamma underflows to 0"):
        point_mass(ModelParams(0.0, 1.0, model))
    # As a swept value the first such value is named, not the smallest.
    sweep = "sweep.parameter = g_sq\nsweep.values = 0.0, 1.0, 1e-300, 1e-310\n"
    with pytest.raises(ConfigError, match=r"g_sq=1e-300,"):
        parse_scenario_text(text.replace("1e-300", "1.0") + sweep)


# The numbers of a refusal's message, which name the caller's units.
_NUMBER = re.compile(r"-?\d[\d.]*(?:e[-+]?\d+)?|\binf\b|\bnan\b")


def _verdict(family, g_sq, cutoff, gap):
    """What the package makes of a model at e1 = 0: the message of the parse
    check that refuses it, numbers masked, or the threshold test's verdict."""
    text = (
        f"name = v\nmodel.e1 = 0.0\nmodel.e2 = {gap!r}\ncoupling.family = {family.value}\n"
        f"coupling.g_sq = {g_sq!r}\ncoupling.lambda_cutoff = {cutoff!r}\n"
    )
    try:
        params = parse_scenario_text(text).params
    except ConfigError as exc:
        return _NUMBER.sub("#", str(exc))
    check = point_mass(params)[0]
    return "degenerate" if check.degenerate else "marginal" if check.marginal else check.exists


# beta = ratio r, r = gamma (p - 1)! in 3d (gamma in 2d), far from r or
# within 1e-9 r of it, which straddles the 1e-8 marginal band.
@settings(max_examples=300)
@given(
    family=st.sampled_from(list(CouplingFamily)),
    gamma=st.floats(-4.0, 19.0).map(lambda u: 10.0**u),
    ratio=st.one_of(
        st.floats(-3.0, 3.0).map(lambda u: 10.0**u),
        st.floats(-1e-9, 1e-9).map(lambda d: 1.0 + d),
    ),
    cutoff=st.floats(-12.0, 30.0).map(lambda u: 10.0**u),
)
# Twice the 3d threshold coupling: marginal at small L and refused by the
# truncation check at large L when the band and the certificate read the
# caller's units; and, at L = 1e9, a 3d model inside the band.
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=1.0, ratio=0.5, cutoff=1e-12)
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=1.0, ratio=0.5, cutoff=1e-9)
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=1.0, ratio=0.5, cutoff=1e20)
@example(family=CouplingFamily.TWO_DIM_EXP, gamma=1.0, ratio=0.5, cutoff=1e20)
@example(family=CouplingFamily.THREE_DIM_EXP, gamma=1.0, ratio=1.0 - 1e-11, cutoff=1e9)
def test_the_verdict_depends_on_family_gamma_and_beta_alone(family, gamma, ratio, cutoff):
    g_sq = gamma * cutoff ** (1 - family.power)
    gap = ratio * gamma * cutoff
    twin = Canonical.of(family, g_sq, cutoff, gap)
    assert _verdict(family, g_sq, cutoff, gap) == _verdict(family, twin.gamma, 1.0, twin.beta)
