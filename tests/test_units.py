"""Scale invariance: a model in the caller's units (e1, L) and its canonical
twin at e1 = 0, L = 1 with the same (family, gamma, beta) give the same
spectrum and the same P(t) once the maps of ``coupling.Units`` are applied."""

from __future__ import annotations

import math

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
    spectral_density,
)
from leveldecay.coupling import Units

EPS = float(np.finfo(float).eps)


# Largest errors read over 36,500 random bound states (family, gamma and beta
# in [0.05, 5] and [0.2, 5], e1 in [-10, 10], L in [1e-3, 1e3]), in units of
# each map's own rounding: e0 1.59, w 1.08; over 80 models, rho 0; and over
# 90 more, C(t) 3.0e-12 from the transform and 8.8e-12 from the Volterra
# route.  The two density tables refine on error estimates that differ by
# rounding, so their segments, and the transform's panels, need not coincide;
# the solves see identical kernels, and C differs there by the rounding of
# e2 t against e1 t + beta tau.
@settings(max_examples=30)
@given(
    family=st.sampled_from(list(CouplingFamily)),
    gamma=st.floats(0.05, 5.0),
    beta=st.floats(0.2, 5.0),
    e1=st.floats(-10.0, 10.0),
    log10_cutoff=st.floats(-3.0, 3.0),
)
# Weak 2d bound states whose distance a is far below the rounding of e1.
@example(family=CouplingFamily.TWO_DIM_EXP, gamma=0.02, beta=1.0, e1=5.0, log10_cutoff=0.0)
@example(family=CouplingFamily.TWO_DIM_EXP, gamma=0.05, beta=1.0, e1=-8.0, log10_cutoff=1.5)
def test_a_model_and_its_canonical_twin_agree(family, gamma, beta, e1, log10_cutoff):
    assume(family.power == 0 or abs(gamma - beta) > 0.05 * beta)
    cutoff = 10.0**log10_cutoff
    g_sq = gamma * cutoff ** (1 - family.power)
    params = ModelParams(e1, e1 + beta * cutoff, CouplingModel(family, g_sq, cutoff))
    twin = Units(params).model.params

    check, e0, w = point_mass(params)
    check_twin, xi0, w_twin = point_mass(twin)
    assert check.exists == check_twin.exists
    if e0 is not None:
        # e0 = e1 - L s0 rounds by eps |e1| and by the rounding of
        # exp(ln s0 + ln L); w takes that a = exp(ln s0 + ln L) itself, not
        # e1 - e0, so it rounds by a's exponent, the sum of ln a and ln L.
        a = -xi0 * cutoff
        scale = abs(e1) / cutoff + (1.0 + abs(math.log(a))) * -xi0
        assert abs((e0 - e1) / cutoff - xi0) <= 2.0 * EPS * scale
        ln_cutoff = abs(math.log(cutoff))
        assert abs(w - w_twin) <= 2.0 * EPS * (1.0 + abs(math.log(a)) + ln_cutoff) * w_twin

    lam = e1 + cutoff * np.array([1e-6, 0.01, 0.3, 1.0, beta, 2.0, 10.0, 59.0])
    rho = spectral_density(params, lam)
    assert rho.tobytes() == (spectral_density(twin, (lam - e1) / cutoff) / cutoff).tobytes()

    # C(t) = e^{-i e1 t} C~(L t), with C~ the twin's amplitude.
    tau = np.linspace(0.0, 40.0 / max(beta, 1.0), 201)
    t = tau / cutoff
    c = amplitude_spectral(build_spectral_data(params), t).amplitude
    c_twin = amplitude_spectral(build_spectral_data(twin), tau).amplitude
    assert float(np.max(np.abs(c - np.exp(-1j * e1 * t) * c_twin))) <= 1e-11

    h = 0.01 / max(1.0, beta)
    series = solve_ide(params, 2000 * (h / cutoff), h / cutoff)
    c_twin = solve_ide(twin, 2000 * h, h).amplitude
    phase = np.exp(-1j * e1 * series.times)
    assert float(np.max(np.abs(series.amplitude - phase * c_twin))) <= 1e-10


def test_a_level_gap_that_underflows_over_the_cutoff_is_refused():
    # beta = gap / L would be 0: the model has no canonical form.
    model = CouplingModel(CouplingFamily.THREE_DIM_EXP, 0.5, 10.0)
    with pytest.raises(ValueError, match="over the cutoff underflows"):
        ModelParams(0.0, 5e-324, model)
    assert Units(ModelParams(0.0, 5e-324, CouplingModel(model.family, 0.5, 0.5))).model.beta > 0
