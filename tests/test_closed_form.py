"""Closed-form k, PV k, rho and w against the adaptive-quadrature reference."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveldecay import (
    ClosedFormMismatchError,
    CouplingFamily,
    CouplingModel,
    ModelParams,
    QuadratureConfig,
    coupling_sq,
    eigen_weight,
    k_pv,
    k_regular,
    spectral_density,
    spectrum,
)
from leveldecay.cli import main
from leveldecay.quadrature import weight_integral

CFG = QuadratureConfig()
TOL = 1e-8


def _close(got: float, ref: float, slack: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - ref) <= TOL * max(1.0, abs(ref)) + slack


@settings(max_examples=60, deadline=None, derandomize=True)
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

    k_below = spectrum._k_scale(model) * spectrum._k_unit_log(family, math.log(s))
    assert _close(k_below, k_regular(params, -x, CFG))

    pv = float(spectrum.k_pv_closed(params, x))
    pv_ref = k_pv(params, x, CFG)
    assert _close(pv, pv_ref)

    # rho inherits the reference principal value's tolerance, amplified by
    # |d rho / d PV k| = 2 rho^2 |shift| / |V|^2 near the resonance.
    v = coupling_sq(model, x)
    shift = 1.0 - x - pv_ref
    rho_ref = v / (shift * shift + (math.pi * v) ** 2) if v > 0.0 else 0.0
    slope = 2.0 * rho_ref**2 * abs(shift) / v if v > 0.0 else 0.0
    assert _close(spectral_density(params, x, CFG), rho_ref, slope * TOL * max(1.0, abs(pv_ref)))

    w_ref = 1.0 / (1.0 + weight_integral(params, x, CFG))
    assert _close(eigen_weight(params, -x, CFG), w_ref)


def test_mismatch_detected(tmp_path, monkeypatch, capsys):
    spectrum._closed_form_gate.cache_clear()
    true_form = spectrum._pv_k_unit
    monkeypatch.setattr(
        spectrum, "_pv_k_unit", lambda family, s: 1.001 * true_form(family, s)
    )
    params = ModelParams(0.0, 1.0, CouplingModel(CouplingFamily.THREE_DIM_EXP, 0.5, 1.0))
    with pytest.raises(ClosedFormMismatchError):
        spectral_density(params, 0.7, CFG)
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
