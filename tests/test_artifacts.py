"""CSV rendering against per-element ``fmt`` of the numpy samples."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from leveldecay import AmplitudeSeries, CouplingFamily, CouplingModel, ModelParams
from leveldecay.artifacts import fmt, render_density_csv, render_series_csv
from leveldecay.evolution import MethodTag
from leveldecay.spectrum import build_spectral_data


def _per_element(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)


def test_series_csv_equals_per_element_fmt():
    # -0.0, subnormals and an e+300 time.
    t = np.array([0.0, 5e-324, 0.5, 1e300])
    c = np.empty(4, dtype=complex)
    c.real = [1.0, 0.75, -0.0, 1e-300]
    c.imag = [-0.0, 2.5e-310, 0.5, -0.0]
    series = AmplitudeSeries(t, c, MethodTag.SPECTRAL)
    rows = (
        (s, a.real, a.imag, p)
        for s, a, p in zip(series.times, series.amplitude, series.probability)
    )
    assert render_series_csv(series) == _per_element("t,re_c,im_c,p", rows)


def test_density_csv_equals_per_element_fmt():
    model = CouplingModel(CouplingFamily.THREE_DIM_EXP, 2.0, 1.0)
    params = ModelParams(0.0, 1.0, model)
    spec = replace(
        build_spectral_data(params),
        grid=np.array([-0.0, 5e-324, 1.0, 1e300]),
        density=np.array([1e300, -0.0, 5e-324, 0.25]),
    )
    rows = zip(spec.grid, spec.density)
    assert render_density_csv(spec) == _per_element("lambda,rho", rows)
