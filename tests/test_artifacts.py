"""CSV rendering against per-element ``fmt`` of the numpy samples."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leveldecay import AmplitudeSeries, CouplingFamily, CouplingModel, ModelParams
from leveldecay.artifacts import (
    _render_columns,
    fmt,
    render_density_csv,
    render_series_csv,
    render_sweep_csv,
)
from leveldecay.evolution import MethodTag
from leveldecay.scenario import SweepSpec, sweep_points
from leveldecay.spectrum import build_spectral_data, point_mass
from leveldecay.verification import _sweeps


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
    # The table holds xi and rho~; each row renders at lambda = e1 + L xi
    # and rho = rho~ / L.
    for e1, cutoff in ((0.0, 1.0), (5.0, 0.5)):
        model = CouplingModel(CouplingFamily.THREE_DIM_EXP, 2.0, cutoff)
        spec = replace(
            build_spectral_data(ModelParams(e1, e1 + cutoff, model)),
            grid=np.array([-0.0, 5e-324, 1.0, 1e300]),
            density=np.array([1e300, -0.0, 5e-324, 0.25]),
        )
        rows = ((e1 + cutoff * x, rho / cutoff) for x, rho in zip(spec.grid, spec.density))
        assert render_density_csv(spec) == _per_element("lambda,rho", rows)


@pytest.mark.filterwarnings("error")
def test_density_csv_writes_a_rho_past_the_float_range_as_inf():
    # 3d g2 2 at L = gap = 1e-320: rho = rho~ / L overflows at most nodes,
    # which is written inf, as the sweep CSV writes the 2d rhs, not warned.
    model = CouplingModel(CouplingFamily.THREE_DIM_EXP, 2.0, 1e-320)
    spec = build_spectral_data(ModelParams(0.0, 1e-320, model))
    with np.errstate(over="ignore"):
        rows = list(zip(1e-320 * spec.grid, spec.density / 1e-320))
    text = render_density_csv(spec)
    assert text == _per_element("lambda,rho", rows)
    assert 0 < text.count(",inf\n") < len(rows)


@given(st.data())
def test_render_columns_equals_per_element_fmt(data):
    # st.floats draws NaN, +-inf, +-0 and subnormals as well.
    n_cols = data.draw(st.integers(1, 4), label="n_cols")
    rows = data.draw(st.lists(st.tuples(*[st.floats()] * n_cols), max_size=40), label="rows")
    columns = [np.array([row[j] for row in rows], dtype=float) for j in range(n_cols)]
    assert _render_columns("h", columns) == _per_element("h", rows)


def _near_ties() -> list[float]:
    """Doubles x with x 10^k = N + 1/2 +- 2^-b exactly, N of 17 digits.

    For k >= 23, 10^k is not a double, and these lie within the scaled
    value's rounding error of a tie, on either side.
    """
    values = []
    for k in range(23, 40):
        five = 5**k
        for b in range(48, 56):
            for sign in (1, -1):
                tail = 2 ** (b - 1) + sign
                # The least N >= 1e16 with 5^k | N 2^b + tail makes x dyadic.
                n = (-tail * pow(2**b, -1, five)) % five
                n += five * -(-(10**16 - n) // five)
                mantissa = (n * 2**b + tail) // five
                if n < 10**17 and mantissa < 2**53:
                    values.append(mantissa * 2.0 ** -(b + k))
    return values


def _structured_values() -> np.ndarray:
    values = []
    for k in range(-300, 301):
        power = float(f"1e{k}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        # Rounding carries into the next decade, and just short of them.
        values += [float(f"9.9999999999999999e{k}"), float(f"9.9999999999999995e{k}")]
    # Dyadic m 2^+-j.  Those whose decimal expansion has 18 significant
    # digits are exact ties of the 17-digit rounding, both where the scaling
    # power 10^(16 - E) is a double (E >= -6) and where it is not.
    values += [m * 2.0**-j for j in range(1, 81) for m in range(1, 128, 2)]
    values += [m * 2.0**j for j in range(1, 81) for m in range(1, 128, 2)]
    values += _near_ties()
    for edge in (1e-250, 1e250):  # the fast path's edges
        below = above = edge
        for _ in range(4):
            values += [below, above]
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
    values += [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_render_columns_structured_values():
    values = _structured_values()
    for n_cols in (1, 4):
        rows = values[: values.size // n_cols * n_cols].reshape(-1, n_cols)
        assert _render_columns("h", list(rows.T)) == _per_element("h", rows)


def test_render_columns_random_bit_patterns():
    bits = np.random.default_rng(20260).integers(0, 2**64, size=200_000, dtype=np.uint64)
    rows = bits.view(np.float64).reshape(-1, 4)
    assert _render_columns("h", list(rows.T)) == _per_element("h", rows)


def test_render_columns_without_rows_is_the_header():
    assert _render_columns("t,re_c,im_c,p", [np.empty(0)] * 4) == "t,re_c,im_c,p\n"


# The two verify sweep CSVs, frozen byte for byte: no bound state (0.5, 0.9),
# marginal (1.0), bound state (1.1, 2.0), and 2d, whose threshold_rhs is inf.
FROZEN_SWEEPS = {
    "verify-sweep-3d": """\
sweep_value,threshold_rhs,exists,e0,weight,p_infinity
5.0000000000000000e-01,5.0000000000000000e-01,false,,0.0000000000000000e+00,0.0000000000000000e+00
9.0000000000000002e-01,9.0000000000000002e-01,false,,0.0000000000000000e+00,0.0000000000000000e+00
1.0000000000000000e+00,1.0000000000000000e+00,skipped,,,
1.1000000000000001e+00,1.1000000000000001e+00,true,-2.1268344030426774e-02,2.7169814190088748e-01,7.3819880312394795e-02
2.0000000000000000e+00,2.0000000000000000e+00,true,-2.8477924771676300e-01,4.4909253697788515e-01,2.0168410676923315e-01
""",
    "verify-sweep-2d": """\
sweep_value,threshold_rhs,exists,e0,weight,p_infinity
1.0000000000000000e-03,inf,true,-4.9406564584124654e-324,0.0000000000000000e+00,0.0000000000000000e+00
1.0000000000000001e-01,inf,true,-2.5490870973312463e-05,2.5490871138948192e-04,6.4978451142246183e-08
1.0000000000000000e+00,inf,true,-2.7598409657299200e-01,2.9873815155096051e-01,8.9244483192084653e-02
""",
}


def test_verify_sweep_csvs_are_frozen():
    for name, base, sweep in _sweeps():
        points = sweep_points(base, sweep)
        assert render_sweep_csv(sweep.values, points) == FROZEN_SWEEPS[name]


TWO, THREE = CouplingFamily.TWO_DIM_EXP, CouplingFamily.THREE_DIM_EXP


def _swept_value(family, parameter, gap, cutoff, g_sq, ratio):
    """The value of ``parameter`` that puts a 3d model at ``ratio`` times its
    threshold (rhs / gap = ratio; 1 is on it), and its 2d counterpart on the
    same scale (g_sq: g2 = ratio * gap)."""
    three = family is THREE
    if parameter == "g_sq":
        return ratio * gap / (cutoff if three else 1.0)
    if parameter == "lambda_cutoff":
        return ratio * (gap / g_sq if three and g_sq > 0.0 else cutoff)
    return g_sq * cutoff / ratio if three and g_sq > 0.0 else ratio * gap


def _point_mass_per_model(family, parameter, e1, gap, cutoff, g_sq, values):
    """Each value's ``point_mass`` of the model built with it set, as a sweep
    built its models before ``scenario.sweep_points``."""
    points = []
    for v in values:
        model = CouplingModel(family, v if parameter == "g_sq" else g_sq,
                              v if parameter == "lambda_cutoff" else cutoff)
        e2 = e1 + (v if parameter == "level_gap" else gap)
        points.append(point_mass(ModelParams(e1, e2, model)))
    return points


_RATIOS = st.one_of(
    st.floats(-3.0, 0.5).map(lambda x: 10.0**x),
    st.floats(1.0 - 1e-9, 1.0 + 1e-9),  # |beta - r| < 1e-8 where gap / cutoff <= 10
    st.just(0.0),
)


@given(
    family=st.sampled_from([TWO, THREE]),
    parameter=st.sampled_from(["g_sq", "lambda_cutoff", "level_gap"]),
    e1=st.sampled_from([0.0, 5.0, -3.0]),
    gap=st.floats(0.1, 10.0),
    cutoff=st.floats(0.1, 10.0),
    g_sq=st.floats(0.05, 5.0),
    ratios=st.lists(_RATIOS, min_size=1, max_size=6),
)
@example(THREE, "g_sq", 0.0, 1.0, 1.0, 2.0, [0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0])
@example(TWO, "g_sq", 5.0, 1.0, 1.0, 0.1, [1e-3, 0.01, 0.0, 1.0])  # e1 - e0 underflows
@example(TWO, "g_sq", 0.0, 1.0, 1.0, 0.1, [1e-3, 2e-3])
@example(THREE, "lambda_cutoff", 0.0, 1.0, 1.0, 2.0, [0.25, 1.0, 1.0 - 1e-10, 3.0])
@example(THREE, "level_gap", -3.0, 1.0, 0.5, 2.0, [0.5, 1.0, 2.0])
@example(TWO, "lambda_cutoff", 5.0, 1.0, 1.0, 0.0, [0.5, 2.0])  # g2 = 0 at every value
@example(THREE, "level_gap", 0.0, 1.0, 1.0, 0.0, [0.5, 2.0])
@example(TWO, "level_gap", 0.0, 1.0, 2.0, 0.3, [1e-3, 0.1, 3.0])
@settings(max_examples=150)
def test_sweep_rows_equal_point_mass_per_model(family, parameter, e1, gap, cutoff, g_sq,
                                               ratios):
    if parameter != "g_sq":  # only g_sq sweeps take 0
        ratios = [r for r in ratios if r > 0.0] or [1.0]
    values = tuple(_swept_value(family, parameter, gap, cutoff, g_sq, r) for r in ratios)
    params = ModelParams(e1, e1 + gap, CouplingModel(family, g_sq, cutoff))
    got = render_sweep_csv(values, sweep_points(params, SweepSpec(parameter, values)))
    want = render_sweep_csv(
        values, _point_mass_per_model(family, parameter, e1, gap, cutoff, g_sq, values)
    )
    assert got == want
