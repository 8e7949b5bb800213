"""The sweep check at parse: a sweep is accepted exactly when the model at
each of its values can be built, and a refused sweep carries the message of
the first value in list order whose model is refused."""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from leveldecay import CouplingFamily, CouplingModel, ModelParams
from leveldecay.scenario import ConfigError, parse_scenario_text

TWO = CouplingFamily.TWO_DIM_EXP
THREE = CouplingFamily.THREE_DIM_EXP


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


# Each case is a swept parameter, a base model (e1, e2, g2, L) that builds in
# both families, and values (log10) that straddle one refusal.
_CASES = [
    # 2d gamma = g2 / L underflows to 0 from g2 > 0.
    ("g_sq", (0.0, 1.0, 1.0, 1e300), st.one_of(st.just(0.0), _decades(-27.0, -21.0))),
    ("lambda_cutoff", (0.0, 1.0, 1e-300, 1.0), _decades(20.0, 28.0)),
    # 60 L overflows.
    ("lambda_cutoff", (0.0, 1.0, 1.0, 1.0), _decades(305.0, 308.2)),
    # The tail remainder at large gamma: 3d g2 1.1e16, 2d g2 / L 6.9e17.
    ("g_sq", (0.0, 1.0, 1.0, 1.0), st.one_of(st.just(0.0), _decades(15.0, 19.0))),
    ("lambda_cutoff", (0.0, 1.0, 1e12, 1.0), _decades(-7.0, -4.0)),
    # e1 + v rounds back to e1 = 1e16, or overflows from e1 = 1e308.
    ("level_gap", (1e16, 2e16, 1.0, 1.0), _decades(-1.0, 1.5)),
    ("level_gap", (1e308, 1.5e308, 1.0, 1.0), _decades(307.0, 308.2)),
    # The gap over the cutoff underflows to 0.
    ("lambda_cutoff", (0.0, 1e-300, 1.0, 1.0), _decades(20.0, 30.0)),
    ("level_gap", (0.0, 1.0, 1.0, 1e300), _decades(-27.0, -21.0)),
]
_SWEEPS = st.sampled_from(_CASES).flatmap(
    lambda case: st.tuples(
        st.just(case[0]), st.just(case[1]),
        st.lists(case[2], min_size=1, max_size=8).map(tuple),
    )
)


def _refusal(family, parameter, base, value) -> str | None:
    """The message of the model built with ``parameter`` set to ``value``, or
    None where it builds."""
    e1, e2, g2, cutoff = base
    if parameter == "g_sq":
        g2 = value
    elif parameter == "lambda_cutoff":
        cutoff = value
    else:
        e2 = e1 + value
    try:
        ModelParams(e1, e2, CouplingModel(family, g2, cutoff))
    except ValueError as exc:
        return str(exc)
    return None


@given(family=st.sampled_from(list(CouplingFamily)), sweep=_SWEEPS)
# The frozen rows of tests/test_cli.py::test_refused_sweep_value_keeps_its_message:
# the first of two failing values is named, not the largest; the gap over the
# cutoff underflows at the second value; 60 L overflows.
@example(family=THREE, sweep=("g_sq", (0.0, 1.0, 2.0, 1.0), (0.5, 1e20, 1e21)))
@example(family=THREE, sweep=("lambda_cutoff", (0.0, 1e-300, 2.0, 1.0), (1.0, 1e30)))
@example(family=THREE, sweep=("lambda_cutoff", (0.0, 1.0, 2.0, 1.0), (1.0, 1e307)))
# Neither the smallest value 0 nor the largest is refused: the smallest
# positive one is, its gamma = g2 / L below the subnormal range.
@example(family=TWO, sweep=("g_sq", (0.0, 1.0, 1.0, 1e300), (0.0, 1e-21, 1e-24)))
def test_a_sweep_is_refused_as_its_first_refused_model(family, sweep):
    parameter, base, values = sweep
    e1, e2, g2, cutoff = base
    text = (
        f"name = s\nmodel.e1 = {e1!r}\nmodel.e2 = {e2!r}\ncoupling.family = {family.value}\n"
        f"coupling.g_sq = {g2!r}\ncoupling.lambda_cutoff = {cutoff!r}\n"
        f"sweep.parameter = {parameter}\nsweep.values = {', '.join(map(repr, values))}\n"
    )
    refusals = [_refusal(family, parameter, base, v) for v in values]
    refused = [message for message in refusals if message is not None]
    try:
        scenario = parse_scenario_text(text)
    except ConfigError as exc:
        assert refused and str(exc) == refused[0]
    else:
        assert not refused and scenario.sweep.values == values
