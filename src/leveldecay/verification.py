"""Built-in verification matrix: nine numbered criteria over six scenarios.

The matrix covers {2d, 3d-above-threshold, 3d-below-threshold} x {moderate,
small} couplings, all with e1 = 0, e2 = 1, cutoff 1.  Each criterion checks a
distinct property at a fixed tolerance: measure normalization, threshold
reproduction, late-time plateau vs decay, cross-route agreement, short-time
law, weak-coupling exponential rate, eigenvalue correctness against an
independent root search on the adaptive quadrature of k, and byte determinism
of rendered artifacts.  Criteria 2 and 8 read ``point_mass``, the pipeline's
one route to the threshold test and e0; criterion 8's oracle solves in xi on
``quadrature.k_regular`` from its own bracket and never sees the solver's e0.
Criteria 2 to 6 and 8 list their failures, and ``_result`` makes each pass
exactly when its list is empty.

``run_matrix`` runs each matrix row once through ``scenario.run_decay``, the
pipeline of the ``decay`` command, evaluates all criteria, writes the same
artifacts as ``spectrum`` and ``decay`` plus a verify_report.json, and returns
the per-criterion results.  Criterion 5 reads each run's pair of solves at
0.02 and 0.04 for its step-halving ratio, so no row is solved again; the only
other solves are criterion 6's six short ones, 18 in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .coupling import CouplingFamily, CouplingModel, ModelParams, l2_norm_sq
from .evolution import (
    AmplitudeSeries,
    amplitude_spectral,
    asymptotic_limit,
    fitted_decay_rate,
    weak_coupling_rate,
)
from .quadrature import _EPS, NumericalError, k_regular
from .scenario import (
    DecayRun,
    Scenario,
    SweepSpec,
    run_decay,
    sweep_points,
    write_decay,
    write_spectrum,
    write_sweep,
)
from .spectrum import build_spectral_data, point_mass
from .volterra import solve_ide


@dataclass(frozen=True)
class MatrixScenario:
    name: str
    family: CouplingFamily
    g_sq: float
    has_eigenvalue: bool

    def scenario(self) -> Scenario:
        """The row as a decay scenario: horizon 2T, 2001 points, nominal step
        0.01 (``run_decay`` solves at 0.02 and 0.04, and criterion 5 reads
        that pair)."""
        params = ModelParams(0.0, 1.0, CouplingModel(self.family, self.g_sq, 1.0))
        return Scenario(
            self.name, params, horizon=2.0 * _WINDOW_T / params.level_gap,
            series_points=2001, volterra_step=0.01,
        )


MATRIX: tuple[MatrixScenario, ...] = (
    MatrixScenario("2d-moderate", CouplingFamily.TWO_DIM_EXP, 0.5, True),
    MatrixScenario("2d-small", CouplingFamily.TWO_DIM_EXP, 0.1, True),
    MatrixScenario("3d-above-moderate", CouplingFamily.THREE_DIM_EXP, 2.0, True),
    MatrixScenario("3d-above-small", CouplingFamily.THREE_DIM_EXP, 1.2, True),
    MatrixScenario("3d-below-moderate", CouplingFamily.THREE_DIM_EXP, 0.5, False),
    MatrixScenario("3d-below-small", CouplingFamily.THREE_DIM_EXP, 0.01, False),
)

_WINDOW_T = 200.0          # window start in units of 1/gap; window is [T, 2T]
_CROSS_T = 50.0            # cross-route comparison horizon


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid} [{status}] {self.name}: {self.detail}"


def _window_mean(series: AmplitudeSeries, t_lo: float, t_hi: float) -> float:
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    return float(series.probability[mask].mean())


def _result(cid: int, name: str, failures: list[str], pass_text: str) -> CriterionResult:
    """Criterion ``cid``, passed exactly when it lists no failure: its detail
    is the failures joined by "; ", or ``pass_text``."""
    return CriterionResult(cid, name, not failures, "; ".join(failures) or pass_text)


def _check_normalization(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    worst = max(r.spec.normalization_defect for r in runs.values())
    return CriterionResult(
        1, "spectral-measure normalization",
        worst <= 1e-6,
        f"max |w + mass + tail - 1| = {worst:.3e} (tolerance 1e-6)",
    )


def _check_threshold() -> CriterionResult:
    """The solver's e0 exists exactly where the threshold test says so."""
    failures = []
    margin = math.inf
    for family, tag, g_sq, expected in (
        (CouplingFamily.THREE_DIM_EXP, "3d", 0.9, False),
        (CouplingFamily.THREE_DIM_EXP, "3d", 1.1, True),
        (CouplingFamily.TWO_DIM_EXP, "2d", 1e-3, True),
        (CouplingFamily.TWO_DIM_EXP, "2d", 0.1, True),
        (CouplingFamily.TWO_DIM_EXP, "2d", 1.0, True),
    ):
        params = ModelParams(0.0, 1.0, CouplingModel(family, g_sq, 1.0))
        check, e0, _ = point_mass(params)
        margin = min(margin, check.distance)  # |beta - r|, at L = 1 |gap - rhs|
        got = e0 is not None and e0 < params.e1
        if not got == expected == check.exists:
            failures.append(f"{tag} g2={g_sq}: solver={got}, expected={expected}")
    return _result(
        2, "threshold reproduction", failures,
        "3d exists iff g2 above gap at +-10%; 2d exists for g2 in {1e-3, 0.1, 1}; "
        f"min |gap - rhs| = {margin:.3e}",
    )


def _check_plateau(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    failures = []
    worst = 0.0
    for ms, run in runs.items():
        if not ms.has_eigenvalue:
            continue
        target = asymptotic_limit(run.spec)
        for series, tag in ((run.spectral, "spectral"), (run.vol, "volterra")):
            got = _window_mean(series, _WINDOW_T, 2.0 * _WINDOW_T)
            worst = max(worst, abs(got - target))
            if abs(got - target) > 1e-2:
                failures.append(f"{ms.name}/{tag}: |{got:.4f} - {target:.4f}| > 1e-2")
    return _result(
        3, "non-decay above threshold", failures,
        "window mean of P on [T, 2T] matches w^2 within 1e-2 on both routes: "
        f"max |mean - w^2| = {worst:.2e}",
    )


def _check_decay(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    failures = []
    worst = 0.0
    for ms, run in runs.items():
        if ms.has_eigenvalue:
            continue
        for series, tag in ((run.spectral, "spectral"), (run.vol, "volterra")):
            got = _window_mean(series, _WINDOW_T, 2.0 * _WINDOW_T)
            worst = max(worst, got)
            if got >= 1e-2:
                failures.append(f"{ms.name}/{tag}: window mean {got:.3e} >= 1e-2")
    return _result(
        4, "decay below threshold", failures,
        f"window mean of P on [T, 2T] below 1e-2 on both routes: max {worst:.2e}",
    )


def _check_cross_route(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    """Up to 50 / gap: C_v within 1e-3 of C_s, and the raw pair second order,
    e_4h / e_2h in [3, 5] with e a solve's max distance from C_s."""
    failures = []
    worst = 0.0
    ratios = []
    for ms, run in runs.items():
        mask = run.spectral.times <= _CROSS_T / run.spec.params.level_gap
        c_s = run.spectral.amplitude[mask]
        dev, e_2h, e_4h = (
            float(np.max(np.abs(c_s - series.amplitude[mask])))
            for series in (run.vol, *run.pair)
        )
        worst = max(worst, dev)
        if dev > 1e-3:
            failures.append(f"{ms.name}: max |C_s - C_v| = {dev:.2e} > 1e-3")
        ratio = e_4h / e_2h
        ratios.append(ratio)
        if not 3.0 <= ratio <= 5.0:
            failures.append(f"{ms.name}: step-halving ratio e_4h/e_2h {ratio:.4f} outside [3, 5]")
    return _result(
        5, "cross-route agreement", failures,
        f"max deviation {worst:.2e} <= 1e-3; step-halving ratios e_4h/e_2h in "
        f"[{min(ratios):.4f}, {max(ratios):.4f}] within [3, 5]",
    )


def _check_short_time(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    failures = []
    worst = 0.0
    for ms, run in runs.items():
        params = run.spec.params
        l2 = l2_norm_sq(params.coupling)
        t_star = 1e-2 / math.sqrt(l2)
        predicted = 1.0 - l2 * t_star**2
        vol = solve_ide(params, horizon=t_star, step=t_star / 16.0)
        spec_series = amplitude_spectral(run.spec, np.array([0.0, t_star]))
        for got, tag in (
            (float(vol.probability[-1]), "volterra"),
            (float(spec_series.probability[-1]), "spectral"),
        ):
            worst = max(worst, abs(got - predicted))
            if abs(got - predicted) > 1e-5:
                failures.append(
                    f"{ms.name}/{tag}: |P({t_star:.4f}) - {predicted:.8f}| "
                    f"= {abs(got - predicted):.2e} > 1e-5"
                )
    return _result(
        6, "short-time quadratic law", failures,
        "P(t*) = 1 - l2 t*^2 within 1e-5 on both routes for every scenario: "
        f"max |P(t*) - predicted| = {worst:.2e}",
    )


def _check_weak_coupling(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    run = next(r for ms, r in runs.items() if ms.name == "3d-below-small")
    gamma = weak_coupling_rate(run.spec.params)
    fitted = fitted_decay_rate(run.spectral)
    rel = abs(fitted - gamma) / gamma
    return CriterionResult(
        7, "weak-coupling exponential rate",
        rel <= 0.15,
        f"fitted rate {fitted:.6f} vs 2*pi*|V(gap)|^2 = {gamma:.6f} "
        f"(relative error {rel:.3f}, tolerance 0.15)",
    )


def _oracle_eigenvalue(params: ModelParams) -> float:
    """Illinois false position (Dowell & Jarratt 1971) on the twin's F(xi) =
    beta - xi - k_regular(-xi): secant steps inside the bracket, halving the F
    of an end kept twice in a row so that both ends close on the root, until
    the bracket is narrower than 1e-15 + 4 eps |xi|.  It starts on the wide
    bracket [-8 max(1, beta), -1e-9], never sees the solver's e0 and returns
    e0 = ``params.energy`` of the root.

    It is independent of ``point_mass``'s solve: ``k_regular`` is adaptive
    (G7, K15) quadrature of |V(xi)|^2 / (xi + s) in xi, built from
    ``coupling_sq`` alone, while the solver takes Newton steps in u = ln s on
    the scipy exp1 closed forms of k and never evaluates ``k_regular`` (only
    the one-time gate of those closed forms, at gamma = 1, does)."""
    model = params.canonical
    lo, hi = -8.0 * max(1.0, model.beta), -1e-9

    def f_of(xi: float) -> float:
        return model.beta - xi - k_regular(model, -xi)

    f_lo, f_hi = f_of(lo), f_of(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NumericalError(f"oracle bracket invalid: F(lo)={f_lo!r}, F(hi)={f_hi!r}")
    kept = 0  # +1: lo was kept last step, -1: hi was kept
    for _ in range(200):
        if hi - lo < 1e-15 + 4.0 * _EPS * max(abs(lo), abs(hi)):
            return params.energy(0.5 * (lo + hi))
        xi = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < xi < hi:
            xi = 0.5 * (lo + hi)
        f = f_of(xi)
        if f > 0.0:
            lo, f_lo = xi, f
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        elif f < 0.0:
            hi, f_hi = xi, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
        else:
            return params.energy(xi)
    raise NumericalError("oracle root search did not converge in 200 steps")


def _check_eigenvalue_oracle(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    failures = []
    worst = 0.0
    for ms, run in runs.items():
        if not ms.has_eigenvalue:
            continue
        e0 = run.spec.eigenvalue
        if not e0 < run.spec.params.e1:
            failures.append(f"{ms.name}: e0 not strictly below e1")
            continue
        oracle = _oracle_eigenvalue(run.spec.params)
        err = abs(e0 - oracle)
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(f"{ms.name}: |e0 - oracle| = {err:.2e} > 1e-8")
    grid = [1.2, 1.5, 2.0, 3.0, 4.0]
    roots = [
        point_mass(
            ModelParams(0.0, 1.0, CouplingModel(CouplingFamily.THREE_DIM_EXP, g, 1.0))
        )[1]
        for g in grid
    ]
    if not all(b < a for a, b in zip(roots[:-1], roots[1:])):
        failures.append(f"e0 not strictly decreasing over g2 grid {grid}: {roots}")
    return _result(
        8, "eigenvalue solver correctness", failures,
        f"max |e0 - oracle| = {worst:.2e} <= 1e-8; e0 < e1; e0 strictly decreasing in g2",
    )


def _sweeps() -> list[tuple[str, ModelParams, SweepSpec]]:
    """The named g_sq sweeps of the artifacts and their base models, at
    e1 = 0, e2 = 1, L = 1."""
    return [
        (name, ModelParams(0.0, 1.0, CouplingModel(family, 1.0, 1.0)), SweepSpec("g_sq", values))
        for name, family, values in (
            ("verify-sweep-3d", CouplingFamily.THREE_DIM_EXP, (0.5, 0.9, 1.0, 1.1, 2.0)),
            ("verify-sweep-2d", CouplingFamily.TWO_DIM_EXP, (1e-3, 0.1, 1.0)),
        )
    ]


def _check_determinism() -> CriterionResult:
    """Recompute one scenario's artifacts from scratch and byte-compare."""
    ms = next(m for m in MATRIX if m.name == "3d-below-moderate")

    def render() -> tuple[str, str, str]:
        spec = build_spectral_data(ms.scenario().params)
        _name, base, sweep = _sweeps()[0]
        return (
            artifacts.render_density_csv(spec),
            artifacts.render_spectral_json(spec),
            artifacts.render_sweep_csv(sweep.values, sweep_points(base, sweep)),
        )

    first, second = render(), render()
    compared = f"{len(first)} files, {sum(len(text.encode()) for text in first):,} bytes"
    same = first == second
    verdict = "repeated renders byte-identical" if same else "renders differ between runs"
    return CriterionResult(9, "artifact determinism", same, f"{verdict} ({compared})")


def _write_artifacts(out_dir: Path, runs: dict[MatrixScenario, DecayRun]) -> None:
    for ms, run in runs.items():
        write_spectrum(out_dir, ms.name, run.spec)
        write_decay(out_dir, ms.name, run)
    for name, base, sweep in _sweeps():
        write_sweep(out_dir, name, sweep.values, sweep_points(base, sweep))


def run_matrix(out_dir: Path) -> list[CriterionResult]:
    """Compute the scenario matrix, evaluate all criteria, write artifacts."""
    runs = {ms: run_decay(ms.scenario()) for ms in MATRIX}
    results = [
        _check_normalization(runs),
        _check_threshold(),
        _check_plateau(runs),
        _check_decay(runs),
        _check_cross_route(runs),
        _check_short_time(runs),
        _check_weak_coupling(runs),
        _check_eigenvalue_oracle(runs),
        _check_determinism(),
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_artifacts(out_dir, runs)
    artifacts.write_json(out_dir / "verify_report.json", {
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    })
    return results
