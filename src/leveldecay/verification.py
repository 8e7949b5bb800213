"""Built-in verification matrix: nine numbered criteria over six scenarios.

The matrix covers {2d, 3d-above-threshold, 3d-below-threshold} x {moderate,
small} couplings, all with e1 = 0, e2 = 1, cutoff 1.  Each criterion checks a
distinct property at a fixed tolerance: measure normalization, threshold
reproduction, late-time plateau vs decay, cross-route agreement, short-time
law, weak-coupling exponential rate, eigenvalue correctness against a
brute-force oracle, and byte determinism of rendered artifacts.

``run_matrix`` runs each matrix row once through ``scenario.run_decay``, the
pipeline of the ``decay`` command, evaluates all criteria, writes the same
artifacts as ``spectrum`` and ``decay`` plus a verify_report.json, and returns
the per-criterion results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .coupling import CouplingFamily, CouplingModel, coupling_sq, l2_norm_sq
from .evolution import (
    AmplitudeSeries,
    amplitude_spectral,
    asymptotic_limit,
    fitted_decay_rate,
    weak_coupling_rate,
)
from .quadrature import _EPS
from .scenario import (
    DecayRun,
    Scenario,
    SweepSpec,
    run_decay,
    sweep_models,
    sweep_point,
    write_decay,
    write_spectrum,
    write_sweep,
)
from .spectrum import (
    ModelParams,
    NoEigenvalueError,
    build_spectral_data,
    find_eigenvalue,
    threshold_check,
)
from .volterra import richardson_ratio, solve_ide


@dataclass(frozen=True)
class MatrixScenario:
    name: str
    family: CouplingFamily
    g_sq: float
    has_eigenvalue: bool

    def scenario(self) -> Scenario:
        """The row as a decay scenario: horizon 2T, 2001 points, step 0.01."""
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


def _check_normalization(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    worst = max(r.spec.normalization_defect for r in runs.values())
    return CriterionResult(
        1, "spectral-measure normalization",
        worst <= 1e-6,
        f"max |w + mass + tail - 1| = {worst:.3e} (tolerance 1e-6)",
    )


def _eigenvalue_exists(params: ModelParams) -> bool:
    try:
        e0 = find_eigenvalue(params)
    except NoEigenvalueError:
        return False
    return e0 < params.e1


def _check_threshold() -> CriterionResult:
    failures = []
    for g_sq, expected in ((0.9, False), (1.1, True)):
        params = ModelParams(0.0, 1.0, CouplingModel(CouplingFamily.THREE_DIM_EXP, g_sq, 1.0))
        got = _eigenvalue_exists(params)
        agrees = got == expected == threshold_check(params).exists
        if not agrees:
            failures.append(f"3d g2={g_sq}: solver={got}, expected={expected}")
    for g_sq in (1e-3, 0.1, 1.0):
        params = ModelParams(0.0, 1.0, CouplingModel(CouplingFamily.TWO_DIM_EXP, g_sq, 1.0))
        if not _eigenvalue_exists(params):
            failures.append(f"2d g2={g_sq}: no eigenvalue found")
    return CriterionResult(
        2, "threshold reproduction",
        not failures,
        "; ".join(failures) if failures else
        "3d exists iff g2 above gap at +-10%; 2d exists for g2 in {1e-3, 0.1, 1}",
    )


def _check_plateau(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    details, ok = [], True
    for ms, run in runs.items():
        if not ms.has_eigenvalue:
            continue
        target = asymptotic_limit(run.spec)
        for series, tag in ((run.spectral, "spectral"), (run.vol, "volterra")):
            got = _window_mean(series, _WINDOW_T, 2.0 * _WINDOW_T)
            if abs(got - target) > 1e-2:
                ok = False
                details.append(f"{ms.name}/{tag}: |{got:.4f} - {target:.4f}| > 1e-2")
    return CriterionResult(
        3, "non-decay above threshold",
        ok,
        "; ".join(details) if details else
        "window mean of P on [T, 2T] matches w^2 within 1e-2 on both routes",
    )


def _check_decay(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    details, ok = [], True
    for ms, run in runs.items():
        if ms.has_eigenvalue:
            continue
        for series, tag in ((run.spectral, "spectral"), (run.vol, "volterra")):
            got = _window_mean(series, _WINDOW_T, 2.0 * _WINDOW_T)
            if got >= 1e-2:
                ok = False
                details.append(f"{ms.name}/{tag}: window mean {got:.3e} >= 1e-2")
    return CriterionResult(
        4, "decay below threshold",
        ok,
        "; ".join(details) if details else
        "window mean of P on [T, 2T] below 1e-2 on both routes",
    )


def _check_cross_route(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    details, ok = [], True
    worst = 0.0
    for ms, run in runs.items():
        params = run.spec.params
        mask = run.spectral.times <= _CROSS_T / params.level_gap
        dev = float(np.max(np.abs(
            run.spectral.amplitude[mask] - run.vol.amplitude[mask]
        )))
        worst = max(worst, dev)
        if dev > 1e-3:
            ok = False
            details.append(f"{ms.name}: max |C_s - C_v| = {dev:.2e} > 1e-3")
        ratio = richardson_ratio(params, _CROSS_T / params.level_gap, 0.04)
        if not 3.0 <= ratio <= 5.0:
            ok = False
            details.append(f"{ms.name}: Richardson ratio {ratio:.2f} outside [3, 5]")
    return CriterionResult(
        5, "cross-route agreement",
        ok,
        "; ".join(details) if details else
        f"max deviation {worst:.2e} <= 1e-3; step-halving ratios in [3, 5]",
    )


def _check_short_time(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    details, ok = [], True
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
            if abs(got - predicted) > 1e-5:
                ok = False
                details.append(
                    f"{ms.name}/{tag}: |P({t_star:.4f}) - {predicted:.8f}| "
                    f"= {abs(got - predicted):.2e} > 1e-5"
                )
    return CriterionResult(
        6, "short-time quadratic law",
        ok,
        "; ".join(details) if details else
        "P(t*) = 1 - l2 t*^2 within 1e-5 on both routes for every scenario",
    )


def _check_weak_coupling(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    run = next(r for ms, r in runs.items() if ms.name == "3d-below-small")
    gamma = weak_coupling_rate(run.spec.params).gamma
    fitted = fitted_decay_rate(run.spectral)
    rel = abs(fitted - gamma) / gamma
    return CriterionResult(
        7, "weak-coupling exponential rate",
        rel <= 0.15,
        f"fitted rate {fitted:.6f} vs 2*pi*|V(gap)|^2 = {gamma:.6f} "
        f"(relative error {rel:.3f}, tolerance 0.15)",
    )


def _simpson_blocks(f, edges: np.ndarray, n_per_block: int = 4097) -> float:
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, n_per_block)
        weights = np.ones(n_per_block)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += (xs[1] - xs[0]) / 3.0 * float(np.dot(weights, f(xs)))
    return total


def _oracle_k(params: ModelParams, lam: float) -> float:
    """Brute-force k(lam): fixed graded composite Simpson, no adaptivity."""
    model = params.coupling
    a = params.e1 - lam
    upper = 60.0 * model.cutoff
    geo = a * 2.0 ** np.arange(0, 64)
    geo = geo[geo < model.cutoff]
    tail = model.cutoff * np.arange(1.0, upper / model.cutoff + 1.0)
    edges = np.unique(np.concatenate([[0.0, a], geo, tail, [upper]]))

    def integrand(x):
        return coupling_sq(model, x) / (x + a)

    return _simpson_blocks(integrand, edges)


def _oracle_eigenvalue(params: ModelParams, e0: float) -> float:
    """Illinois false position (Dowell & Jarratt 1971) on the brute-force k,
    independent of the main solver: secant steps inside the bracket, halving
    the F of an end kept twice in a row so that both ends close on the root,
    until the bracket is narrower than 1e-15 + 4 eps |lam|.

    It starts on [e0 - d, e0 + d], d = 1e-9 max(1, |e0|), clipped to the wide
    bracket [e1 - 8 max(1, gap), e1 - 1e-9 L], if F changes sign across it:
    F is monotone, so the oracle's own root then lies inside.  Otherwise it
    starts on the wide bracket, so a wrong e0 still fails the comparison."""
    wide_lo = params.e1 - 8.0 * max(1.0, params.level_gap)
    wide_hi = params.e1 - 1e-9 * params.coupling.cutoff

    def f_of(lam: float) -> float:
        return params.e2 - lam - _oracle_k(params, lam)

    delta = 1e-9 * max(1.0, abs(e0))
    lo, hi = max(e0 - delta, wide_lo), min(e0 + delta, wide_hi)
    f_lo, f_hi = f_of(lo), f_of(hi)
    if not (f_lo > 0.0 > f_hi):
        lo, hi = wide_lo, wide_hi
        f_lo, f_hi = f_of(lo), f_of(hi)
    if not (f_lo > 0.0 > f_hi):
        raise RuntimeError(f"oracle bracket invalid: F(lo)={f_lo!r}, F(hi)={f_hi!r}")
    kept = 0  # +1: lo was kept last step, -1: hi was kept
    for _ in range(200):
        if hi - lo < 1e-15 + 4.0 * _EPS * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        lam = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        f = f_of(lam)
        if f > 0.0:
            lo, f_lo = lam, f
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        elif f < 0.0:
            hi, f_hi = lam, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
        else:
            return lam
    raise RuntimeError("oracle root search did not converge in 200 steps")


def _check_eigenvalue_oracle(runs: dict[MatrixScenario, DecayRun]) -> CriterionResult:
    details, ok = [], True
    worst = 0.0
    for ms, run in runs.items():
        if not ms.has_eigenvalue:
            continue
        e0 = run.spec.eigenvalue
        if not e0 < run.spec.params.e1:
            ok = False
            details.append(f"{ms.name}: e0 not strictly below e1")
            continue
        oracle = _oracle_eigenvalue(run.spec.params, e0)
        err = abs(e0 - oracle)
        worst = max(worst, err)
        if err > 1e-8:
            ok = False
            details.append(f"{ms.name}: |e0 - oracle| = {err:.2e} > 1e-8")
    grid = [1.2, 1.5, 2.0, 3.0, 4.0]
    roots = [
        find_eigenvalue(
            ModelParams(0.0, 1.0, CouplingModel(CouplingFamily.THREE_DIM_EXP, g, 1.0))
        )
        for g in grid
    ]
    if not all(b < a for a, b in zip(roots[:-1], roots[1:])):
        ok = False
        details.append(f"e0 not strictly decreasing over g2 grid {grid}: {roots}")
    return CriterionResult(
        8, "eigenvalue solver correctness",
        ok,
        "; ".join(details) if details else
        f"max |e0 - oracle| = {worst:.2e} <= 1e-8; e0 < e1; e0 strictly decreasing in g2",
    )


def _sweep_scenarios() -> list[Scenario]:
    return [
        Scenario(
            name, ModelParams(0.0, 1.0, CouplingModel(family, 1.0, 1.0)),
            horizon=1.0, sweep=SweepSpec("g_sq", values),
        )
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
        scenario = _sweep_scenarios()[0]
        rows = list(map(sweep_point, sweep_models(scenario), scenario.sweep.values))
        return (
            artifacts.render_density_csv(spec),
            artifacts.render_spectral_json(spec),
            artifacts.render_sweep_csv(rows),
        )

    first, second = render(), render()
    same = first == second
    return CriterionResult(
        9, "artifact determinism",
        same,
        "repeated renders byte-identical" if same else "renders differ between runs",
    )


def _write_artifacts(out_dir: Path, runs: dict[MatrixScenario, DecayRun]) -> None:
    for ms, run in runs.items():
        write_spectrum(out_dir, ms.name, run.spec)
        write_decay(out_dir, ms.name, run)
    for scenario in _sweep_scenarios():
        rows = list(map(sweep_point, sweep_models(scenario), scenario.sweep.values))
        write_sweep(out_dir, scenario.name, rows)


def run_matrix(out_dir: Path | None = None) -> list[CriterionResult]:
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
    if out_dir is not None:
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
