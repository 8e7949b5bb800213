"""Acceptance suite: runs the built-in verification matrix and asserts every
criterion at its stated tolerance, printing one pass/fail line per criterion.

The matrix itself (six scenarios, nine criteria) lives in
leveldecay.verification and is the same code path exercised by the
``leveldecay verify`` command.  Criterion 9 additionally reruns the whole
matrix into a second directory and compares every artifact byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from leveldecay import scenario, verification, volterra
from leveldecay.scenario import DecayRun, run_decay
from leveldecay.spectrum import build_spectral_data, point_mass
from leveldecay.verification import MATRIX, run_matrix
from leveldecay.volterra import solve_ide


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify-run-1")
    return run_matrix(out), out


@pytest.fixture(scope="module")
def decay_runs():
    """Each matrix row through ``run_decay``, as ``run_matrix`` computes it."""
    return {ms: run_decay(ms.scenario()) for ms in MATRIX}


def _criterion(results, cid):
    res = next(r for r in results if r.cid == cid)
    print(res.line())
    return res


def test_matrix_covers_all_six_scenarios():
    names = {m.name for m in MATRIX}
    assert names == {
        "2d-moderate", "2d-small",
        "3d-above-moderate", "3d-above-small",
        "3d-below-moderate", "3d-below-small",
    }


def test_criterion_1_spectral_measure_normalization(verify_run):
    res = _criterion(verify_run[0], 1)
    assert res.passed, res.detail


def test_criterion_2_threshold_reproduction(verify_run):
    res = _criterion(verify_run[0], 2)
    assert res.passed, res.detail


def test_criterion_3_non_decay_above_threshold(verify_run):
    res = _criterion(verify_run[0], 3)
    assert res.passed, res.detail


def test_criterion_4_decay_below_threshold(verify_run):
    res = _criterion(verify_run[0], 4)
    assert res.passed, res.detail


def test_criterion_5_cross_route_agreement(verify_run):
    res = _criterion(verify_run[0], 5)
    assert res.passed, res.detail


def test_criterion_6_short_time_quadratic_law(verify_run):
    res = _criterion(verify_run[0], 6)
    assert res.passed, res.detail


def test_criterion_7_weak_coupling_rate(verify_run):
    res = _criterion(verify_run[0], 7)
    assert res.passed, res.detail


def test_criterion_8_eigenvalue_solver_correctness(verify_run):
    res = _criterion(verify_run[0], 8)
    assert res.passed, res.detail


# max |C_s - C_v| up to 50 / gap of the extrapolated Volterra series, about
# twice the measured 1.21e-6, 1.66e-8, 6.69e-5, 1.17e-5, 2.37e-7 and 2.84e-9.
# The spectral route is exact to 2e-15 here, so this is the Volterra route's
# own error.
_EXTRAPOLATED_BOUND = {
    "2d-moderate": 2.5e-6,
    "2d-small": 3.5e-8,
    "3d-above-moderate": 1e-4,
    "3d-above-small": 2.5e-5,
    "3d-below-moderate": 5e-7,
    "3d-below-small": 6e-9,
}


@pytest.mark.parametrize("ms", MATRIX, ids=lambda ms: ms.name)
def test_extrapolated_pair_beats_one_solve_at_h(decay_runs, ms):
    scen = ms.scenario()
    run = decay_runs[ms]
    mask = run.spectral.times <= verification._CROSS_T / scen.params.level_gap
    extrapolated = np.max(np.abs(run.spectral.amplitude[mask] - run.vol.amplitude[mask]))
    assert extrapolated <= _EXTRAPOLATED_BOUND[ms.name]
    # The raw 2h solve of the pair.  A second-order scheme at h would be
    # about 4 times closer; the extrapolation must beat that as well.
    raw = run.pair[0]
    assert raw.times.tobytes() == run.spectral.times.tobytes()
    raw_2h = np.max(np.abs(run.spectral.amplitude[mask] - raw.amplitude[mask]))
    assert 4.0 * extrapolated < raw_2h


@pytest.mark.parametrize("ms", MATRIX, ids=lambda ms: ms.name)
def test_criterion_5_fails_on_a_pair_that_is_not_second_order(decay_runs, ms):
    assert verification._check_cross_route(decay_runs).passed
    # Swapped, the pair's errors grow as the step halves: e_4h/e_2h near 1/4.
    run = decay_runs[ms]
    swapped = replace(run, pair=run.pair[::-1])
    res = verification._check_cross_route({**decay_runs, ms: swapped})
    assert not res.passed
    ratio = re.fullmatch(
        re.escape(f"{ms.name}: step-halving ratio e_4h/e_2h ") + r"(\S+) outside \[3, 5\]",
        res.detail,
    ).group(1)
    assert 0.24 < float(ratio) < 0.26


def test_run_matrix_solves_each_row_once(tmp_path, monkeypatch):
    # Six pairs for the rows and criterion 6's six short solves; criterion 5
    # reads the rows' pairs and solves nothing.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_ide(*args, **kwargs)

    for module in (scenario, verification, volterra):
        monkeypatch.setattr(module, "solve_ide", counted)
    assert all(r.passed for r in run_matrix(tmp_path))
    assert len(calls) == 18


def test_every_criterion_detail_gives_its_margin(verify_run):
    details = {r.cid: r.detail for r in verify_run[0]}
    # Criterion 2's nearest threshold test is 3d g2 = 0.9 or 1.1 at gap 1.
    assert details[2].endswith("; min |gap - rhs| = 1.000e-01")
    for cid, label, bound in (
        (3, "max |mean - w^2| = ", 1e-2),
        (4, "on both routes: max ", 1e-2),
        (6, "max |P(t*) - predicted| = ", 1e-5),
    ):
        margin = float(re.search(re.escape(label) + r"(\S+)$", details[cid]).group(1))
        assert 0.0 < margin < bound, (cid, details[cid])
    low, high = re.search(
        r"step-halving ratios e_4h/e_2h in \[(\S+), (\S+)\] within \[3, 5\]$", details[5]
    ).groups()
    assert 3.0 < float(low) <= float(high) < 5.0, details[5]
    files, size = re.search(r"\((\d+) files, ([\d,]+) bytes\)$", details[9]).groups()
    assert files == "3" and int(size.replace(",", "")) > 0


_BOUND_ROWS = [m for m in MATRIX if m.has_eigenvalue]


@pytest.fixture(scope="module")
def bound_state_runs():
    """The bound-state rows with their spectral data; criterion 8 reads no series."""
    return {
        ms: DecayRun(build_spectral_data(ms.scenario().params), None, None, 0.0, pair=None)
        for ms in _BOUND_ROWS
    }


@pytest.mark.parametrize("ms", _BOUND_ROWS, ids=lambda ms: ms.name)
def test_oracle_finds_e0_from_its_own_bracket(monkeypatch, ms):
    params = ms.scenario().params
    calls = []
    k_regular = verification.k_regular
    monkeypatch.setattr(
        verification, "k_regular", lambda model, s: calls.append(1) or k_regular(model, s)
    )
    assert abs(verification._oracle_eigenvalue(params) - point_mass(params)[1]) <= 1e-15
    assert len(calls) <= 25


@pytest.mark.parametrize("ms", _BOUND_ROWS, ids=lambda ms: ms.name)
def test_criterion_8_fails_on_a_shifted_eigenvalue(bound_state_runs, ms):
    assert verification._check_eigenvalue_oracle(bound_state_runs).passed
    run = bound_state_runs[ms]
    shifted = replace(run, spec=replace(run.spec, eigenvalue=run.spec.eigenvalue + 1e-6))
    res = verification._check_eigenvalue_oracle({**bound_state_runs, ms: shifted})
    assert not res.passed
    assert f"{ms.name}: |e0 - oracle| = 1.00e-06 > 1e-8" in res.detail


def test_criterion_9_determinism(verify_run, tmp_path_factory):
    results1, out1 = verify_run
    res = _criterion(results1, 9)
    assert res.passed, res.detail
    # Full rerun into a fresh directory must reproduce every byte.
    out2 = tmp_path_factory.mktemp("verify-run-2")
    results2 = run_matrix(out2)
    assert [(r.cid, r.passed) for r in results2] == [(r.cid, r.passed) for r in results1]
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_expected_artifacts_written(verify_run):
    _, out = verify_run
    names = {p.name for p in out.iterdir()}
    assert "verify_report.json" in names
    for ms in MATRIX:
        for suffix in ("density.csv", "spectral.json", "spectral.csv", "volterra.csv", "decay.json"):
            assert f"{ms.name}_{suffix}" in names
    assert "verify-sweep-3d_sweep.csv" in names
    assert "verify-sweep-2d_sweep.csv" in names
