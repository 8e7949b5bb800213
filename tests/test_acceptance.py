"""Acceptance suite: runs the built-in verification matrix and asserts every
criterion at its stated tolerance, printing one pass/fail line per criterion.

The matrix itself (six scenarios, nine criteria) lives in
leveldecay.verification and is the same code path exercised by the
``leveldecay verify`` command.  Criterion 9 additionally reruns the whole
matrix into a second directory and compares every artifact byte for byte.
"""

from __future__ import annotations

import pytest

from leveldecay import verification
from leveldecay.spectrum import find_eigenvalue
from leveldecay.verification import MATRIX, run_matrix


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify-run-1")
    return run_matrix(out), out


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


@pytest.mark.parametrize("name", ["2d-moderate", "3d-above-moderate"])
def test_oracle_seeded_at_e0_and_falls_back_from_a_wrong_one(monkeypatch, name):
    params = next(m for m in MATRIX if m.name == name).scenario().params
    e0 = find_eigenvalue(params)
    calls = []
    oracle_k = verification._oracle_k
    monkeypatch.setattr(
        verification, "_oracle_k", lambda *args: calls.append(1) or oracle_k(*args)
    )
    assert abs(verification._oracle_eigenvalue(params, e0) - e0) <= 1e-13
    assert len(calls) <= 10  # the seed held: the wide bracket takes 18
    # No sign change across e0 + 1e-6 +- 1e-9: the wide bracket finds the
    # oracle's own root, so criterion 8 would see the 1e-6 error.
    assert abs(verification._oracle_eigenvalue(params, e0 + 1e-6) - e0) <= 1e-13


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
    for scenario in MATRIX:
        for suffix in ("density.csv", "spectral.json", "spectral.csv", "volterra.csv", "decay.json"):
            assert f"{scenario.name}_{suffix}" in names
    assert "verify-sweep-3d_sweep.csv" in names
    assert "verify-sweep-2d_sweep.csv" in names
