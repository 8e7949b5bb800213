from __future__ import annotations

import ast
import errno
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import leveldecay.cli as cli
import leveldecay.evolution as evolution
import leveldecay.scenario as scenario
import leveldecay.volterra as volterra
from leveldecay import (
    CouplingModel,
    KernelMismatchError,
    ModelParams,
    NonConvergenceError,
    NumericalError,
    amplitude_spectral,
    asymptotic_limit,
    build_spectral_data,
    default_step,
    solve_ide,
)
from leveldecay.artifacts import fmt, render_sweep_csv
from leveldecay.cli import main
from leveldecay.coupling import CouplingFamily
from leveldecay.scenario import ConfigError, parse_scenario_text, sweep_points
from leveldecay.spectrum import point_mass

BASE_CONFIG = """
# minimal valid scenario
name = demo
model.e1 = 0.0
model.e2 = 1.0
coupling.family = 3d-exp
coupling.g_sq = 2.0
coupling.lambda_cutoff = 1.0
"""

FLOAT_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def _write(tmp_path, text, name="scen.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_minimal_config(self):
        scen = parse_scenario_text(BASE_CONFIG)
        assert scen.name == "demo"
        assert scen.params.e1 == 0.0 and scen.params.e2 == 1.0
        assert scen.params.coupling.family is CouplingFamily.THREE_DIM_EXP
        assert scen.horizon is None  # run_decay takes 200 / gap
        assert scen.series_points == 2000
        assert scen.sweep is None

    def test_full_config(self):
        scen = parse_scenario_text(
            BASE_CONFIG
            + """
horizon = 80
series.points = 401
volterra.step = 0.02
output_dir = results
sweep.parameter = g_sq
sweep.values = 0.5, 0.9, 1.1, 2.0
"""
        )
        assert scen.horizon == 80.0
        assert scen.series_points == 401
        assert scen.volterra_step == 0.02
        assert scen.output_dir.name == "results"
        assert scen.sweep.values == (0.5, 0.9, 1.1, 2.0)
        assert scen.sweep.parameter == "g_sq"

    @pytest.mark.parametrize(
        "parameter, key",
        [("g_sq", "coupling.g_sq = 2.0"), ("lambda_cutoff", "coupling.lambda_cutoff = 1.0"),
         ("level_gap", "model.e2 = 1.0")],
    )
    def test_each_swept_model_is_the_config_with_its_value(self, parameter, key):
        values = (0.25, 1.0, 3.5)
        scen = parse_scenario_text(
            BASE_CONFIG.replace("model.e1 = 0.0", "model.e1 = 0.5")
            + f"sweep.parameter = {parameter}\nsweep.values = {', '.join(map(str, values))}\n"
        )
        assert scen.sweep.values == values
        points = sweep_points(scen.params, scen.sweep)
        for value, point in zip(values, points, strict=True):
            # level_gap sets e2 = e1 + value
            setting = 0.5 + value if parameter == "level_gap" else value
            line = f"{key.split(' = ')[0]} = {setting!r}"
            text = BASE_CONFIG.replace("model.e1 = 0.0", "model.e1 = 0.5").replace(key, line)
            assert point == point_mass(parse_scenario_text(text).params)

    @pytest.mark.parametrize(
        "mutation",
        [
            "",  # missing everything
            BASE_CONFIG.replace("name = demo", ""),
            BASE_CONFIG.replace("model.e2 = 1.0", "model.e2 = -1.0"),
            BASE_CONFIG.replace("3d-exp", "4d-exp"),
            BASE_CONFIG.replace("coupling.g_sq = 2.0", "coupling.g_sq = -1"),
            BASE_CONFIG + "nonsense_key = 3\n",
            BASE_CONFIG + "sweep.parameter = g_sq\n",  # values missing
            BASE_CONFIG + "sweep.parameter = mass\nsweep.values = 1\n",
            BASE_CONFIG + "horizon = -5\n",
            BASE_CONFIG + "model.e1 = oops\n",
            BASE_CONFIG + "name = twice\n",  # duplicate key
            BASE_CONFIG + "series.points = nan\n",
            BASE_CONFIG + "series.points = inf\n",
            BASE_CONFIG + "series.points = 2.9\n",
            BASE_CONFIG + "series.points = 1\n",
            BASE_CONFIG + "volterra.step = nan\n",
            BASE_CONFIG + "volterra.step = inf\n",
            BASE_CONFIG + "volterra.step = 0\n",
            BASE_CONFIG + "horizon = nan\n",
            BASE_CONFIG + "horizon = inf\n",
        ],
    )
    def test_invalid_configs_rejected(self, mutation):
        with pytest.raises(ConfigError):
            parse_scenario_text(mutation)

    def test_comments_and_blank_lines_ignored(self):
        scen = parse_scenario_text(BASE_CONFIG + "\n  # trailing comment\n\n")
        assert scen.name == "demo"


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every class derived from it, depth first."""
    return [cls, *(sub for child in cls.__subclasses__() for sub in _subclasses(child))]


# Every numerical error class of the package (all its modules are imported).
NUMERICAL_ERRORS = [
    cls for cls in _subclasses(NumericalError) if cls.__module__.startswith("leveldecay.")
]


class TestSpectrumCommand:
    def test_writes_artifacts(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 0
        density = (out / "demo_density.csv").read_text().splitlines()
        assert density[0] == "lambda,rho"
        for cell in density[1].split(","):
            assert FLOAT_RE.match(cell), cell
        summary = json.loads((out / "demo_spectral.json").read_text())
        assert set(summary) == {
            "e0", "weight", "threshold_lhs", "threshold_rhs",
            "normalization_defect", "degenerate",
        }
        assert summary["e0"] == pytest.approx(-0.2847792477167630, abs=1e-9)
        assert 0.0 < summary["weight"] < 1.0

    @pytest.mark.parametrize("e2", ["1e200", "40.0"])
    def test_gap_whose_square_overflows_is_a_numerical_error(self, tmp_path, e2):
        # At gap 1e200 rho is 0 everywhere: its denominator squares to inf.
        # Under warnings as errors, as CI runs the CLI, that is a normalization
        # failure (exit 2, one line), not an overflow warning's traceback.  At
        # gap 40 the level is a resonance narrower than the density table: a
        # normalization defect of 0.9986.  Neither leaves the --out it made.
        cfg = _write(tmp_path, BASE_CONFIG.replace("model.e2 = 1.0", f"model.e2 = {e2}"))
        src = str(Path(scenario.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "leveldecay.cli", "spectrum", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error"},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: numerical:") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_failed_run_keeps_an_existing_out_dir(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG.replace("model.e2 = 1.0", "model.e2 = 1e200"))
        out = tmp_path / "out"
        out.mkdir()
        # The directories made below it go again; the one that was there stays.
        for target in (out, out / "new" / "deeper"):
            assert main(["spectrum", str(cfg), "--out", str(target)]) == 2
            assert out.is_dir() and not any(out.iterdir())

    def test_divergent_threshold_encoded_as_null(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG.replace("3d-exp", "2d-exp"))
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "demo_spectral.json").read_text())
        assert summary["threshold_rhs"] is None

    def test_below_threshold_null_eigenvalue(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG.replace("coupling.g_sq = 2.0", "coupling.g_sq = 0.3"))
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "demo_spectral.json").read_text())
        assert summary["e0"] is None and summary["weight"] == 0.0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_CONFIG.replace("model.e2 = 1.0", "model.e2 = -2"))
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert not list(out.glob("*.csv"))

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["spectrum", str(tmp_path / "nope.cfg")]) == 3

    @pytest.mark.parametrize("command", ["spectrum", "decay", "sweep"])
    def test_uncertified_truncation_is_config_error(self, tmp_path, capsys, command):
        # At 3d g2 L = 1e20 the |V|^2 remainder beyond 60 cutoffs is about
        # 9e-7, far above its 1e-10 bound.
        text = BASE_CONFIG.replace("coupling.g_sq = 2.0", "coupling.g_sq = 1e20")
        if command == "sweep":
            text += "sweep.parameter = g_sq\nsweep.values = 0.5, 2.0\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "g_sq=1e+20" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("family", ["2d-exp", "3d-exp"])
    @pytest.mark.parametrize("cutoff", ["3.1e306", "1e307"])
    def test_cutoff_whose_truncation_overflows_is_config_error(
        self, tmp_path, capsys, family, cutoff
    ):
        # 60 cutoffs overflow to inf: no finite truncation point to certify.
        text = BASE_CONFIG.replace("3d-exp", family).replace("g_sq = 2.0", "g_sq = 1.0")
        cfg = _write(tmp_path, text.replace("lambda_cutoff = 1.0", f"lambda_cutoff = {cutoff}"))
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert f"cutoff={float(cutoff)!r}" in err and "x=inf" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line",
        [("spectrum", ""), ("decay", ""), ("decay", "horizon = 1.0\n")],
        ids=["spectrum", "decay", "decay-horizon"],
    )
    def test_level_gap_that_overflows_is_config_error(self, tmp_path, capsys, command, line):
        # e1 and e2 are finite, but e2 - e1 = 2e308 overflows to inf; the
        # default step 0.01 / gap would then be 0, the horizon 200 / gap 0.
        text = BASE_CONFIG.replace("model.e1 = 0.0", "model.e1 = -1e308").replace(
            "model.e2 = 1.0", "model.e2 = 1e308"
        )
        cfg = _write(tmp_path, text + line)
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: config: level gap e2 - e1 must be finite, got e1=-1e+308, e2=1e+308\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_subnormal_gap_needs_a_horizon_only_for_decay(self, tmp_path, capsys):
        # At L = gap = 1e-320 the default horizon 200 / gap is inf.  Only
        # decay reads a horizon: spectrum and a g_sq sweep give the weights of
        # L = gap = 1, and decay is a config error before any work.
        weights = {}
        for cut in ("1e-320", "1.0"):
            text = BASE_CONFIG.replace("model.e2 = 1.0", f"model.e2 = {cut}").replace(
                "lambda_cutoff = 1.0", f"lambda_cutoff = {cut}"
            )
            sweep = "sweep.parameter = g_sq\nsweep.values = 0.5, 2, 4\n"
            cfg = _write(tmp_path, text + sweep, f"{cut}.cfg")
            out = tmp_path / cut
            assert main(["spectrum", str(cfg), "--out", str(out)]) == 0
            assert main(["sweep", str(cfg), "--out", str(out)]) == 0
            summary = json.loads((out / "demo_spectral.json").read_text())
            rows = (out / "demo_sweep.csv").read_text().splitlines()
            weights[cut] = summary["weight"], [row.split(",")[4] for row in rows]
        assert weights["1e-320"] == weights["1.0"]
        out = tmp_path / "decay"
        assert main(["decay", str(tmp_path / "1e-320.cfg"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: the horizon (default") and err.count("\n") == 1
        assert "--horizon" in err and "horizon =" in err
        assert not out.exists()

    def test_uncertified_sweep_value_is_config_error(self, tmp_path, capsys):
        text = BASE_CONFIG + "sweep.parameter = g_sq\nsweep.values = 0.5, 1e20, 2.0\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "g_sq=1e+20" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/b", "../escaped", ".", "..", "a\0b"])
    def test_name_that_is_not_a_file_name_is_config_error(self, tmp_path, capsys, name):
        # Every artifact path is <out>/<name>_<kind>.
        cfg = _write(tmp_path, BASE_CONFIG.replace("name = demo", f"name = {name}"))
        out = tmp_path / "run" / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: name") and err.count("\n") == 1
        assert list(tmp_path.rglob("*")) == [cfg]

    @pytest.mark.parametrize("name", ["demo", "i00000", "a.b", "..x", "x.."])
    def test_plain_file_names_parse(self, name):
        text = BASE_CONFIG.replace("name = demo", f"name = {name}")
        assert parse_scenario_text(text).name == name

    @pytest.mark.parametrize("name", ["a" * 242, "\u00e9" * 121], ids=["ascii", "two-byte"])
    def test_name_too_long_for_a_file_name_is_config_error(self, tmp_path, capsys, name):
        # <name>_spectral.json, the longest artifact name, is 256 UTF-8 bytes.
        cfg = _write(tmp_path, BASE_CONFIG.replace("name = demo", f"name = {name}"))
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: name too long") and err.count("\n") == 1
        assert "256 UTF-8 bytes" in err
        assert not out.exists()

    def test_longest_name_that_fits_writes(self, tmp_path):
        name = "a" * 241
        cfg = _write(tmp_path, BASE_CONFIG.replace("name = demo", f"name = {name}"))
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 0
        assert (out / f"{name}_spectral.json").is_file()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_output_directory_that_cannot_be_made_is_config_error(
        self, tmp_path, capsys, below
    ):
        taken = _write(tmp_path, "not a directory", name="taken")
        out = taken / "sub" if below else taken
        cfg = _write(tmp_path, BASE_CONFIG)
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot make output directory")
        assert repr(str(out)) in err and err.count("\n") == 1
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("command", ["spectrum", "decay", "sweep"])
    def test_failing_artifact_write_exits_three(self, tmp_path, capsys, monkeypatch, command):
        # Tests may run as root, so the write is made to fail, not the directory.
        text = BASE_CONFIG + "sweep.parameter = g_sq\nsweep.values = 0.5, 2.0\n"
        cfg = _write(tmp_path, text)

        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device", str(self))

        monkeypatch.setattr(Path, "write_text", full)
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: output: [Errno 28] No space left on device")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cls", NUMERICAL_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_numerical_error_exits_two(self, tmp_path, capsys, monkeypatch, cls):
        args = ("refused", 0.0, 0.0) if cls is NonConvergenceError else ("refused",)

        def refuse(params):
            raise cls(*args)

        monkeypatch.setattr(cli, "build_spectral_data", refuse)
        out = tmp_path / "out"
        assert main(["spectrum", str(_write(tmp_path, BASE_CONFIG)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "refused" in err
        assert err.count("\n") == 1

    def test_the_numerical_errors_are_all_found(self):
        assert {cls.__name__ for cls in NUMERICAL_ERRORS} >= {
            "NumericalError", "NonConvergenceError",
            "BracketFailureError", "NormalizationFailureError", "ThresholdMarginalError",
            "ClosedFormMismatchError", "KernelMismatchError",
            "OscillatoryBudgetExceededError", "ProbabilityBoundError",
        }

    def test_determinism_across_runs(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", str(cfg), "--out", str(out1)]) == 0
        assert main(["spectrum", str(cfg), "--out", str(out2)]) == 0
        for name in ("demo_density.csv", "demo_spectral.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


DECAY_CONFIG = BASE_CONFIG + "horizon = 10\nseries.points = 51\n"
OVER_BUDGET_CONFIG = BASE_CONFIG.replace("model.e2 = 1.0", "model.e2 = 1e-3").replace(
    "coupling.g_sq = 2.0", "coupling.g_sq = 0.5"
)


class TestDecayCommand:
    def test_writes_both_series_and_summary(self, tmp_path):
        cfg = _write(tmp_path, DECAY_CONFIG)
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out)]) == 0
        spectral = (out / "demo_spectral.csv").read_text().splitlines()
        volterra = (out / "demo_volterra.csv").read_text().splitlines()
        assert spectral[0] == volterra[0] == "t,re_c,im_c,p"
        assert len(spectral) == len(volterra) == 52
        # identical time columns
        t_s = [line.split(",")[0] for line in spectral[1:]]
        t_v = [line.split(",")[0] for line in volterra[1:]]
        assert t_s == t_v
        summary = json.loads((out / "demo_decay.json").read_text())
        assert set(summary) == {"p_infinity", "gamma_estimate", "max_deviation_vs_volterra"}
        assert summary["max_deviation_vs_volterra"] <= 1e-3
        assert summary["p_infinity"] == pytest.approx(0.2016841067692331, abs=1e-8)

    def test_zero_coupling_stays_excited(self, tmp_path):
        cfg = _write(
            tmp_path, DECAY_CONFIG.replace("coupling.g_sq = 2.0", "coupling.g_sq = 0.0")
        )
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out)]) == 0
        for name in ("demo_spectral.csv", "demo_volterra.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert all(float(r.split(",")[3]) == pytest.approx(1.0, abs=1e-9) for r in rows)
        summary = json.loads((out / "demo_decay.json").read_text())
        assert summary["p_infinity"] == 1.0

    def test_two_dim_survives_with_positive_limit(self, tmp_path):
        cfg = _write(
            tmp_path,
            DECAY_CONFIG.replace("3d-exp", "2d-exp").replace(
                "coupling.g_sq = 2.0", "coupling.g_sq = 0.5"
            ),
        )
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "demo_decay.json").read_text())
        assert summary["p_infinity"] > 0.0

    def test_two_dim_eigenvalue_at_nextafter_edge(self, tmp_path, capsys):
        # e0 = nextafter(e1): the edge distance underflows, and the near-edge
        # bump, seeded at s0 = exp(ln s0) = 0, has no seed.
        cfg = _write(
            tmp_path,
            BASE_CONFIG.replace("3d-exp", "2d-exp").replace(
                "coupling.g_sq = 2.0", "coupling.g_sq = 1e-3"
            ),
        )
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
        summary = json.loads((out / "demo_decay.json").read_text())
        assert summary["max_deviation_vs_volterra"] <= 1e-3
        assert summary["p_infinity"] == 0.0  # w underflows at a subnormal distance
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 0
        spectral = json.loads((out / "demo_spectral.json").read_text())
        assert spectral["normalization_defect"] <= 1e-6

    @pytest.mark.parametrize("config, panels", [
        (OVER_BUDGET_CONFIG, 1035060),
        (OVER_BUDGET_CONFIG.replace("model.e2 = 1e-3", "model.e2 = 0.003").replace(
            "coupling.g_sq = 0.5", "coupling.g_sq = 0.001"
        ), 265458),
    ], ids=["gap 1e-3, g2 0.5", "gap 0.003, g2 0.001"])
    def test_transform_budget_fails_before_the_solve(
        self, tmp_path, capsys, monkeypatch, config, panels
    ):
        # At the default horizon 200 / gap the transform needs more panels
        # than its budget of 125,000.  The stub records its calls, so a
        # solve started before the transform raised would show.
        calls = []
        monkeypatch.setattr(scenario, "solve_ide", lambda *a, **kw: calls.append(a))
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, config)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "budget" in err
        assert f"needs {panels} panels" in err and "--horizon" in err
        assert not list(out.glob("*.csv"))
        assert calls == []

    @pytest.mark.parametrize("g_sq, step", [("2.0", "2.0"), ("20.0", "0.5")])
    def test_volterra_overshoot_exits_two(self, tmp_path, capsys, g_sq, step):
        # Steps this coarse overshoot |y| <= 1 past the solver's budget.
        text = BASE_CONFIG.replace("coupling.g_sq = 2.0", f"coupling.g_sq = {g_sq}")
        text += f"horizon = 50\nseries.points = 3\nvolterra.step = {step}\n"
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, text)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: volterra probability leaves")
        assert err.count("\n") == 1
        assert not list(out.glob("*.csv"))

    def test_extrapolated_overshoot_names_the_pair_and_the_fix(
        self, tmp_path, capsys, monkeypatch
    ):
        # v_2h = 1 and v_4h = -1 for t > 0 each keep |y| <= 1, but their
        # extrapolation (4 v_2h - v_4h) / 3 is 5/3 for t > 0.
        def solve(*args, **kwargs):
            series = solve_ide(*args, **kwargs)
            sign = -1.0 if solves else 1.0
            solves.append(kwargs["step"])
            amplitude = np.where(series.times > 0.0, sign, 1.0).astype(complex)
            return replace(series, amplitude=amplitude)

        solves = []
        monkeypatch.setattr(scenario, "solve_ide", solve)
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, DECAY_CONFIG)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: volterra probability leaves")
        assert "(4 v_2h - v_4h)/3" in err
        assert all(fix in err for fix in ("--horizon", "horizon =", "volterra.step"))
        assert err.count("\n") == 1 and len(solves) == 2
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "line, argv",
        [("series.points = 1e20", []), ("volterra.step = 1e-300", []),
         ("volterra.step = 5e-324", []), ("", ["--horizon", "1e300"])],
        ids=["points", "step", "subnormal-step", "horizon"],
    )
    def test_oversized_solver_grid_is_config_error(self, tmp_path, capsys, line, argv):
        cfg = _write(tmp_path, BASE_CONFIG + line + "\n")
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out), *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert all(name in err for name in ("--horizon", "series.points", "volterra.step"))
        assert not list(out.glob("*.csv"))

    def test_step_guard_counts_the_ceiled_steps(self, tmp_path, capsys, monkeypatch):
        # dt / h = 100.4: the grid takes 4 * ceil(100.4 / 4) = 104 steps of
        # h per output interval, 1,040 in all, above a bound of 1,005 that
        # 10 * 100.4 would pass.
        def solve(*args, **kwargs):
            calls.append(args)
            raise NumericalError("solve started")

        calls = []
        monkeypatch.setattr(scenario, "_MAX_STEPS", 1005)
        monkeypatch.setattr(scenario, "solve_ide", solve)
        text = BASE_CONFIG + "horizon = 10.04\nseries.points = 11\nvolterra.step = 0.01\n"
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, text)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: the time-domain solve needs 1040 steps")
        assert calls == []

    @pytest.mark.parametrize(
        "lines, argv",
        [("horizon = 1e-323\n", []),
         ("series.points = 3\n", ["--horizon", "1e-310"]),
         ("series.points = 3\n", ["--horizon", "2e-308"]),
         ("volterra.step = 1e9\n", ["--horizon", "1e10"])],
        ids=["step-underflows", "width-overflows", "width-overflows-at-2e-308", "end-overflows"],
    )
    def test_grid_without_a_transform_lattice_is_config_error(
        self, tmp_path, capsys, monkeypatch, lines, argv
    ):
        # dt = 0, pi / (Q dtau) = inf and L horizon = inf (gap = L = 1e300):
        # each refused before the density table is built.
        monkeypatch.setattr(scenario, "build_spectral_data", None)
        text = BASE_CONFIG + lines
        if "1e10" in argv:
            text = text.replace("e2 = 1.0", "e2 = 1e300").replace("cutoff = 1.0", "cutoff = 1e300")
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, text)), "--out", str(out), *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: the spectral transform cannot represent")
        assert err.count("\n") == 1
        assert "--horizon (horizon =)" in err and "series.points" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, argv",
        [("series.points = 3\n", ["--horizon", "4e-308"]),
         ("horizon = 1e-28\nvolterra.step = 1e300\n", [])],
        ids=["finite-width", "ratio-underflows"],
    )
    def test_grid_with_a_transform_lattice_runs(self, tmp_path, lines, argv):
        # pi / (Q dtau) = 1.57e308 is finite; dt / h = 5e-332 underflows to
        # 0, and the grid still takes 4 steps per output interval.
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, BASE_CONFIG + lines)), "--out", str(out),
                     *argv]) == 0

    def test_initial_probability_off_one_exits_two(self, tmp_path, capsys, monkeypatch):
        points = evolution._amplitude_points
        monkeypatch.setattr(
            evolution, "_amplitude_points", lambda spec, times: 0.5 * points(spec, times)
        )
        out = tmp_path / "out"
        text = BASE_CONFIG + "horizon = 10\nseries.points = 11\n"
        assert main(["decay", str(_write(tmp_path, text)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: P(0) = ") and err.count("\n") == 1
        assert not out.exists()

    def test_deviation_above_the_gate_writes_then_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            cli, "run_decay", lambda scen: replace(scenario.run_decay(scen), deviation=0.5)
        )
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, DECAY_CONFIG)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: numerical: cross-method deviation 0.5 exceeds 0.01\n"
        summary = json.loads((out / "demo_decay.json").read_text())
        assert summary["max_deviation_vs_volterra"] == 0.5


def _refuse_kernel(family):
    raise KernelMismatchError(f"{family.value} kernel refused")


class TestDecayRoutesInOrder:
    """``run_decay`` runs the transform, then the 2h and the 4h solves, on the
    calling thread."""

    @staticmethod
    def _serial(scen):
        # The two routes on run_decay's grid, called directly: the transform,
        # and the (4 v_2h - v_4h) / 3 extrapolation of the pair of solves.
        spec = build_spectral_data(scen.params)
        dt = scen.horizon / (scen.series_points - 1)
        per_output = 4 * math.ceil(dt / (4 * default_step(scen.params)))
        step = dt / per_output
        times = np.arange(0, (scen.series_points - 1) * per_output + 1, per_output) * step
        v2 = solve_ide(scen.params, horizon=scen.horizon, step=2 * step,
                       stride=per_output // 2)
        v4 = solve_ide(scen.params, horizon=scen.horizon, step=4 * step,
                       stride=per_output // 4)
        return amplitude_spectral(spec, times), (4 * v2.amplitude - v4.amplitude) / 3

    @pytest.mark.parametrize("family", ["2d-exp", "3d-exp"])
    def test_series_are_bit_identical_to_the_serial_routes(self, family):
        scen = parse_scenario_text(DECAY_CONFIG.replace("3d-exp", family))
        run = scenario.run_decay(scen)
        spectral, vol = self._serial(scen)
        for field in ("times", "amplitude", "probability"):
            assert getattr(run.spectral, field).tobytes() == getattr(spectral, field).tobytes()
        assert run.vol.times.tobytes() == spectral.times.tobytes()
        assert run.vol.amplitude.tobytes() == vol.tobytes()
        assert run.vol.probability.tobytes() == (np.abs(vol) ** 2).tobytes()
        assert run.deviation == float(np.max(np.abs(spectral.amplitude - vol)))

    def test_transform_then_solve_on_the_calling_thread(self, monkeypatch):
        calls = []

        def spy(route):
            def call(*args, **kwargs):
                calls.append((route.__name__, threading.get_ident(), kwargs.get("step")))
                return route(*args, **kwargs)
            return call

        monkeypatch.setattr(scenario, "amplitude_spectral", spy(amplitude_spectral))
        monkeypatch.setattr(scenario, "solve_ide", spy(solve_ide))
        scen = parse_scenario_text(DECAY_CONFIG)
        run = scenario.run_decay(scen)
        caller = threading.get_ident()
        h = 10 / 50 / 20  # dt / per_output: horizon 10, 51 points, step 0.01
        assert calls == [
            ("amplitude_spectral", caller, None),
            ("solve_ide", caller, 2 * h),
            ("solve_ide", caller, 4 * h),
        ]
        # The run keeps the pair it solved: each equals its direct solve.
        for series, f in zip(run.pair, (2, 4), strict=True):
            direct = solve_ide(scen.params, horizon=scen.horizon, step=f * h, stride=20 // f)
            assert series.times.tobytes() == direct.times.tobytes()
            assert series.amplitude.tobytes() == direct.amplitude.tobytes()

    def test_steps_per_output_round_up_to_a_multiple_of_four(self, monkeypatch):
        # Gap 0.25 at L = 1 and the default horizon 800 over 2000 points:
        # dt / h = 40.02, whose ceiling 41 does not split into four, so each
        # output interval takes 44 steps of h, 22 of 2h and 11 of 4h.
        text = BASE_CONFIG.replace("model.e2 = 1.0", "model.e2 = 0.25")
        solves = []

        def spy(*args, **kwargs):
            series = solve_ide(*args, **kwargs)
            solves.append((kwargs["step"], kwargs["stride"], series.times))
            return series

        monkeypatch.setattr(scenario, "solve_ide", spy)
        run = scenario.run_decay(parse_scenario_text(text.replace("g_sq = 2.0", "g_sq = 0.1")))
        h = 800 / 1999 / 44
        assert [(step, stride) for step, stride, _ in solves] == [(2 * h, 22), (4 * h, 11)]
        assert run.spectral.times[-1] == pytest.approx(800.0)  # the default 200 / gap
        for _, _, times in solves:
            assert times.tobytes() == run.spectral.times.tobytes()

    def test_error_in_the_solve_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(volterra, "_self_check", _refuse_kernel)
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, DECAY_CONFIG)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "kernel refused" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("outcome", ["success", "solve error", "budget error"])
    def test_no_thread_outlives_the_call(self, tmp_path, monkeypatch, outcome):
        config, expected = DECAY_CONFIG, 0
        if outcome == "solve error":
            monkeypatch.setattr(volterra, "_self_check", _refuse_kernel)
            expected = 2
        elif outcome == "budget error":
            # Stubbed, so a solve started before the check is not 2e7 steps.
            monkeypatch.setattr(scenario, "solve_ide", lambda *a, **kw: None)
            config, expected = OVER_BUDGET_CONFIG, 2
        before = threading.active_count()
        out = tmp_path / "out"
        assert main(["decay", str(_write(tmp_path, config)), "--out", str(out)]) == expected
        assert threading.active_count() == before


class TestSweepCommand:
    SWEEP_CONFIG = BASE_CONFIG + "sweep.parameter = g_sq\nsweep.values = 0.5, 0.9, 1.1, 2.0\n"

    def test_threshold_pattern(self, tmp_path):
        cfg = _write(tmp_path, self.SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        rows = (out / "demo_sweep.csv").read_text().splitlines()
        assert rows[0] == "sweep_value,threshold_rhs,exists,e0,weight,p_infinity"
        exists = [r.split(",")[2] for r in rows[1:]]
        assert exists == ["false", "false", "true", "true"]

    def test_two_dim_always_exists(self, tmp_path):
        cfg = _write(
            tmp_path,
            self.SWEEP_CONFIG.replace("3d-exp", "2d-exp").replace(
                "sweep.values = 0.5, 0.9, 1.1, 2.0", "sweep.values = 0.001, 0.1, 1.0"
            ),
        )
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        rows = (out / "demo_sweep.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "true" for r in rows)
        assert all(r.split(",")[1] == "inf" for r in rows)

    def test_marginal_point_skipped_with_note(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            self.SWEEP_CONFIG.replace("sweep.values = 0.5, 0.9, 1.1, 2.0", "sweep.values = 1.0"),
        )
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert "skipped" in capsys.readouterr().err
        rows = (out / "demo_sweep.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[2] == "skipped"
        assert rows[0].split(",")[3] == ""

    def test_jobs_one_writes_the_same_bytes_as_no_flag(self, tmp_path):
        cfg = _write(tmp_path, self.SWEEP_CONFIG)
        out1, out2 = tmp_path / "default", tmp_path / "jobs1"
        assert main(["sweep", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", str(cfg), "--out", str(out2), "--jobs", "1"]) == 0
        assert (out1 / "demo_sweep.csv").read_bytes() == (out2 / "demo_sweep.csv").read_bytes()

    def test_jobs_above_one_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--jobs", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: --jobs") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_without_spec_rejected(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "e1, e2, values, message",
        [("1e17", "1e20", "1, 2", "e2 must exceed e1"),
         ("1e308", "1.5e308", "1e308", "level energies must be finite")],
        ids=["collapse", "overflow"],
    )
    def test_level_gap_value_off_the_float_grid_is_config_error(
        self, tmp_path, capsys, e1, e2, values, message
    ):
        # e1 + v rounds back to e1 = 1e17 (v = 1, 2 are below its half-ulp of
        # 8), or overflows to inf: neither is a model with e2 > e1.
        text = BASE_CONFIG.replace("model.e1 = 0.0", f"model.e1 = {e1}").replace(
            "model.e2 = 1.0", f"model.e2 = {e2}"
        )
        cfg = _write(tmp_path, text + f"sweep.parameter = level_gap\nsweep.values = {values}\n")
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {message}") and err.count("\n") == 1
        assert not out.exists()

    # Each message is the one a sweep refused with when it built a model per
    # value, frozen in full.
    @pytest.mark.parametrize(
        "e2, parameter, values, message",
        [
            # Two values fail the tail check: the first in the list is named,
            # not the largest.
            ("1.0", "g_sq", "0.5, 1e20, 1e21",
             "coupling g_sq=1e+20, cutoff=1.0: truncated at x=60.0, remainder "
             "8.902452608741462e-07; x must be finite, the remainder <= 1e-10"),
            # The gap over the cutoff underflows at the second value.
            ("1e-300", "lambda_cutoff", "1.0, 1e30",
             "level gap 1e-300 over the cutoff underflows to 0"),
            # 60 L overflows: no finite point to certify.
            ("1.0", "lambda_cutoff", "1.0, 1e307",
             "coupling g_sq=2.0, cutoff=1e+307: truncated at x=inf, since 60.0 "
             "cutoffs overflow; x must be finite"),
        ],
        ids=["g_sq-first-failing", "cutoff-gap-underflow", "cutoff-cut-overflow"],
    )
    def test_refused_sweep_value_keeps_its_message(
        self, tmp_path, capsys, e2, parameter, values, message
    ):
        text = BASE_CONFIG.replace("model.e2 = 1.0", f"model.e2 = {e2}")
        cfg = _write(tmp_path, text + f"sweep.parameter = {parameter}\nsweep.values = {values}\n")
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, g_sq",
        [(CouplingFamily.THREE_DIM_EXP, 0.0), (CouplingFamily.THREE_DIM_EXP, 0.5),
         (CouplingFamily.THREE_DIM_EXP, 2.0), (CouplingFamily.TWO_DIM_EXP, 0.0),
         (CouplingFamily.TWO_DIM_EXP, 0.1)],
    )
    def test_row_and_record_report_one_point_mass(self, family, g_sq):
        params = ModelParams(0.0, 1.0, CouplingModel(family, g_sq, 1.0))
        point = point_mass(params)
        _, e0, weight = point
        spec = build_spectral_data(params)
        row = render_sweep_csv([g_sq], [point]).splitlines()[1].split(",")
        assert weight == spec.weight and row[4] == fmt(spec.weight)
        assert row[5] == fmt(asymptotic_limit(spec))
        if g_sq == 0.0:
            # e2 is no eigenvalue below the edge: the sweep's e0 stays empty.
            assert row[3] == ""
        else:
            assert e0 == spec.eigenvalue
            assert row[3] == ("" if e0 is None else fmt(e0))

    def test_weight_reported_as_data_on_two_dim_grid(self):
        scen = parse_scenario_text(
            BASE_CONFIG.replace("3d-exp", "2d-exp")
            + "sweep.parameter = g_sq\nsweep.values = 0.1, 0.3, 0.6\n"
        )
        weights = [weight for _, _, weight in sweep_points(scen.params, scen.sweep)]
        assert all(0.0 < w < 1.0 for w in weights)
        # observed monotone increase; reported as data, never asserted in-library
        assert weights == sorted(weights)


class TestVerifyCommand:
    # run_matrix itself is exercised (twice) by the acceptance suite; here we
    # only check the command wiring: printed lines, report path, exit codes.
    def _fake_results(self, all_pass):
        from leveldecay.verification import CriterionResult

        return [
            CriterionResult(1, "alpha", True, "ok"),
            CriterionResult(2, "beta", all_pass, "ok" if all_pass else "broken"),
        ]

    def test_prints_lines_and_exits_zero(self, tmp_path, capsys, monkeypatch):
        import leveldecay.verification as verification

        monkeypatch.setattr(
            verification, "run_matrix", lambda out_dir: self._fake_results(True)
        )
        assert main(["verify", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "criterion 1 [PASS] alpha" in out
        assert "criterion 2 [PASS] beta" in out

    def test_failing_criterion_exits_two(self, tmp_path, capsys, monkeypatch):
        import leveldecay.verification as verification

        monkeypatch.setattr(
            verification, "run_matrix", lambda out_dir: self._fake_results(False)
        )
        assert main(["verify", "--out", str(tmp_path)]) == 2
        assert "criterion 2 [FAIL] beta" in capsys.readouterr().out

    def test_verification_does_not_import_cli(self):
        code = "import sys, leveldecay.verification; print('leveldecay.cli' in sys.modules)"
        src = str(Path(scenario.__file__).parents[1])  # the package's own root
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "False"

    def test_cli_loads_only_the_scipy_modules_it_needs(self):
        # scipy.special (Ei, E1) alone; a public subpackage beyond it, such
        # as scipy.fft or scipy.interpolate, adds its import time to every
        # process.  No process pool or thread pool either:
        # multiprocessing costs about 5 ms of import.  concurrent.futures
        # itself comes in through scipy.
        code = (
            "import sys, leveldecay.cli\n"
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
            "    if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))\n"
            "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures.process',\n"
            "                           'concurrent.futures.thread')\n"
            "    if m in sys.modules))"
        )
        src = str(Path(scenario.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        scipy_line, pool_line = done.stdout.split("\n")[:2]
        assert set(scipy_line.split()) - {"version"} == {"special"}
        assert pool_line == ""


class TestFlags:
    def test_horizon_and_tol_overrides(self, tmp_path):
        cfg = _write(tmp_path, DECAY_CONFIG)
        out = tmp_path / "out"
        rc = main(["decay", str(cfg), "--out", str(out), "--horizon", "5"])
        assert rc == 0
        rows = (out / "demo_spectral.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[0]) == pytest.approx(5.0)

    @pytest.mark.parametrize("horizon", ["nan", "inf", "0", "-5"])
    def test_horizon_must_be_positive_and_finite(self, tmp_path, capsys, horizon):
        cfg = _write(tmp_path, DECAY_CONFIG)
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out), "--horizon", horizon]) == 3
        assert capsys.readouterr().err.startswith("error: config: --horizon")
        assert not out.exists()

    def test_level_gap_sweep(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE_CONFIG.replace("coupling.g_sq = 2.0", "coupling.g_sq = 1.5")
            + "sweep.parameter = level_gap\nsweep.values = 1.2, 1.8\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        rows = (out / "demo_sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["true", "false"]


class TestInputSurface:
    """Every setting is read: unread keys and flags are usage errors (exit 3)."""

    @pytest.mark.parametrize(
        "line",
        ["quadrature.rel_tol = 1e-3", "quadrature.pv_window = 0.01",
         "quadrature.max_subdivisions = 1", "quadrature.tail_cut = 50",
         "quadrature.abs_tol = 1e-9"],
    )
    def test_removed_quadrature_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = _write(tmp_path, BASE_CONFIG + line + "\n")
        out = tmp_path / "out"
        assert main(["spectrum", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "unknown keys" in err and line.split(" = ")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--horizon", "5"],
            ["spectrum", "scen.cfg", "--jobs", "2"],
            ["decay", "scen.cfg", "--jobs", "2"],
            ["sweep", "scen.cfg", "--horizon", "5"],
            ["decay", "scen.cfg", "--bogus"],
            ["spectrum", "scen.cfg", "--tol", "1e-9"],
            ["decay", "scen.cfg", "--tol", "1e-9"],
            ["sweep", "scen.cfg", "--tol", "1e-9"],
            ["decay"],  # the config argument is missing
        ],
    )
    def test_usage_errors_exit_three(self, capsys, argv):
        assert main(argv) == 3
        assert "usage: leveldecay" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decay", "--help"])
        assert exc.value.code == 0
        assert "--horizon" in capsys.readouterr().out

    def test_each_command_has_only_the_flags_it_reads(self):
        assert _parser_flags() == {
            "verify": {"--out"},
            "spectrum": {"--out"},
            "decay": {"--out", "--horizon"},
            "sweep": {"--out", "--jobs"},
        }

    def test_readme_matches_the_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = {
            m.group(1): set(re.findall(r"`(--[a-z]+)`", m.group(2)))
            for m in re.finditer(r"^\| `(\w+)` +\|(.*)\|$", readme, re.MULTILINE)
        }
        assert table == _parser_flags()
        example = readme.split("### Scenario config format", 1)[1].split("```")[1]
        keys = set(re.findall(r"^#? *([a-z_][a-z0-9_.]*) *=", example, re.MULTILINE))
        assert keys == _parser_keys()
        assert len(keys) == 12

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library entry points", 1)[1].split("```python\n", 1)[1]
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
        printed = [float(x) for x in capsys.readouterr().out.split()]
        assert len(printed) == 3 and all(map(math.isfinite, printed))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, jobs):
        cfg = _write(tmp_path, TestSweepCommand.SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--jobs", jobs]) == 3
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()


def _parser_flags() -> dict[str, set[str]]:
    """Each subcommand's option strings, without --help."""
    from argparse import _SubParsersAction

    sub = next(a for a in cli._parser()._actions if isinstance(a, _SubParsersAction))
    return {
        name: {
            opt for action in cmd._actions for opt in action.option_strings
        } - {"-h", "--help"}
        for name, cmd in sub.choices.items()
    }


def _parser_keys() -> set[str]:
    """The config keys ``parse_scenario_text`` reads: the literal key of every
    ``table.pop(key, ...)`` and ``_take_float(table, key, ...)`` call."""
    tree = ast.parse(inspect.getsource(scenario.parse_scenario_text))
    keys = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "pop":
            key = node.args[0]
        elif isinstance(func, ast.Name) and func.id == "_take_float":
            key = node.args[1]
        else:
            continue
        if isinstance(key, ast.Constant):
            keys.add(key.value)
    return keys
