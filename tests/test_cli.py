from __future__ import annotations

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leveldecay.cli as cli
import leveldecay.scenario as scenario
from leveldecay.cli import main
from leveldecay.coupling import CouplingFamily
from leveldecay.scenario import ConfigError, parse_scenario_text, sweep_models, sweep_point

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
        assert scen.horizon == pytest.approx(200.0)  # default 200 / gap
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
        assert scen.sweep.parameter == "g_sq"
        assert scen.sweep.values == (0.5, 0.9, 1.1, 2.0)

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
        ],
    )
    def test_invalid_configs_rejected(self, mutation):
        with pytest.raises(ConfigError):
            parse_scenario_text(mutation)

    def test_comments_and_blank_lines_ignored(self):
        scen = parse_scenario_text(BASE_CONFIG + "\n  # trailing comment\n\n")
        assert scen.name == "demo"


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

    def test_uncertified_sweep_value_is_config_error(self, tmp_path, capsys):
        text = BASE_CONFIG + "sweep.parameter = g_sq\nsweep.values = 0.5, 1e20, 2.0\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "g_sq=1e+20" in err
        assert not out.exists()

    def test_determinism_across_runs(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", str(cfg), "--out", str(out1)]) == 0
        assert main(["spectrum", str(cfg), "--out", str(out2)]) == 0
        for name in ("demo_density.csv", "demo_spectral.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


DECAY_CONFIG = BASE_CONFIG + "horizon = 10\nseries.points = 51\n"


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
        # e0 = nextafter(e1): the edge distance is subnormal, and so were the
        # near-edge table seeds placed around it.
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

    def test_transform_budget_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # At gap 1e-3 the default horizon asks for 2e7 solver steps, and the
        # transform at t = 2e5 for 4.1e6 panels against a budget of 5e5.
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ide ran before the transform budget was checked")

        monkeypatch.setattr(scenario, "solve_ide", no_solve)
        cfg = _write(
            tmp_path,
            BASE_CONFIG.replace("model.e2 = 1.0", "model.e2 = 1e-3").replace(
                "coupling.g_sq = 2.0", "coupling.g_sq = 0.5"
            ),
        )
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "budget" in err
        assert "--horizon" in err
        assert not list(out.glob("*.csv"))


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

    def test_parallel_matches_serial(self, tmp_path):
        cfg = _write(tmp_path, self.SWEEP_CONFIG)
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "demo_sweep.csv").read_bytes() == (out2 / "demo_sweep.csv").read_bytes()

    def test_sweep_without_spec_rejected(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_weight_reported_as_data_on_two_dim_grid(self):
        scen = parse_scenario_text(
            BASE_CONFIG.replace("3d-exp", "2d-exp")
            + "sweep.parameter = g_sq\nsweep.values = 0.1, 0.3, 0.6\n"
        )
        rows = list(map(sweep_point, sweep_models(scen), scen.sweep.values))
        weights = [r["weight"] for r in rows]
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
        # scipy.special (Ei, E1) and scipy.fft (next_fast_len); a public
        # subpackage beyond these, such as scipy.signal or scipy.interpolate,
        # adds its import time to every process.
        code = (
            "import sys, leveldecay.cli\n"
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
            "    if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))"
        )
        src = str(Path(scenario.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert set(done.stdout.split()) - {"version"} == {"fft", "special"}


class TestFlags:
    def test_horizon_and_tol_overrides(self, tmp_path):
        cfg = _write(tmp_path, DECAY_CONFIG)
        out = tmp_path / "out"
        rc = main(["decay", str(cfg), "--out", str(out), "--horizon", "5"])
        assert rc == 0
        rows = (out / "demo_spectral.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[0]) == pytest.approx(5.0)

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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, jobs):
        cfg = _write(tmp_path, TestSweepCommand.SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--jobs", jobs]) == 3
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    def test_jobs_capped_at_cpu_count(self, tmp_path, monkeypatch):
        made = []

        class FakePool:
            # Records the worker count and maps in-process: starts no process.
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = _write(tmp_path, TestSweepCommand.SWEEP_CONFIG)
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "64"]) == 0
        assert made == [2]


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
