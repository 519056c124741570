"""Command line behaviour: exit codes, printed output, written files."""

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10 ships no TOML reader
    tomllib = pytest.importorskip("tomli")

from relsense import cli
from relsense.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, small_config_file, capsys):
        code, out, err = run_cli(["validate", "--config", str(small_config_file)],
                                 capsys)
        assert code == 0
        assert out.strip() == ("config ok: model=toy1 dimension=2 "
                               "replications=2 seed=7")
        assert err == ""

    def test_findings_go_to_stderr(self, tmp_path, capsys):
        bad = {"model": {"builtin": "toy1"},
               "smc": {"n_particles": 10, "rho": 1.2, "mutation_steps": 1,
                       "final_sample_size": 10, "final_mh_steps": 1,
                       "kernel": {"type": "crank_nicolson", "a": 0.5}},
               "replications": 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "config error: smc.rho must lie in (0, 1), got 1.2" in err
        assert "config error: replications must be >= 1, got 0" in err

    def test_retired_index_keys_exit_2(self, tmp_path, small_toy1_config, capsys):
        small_toy1_config["indices"] = {"n_draws": 20000, "eta_method": "monte_carlo"}
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(small_toy1_config))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "config error: indices.n_draws is retired" in err
        assert "config error: indices.eta_method is retired" in err

    def test_ragged_covariance_exits_2(self, tmp_path, capsys):
        raw = {"model": {"command": ["ext"], "dimension": 2},
               "inputs": {"marginals": [{"kind": "normal", "mean": 0.0, "sd": 1.0},
                                        {"kind": "normal", "mean": 0.0, "sd": 1.0}],
                          "dependence": {"type": "gaussian",
                                         "covariance": [[1.0, 0.5], [0.5]]}},
               "event": {"threshold": 1.0},
               "smc": {"n_particles": 100, "rho": 0.5, "mutation_steps": 1,
                       "final_sample_size": 10, "final_mh_steps": 1,
                       "kernel": {"type": "random_walk", "step_sds": "match_input"}},
               "replications": 1}
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "config error: inputs.dependence.covariance must be a numeric matrix" in err

    @pytest.mark.parametrize("command", ["validate", "estimate"])
    @pytest.mark.parametrize("keys", [("replications",), ("smc", "kernel", "a")],
                             ids=".".join)
    def test_non_finite_number_exits_2(self, tmp_path, small_toy1_config, capsys,
                                       keys, command):
        section = small_toy1_config
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        # json writes the literal NaN, and an integer too large for a float
        for value in (float("nan"), 10**400):
            section[keys[-1]] = value
            path = tmp_path / "non_finite.json"
            path.write_text(json.dumps(small_toy1_config))
            argv = [command, "--config", str(path)]
            if command == "estimate":
                argv += ["--out", str(tmp_path / "out")]
            code, out, err = run_cli(argv, capsys)
            assert code == 2
            assert out == ""
            assert err == f"config error: {'.'.join(keys)} must be finite, got {value}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cov, finding", [
        ([[1.0, 0.0], [0.0, -1.0]], "inputs: covariance diagonal must be strictly positive"),
        ([[math.inf, 0.0], [0.0, 1.0]],
         "inputs.dependence.covariance must be finite, got [[inf, 0.0], [0.0, 1.0]]"),
    ], ids=["negative", "inf"])
    def test_bad_covariance_diagonal_exits_2(self, tmp_path, capsys, cov, finding):
        raw = {"model": {"command": ["ext"], "dimension": 2},
               "inputs": {"marginals": [{"kind": "normal", "mean": 0.0, "sd": 1.0},
                                        {"kind": "normal", "mean": 0.0, "sd": 1.0}],
                          "dependence": {"type": "gaussian", "covariance": cov}},
               "event": {"threshold": 1.0},
               "smc": {"n_particles": 100, "rho": 0.5, "mutation_steps": 1,
                       "final_sample_size": 10, "final_mh_steps": 1,
                       "kernel": {"type": "random_walk", "step_sds": "match_input"}},
               "replications": 1}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"config error: {finding}\n"

    def test_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"replications": 1' + "0" * 5000 + "}")
        code, out, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: config is not valid JSON")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["validate", "--config", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert "config error: cannot read config" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2")
        code, _, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert "config error: config is not valid JSON" in err

    def test_non_object_document(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, _, err = run_cli(["validate", "--config", str(path)], capsys)
        assert code == 2
        assert "config error: config must be a JSON object" in err


class TestReferences:
    def test_toy1_table(self, capsys):
        code, out, err = run_cli(["references", "toy1"], capsys)
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0].split() == ["name", "value", "method", "tolerance"]
        names = [ln.split()[0] for ln in lines[1:]]
        assert names == ["p_f", "eta_bar_1", "eta_bar_2", "delta_f_1",
                         "delta_f_2", "sobol_indicator_1", "sobol_indicator_2"]
        p_f_line = lines[1].split()
        assert float(p_f_line[1]) == pytest.approx(1.349898e-3, rel=1e-5)

    def test_additive_chi2_table(self, capsys):
        code, out, _ = run_cli(["references", "additive_chi2"], capsys)
        assert code == 0
        assert "delta_1" in out and "delta_2" in out

    def test_sdof_has_no_table(self, capsys):
        code, out, err = run_cli(["references", "sdof_oscillator"], capsys)
        assert code == 2
        assert out == ""
        assert "no tabulated references" in err
        assert "design-point importance sampling" in err
        assert "indices have no reference" in err

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(["references", "mystery"], capsys)
        assert code == 2
        assert "unknown model 'mystery'" in err
        assert "toy1 and additive_chi2" in err


class TestEstimate:
    def test_writes_outputs_and_prints_table(self, small_config_file, tmp_path,
                                             capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            ["estimate", "--config", str(small_config_file),
             "--out", str(out_dir)], capsys)
        assert code == 0
        report_path = out_dir / "report.json"
        csv_path = out_dir / "indices.csv"
        assert report_path.is_file() and csv_path.is_file()
        assert "model: toy1" in out
        assert f"wrote {report_path}" in out
        assert f"wrote {csv_path}" in out
        body = json.loads(report_path.read_text())["report"]
        assert body["replications"] == 2
        assert body["master_seed"] == 7

    def test_rerun_is_byte_identical(self, small_config_file, tmp_path, capsys):
        paths = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                ["estimate", "--config", str(small_config_file),
                 "--out", str(out_dir)], capsys)
            assert code == 0
            paths.append(out_dir)
        assert ((paths[0] / "indices.csv").read_bytes()
                == (paths[1] / "indices.csv").read_bytes())
        reports = [json.loads((p / "report.json").read_text()) for p in paths]
        assert reports[0]["report"] == reports[1]["report"]

    def test_replication_and_seed_overrides(self, small_config_file, tmp_path,
                                            capsys):
        out_dir = tmp_path / "override"
        code, _, _ = run_cli(
            ["estimate", "--config", str(small_config_file),
             "--out", str(out_dir), "--replications", "1", "--seed", "11"],
            capsys)
        assert code == 0
        body = json.loads((out_dir / "report.json").read_text())["report"]
        assert body["replications"] == 1
        assert body["master_seed"] == 11
        assert len(body["p_f_per_replication"]) == 1

    def test_bad_override_is_config_error(self, small_config_file, tmp_path,
                                          capsys):
        code, _, err = run_cli(
            ["estimate", "--config", str(small_config_file),
             "--out", str(tmp_path / "x"), "--replications", "0"], capsys)
        assert code == 2
        assert "config error: replications must be >= 1, got 0" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, small_config_file, tmp_path,
                                             capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--config", str(small_config_file),
                  "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --jobs: must be at least 1, got {jobs}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below_a_file"])
    def test_out_naming_a_file_exits_2_before_running(self, small_config_file, tmp_path,
                                                      capsys, monkeypatch, below):
        # the output directory is made before the campaign, which never runs
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = blocker.joinpath(*below)
        monkeypatch.setattr(cli, "run_campaign",
                            lambda *a, **k: pytest.fail("the campaign ran"))
        code, out, err = run_cli(
            ["estimate", "--config", str(small_config_file), "--out", str(out_dir)],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot create output directory {out_dir}: ")
        assert blocker.read_text() == ""

    def test_runtime_failure_names_replication(self, small_toy1_config,
                                               tmp_path, capsys):
        small_toy1_config["smc"]["max_levels"] = 1
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(small_toy1_config))
        code, _, err = run_cli(
            ["estimate", "--config", str(path), "--out", str(tmp_path / "o")],
            capsys)
        assert code == 1
        assert "runtime error:" in err
        assert "replication 0 (seed" in err


class TestEntryPoints:
    def test_module_invocation(self, small_config_file):
        proc = subprocess.run(
            [sys.executable, "-m", "relsense.cli", "validate",
             "--config", str(small_config_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "config ok" in proc.stdout

    def test_console_script(self, small_config_file):
        # the entry point declared for installers must be the CLI's main
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"relsense": "relsense.cli:main"}
        args = ["validate", "--config", str(small_config_file)]
        installed = shutil.which("relsense")
        if installed:
            command = [installed, *args]
        else:
            # what the installer's wrapper script does, without installing
            module, attr = scripts["relsense"].split(":")
            wrapper = (f"import sys; sys.argv[0] = 'relsense'; "
                       f"from {module} import {attr}; sys.exit({attr}())")
            command = [sys.executable, "-c", wrapper, *args]
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "config ok" in proc.stdout

    def test_usage_error_exits_nonzero(self):
        proc = subprocess.run([sys.executable, "-m", "relsense.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
