"""The benchmark's probe still finds the functions it hooks.

``bench/probe.py`` times a ``relsense estimate`` process by wrapping
module attributes of the package by name.  A rename or a changed call
path makes its set-up stamp or its spans go missing, and the benchmark
run then fails without measuring anything.  These tests run the probe
in trace mode on two small campaigns and read its ``probe.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relsense

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

SMC = {"n_particles": 200, "rho": 0.3, "mutation_steps": 2,
       "final_sample_size": 500, "final_mh_steps": 2,
       "kernel": {"type": "crank_nicolson", "a": 0.5}}

CONFIGS = {
    "builtin": {"model": {"builtin": "toy1"}, "smc": SMC, "replications": 1},
    "external": {
        "model": {"command": [sys.executable, str(BENCH / "chi2_model.py")],
                  "dimension": 2},
        "inputs": {"marginals": [{"kind": "normal", "mean": 0.0, "sd": 1.0},
                                 {"kind": "normal", "mean": 0.0, "sd": 1.0}]},
        "event": {"threshold": 6.0},
        "smc": SMC,
        "replications": 1,
    },
}

SPANS = {"campaign.parse", "campaign.run_replication", "smc.run_adaptive_smc",
         "smc.final_sampling", "maxent.fit_density", "maxent.fit_copula",
         "maxent.rung", "indices.delta", "indices.eta_bar", "indices.sobol",
         "model.evaluate_batch"}


@pytest.mark.parametrize("kind", CONFIGS)
def test_traced_probe_sees_every_hooked_layer(tmp_path, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[kind]))
    out = tmp_path / "out"
    out.mkdir()
    src = str(Path(relsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(out), "trace", "--",
         "estimate", "--config", str(config), "--out", str(out), "--jobs", "1",
         "--seed", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads((out / "probe.json").read_text())
    assert probe["exit_code"] == 0
    assert probe["setup_t"] is not None
    assert Path(probe["relsense"]).resolve().is_relative_to(Path(src))
    names = {span[0] for span in probe["spans"]}
    expected = SPANS | ({"external.start"} if kind == "external" else set())
    assert expected <= names, sorted(expected - names)
    assert (out / "report.json").exists() and (out / "indices.csv").exists()
