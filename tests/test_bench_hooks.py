"""The benchmark's probe still finds the functions it hooks.

``bench/probe.py`` times a ``relsense estimate`` process by wrapping
module attributes of the package by name.  A rename or a changed call
path makes its set-up stamp or its spans go missing, and the benchmark
run then fails without measuring anything.  These tests run the probe
in trace mode on two small campaigns and read its ``probe.json``.

The benchmark's ``maxent.fits`` counts ``maxent.rung`` spans, the calls of
the moment builders, so each ladder rung must still build its moments
once, through the module attribute, inside its fit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relsense
from relsense.maxent import COPULA_LADDER, MARGINAL_LADDER

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = str(Path(relsense.__file__).resolve().parents[1])

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


@pytest.fixture(scope="module", params=CONFIGS)
def traced(request, tmp_path_factory):
    """``(kind, out)``: one traced probe run of a config, and its output
    directory."""
    kind = request.param
    tmp_path = tmp_path_factory.mktemp(kind)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[kind]))
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(out), "trace", "--",
         "estimate", "--config", str(config), "--out", str(out), "--jobs", "1",
         "--seed", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return kind, out


def test_traced_probe_sees_every_hooked_layer(traced):
    kind, out = traced
    probe = json.loads((out / "probe.json").read_text())
    assert probe["exit_code"] == 0
    assert probe["setup_t"] is not None
    assert Path(probe["relsense"]).resolve().is_relative_to(Path(SRC))
    names = {span[0] for span in probe["spans"]}
    expected = SPANS | ({"external.start"} if kind == "external" else set())
    assert expected <= names, sorted(expected - names)
    assert (out / "report.json").exists() and (out / "indices.csv").exists()


def test_every_rung_is_one_span_inside_its_fit(traced):
    # one rung span per rung of each ladder, per input and replication,
    # and its enclosing span is the fit of that ladder
    kind, out = traced
    spans = json.loads((out / "probe.json").read_text())["spans"]
    fits = [spans[parent][0] if parent >= 0 else None
            for name, _, _, parent, _ in spans if name == "maxent.rung"]
    runs = CONFIGS[kind]["replications"] * 2  # two inputs on both configs
    assert len(fits) == runs * (len(MARGINAL_LADDER) + len(COPULA_LADDER)) == 14
    assert fits.count("maxent.fit_density") == runs * len(MARGINAL_LADDER)
    assert fits.count("maxent.fit_copula") == runs * len(COPULA_LADDER)
