"""Start-up cost: a campaign process imports only what it runs, which
is no scipy, no oracle and no OpenSSL at all, and computing the
reference tables loads no heavy scipy subpackage either."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import relsense

# Every name the package exports must resolve as an attribute of it.
EXPORTS = (
    "BlackBox", "EvaluationError", "FailureEvent", "InputModel", "Marginal",
    "builtin_model", "ExternalBlackBox", "external_blackbox",
    "REPLICATION", "seed_sequence", "stream", "CrankNicolsonKernel",
    "GaussianRandomWalkKernel", "SmcError", "SmcParams", "SmcResult",
    "final_sampling", "run_adaptive_smc", "DEFAULT_EXPONENTS",
    "InfeasibleConstraintsError", "MaxEntCopula", "MaxEntDensity", "MaxEntError",
    "MomentConstraints", "copula_fractional_moments", "fit_copula",
    "fit_density", "fractional_moments_1d", "solve_maxent",
    "DivergenceSpec", "EstimationError", "WeightFunction", "csiszar_indices",
    "csiszar_marginal_index", "delta_index",
    "rank_descending", "scaled_target_index", "sobol_indicator_index",
    "target_tv_index", "CampaignConfig", "CampaignReport", "CampaignRuntimeError",
    "ConfigError", "load_config", "parse_config", "run_campaign",
    "run_replication", "validate_config", "write_outputs",
)

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.optimize")

PROBE = f"""
import json, sys
import relsense, relsense.cli, relsense.oracle
relsense.oracle.toy1_references()
relsense.oracle.chi2_references()
loaded = [m for m in {HEAVY!r} if m in sys.modules]
missing = [n for n in {EXPORTS!r} if not hasattr(relsense, n)]
print(json.dumps({{"loaded": loaded, "missing": missing}}))
"""


def run_python(code, *args, **kwargs):
    """``python -c code *args`` in a fresh process that imports this relsense."""
    src = str(Path(relsense.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), **kwargs)


def test_package_import_loads_no_stats_integrate_or_optimize():
    proc = run_python(PROBE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"loaded": [], "missing": []}


CAMPAIGN_PROBE = """
import json, sys
import relsense, relsense.cli, relsense.oracle
random_at_import = "numpy.random" in sys.modules
codes = [relsense.cli.main(["estimate", "--config", path, "--out", path + ".out"])
         for path in sys.argv[1:]]
with open("/proc/self/maps") as maps:
    libcrypto = "libcrypto" in maps.read()
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "unused": sorted(m for m in ("numpy.polynomial", "concurrent.futures")
                     if m in sys.modules),
    "random_at_import": random_at_import, "libcrypto": libcrypto,
    "hashlib_entry": repr(sys.modules.get("_hashlib", "absent"))}))
"""


def test_campaign_process_loads_no_scipy(tmp_path, small_toy1_config):
    # the second config runs the normal cdf of a uniform input's latent
    # map under gaussian dependence, and of a normal input's marginal mass.
    # A --jobs 1 campaign also loads neither numpy.polynomial (the
    # Gauss-Legendre rules come from a Newton solve) nor the process pool,
    # and maps no OpenSSL.
    uniform = dict(small_toy1_config, inputs={
        "marginals": [{"kind": "uniform", "low": 0.0, "high": 4.0},
                      {"kind": "normal", "mean": 0.0, "sd": 1.0}],
        "dependence": {"type": "gaussian", "covariance": [[1.0, 0.5], [0.5, 1.0]]}})
    paths = []
    for name, raw in (("toy1", small_toy1_config), ("uniform", uniform)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(raw))
    proc = run_python(CAMPAIGN_PROBE, *paths, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {k: result[k] for k in ("codes", "scipy", "unused")} == {
        "codes": [0, 0], "scipy": [], "unused": []}
    if result["random_at_import"]:
        pytest.skip("numpy < 2 loads numpy.random, and OpenSSL with it, on import")
    # the campaign ran on Python's builtin hashes, and the hold-back of
    # OpenSSL's _hashlib ended with it
    assert result["libcrypto"] is False
    assert result["hashlib_entry"] == "'absent'"


def test_package_and_cli_import_loads_no_oracle():
    proc = run_python("import sys, relsense, relsense.cli; "
                      "print('relsense.oracle' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_module_export_resolves():
    stale = []
    for info in pkgutil.iter_modules(relsense.__path__):
        module = importlib.import_module(f"relsense.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
