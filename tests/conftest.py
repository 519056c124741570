"""Shared fixtures: reference tables, small campaign configs, external stubs."""

import copy
import json
import sys
from dataclasses import replace

import pytest

from relsense.campaign import _make_blackbox, parse_config, replication_seed
from relsense.model import builtin_model
from relsense.oracle import chi2_references, rejection_conditioned_sample, toy1_references
from relsense.smc import run_adaptive_smc


@pytest.fixture(scope="session")
def toy1_refs():
    """Reference values for the gated additive benchmark, keyed by name."""
    return {rv.name: rv for rv in toy1_references()}


@pytest.fixture(scope="session")
def chi2_refs():
    """Reference values for the normal-plus-squared benchmark, keyed by name."""
    return {rv.name: rv for rv in chi2_references()}


SMALL_TOY1_CONFIG = {
    "model": {"builtin": "toy1"},
    "smc": {"n_particles": 300, "rho": 0.25, "mutation_steps": 3,
            "final_sample_size": 1000, "final_mh_steps": 3,
            "kernel": {"type": "crank_nicolson", "a": 0.5}},
    "replications": 2,
    "seed": 7,
}


@pytest.fixture
def small_toy1_config():
    """A cheap but complete campaign config (deep copy per test)."""
    return copy.deepcopy(SMALL_TOY1_CONFIG)


@pytest.fixture(scope="session")
def small_toy1_run():
    """The sampler's result in replication 0 of the small toy1 campaign."""
    config = parse_config(copy.deepcopy(SMALL_TOY1_CONFIG))
    params = replace(config.smc, seed=replication_seed(config.master_seed, 0))
    with _make_blackbox(config) as box:
        return run_adaptive_smc(box, config.input_model, config.event, params)


@pytest.fixture(scope="session")
def toy1_rejection():
    """12000 exact draws of toy1's inputs and output given failure."""
    box, model, event = builtin_model("toy1")
    return rejection_conditioned_sample(box, model, event, n_target=12000,
                                        budget=10**7, seed=2024,
                                        block_size=10**6)


@pytest.fixture
def small_config_file(tmp_path, small_toy1_config):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(small_toy1_config))
    return path


ECHO_FIRST_SCRIPT = """\
import sys
for line in sys.stdin:
    parts = line.split()
    if not parts:
        break
    print(parts[0], flush=True)
"""

TOY1_WRAPPER_SCRIPT = """\
import sys
for line in sys.stdin:
    parts = line.split()
    if not parts:
        break
    x1, x2 = float(parts[0]), float(parts[1])
    y = x1 + (abs(x2) if x1 > 3.0 else 0.0)
    print(repr(y), flush=True)
"""

NAN_SCRIPT = """\
import sys
for line in sys.stdin:
    print("nan", flush=True)
"""


def _script_fixture(source):
    @pytest.fixture
    def fixture(tmp_path):
        path = tmp_path / "box.py"
        path.write_text(source)
        return [sys.executable, str(path)]
    return fixture


echo_first_command = _script_fixture(ECHO_FIRST_SCRIPT)
toy1_wrapper_command = _script_fixture(TOY1_WRAPPER_SCRIPT)
nan_command = _script_fixture(NAN_SCRIPT)
