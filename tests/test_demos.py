"""Every demo script runs to completion against the package as it is,
and every shipped config validates.

The demos use the public API directly, so an API change can break them
without any other test noticing.  Each runs in its own interpreter, with
one BLAS thread and its temporary files under the test's directory;
a demo leaves no temporary directory behind.  The configs under
``demos/configs`` are read by no demo script, so a grammar change could
reject one unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relsense
from relsense.cli import main

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def test_demos_are_found():
    assert DEMOS
    assert CONFIGS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    src = str(Path(relsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("relsense_demo_*")) == []


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_validates(config, capsys):
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("config ok: ")
