"""Drive the campaign against an out-of-process model.

Real models are rarely Python functions; they are executables.  The
package talks to them over a line protocol: one evaluation request per
line (input coordinates separated by spaces, full double precision on
both sides), one scalar response per line.  Replies come in request
order; requests may be written before earlier replies are read, so a
model that reads a line, answers it and flushes needs nothing more.
This demo writes a tiny stand-in model to a temporary directory, talks
to it directly, then runs the whole command line pipeline against it;
the directory is removed at the end.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from relsense import external_blackbox


def campaign_config(command):
    """Campaign config for the two-input stand-in model behind ``command``."""
    return {
        "model": {"command": command, "dimension": 2},
        "inputs": {"marginals": [{"kind": "normal", "mean": 0.0, "sd": 1.0},
                                 {"kind": "normal", "mean": 0.0, "sd": 1.0}]},
        "event": {"threshold": 2.5},
        "smc": {"n_particles": 200, "rho": 0.3, "mutation_steps": 2,
                "final_sample_size": 500, "final_mh_steps": 2,
                "kernel": {"type": "crank_nicolson", "a": 0.5}},
        "replications": 2,
        "seed": 9,
    }


def main():
    with tempfile.TemporaryDirectory(prefix="relsense_demo_") as tmp:
        run(Path(tmp))


def run(workdir):
    """Write the stand-in model into ``workdir`` and drive it."""
    # the "simulator": reads "x1 x2" per line, answers x1 + 0.1 * x2**2
    model_path = workdir / "model.py"
    model_path.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    x = [float(v) for v in line.split()]\n"
        "    print(x[0] + 0.1 * x[1] ** 2)\n"
        "    sys.stdout.flush()\n"
    )
    command = [sys.executable, str(model_path)]

    # talk to it directly first; leaving the block ends the process
    with external_blackbox(command, dimension=2) as box:
        print(f"model([1.0, 2.0]) = {box.evaluate([1.0, 2.0])}")
        print(f"model([0.5, -3.0]) = {box.evaluate([0.5, -3.0])}")
        print(f"calls so far: {box.call_count}")

    # now a campaign config pointing at the same command
    config_path = workdir / "campaign.json"
    config_path.write_text(json.dumps(campaign_config(command), indent=2))

    cli = [sys.executable, "-m", "relsense.cli"]
    print("\n$ relsense validate", flush=True)
    subprocess.run(cli + ["validate", "--config", str(config_path)], check=True)

    print("\n$ relsense estimate", flush=True)
    out_dir = workdir / "results"
    subprocess.run(cli + ["estimate", "--config", str(config_path),
                          "--out", str(out_dir)], check=True)

    report = json.loads((out_dir / "report.json").read_text())["report"]
    print(f"\np_f_hat = {report['p_f_hat']:.4e}, "
          f"total model calls = {report['calls']['total']}")
    print(f"outputs: {', '.join(sorted(p.name for p in out_dir.iterdir()))}")


if __name__ == "__main__":
    main()
