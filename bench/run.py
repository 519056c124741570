"""Campaign benchmark: times ``relsense estimate`` end to end and checks it.

    python3 bench/run.py --workload toy1-batch --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Each round of a run is one fresh ``relsense estimate --jobs 1``
process (``bench/probe.py``) on a config built from ``--seed``, after a
probe process that stops at the first replication, so set-up is timed
twice per round.  Rounds repeat until the next one would end after
``--seconds``; at least one always runs.  Then the
outputs of every round are checked (``bench/checks.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (replications) and ``metrics``.  A failed check makes the
exit code 1; a checkout without ``src/relsense`` gives exit code 2.

``--trace 0`` reports the end-to-end metrics, medians over the rounds:
``campaign_s`` (process start to exit, after report.json and indices.csv
are written), ``setup_s`` (process start to the first replication) and
``peak_rss_mb``.  ``--trace 1`` runs each round twice at the same seed,
untraced and traced, and reports the per-layer metrics of the traced
process plus ``trace.overhead_s``, the median extra wall time.  See
``bench/README.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

# One BLAS thread in this process and in every campaign process: on a
# small shared machine a second thread measures the scheduler, not the
# program (the reason --jobs is left out, too).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Campaign processes still running this long after the run began are
# killed, so the run ends within its 180 s limit.
RUN_LIMIT = 160.0
EXIT_CHECKS = 1
EXIT_NO_PROGRAM = 2

CN = {"type": "crank_nicolson", "a": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # campaign config without its seed
    threshold: float
    output: Callable      # the benchmark's own copy of the model formula


WORKLOADS = {w.name: w for w in (
    # maxent-bound: copula ladder fits are most of each replication; the
    # only workload that pays the oracle reference table.
    Workload("toy1-batch", {
        "model": {"builtin": "toy1"},
        "smc": {"n_particles": 500, "rho": 0.3935, "mutation_steps": 3,
                "final_sample_size": 3000, "final_mh_steps": 5, "kernel": CN},
        "replications": 10,
    }, 3.0, checks.toy1_output),
    # smc/model-bound: the random-walk kernel evaluates the lognormal input
    # log-density for every candidate over about 200 levels.
    Workload("oscillator-tail", {
        "model": {"builtin": "sdof_oscillator"},
        "smc": {"n_particles": 500, "rho": 0.1813, "mutation_steps": 10,
                "final_sample_size": 3000, "final_mh_steps": 10,
                "kernel": {"type": "random_walk", "step_sds": "match_input"},
                "max_levels": 400},
        "replications": 1,
    }, 0.0, checks.oscillator_output),
    # model-bound the other way: one pipe round trip per call to an
    # external process; no reference table is computed.
    Workload("chi2-external", {
        "model": {"command": ["{python}", "{bench}/chi2_model.py"], "dimension": 2},
        "inputs": {"marginals": [{"kind": "normal", "mean": 0.0, "sd": 1.0},
                                 {"kind": "normal", "mean": 0.0, "sd": 1.0}]},
        "event": {"threshold": 15.0},
        "smc": {"n_particles": 300, "rho": 0.5507, "mutation_steps": 3,
                "final_sample_size": 5000, "final_mh_steps": 3, "kernel": CN},
        "replications": 5,
    }, 15.0, checks.chi2_output),
)}


class NoProgram(Exception):
    """The checkout holds no importable ``src/relsense``."""


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import relsense
    except ImportError as exc:
        raise NoProgram(f"cannot import relsense from {SRC}: {exc}") from exc
    if not Path(relsense.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoProgram(f"relsense was imported from {relsense.__file__}, not {SRC}")


def master_seed(seed, k):
    """Campaign seed of round ``k`` of the run with benchmark seed ``seed``."""
    return 1000 * seed + k


def write_config(workload, path):
    text = json.dumps(workload.config)
    text = text.replace("{python}", sys.executable).replace("{bench}", str(BENCH))
    path.write_text(text)


def spawn(work_dir, mode, config_path, seed, deadline):
    """One ``relsense estimate`` process; returns its timing record."""
    out = work_dir / mode
    out.mkdir()
    argv = [sys.executable, str(BENCH / "probe.py"), str(out), mode, "--",
            "estimate", "--config", str(config_path), "--out", str(out),
            "--jobs", "1", "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=so, stderr=se,
                                start_new_session=True)
        while True:
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            if pid:
                end = time.monotonic()
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)  # the external model too
                _, status = os.waitpid(proc.pid, 0)
                end = math.inf
                break
            time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe_path = out / "probe.json"
    probe = json.loads(probe_path.read_text()) if probe_path.exists() else {}
    ok = proc.returncode == 0 and probe.get("exit_code") == 0 and end < math.inf
    if not ok:
        sys.stderr.write(f"{mode} process for seed {seed} failed "
                         f"(exit {proc.returncode}):\n"
                         + (out / "stderr.txt").read_text()[-2000:])
    return {"dir": out, "ok": ok, "wall": end - start,
            "setup": probe["setup_t"] - start if probe.get("setup_t") else None,
            "rss_mb": probe.get("peak_rss_mb"), "probe": probe, "seed": seed}


def load_outputs(proc, workload):
    """``(report, per-replication table, conditioned samples)`` of a round."""
    out = proc["dir"]
    report = json.loads((out / "report.json").read_text())
    reps = workload.config["replications"]
    dim = len(report["report"]["input_names"])
    table = checks.per_replication((out / "indices.csv").read_text(), reps, dim)
    conditioned = [np.load(p) for p in sorted(out.glob("conditioned_*.npy"),
                                              key=lambda p: int(p.stem.split("_")[1]))]
    return report, table, conditioned


def measure(workload, seed, seconds, trace, work_root):
    """Whole rounds until the next one would end after ``seconds``.

    A round is a set-up probe and one campaign (two when traced), all at
    the round's seed; probing in every round spreads the set-up samples
    over the run like the campaign samples."""
    # Every process of the run shares one CPU.  On chi2-external each model
    # call hands control between two processes; across the CPUs of a
    # shared virtual machine that hand-off waits for the other CPU to be
    # scheduled, which made the campaign time swing by a third.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    config_path = work_root / "config.json"
    write_config(workload, config_path)
    begin = time.monotonic()
    rounds, durations = [], []
    while True:
        t0 = time.monotonic()
        k = len(rounds)
        d = work_root / f"round{k}"
        d.mkdir()
        rnd = {mode: spawn(d, mode, config_path, master_seed(seed, k),
                           begin + RUN_LIMIT)
               for mode in ("setup", "plain", "trace")[:3 if trace else 2]}
        rounds.append(rnd)
        durations.append(time.monotonic() - t0)
        if time.monotonic() - begin + statistics.median(durations) > seconds:
            return rounds


def reference_table(workload):
    """References for the accuracy checks; ``None`` where there are none."""
    if workload.name == "toy1-batch":
        p_f = checks.normal_sf(3.0)
        oracle = checks.oracle_table("toy1")
        exact = 1e-12
        refs = {"p_f": (p_f, exact), "eta_bar_1": (1.0 - p_f, exact),
                "eta_bar_2": (0.0, exact), "sobol_indicator_1": (1.0, exact),
                "sobol_indicator_2": (0.0, exact)}
        refs.update({k: oracle[k] for k in ("delta_f_1", "delta_f_2")})
        return refs
    if workload.name == "chi2-external":
        refs = checks.oracle_table("additive_chi2")
        refs["p_f"] = checks.chi2_p_f(workload.threshold)
        return refs
    return None


def builtin_twin(workload, seed):
    """``p_f_hat`` per replication of the builtin ``additive_chi2`` at a
    round's seed, made in this process, outside any timed run."""
    from relsense.campaign import parse_config, replication_seed
    from relsense.model import builtin_model
    from relsense.smc import run_adaptive_smc

    raw = {k: v for k, v in workload.config.items() if k not in ("model", "inputs")}
    raw = dict(raw, model={"builtin": "additive_chi2"}, seed=seed)
    config = parse_config(raw)
    out = []
    for r in range(config.replications):
        box, inputs, event = builtin_model("additive_chi2")
        params = replace(config.smc, seed=replication_seed(seed, r))
        out.append(run_adaptive_smc(box, inputs, event, params).p_f_hat)
    return out


def check_run(workload, seed, rounds, kinds):
    """All output checks of a run; returns (failures, accuracy)."""
    check = checks.Checks()
    outputs = []
    for rnd in rounds:
        for kind in kinds:
            proc = rnd[kind]
            if not proc["ok"]:
                continue
            report, table, conditioned = load_outputs(proc, workload)
            checks.check_round(check, workload, report, table, conditioned)
            if kind == "trace":  # the same report as the plain one, checked below
                continue
            distinct = min(np.unique(c, axis=0).shape[0] for c in conditioned)
            outputs.append((report, table, distinct))
            if workload.name == "chi2-external":
                checks.check_builtin_twin(check, report["report"]["p_f_per_replication"],
                                          builtin_twin(workload, proc["seed"]))
        if len(kinds) == 2 and rnd["plain"]["ok"] and rnd["trace"]["ok"]:
            a, b = (json.loads((rnd[k]["dir"] / "report.json").read_text())["report"]
                    for k in kinds)
            check("traced report equals untraced", a == b,
                  f"seed {rnd['plain']['seed']}: tracing changed the report")
    if not outputs:
        return check.failures, {}
    reports = [r["report"] for r, _, _ in outputs]
    p_reps = [p for b in reports for p in b["p_f_per_replication"]]
    levels = [lv for b in reports for lv in b["n_levels_per_replication"]]
    refs = reference_table(workload)
    if refs is None:
        p_is, rel_se = checks.oscillator_is_p_f(seed)
        rel = checks.check_p_f(check, "p_f vs importance sampling", p_reps, levels,
                               workload.config["smc"], p_is, rel_se)
        return check.failures, {"p_f_rel_err": rel, "max_ref_err": 0.0}
    ref, tol = refs["p_f"]
    rel = checks.check_p_f(check, "p_f vs reference", p_reps, levels,
                           workload.config["smc"], ref, tol / ref)
    worst = checks.check_indices(check, refs, [t for _, t, _ in outputs],
                                 min(d for _, _, d in outputs))
    return check.failures, {"p_f_rel_err": rel, "max_ref_err": worst}


def end_to_end(rounds):
    plain = [r["plain"] for r in rounds if r["plain"]["ok"]]
    setups = [r[m]["setup"] for r in rounds for m in ("setup", "plain") if r[m]["ok"]]
    return {
        "campaign_s": (statistics.median(p["wall"] for p in plain), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MiB"),
    }


def per_layer(rounds, workload, accuracy):
    """Per-layer metrics from the traced processes' spans: times and
    counts per replication (per process for set-up layers), medians over
    the rounds."""
    reps = workload.config["replications"]
    per_round = []
    replication_times = []
    for rnd in rounds:
        if not (rnd["plain"]["ok"] and rnd["trace"]["ok"]):
            continue
        spans = rnd["trace"]["probe"]["spans"]
        total, count = {}, {}
        for name, t0, t1, parent, n in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:  # outermost span of its name: no double count
                total[name] = total.get(name, 0.0) + (t1 - t0)
            count[name] = count.get(name, 0) + 1
            if name == "campaign.run_replication":
                replication_times.append(t1 - t0)
        stats = [n for name, *_, n in spans if name == "smc.run_adaptive_smc"]
        rows = {name: sum(n for nm, *_, n in spans if nm == name)
                for name in ("model.log_density", "model.evaluate_batch")}
        features = [n for name, *_, n in spans if name == "maxent.fit_copula"]
        t = lambda name: total.get(name, 0.0)  # noqa: E731
        per_round.append({
            "campaign.parse_s": (t("campaign.parse"), "s"),
            "oracle.references_s": (t("oracle.references"), "s"),
            "external.start_s": (t("external.start"), "s"),
            "smc.probability_s": ((t("smc.run_adaptive_smc") - t("smc.final_sampling")) / reps, "s"),
            "smc.final_s": (t("smc.final_sampling") / reps, "s"),
            "smc.levels": (statistics.mean(s["levels"] for s in stats), "count"),
            "smc.calls": (statistics.mean(s["calls"] for s in stats), "count"),
            "smc.acceptance_min": (min(s["acceptance_min"] for s in stats), "ratio"),
            "smc.distinct_rows": (statistics.mean(s["distinct_rows"] for s in stats), "ratio"),
            "model.log_density_s": (t("model.log_density") / reps, "s"),
            "model.log_density_rows": (rows["model.log_density"] / reps, "count"),
            "model.evaluate_s": (t("model.evaluate_batch") / reps, "s"),
            "model.calls_per_s": (rows["model.evaluate_batch"] / t("model.evaluate_batch"), "1/s"),
            "maxent.fit_copula_s": (t("maxent.fit_copula") / reps, "s"),
            "maxent.fit_density_s": (t("maxent.fit_density") / reps, "s"),
            "maxent.fits": (count.get("maxent.rung", 0) / reps, "count"),
            "maxent.copula_features": (statistics.mean(features), "count"),
            "indices.delta_s": (t("indices.delta") / reps, "s"),
            "indices.eta_bar_s": (t("indices.eta_bar") / reps, "s"),
            "indices.sobol_s": (t("indices.sobol") / reps, "s"),
            "trace.overhead_s": (rnd["trace"]["wall"] - rnd["plain"]["wall"], "s"),
        })
    metrics = {name: (statistics.median(r[name][0] for r in per_round), unit)
               for name, unit in ((k, v[1]) for k, v in per_round[0].items())}
    metrics["campaign.replication_s"] = (statistics.median(replication_times), "s")
    metrics["smc.p_f_rel_err"] = (accuracy["p_f_rel_err"], "ratio")
    metrics["indices.max_ref_err"] = (accuracy["max_ref_err"], "abs")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=OUT))
    try:
        rounds = measure(workload, args.seed, args.seconds, args.trace, work_root)
        kinds = ("plain", "trace") if args.trace else ("plain",)
        failures, accuracy = check_run(workload, args.seed, rounds, kinds)
        reps = workload.config["replications"]
        attempted = reps * len(rounds) * len(kinds)
        failed = reps * sum(not r[k]["ok"] for r in rounds for k in kinds)
        if failed == attempted:
            failures.append("every campaign process failed")
            metrics = {}
        elif args.trace:
            metrics = per_layer(rounds, workload, accuracy)
            spans = [r["trace"]["probe"].get("spans", []) for r in rounds]
            (OUT / f"trace-{workload.name}-{args.seed}.json").write_text(json.dumps(spans))
        else:
            metrics = end_to_end(rounds)
        print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds, campaign "
              f"walls {[round(r['plain']['wall'], 3) for r in rounds]}", file=sys.stderr)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return EXIT_CHECKS if failures else 0


if __name__ == "__main__":
    sys.exit(main())
