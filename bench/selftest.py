"""Shows that every output check of the benchmark can fail.

    python3 bench/selftest.py

Runs one real round of each workload, then feeds the checks copies of
its outputs with one fault planted each (``p_f`` doubled, two inputs'
indices swapped, a call missing from the counter, ...).  Each planted
fault must trip the check named next to it, and the unaltered outputs
must pass.  Last, ``run.py`` itself is run with ``p_f`` doubled and must
exit non-zero.  Exits 0 when all of that holds; takes about two minutes.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run


def _means(report, table, fam):
    """Keep the report's means in step with a changed indices.csv table."""
    report["report"]["indices"][fam]["mean"] = table[fam].mean(axis=0).tolist()


def swap_inputs(report, table, conditioned):
    for fam in table:
        table[fam][:, [0, 1]] = table[fam][:, [1, 0]]
        _means(report, table, fam)


def miscount_calls(report, table, conditioned):
    report["report"]["calls"]["counter_total"] += 1


def drop_call(report, table, conditioned):
    calls = report["report"]["calls"]
    calls["sampling_phase"] -= 1
    calls["counter_total"] -= 1


def leave_failure_region(report, table, conditioned):
    conditioned[0][0, 0] = 0.5 * conditioned[0][0, 0]


def index_out_of_range(report, table, conditioned):
    table["delta_f"][0, 1] = 1.2
    _means(report, table, "delta_f")


def scale_eta(report, table, conditioned):
    table["eta"] *= 1.001
    _means(report, table, "eta")


def lose_replication(report, table, conditioned):
    conditioned.pop()


def csv_disagrees(report, table, conditioned):
    report["report"]["indices"]["delta_f"]["mean"][0] += 0.01


def nudge_p_f(report, table, conditioned):
    ps = report["report"]["p_f_per_replication"]
    ps[0] = float(np.nextafter(ps[0], 1.0))


def inflate_sobol(report, table, conditioned):
    table["sobol_indicator"][:] = 0.5
    _means(report, table, "sobol_indicator")


def scaling_p_f(factor):
    """``p_f`` times ``factor``, with ``eta = 2 p_f eta_bar`` kept."""
    def scale_p_f(report, table, conditioned):
        body = report["report"]
        body["p_f_per_replication"] = [factor * p for p in body["p_f_per_replication"]]
        body["p_f_hat"] *= factor
        table["eta"] *= factor
        _means(report, table, "eta")
    scale_p_f.__name__ = f"p_f_times_{factor:g}"
    return scale_p_f


FAULTS = {
    "toy1-batch": [
        (scaling_p_f(2), "p_f vs reference"),
        (swap_inputs, "index vs reference"),
        (miscount_calls, "calls reconcile"),
        (drop_call, "call identity"),
        (leave_failure_region, "conditioned outputs"),
        (index_out_of_range, "index range"),
        (scale_eta, "eta identity"),
        (lose_replication, "replications"),
        (csv_disagrees, "csv matches report"),
    ],
    "chi2-external": [
        (scaling_p_f(2), "external equals builtin"),
        (scaling_p_f(5), "p_f vs reference"),
        (swap_inputs, "index vs reference"),
        (nudge_p_f, "external equals builtin"),
        (drop_call, "call identity"),
        (leave_failure_region, "conditioned outputs"),
    ],
    "oscillator-tail": [
        (inflate_sobol, "sobol sum"),
        (scaling_p_f(1e5), "p_f vs importance sampling"),
        (miscount_calls, "calls reconcile"),
        (leave_failure_region, "conditioned outputs"),
        (index_out_of_range, "index range"),
    ],
}


def planting(fault):
    """A ``load_outputs`` that plants ``fault`` in copies of the outputs."""
    load = run.load_outputs

    def load_with_fault(proc, workload):
        report, table, conditioned = copy.deepcopy(load(proc, workload))
        fault(report, table, conditioned)
        return report, table, conditioned
    return load_with_fault


def main():
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    problems = []
    original = run.load_outputs
    try:
        for name, faults in FAULTS.items():
            workload = run.WORKLOADS[name]
            root = work / name
            root.mkdir()
            rounds = run.measure(workload, 1, 0.0, False, root)
            failures, _ = run.check_run(workload, 1, rounds, ("plain",))
            if failures:
                problems.append(f"{name}: unaltered outputs fail: {failures}")
            for fault, expected in faults:
                run.load_outputs = planting(fault)
                try:
                    failures, _ = run.check_run(workload, 1, rounds, ("plain",))
                finally:
                    run.load_outputs = original
                tripped = any(f.startswith(expected + ":") for f in failures)
                print(f"{name:16s} {fault.__name__:22s} -> {expected:28s} "
                      f"{'tripped' if tripped else 'NOT TRIPPED'}")
                if not tripped:
                    problems.append(f"{name}: {fault.__name__} did not trip "
                                    f"{expected!r}; failures were {failures}")
        run.load_outputs = planting(scaling_p_f(2))
        try:
            code = run.main(["--workload", "chi2-external", "--seed", "1",
                             "--seconds", "0", "--trace", "0"])
        finally:
            run.load_outputs = original
        print(f"run.py with p_f doubled exits {code}")
        if code == 0:
            problems.append("run.py exits 0 on doubled p_f")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"SELF-TEST FAILED: {line}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
