"""Rank the inputs of a two-spring oscillator by influence on failure.

The benchmark is a single-degree-of-freedom oscillator with six
lognormal inputs: spring stiffnesses c1 and c2, displacement capacity r,
mass m, observation time t and load amplitude F.  Failure means the peak
displacement response exceeds 3r.  The event is far in the tail, so the
splitting run needs a couple hundred levels; starting from a random-walk
kernel whose steps match the input sds, the per-level rescaling keeps
acceptance in a healthy band.

The point of the exercise: the ranking under nominal operation (where r
dominates) tells you little about which inputs matter at failure, where
the load amplitude F takes over and r becomes almost irrelevant.
"""

import time

from relsense import parse_config, run_campaign

config = parse_config({
    "model": {"builtin": "sdof_oscillator"},
    "inputs": {
        "marginals": [
            {"kind": "lognormal", "log_mean": 2.0, "log_sd": 0.2},
            {"kind": "lognormal", "log_mean": 0.2, "log_sd": 0.02},
            {"kind": "lognormal", "log_mean": 0.6, "log_sd": 0.05},
            {"kind": "lognormal", "log_mean": 1.0, "log_sd": 0.05},
            {"kind": "lognormal", "log_mean": 1.0, "log_sd": 0.2},
            {"kind": "lognormal", "log_mean": 1.0, "log_sd": 0.2},
        ],
        "names": ["c1", "c2", "r", "m", "t", "F"],
    },
    "smc": {"n_particles": 500, "rho": 0.1813, "mutation_steps": 10,
            "final_sample_size": 3000, "final_mh_steps": 10,
            "kernel": {"type": "random_walk", "step_sds": "match_input"},
            "max_levels": 400},
    "replications": 2,
    "seed": 5,
})

start = time.perf_counter()
report = run_campaign(config)
print(f"campaign finished in {time.perf_counter() - start:.1f} s, "
      f"{report.calls_total} model calls")
print(f"p_f_hat = {report.p_f_hat:.3e} over "
      f"{len(report.per_replication)} replications "
      f"({report.n_levels_per_replication} levels each)\n")

names = config.input_names
for fam in ("eta_bar", "delta_f", "sobol_indicator"):
    est = report.estimates[fam]
    ranks = report.ranks[fam]
    order = sorted(range(6), key=lambda i: ranks[i])
    line = " > ".join(f"{names[i]}({est[i]:.3g})" for i in order)
    print(f"{fam:<16} {line}")

print("\nreading: F first and c1 second on the marginal-shift index;"
      "\nthe indicator Sobol indices are tiny because no single input"
      "\nreaches the failure region on its own, yet they still rank"
      "\nF, c1 and r first")
