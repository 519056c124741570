"""Which input drives failure?  A full sensitivity campaign on the toy model.

Under nominal operation Y = X1 + 1{X1 > 3} |X2| barely depends on X2: the
gate is almost never open.  Conditioned on failure the picture inverts,
because |X2| with its sd of sqrt(5) then dominates the exceedance.  The
campaign quantifies this with three index families estimated from one
conditioned sample per replication:

  delta_f          dependence between input and output, given failure
  eta_bar          distance between nominal and failure-conditioned marginal
  sobol_indicator  variance-based index of the failure indicator

All three are tabulated against quadrature references for this model.
"""

from relsense import parse_config, run_campaign

config = parse_config({
    "model": {"builtin": "toy1"},
    "smc": {"n_particles": 500, "rho": 0.3935, "mutation_steps": 3,
            "final_sample_size": 3000, "final_mh_steps": 5,
            "kernel": {"type": "crank_nicolson", "a": 0.5}},
    "replications": 10,
    "seed": 2,
})
report = run_campaign(config)
print(report.summary_table())

# eta_bar answers a design question directly: freezing X1 to its nominal
# law can change the failure probability by at most 2 * p_f * eta_bar
eta = report.estimates["eta"]
print("\nmax |perturbation of P_f| when one input is re-distributed:")
for name, bound in zip(config.input_names, eta):
    print(f"  {name}: {bound:.3e}")

# the delta_f reference for X2 (0.769) sits a little above the estimate:
# even the richest copula family of the BIC ladder smooths a dependence
# this close to functional, so treat delta_f levels as comparable between
# inputs of one run rather than as exact values
