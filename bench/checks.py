"""Output checks of the campaign benchmark, and the references they use.

Every reference is computed apart from the splitting sampler and the
max-entropy solver: closed forms, the benchmark's own quadrature and
importance sampling, or ``relsense.oracle``, whose quadrature shares no
code with either.  Tolerances come from the method's own spread:

* ``p_f_hat`` is unbiased up to O(1/n), so the log of its mean over all
  replications of a run must sit within ``K_MEAN`` standard errors of
  the log reference; the standard error comes from the splitting
  variance of each replication's own level ladder, which a run of a few
  replications estimates far better than their sample sd does.
* The indices are plug-in estimates with a finite-sample bias of the
  order of their spread, so the reference must sit within ``K_INDEX``
  spreads of the mean, plus the reference's own quadrature tolerance.
  The spread is the replication sd, but never less than ``1/sqrt(N)``
  for ``N`` distinct rows in the conditioned sample: no estimate made
  from ``N`` points resolves a distance finer than that, and with the
  few replications of one run the sd estimate alone can read far too
  low.

A check that fails adds one line to the list it is given; the names are
stable so the self-test can see each one fail.
"""

from __future__ import annotations

import math

import numpy as np

K_MEAN = 5.0
K_INDEX = 6.0
# Bound on the variance inflation (1 + gamma) of Au & Beck (2001) from
# correlated chains, by kernel.  Measured against the independent-particle
# variance: toy1 1.4 and chi2 1.5 over 30 replications each
# (Crank-Nicolson); the oscillator about 12 over 6 replications (random
# walk; few replications, so the bound leaves more room).
SPLITTING_CORRELATION = {"crank_nicolson": 4.0, "random_walk": 20.0}
# Digits of indices.csv are 12 significant ones.
CSV_REL = 1e-10
FAMILIES = ("delta_f", "eta_bar", "eta", "sobol_indicator")
BOUNDED = ("delta_f", "eta_bar", "sobol_indicator")


def normal_sf(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# --- model formulas, written out again apart from relsense.model ---------

def toy1_output(x):
    return x[:, 0] + (x[:, 0] > 3.0) * np.abs(x[:, 1])


def chi2_output(x):
    return x[:, 0] + x[:, 1] * x[:, 1]


def oscillator_output(x):
    c1, c2, r, m, t, f = x.T
    k = c1 + c2
    return np.abs(2.0 * f / k * np.sin(np.sqrt(k / m) * t / 2.0)) - 3.0 * r


# --- references ---------------------------------------------------------

def chi2_p_f(threshold=15.0):
    """``P(X1 + X2**2 > S) = integral of phi(t) * sf(S - t**2) dt`` by the
    trapezoid rule, which converges geometrically for this smooth,
    fast-decaying integrand; the error is estimated from the half grid."""
    t = np.linspace(-12.0, 12.0, 48001)
    sf = np.array([normal_sf(threshold - v * v) for v in t])
    g = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * sf
    fine = np.trapezoid(g, t)
    coarse = np.trapezoid(g[::2], t[::2])
    return float(fine), abs(fine - coarse) + 1e-15


def oracle_table(name):
    """``{index name: (value, tolerance)}`` from ``relsense.oracle``."""
    from relsense import oracle

    fn = oracle.toy1_references if name == "toy1" else oracle.chi2_references
    return {rv.name: (rv.value, rv.tolerance) for rv in fn()}


# The oscillator's six lognormal inputs: (log-mean, log-sd).
OSCILLATOR_LOGNORMALS = ((2.0, 0.2), (0.2, 0.02), (0.6, 0.05),
                         (1.0, 0.05), (1.0, 0.2), (1.0, 0.2))


def oscillator_is_p_f(seed, n=200_000):
    """Importance-sampling estimate of the oscillator's ``p_f``.

    The most likely failure point ``u*`` in standard-normal space
    (``x = exp(mu + sigma * u)``) is found by SLSQP from a fixed start;
    the estimate averages ``1{failure} * phi(u) / phi(u - u*)`` over ``n``
    draws of ``N(u*, I)``.  The estimate is unbiased for any shift, so a
    search that stops short of the optimum (SLSQP may report a line-search
    failure there) only widens the standard error, which the check uses.
    Returns ``(p, relative standard error)``.
    """
    from scipy.optimize import minimize

    mu, sigma = np.array(OSCILLATOR_LOGNORMALS).T

    def g(u):
        return oscillator_output(np.exp(mu + sigma * np.atleast_2d(u)))

    start = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 6.0])
    res = minimize(lambda u: 0.5 * u @ u, start, jac=lambda u: u, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: g(u)[0]}],
                   options={"maxiter": 500, "ftol": 1e-10})
    u_star = res.x
    if not (np.all(np.isfinite(u_star)) and abs(g(u_star)[0]) < 1e-3):
        raise RuntimeError(f"design point search failed: {res.message}")
    rng = np.random.default_rng(seed)
    u = u_star + rng.standard_normal((n, 6))
    w = np.exp(-u @ u_star + 0.5 * u_star @ u_star) * (g(u) > 0.0)
    p = float(w.mean())
    return p, float(w.std(ddof=1) / math.sqrt(n)) / p


# --- checks -------------------------------------------------------------

class Checks:
    """Collects failed checks as ``"name: detail"`` lines."""

    def __init__(self):
        self.failures = []

    def __call__(self, name, ok, detail):
        if not ok:
            self.failures.append(f"{name}: {detail}")


def per_replication(csv_text, replications, dimension):
    """``{family: (replications, dimension) array}`` from indices.csv."""
    lines = csv_text.strip().splitlines()
    if lines[0] != "replication,input_index,index_family,estimate,rank":
        raise ValueError(f"unexpected indices.csv header {lines[0]!r}")
    table = {fam: np.full((replications, dimension), np.nan) for fam in FAMILIES}
    for line in lines[1:]:
        rep, inp, fam, value, _ = line.split(",")
        table[fam][int(rep), int(inp) - 1] = float(value)
    return table


def check_round(check, workload, report, table, conditioned):
    """Checks on one campaign's outputs that need no reference."""
    body = report["report"]
    cfg = workload.config
    reps, dim = cfg["replications"], len(body["input_names"])
    smc = cfg["smc"]
    p_rep = np.asarray(body["p_f_per_replication"])
    levels = np.asarray(body["n_levels_per_replication"])

    check("replications", len(p_rep) == reps and len(conditioned) == reps
          and all(np.isfinite(v).all() for v in table.values()),
          f"expected {reps} complete replications, report has {len(p_rep)}, "
          f"{len(conditioned)} conditioned samples")
    for fam in FAMILIES:
        gap = np.max(np.abs(table[fam].mean(axis=0) - body["indices"][fam]["mean"]))
        check("csv matches report", gap <= 1e-9 * max(1.0, np.max(np.abs(table[fam]))),
              f"{fam} means differ from indices.csv by {gap:.3g}")

    calls = body["calls"]
    check("calls reconcile", calls["probability_phase"] + calls["sampling_phase"]
          == calls["counter_total"], f"split {calls} does not add up to the counter")
    n, m = smc["n_particles"], smc["mutation_steps"]
    prob = int(np.sum(n * (1 + levels * m)))
    final = reps * smc["final_sample_size"] * smc["final_mh_steps"]
    if smc["kernel"]["type"] == "crank_nicolson":
        check("call identity", (calls["probability_phase"], calls["sampling_phase"],
                                calls["counter_total"]) == (prob, final, prob + final),
              f"n(1+Lm) = {prob}, Nk = {final}, report {calls}")
    else:
        # random-walk candidates outside the support are rejected uncalled
        check("call identity", calls["probability_phase"] <= prob
              and calls["sampling_phase"] <= final,
              f"bounds n(1+Lm) = {prob}, Nk = {final}, report {calls}")

    for fam in BOUNDED:
        v = table[fam]
        check("index range", np.all((v >= 0.0) & (v <= 1.0)),
              f"{fam} outside [0, 1]: {v[(v < 0.0) | (v > 1.0)][:3]}")
    expect = 2.0 * p_rep[:, None] * table["eta_bar"]
    check("eta identity", np.allclose(table["eta"], expect, rtol=CSV_REL, atol=0.0),
          f"eta != 2 p_f eta_bar, worst {np.max(np.abs(table['eta'] - expect)):.3g}")

    threshold = workload.threshold
    for r, xy in enumerate(conditioned):
        y = workload.output(xy[:, :-1])
        check("conditioned outputs", np.all(y > threshold)
              and np.allclose(y, xy[:, -1], rtol=1e-12, atol=1e-12),
              f"replication {r}: {np.count_nonzero(y <= threshold)} rows at or below "
              f"{threshold}, largest mismatch {np.max(np.abs(y - xy[:, -1])):.3g}")
    if workload.name == "oscillator-tail":
        total = table["sobol_indicator"].sum(axis=1)
        check("sobol sum", np.all(total <= 1.0 + 1e-12),
              f"sum of first-order indices of independent inputs {total} > 1")


def splitting_rel_var(p_f_hat, levels, smc):
    """Relative variance of one splitting estimate, from its own ladder.

    Each level keeps a fraction ``q = (n - ceil(rho n)) / n`` of the ``n``
    particles and the last one the rest, ``p_last = p_f_hat / q**L``; for
    independent particles the log estimate has variance
    ``L (1 - q) / (q n) + (1 - p_last) / (p_last n)`` (Au & Beck 2001).
    Chains grown from shared seeds correlate the particles of a level,
    which ``SPLITTING_CORRELATION`` bounds."""
    n = smc["n_particles"]
    q = (n - math.ceil(smc["rho"] * n)) / n
    last = min(1.0, p_f_hat / q ** levels)
    return SPLITTING_CORRELATION[smc["kernel"]["type"]] * (
        levels * (1.0 - q) / (q * n) + (1.0 - last) / (last * n))


def check_p_f(check, name, p_reps, levels_reps, smc, ref, ref_rel_se):
    """Mean ``p_f_hat`` of a run's replications against a reference, on a
    log scale, within ``K_MEAN`` standard errors from the splitting
    variance and the reference's own relative error.  Returns the
    relative error of the mean."""
    p_reps = np.asarray(p_reps, dtype=float)
    var = np.mean([splitting_rel_var(p, lv, smc)
                   for p, lv in zip(p_reps, levels_reps)]) / len(p_reps)
    allowed = K_MEAN * math.sqrt(var + ref_rel_se ** 2)
    mean = float(p_reps.mean())
    gap = abs(math.log(mean / ref))
    check(name, gap <= allowed,
          f"mean {mean:.6g} over {len(p_reps)} replications against {ref:.6g}: "
          f"log gap {gap:.3g}, allowed {allowed:.3g}")
    return abs(mean - ref) / ref


def check_indices(check, refs, tables, n_distinct):
    """Mean indices of a run against references.

    ``refs`` maps ``<family>_<i>`` to ``(value, tolerance)``;
    ``n_distinct`` is the fewest distinct rows of a conditioned sample.
    Returns the largest absolute gap.
    """
    worst = 0.0
    for fam in BOUNDED:
        v = np.concatenate([t[fam] for t in tables])
        for i in range(v.shape[1]):
            ref_i, tol_i = refs[f"{fam}_{i + 1}"]
            mean = v[:, i].mean()
            sd = v[:, i].std(ddof=1) if len(v) > 1 else 0.0
            spread = max(sd, 1.0 / math.sqrt(n_distinct))
            worst = max(worst, abs(mean - ref_i))
            check("index vs reference", abs(mean - ref_i) <= K_INDEX * spread + tol_i,
                  f"{fam}_{i + 1} mean {mean:.6g} spread {spread:.3g}, "
                  f"reference {ref_i:.6g}")
    return worst


def check_builtin_twin(check, p_external, p_builtin):
    """The line protocol round-trips doubles exactly, so an external run
    and a builtin run at the same seed must agree bit for bit."""
    check("external equals builtin", list(p_external) == list(p_builtin),
          f"external p_f_hat {list(p_external)} != builtin {list(p_builtin)}")
