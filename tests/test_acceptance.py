"""Acceptance gate: one test per shipping criterion.

Each test prints one line per sub-bound and a final PASS/FAIL line, then
asserts all sub-bounds at once, so a red criterion still reports every
measured value.  A sub-bound the estimator misses fails honestly: the
assertion message states the measured value and what is known of the
cause rather than widening the window.
"""

import math

import numpy as np

from relsense.campaign import parse_config, run_campaign, run_replication
from relsense.indices import (DivergenceSpec, WeightFunction, delta_index,
                              csiszar_indices, rank_descending, target_tv_index)
from relsense.maxent import (fit_copula, fit_density, fractional_moments_1d,
                             solve_maxent, _composite_gl)
from relsense.model import Marginal, builtin_model
from relsense.oracle import rejection_conditioned_sample


class Checker:
    """Collects sub-bound results so one criterion = one pass/fail."""

    def __init__(self, label):
        self.label = label
        self.failures = []

    def check(self, name, ok, detail):
        print(f"    {name}: {'ok' if ok else 'FAIL'} ({detail})")
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def window(self, name, value, lo, hi, note=""):
        self.check(name, lo <= value <= hi,
                   f"measured {value:.4g}, window [{lo:.4g}, {hi:.4g}]{note}")

    def at_most(self, name, value, bound, note=""):
        self.check(name, value <= bound,
                   f"measured {value:.4g}, bound {bound:.4g}{note}")

    def conclude(self):
        status = "FAIL" if self.failures else "PASS"
        print(f"[{self.label}] {status}")
        assert not self.failures, (
            f"{self.label}: " + "; ".join(self.failures))


SATURATION_NOTE = ("; the copula plug-in reads low when its family is too "
                   "poor for this near-functional pair: the nine cross "
                   "features without margin features saturated near 0.43, "
                   "while the BIC ladder with margin features reads about "
                   "0.74; a miss here points at the exponent family or at "
                   "poorly mixed chains, not at the budget")


def test_criterion_1_gated_toy_benchmark():
    raw = {
        "model": {"builtin": "toy1"},
        "smc": {"n_particles": 500, "rho": 0.3935, "mutation_steps": 3,
                "final_sample_size": 3000, "final_mh_steps": 5,
                "kernel": {"type": "crank_nicolson", "a": 0.5}},
        "replications": 100,
        "seed": 41,
    }
    report = run_campaign(parse_config(raw))
    est, sds = report.indices.estimates, report.indices.sds
    print(f"\n[criterion 1] toy benchmark, 100 replications, "
          f"p_f_hat {report.indices.p_f_hat:.4g}")
    c = Checker("criterion 1")
    c.window("mean eta_bar_1", est["eta_bar"][0], 0.97, 1.0)
    c.at_most("mean eta_bar_2", est["eta_bar"][1], 0.06)
    c.window("mean delta_f_1", est["delta_f"][0], 0.06, 0.12)
    c.window("mean delta_f_2", est["delta_f"][1], 0.69, 0.80,
             note=SATURATION_NOTE)
    c.window("mean sobol_1", est["sobol_indicator"][0], 0.9, 1.1)
    c.at_most("mean sobol_2", est["sobol_indicator"][1], 1e-3)
    for fam, i, ref_sd in (("delta_f", 0, 0.0101), ("delta_f", 1, 0.0077),
                           ("eta_bar", 0, 0.0095), ("eta_bar", 1, 0.0103),
                           ("sobol_indicator", 0, 0.0672)):
        c.at_most(f"sd {fam}_{i + 1}", sds[fam][i], 3.0 * ref_sd)
    c.at_most("sd sobol_indicator_2", sds["sobol_indicator"][1], 3.0 * 5.53e-6,
              note="; the index of the inert input is the scaled variance of a "
                   "density ratio that is 1 plus fit error, so its spread "
                   "tracks the max-entropy fit noise on 3000 conditioned "
                   "points; that noise is heavy-tailed: the median sits "
                   "near the bound while single replications whose "
                   "BIC-chosen (0.5, 1, 1.5) fit bends at the support "
                   "edge, where the nominal density is small, read two "
                   "orders above it")
    c.conclude()


def test_criterion_2_chi_square_benchmark():
    raw = {
        "model": {"builtin": "additive_chi2"},
        "smc": {"n_particles": 300, "rho": 0.5507, "mutation_steps": 3,
                "final_sample_size": 5000, "final_mh_steps": 3,
                "kernel": {"type": "crank_nicolson", "a": 0.5}},
        "replications": 100,
        "seed": 42,
    }
    report = run_campaign(parse_config(raw))
    est = report.indices.estimates
    p_hat = report.indices.p_f_hat
    print(f"\n[criterion 2] chi-square benchmark, 100 replications, "
          f"p_f_hat {p_hat:.4g}")
    c = Checker("criterion 2")
    c.window("mean delta_f_2", est["delta_f"][1], 0.36, 0.45,
             note=SATURATION_NOTE)
    c.window("mean eta_bar_1", est["eta_bar"][0], 0.15, 0.27)
    c.window("mean eta_bar_2", est["eta_bar"][1], 0.93, 1.0,
             note="; the failure region splits into two symmetric branches of "
                  "the second input and the sampler keeps both; the "
                  "marginal fit must hollow out the middle of that bimodal "
                  "conditional, which the fixed (0.5, 1, 1.5) family cannot "
                  "(it capped the distance near 0.86) and the even powers "
                  "of the BIC ladder can; samplers that lose one branch "
                  "read close to 1 here while misrepresenting the "
                  "conditioned law")
    c.at_most("mean delta_f_1 (3 final chain steps)", est["delta_f"][0], 0.12)

    longer = dict(raw, replications=20, seed=43)
    longer["smc"] = dict(raw["smc"], final_mh_steps=30)
    long_report = run_campaign(parse_config(longer))
    c.at_most("mean delta_f_1 (30 final chain steps)",
              long_report.indices.estimates["delta_f"][0], 0.05)

    c.window("mean p_f_hat", p_hat, 0.7 * 1.2387e-4, 1.3 * 1.2387e-4)
    c.conclude()


def oscillator_importance_sampling(seed=2019, n=200_000):
    """Design-point importance sampling of the oscillator's ``p_f``.

    In latent coordinates ``x = exp(mu + sigma * u)`` the most likely
    failure point ``u*`` is the point of the limit state nearest the
    origin (SLSQP from a fixed start); the estimate averages
    ``1{failure} * phi(u) / phi(u - u*)`` over ``n`` draws of
    ``N(u*, I)``.  Any shift keeps it unbiased, so a search stopping
    short of the optimum only widens the standard error.  Returns
    ``(p, relative standard error)``.
    """
    from scipy.optimize import minimize

    box, inputs, event = builtin_model("sdof_oscillator")
    mu = np.array([m.loc for m in inputs.marginals])
    sigma = np.array([m.scale for m in inputs.marginals])

    def margin(u):
        return box.evaluate_batch(np.exp(mu + sigma * np.atleast_2d(u))) - event.threshold

    start = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 6.0])
    res = minimize(lambda u: 0.5 * u @ u, start, jac=lambda u: u, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: margin(u)[0]}],
                   options={"maxiter": 500, "ftol": 1e-10})
    u_star = res.x
    assert abs(margin(u_star)[0]) < 1e-3, f"design point search failed: {res.message}"
    u = u_star + np.random.default_rng(seed).standard_normal((n, u_star.size))
    w = np.exp(0.5 * u_star @ u_star - u @ u_star) * (margin(u) > 0.0)
    p = float(w.mean())
    return p, float(w.std(ddof=1) / math.sqrt(n)) / p


def test_criterion_3_oscillator_rankings():
    raw = {
        "model": {"builtin": "sdof_oscillator"},
        "smc": {"n_particles": 500, "rho": 0.1813, "mutation_steps": 10,
                "final_sample_size": 3000, "final_mh_steps": 10,
                "kernel": {"type": "random_walk", "step_sds": "match_input"},
                "max_levels": 400},
        "replications": 20,
        "seed": 44,
    }
    report = run_campaign(parse_config(raw))
    names = ("c1", "c2", "r", "m", "t", "F")
    est = report.indices.estimates
    print(f"\n[criterion 3] oscillator, 20 replications, "
          f"p_f_hat {report.indices.p_f_hat:.4g}")
    for fam in ("delta_f", "eta_bar", "sobol_indicator"):
        pairs = ", ".join(f"{n}={v:.4g}" for n, v in zip(names, est[fam]))
        print(f"    mean {fam}: {pairs}")

    def votes(fam, predicate):
        return sum(bool(predicate(rank_descending(rec["families"][fam][0])))
                   for rec in report.per_replication)

    n = report.indices.n_replications
    c = Checker("criterion 3")

    # The mean log estimate against importance sampling, within five
    # standard errors: the replications' own spread and the reference's.
    p_is, is_rel_se = oscillator_importance_sampling()
    logs = np.log(report.p_f_per_replication)
    se = math.sqrt(logs.var(ddof=1) / n + is_rel_se ** 2)
    gap = logs.mean() - math.log(p_is)
    c.check("mean log p_f_hat vs importance sampling", abs(gap) <= 5.0 * se,
            f"mean p_f_hat {math.exp(logs.mean()):.4g} (geometric) against "
            f"{p_is:.4g}: log gap {gap:.3g}, 5 standard errors {5.0 * se:.3g}")

    def vote_check(title, fam, predicate, note=""):
        v = votes(fam, predicate)
        c.check(title, v > n // 2, f"{v}/{n} replications{note}")

    vote_check("eta_bar ranks F first", "eta_bar", lambda r: r[5] == 1)
    vote_check("eta_bar ranks c1 second", "eta_bar", lambda r: r[0] == 2)
    vote_check("eta_bar ranks m last", "eta_bar", lambda r: r[3] == 6,
               note="; the two weakest inputs (c2, m) are statistically tied "
                    "at this budget, so last place can flip between them")
    vote_check("delta_f ranks F first", "delta_f", lambda r: r[5] == 1,
               note="; the copula plug-in compresses the spread between the "
                    "top inputs, so first place can flip between F and c1")
    vote_check("sobol ranks (F,c1,r) = (1,2,3) with the rest tied",
               "sobol_indicator",
               lambda r: (r[5], r[0], r[2]) == (1, 2, 3)
               and {r[1], r[3], r[4]} == {4, 5, 6},
               note="; at p_f near 1e-17 no nominal draw reaches the fitted "
                    "support, so the ratio variance must be integrated over "
                    "that support; a draw-based estimate reads exactly zero "
                    "for the dominant input")
    c.conclude()


def test_criterion_4_plugin_against_rejection_oracle():
    box, inputs, event = builtin_model("toy1")
    rs = rejection_conditioned_sample(box, inputs, event, n_target=100_000,
                                      budget=200_000_000, seed=2024,
                                      block_size=1_000_000)
    d1 = delta_index(fit_copula(np.column_stack([rs.inputs[:, 0], rs.outputs])))
    d2 = delta_index(fit_copula(np.column_stack([rs.inputs[:, 1], rs.outputs])))
    print(f"\n[criterion 4] plug-in on 1e5 exact conditioned draws: "
          f"delta_f_1 {d1:.4f}, delta_f_2 {d2:.4f}")
    c = Checker("criterion 4")
    c.window("delta_f_1 vs oracle 0.0781", d1, 0.0781 - 0.03, 0.0781 + 0.03)
    c.window("delta_f_2 vs oracle 0.7686", d2, 0.7686 - 0.03, 0.7686 + 0.03,
             note=SATURATION_NOTE + " (the sampler is exact here, so the gap "
                  "is entirely the density family's)")
    c.conclude()


def test_criterion_5_property_bundle():
    print("\n[criterion 5] property bundle")
    c = Checker("criterion 5")

    # exact call accounting on a small campaign replication
    raw = {
        "model": {"builtin": "toy1"},
        "smc": {"n_particles": 250, "rho": 0.3, "mutation_steps": 2,
                "final_sample_size": 800, "final_mh_steps": 2,
                "kernel": {"type": "crank_nicolson", "a": 0.5}},
        "replications": 1,
        "seed": 77,
    }
    config = parse_config(raw)
    record = run_replication(config, 0)
    m = record["n_levels"]
    expected = 250 * (1 + m * 2) + 800 * 2
    c.check("call identity n_x(1 + m a_x) + n a",
            record["calls_counter"] == expected
            and record["calls_counter"] == (record["calls_probability"]
                                            + record["calls_sampling"]),
            f"counter {record['calls_counter']}, identity {expected}, m {m}")

    # max-entropy fit: normalization, moment match, dual gradient
    rng = np.random.default_rng(5)
    sample = rng.chisquare(4, 1000) + 1.0
    cons = fractional_moments_1d(sample)
    density = solve_maxent(cons)
    a, b = density.support
    x, w = _composite_gl(a, b, 32, 64)
    pdf = density.pdf(x)
    c.at_most("normalization error", abs(float(pdf @ w) - 1.0), 1e-5)
    worst = max(abs(float((x ** e * pdf) @ w) - t) / max(1.0, abs(t))
                for e, t in zip(cons.exponents, cons.targets))
    c.at_most("moment match error", worst, 1e-5)
    mass = pdf * w
    mass /= mass.sum()
    grad = np.array([float((x ** e) @ mass) - t
                     for e, t in zip(cons.exponents, cons.targets)])
    c.at_most("dual gradient norm", float(np.linalg.norm(grad)), 1e-6)

    # independence null stays under the frozen noise floor
    rng = np.random.default_rng(31)
    null_worst = max(delta_index(fit_copula(rng.standard_normal((3000, 2))))
                     for _ in range(3))
    c.at_most("independence-null delta_f", null_worst, 0.08)

    # the generalized estimator reproduces the specialized ones exactly
    rng = np.random.default_rng(33)
    xs = np.abs(rng.standard_normal(2500)) + 0.2
    ys = xs + 0.3 * rng.standard_normal(2500) ** 2 + 0.1
    xy = np.column_stack([xs, ys])
    marginal = Marginal("normal", 0.0, 1.0)
    eta, delta = csiszar_indices(DivergenceSpec.total_variation(),
                                 WeightFunction.indicator_above(0.0),
                                 xy, marginal)
    eta_direct = target_tv_index(fit_density(xy[:, 0]), marginal)
    delta_direct = delta_index(fit_copula(xy))
    c.check("generalized estimator specializes exactly",
            eta == eta_direct and delta == delta_direct,
            f"eta {eta:.6g} vs {eta_direct:.6g}, "
            f"delta {delta:.6g} vs {delta_direct:.6g}")

    # reports are byte-identical across reruns
    first = run_campaign(parse_config(raw))
    second = run_campaign(parse_config(raw))
    c.check("report determinism",
            first.deterministic_body() == second.deterministic_body()
            and first.csv_text() == second.csv_text(),
            "two runs from the same config and seed")
    c.conclude()


def test_criterion_6_external_model_config_only():
    # the published study behind the six-input trajectory case keeps its
    # physics model private, so the campaign is exercised up to (and not
    # including) the first model call
    sds = [165.0, 3.7, 0.001, 0.0018, 70.0, 0.1]
    raw = {
        "model": {"command": ["/opt/models/trajectory"], "dimension": 6},
        "inputs": {
            "marginals": [{"kind": "normal", "mean": 0.0, "sd": s}
                          for s in sds],
        },
        "event": {"threshold": 15.0},
        "smc": {"n_particles": 800, "rho": 0.4, "mutation_steps": 10,
                "final_sample_size": 5000, "final_mh_steps": 10,
                "kernel": {"type": "crank_nicolson", "a": 0.5}},
        "replications": 10,
        "seed": 1,
    }
    print("\n[criterion 6] external-model config, parsed without any model call")
    c = Checker("criterion 6")
    from relsense.campaign import validate_config

    c.check("config validates", validate_config(raw) == [], "no findings")
    config = parse_config(raw)
    c.check("input model matches the declared marginals",
            config.dimension == 6
            and [mg.scale for mg in config.input_model.marginals] == sds
            and all(mg.kind == "normal" for mg in config.input_model.marginals),
            "six independent normals")
    c.check("no process started during parsing",
            config.command == ("/opt/models/trajectory",),
            "command kept verbatim, binary absent on purpose")
    c.conclude()
