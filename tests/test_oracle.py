"""Reference values and rejection sampling for the tractable benchmarks.

The frozen constants below were produced by this module and cross-checked
against closed forms and convergence under grid refinement; they guard
against silent regressions in the quadrature layout.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from relsense.indices import delta_index, target_tv_index
from relsense.maxent import fit_copula, fractional_moments_1d, solve_maxent
from relsense.model import Marginal, builtin_model
from relsense.oracle import (
    BudgetExhaustedError,
    ReferenceValue,
    _c2_fy,
    _c2_sf,
    _t1_fy,
    chi2_references,
    rejection_conditioned_sample,
    toy1_references,
)

TOY1_FROZEN = {
    "p_f": 1.349898032e-3,
    "eta_bar_1": 0.998650102,
    "eta_bar_2": 0.0,
    "delta_f_1": 0.08171685,
    "delta_f_2": 0.76857447,
    "sobol_indicator_1": 1.0,
    "sobol_indicator_2": 0.0,
}

CHI2_FROZEN = {
    "p_f": 1.238701835e-4,
    "delta_1": 0.49307897,
    "delta_2": 0.30486818,
    "delta_f_1": 9.7456782e-4,
    "delta_f_2": 0.41964693,
    "eta_bar_1": 0.20927301,
    "eta_bar_2": 0.99912612,
    "sobol_indicator_1": 4.0452010e-5,
    "sobol_indicator_2": 0.70740209,
}


class TestReferenceTables:
    def test_toy1_matches_frozen_values(self, toy1_refs):
        assert set(toy1_refs) == set(TOY1_FROZEN)
        for name, frozen in TOY1_FROZEN.items():
            rv = toy1_refs[name]
            assert rv.value == pytest.approx(frozen, abs=max(rv.tolerance, 1e-7)), name

    def test_chi2_matches_frozen_values(self, chi2_refs):
        assert set(chi2_refs) == set(CHI2_FROZEN)
        for name, frozen in CHI2_FROZEN.items():
            rv = chi2_refs[name]
            assert rv.value == pytest.approx(frozen, abs=max(rv.tolerance, 1e-7)), name

    def test_toy1_closed_forms(self, toy1_refs):
        assert toy1_refs["p_f"].value == stats.norm.sf(3.0)
        assert toy1_refs["eta_bar_1"].value == stats.norm.cdf(3.0)
        assert toy1_refs["eta_bar_2"].value == 0.0
        assert toy1_refs["sobol_indicator_1"].value == 1.0
        assert toy1_refs["sobol_indicator_2"].value == 0.0

    def test_toy1_output_density_against_convolution(self):
        # brute-force convolution of the two conditional input laws,
        # written through scipy's own truncated and scaled normals
        x1 = stats.truncnorm(3.0, np.inf)
        x2 = stats.norm(scale=math.sqrt(5.0))
        ys = np.linspace(3.0, 25.0, 37)
        brute = [integrate.quad(lambda t: 2.0 * x2.pdf(t) * x1.pdf(y - t), 0.0, y - 3.0,
                                epsabs=1e-13, limit=200)[0] for y in ys]
        np.testing.assert_allclose(_t1_fy(ys), brute, rtol=0.0, atol=1e-10)
        assert _t1_fy(np.array([2.0, 2.999]))[0] == 0.0
        # beyond y = 40 the mass is below 1e-50
        mass, err = integrate.quad(lambda y: _t1_fy(y)[0], 3.0, 40.0, limit=200)
        assert err < 1e-9
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_chi2_probability_cross_check(self, chi2_refs):
        # same event written through the one-degree chi-square law
        # instead of the half-normal survival used internally
        val, err = integrate.quad(
            lambda x: stats.norm.pdf(x) * stats.chi2.sf(max(15.0 - x, 0.0), df=1),
            -12.0, 12.0, limit=400)
        assert err < 1e-8
        assert chi2_refs["p_f"].value == pytest.approx(val, abs=1e-9)

    def test_chi2_output_laws_against_convolution(self):
        # brute-force convolution of the normal first input with the
        # one-degree chi-square law of the squared second input
        x1, sq = stats.norm(), stats.chi2(df=1)
        ys = np.linspace(-8.0, 40.0, 21)
        dens = [integrate.quad(lambda u: sq.pdf(u) * x1.pdf(y - u), 0.0, max(y, 0.0) + 12.0,
                               points=[y] if y > 0.0 else None, epsabs=0.0, epsrel=1e-12,
                               limit=200)[0] for y in ys]
        surv = [integrate.quad(lambda x: x1.pdf(x) * sq.sf(max(y - x, 0.0)), -12.0, 12.0,
                               points=[y] if abs(y) < 12.0 else None, epsabs=0.0,
                               epsrel=1e-12, limit=200)[0] for y in ys]
        np.testing.assert_allclose(_c2_fy(ys), dens, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(_c2_sf(ys), surv, rtol=0.0, atol=1e-12)

    def test_chi2_first_marginal_deviation_against_quad(self, chi2_refs):
        # the failure probability given the first input, through the
        # chi-square survival, crosses p_f once; quad gets it as a break point
        x1, sq = stats.norm(), stats.chi2(df=1)
        p_f = integrate.quad(lambda x: x1.pdf(x) * sq.sf(max(15.0 - x, 0.0)),
                             -12.0, 12.0, limit=400)[0]
        crossing = 15.0 - sq.isf(p_f)
        val, err = integrate.quad(
            lambda x: 0.5 * abs(x1.pdf(x) * (1.0 - sq.sf(max(15.0 - x, 0.0)) / p_f)),
            -12.0, 12.0, points=[crossing], limit=400)
        assert err < 1e-8
        assert chi2_refs["eta_bar_1"].value == pytest.approx(val, abs=1e-9)

    def test_chi2_sobol_identity(self, chi2_refs):
        # first-order indices of an indicator cannot exceed one and the
        # squared-input index dominates by construction
        s1 = chi2_refs["sobol_indicator_1"].value
        s2 = chi2_refs["sobol_indicator_2"].value
        assert 0.0 <= s1 < s2 <= 1.0

    def test_refinement_drift_below_tolerance(self):
        coarse = {rv.name: rv.value for rv in toy1_references(refine=1)}
        fine = {rv.name: rv.value for rv in toy1_references(refine=2)}
        for name in ("delta_f_1", "delta_f_2"):
            assert abs(fine[name] - coarse[name]) < 1e-4, name

    def test_chi2_refinement_drift_below_tolerance(self):
        coarse = {rv.name: rv.value for rv in chi2_references(refine=1)}
        fine = {rv.name: rv.value for rv in chi2_references(refine=2)}
        for name in ("delta_1", "delta_2", "delta_f_2", "eta_bar_1", "eta_bar_2"):
            assert abs(fine[name] - coarse[name]) < 1e-4, name
        assert abs(fine["delta_f_1"] - coarse["delta_f_1"]) < 1e-5

    def test_refine_validation(self):
        with pytest.raises(ValueError, match="refine"):
            toy1_references(refine=0)
        with pytest.raises(ValueError, match="refine"):
            chi2_references(refine=0)

    def test_reference_value_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            ReferenceValue("x", 1.0, "closed_form", 0.0)
        with pytest.raises(ValueError, match="unknown method"):
            ReferenceValue("x", 1.0, "guesswork", 1e-3)


class TestRejectionSampling:
    def test_toy1_conditioned_draws(self, toy1_rejection):
        sample = toy1_rejection
        assert sample.inputs.shape == (12000, 2)
        assert np.all(sample.inputs[:, 0] > 3.0)
        assert np.all(sample.outputs > 3.0)
        np.testing.assert_allclose(
            sample.outputs, sample.inputs[:, 0] + np.abs(sample.inputs[:, 1]),
            rtol=1e-12)

    def test_toy1_truncated_mean(self, toy1_rejection):
        # E[X1 | X1 > 3] for a standard normal
        expected = stats.norm.pdf(3.0) / stats.norm.sf(3.0)
        sd = math.sqrt(1.0 + 3.0 * expected - expected ** 2)
        sem = sd / math.sqrt(12000)
        assert toy1_rejection.inputs[:, 0].mean() == pytest.approx(expected, abs=4 * sem)

    def test_proposal_count_tracks_acceptance(self, toy1_rejection):
        # about n_target / p_f proposals are needed
        expected = 12000 / stats.norm.sf(3.0)
        assert 0.8 * expected < toy1_rejection.n_proposed <= 10**7

    def test_arrays_are_read_only(self, toy1_rejection):
        with pytest.raises(ValueError):
            toy1_rejection.inputs[0, 0] = 0.0

    def test_mild_event_acceptance_rate(self):
        box, model, _ = builtin_model("toy1")
        from relsense.model import FailureEvent
        sample = rejection_conditioned_sample(box, model, FailureEvent(0.0),
                                              n_target=30000, budget=70000,
                                              seed=7, block_size=2000)
        rate = 30000 / sample.n_proposed
        assert rate == pytest.approx(0.5, abs=0.03)

    def test_determinism(self):
        box, model, event = builtin_model("toy1")
        a = rejection_conditioned_sample(box, model, event, 50, 10**6, seed=5)
        b = rejection_conditioned_sample(box, model, event, 50, 10**6, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert a.n_proposed == b.n_proposed

    def test_budget_exhaustion_on_extreme_event(self):
        box, model, event = builtin_model("sdof_oscillator")
        with pytest.warns(UserWarning, match="projects only"):
            with pytest.raises(BudgetExhaustedError) as excinfo:
                rejection_conditioned_sample(box, model, event, n_target=10,
                                             budget=20000, seed=1,
                                             block_size=1000)
        assert excinfo.value.n_accepted == 0

    def test_argument_validation(self):
        box, model, event = builtin_model("toy1")
        with pytest.raises(ValueError, match="n_target"):
            rejection_conditioned_sample(box, model, event, 0, 100, seed=0)
        with pytest.raises(ValueError, match="budget smaller"):
            rejection_conditioned_sample(box, model, event, 100, 50, seed=0)


class TestPipelineConsistency:
    """Estimation pipeline against the oracle on exact conditioned draws."""

    def test_first_input_marginal_distance(self, toy1_rejection, toy1_refs):
        density = solve_maxent(fractional_moments_1d(toy1_rejection.inputs[:, 0]))
        got = target_tv_index(density, Marginal("normal", 0.0, 1.0))
        assert got == pytest.approx(toy1_refs["eta_bar_1"].value, abs=0.01)

    def test_first_input_dependence(self, toy1_rejection, toy1_refs):
        xy = np.column_stack([toy1_rejection.inputs[:, 0], toy1_rejection.outputs])
        got = delta_index(fit_copula(xy))
        assert got == pytest.approx(toy1_refs["delta_f_1"].value, abs=0.02)

    def test_second_input_dependence(self, toy1_rejection, toy1_refs):
        xy = np.column_stack([toy1_rejection.inputs[:, 1], toy1_rejection.outputs])
        got = delta_index(fit_copula(xy))
        assert got == pytest.approx(toy1_refs["delta_f_2"].value, abs=0.02)
