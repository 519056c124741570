"""Adaptive multilevel splitting: estimates, call accounting, failure modes."""

import math

import numpy as np
import pytest
from scipy import stats

from relsense.model import BlackBox, FailureEvent, InputModel, Marginal, builtin_model
from relsense.seeding import stream
from relsense.smc import (
    CrankNicolsonKernel,
    GaussianRandomWalkKernel,
    SmcError,
    SmcParams,
    SmcResult,
    adapt_kernel,
    final_sampling,
    mh_step,
    run_adaptive_smc,
)

TOY1_PF = stats.norm.sf(3.0)  # failure is first coordinate above 3


def identity_box():
    return BlackBox(fn=lambda x: float(x[0]), dimension=1, name="identity",
                    batch_fn=lambda x: x[:, 0])


def toy1_params(**overrides):
    base = dict(n_particles=500, rho=0.3935, mutation_steps=3,
                final_sample_size=1000, final_mh_steps=3,
                kernel=CrankNicolsonKernel(a=0.5), seed=101)
    base.update(overrides)
    return SmcParams(**base)


class TestEstimate:
    def test_toy1_probability_order_of_magnitude(self):
        box, model, event = builtin_model("toy1")
        result = run_adaptive_smc(box, model, event, toy1_params())
        assert TOY1_PF / 3.0 < result.p_f_hat < TOY1_PF * 3.0

    def test_unbiased_on_mild_event(self):
        # Threshold 1 makes failure equivalent to the first coordinate
        # exceeding 1, so the exact probability is known in closed form.
        box, model, _ = builtin_model("toy1")
        event = FailureEvent(1.0)
        p_exact = stats.norm.sf(1.0)
        estimates = []
        for seed in range(200):
            params = SmcParams(n_particles=150, rho=0.3935, mutation_steps=2,
                               final_sample_size=50, final_mh_steps=1,
                               kernel=CrankNicolsonKernel(a=0.5), seed=seed)
            estimates.append(run_adaptive_smc(box, model, event, params).p_f_hat)
        estimates = np.asarray(estimates)
        sem = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - p_exact) < 2.0 * sem

    def test_non_rare_event_stops_immediately(self):
        box, model, _ = builtin_model("toy1")
        event = FailureEvent(-1.0)
        params = toy1_params(n_particles=2000)
        result = run_adaptive_smc(box, model, event, params)
        assert result.n_levels == 0
        assert len(result.levels) == 1
        assert result.acceptance_rates == ()
        assert result.calls_probability_phase == 2000
        # the estimate is then the crude Monte Carlo fraction
        assert result.p_f_hat == pytest.approx(stats.norm.cdf(1.0), abs=0.035)

    def test_levels_strictly_increase_and_clear_threshold(self):
        box, model, event = builtin_model("toy1")
        result = run_adaptive_smc(box, model, event, toy1_params())
        levels = np.asarray(result.levels)
        assert np.all(np.diff(levels) > 0)
        assert levels[-1] > event.threshold
        assert result.n_levels == len(result.levels) - 1

    def test_conditioned_sample_is_in_failure_region(self):
        box, model, event = builtin_model("toy1")
        params = toy1_params(final_sample_size=800)
        result = run_adaptive_smc(box, model, event, params)
        assert result.conditioned_outputs.shape == (800,)
        assert result.conditioned_sample.shape == (800, 2)
        assert result.conditioned_outputs.min() > event.threshold
        assert np.all(result.conditioned_sample[:, 0] > 3.0)
        assert not result.conditioned_sample.flags.writeable


class TestCallAccounting:
    def test_identity_with_gaussian_kernel(self):
        box, model, event = builtin_model("toy1")
        params = toy1_params()
        before = box.call_count
        result = run_adaptive_smc(box, model, event, params)
        n, m = params.n_particles, result.n_levels
        assert result.calls_probability_phase == n * (1 + m * params.mutation_steps)
        assert result.calls_sampling_phase == params.final_sample_size * params.final_mh_steps
        assert box.call_count - before == result.calls_total

    def test_identity_with_random_walk_kernel(self):
        box, model, event = builtin_model("additive_chi2")
        params = SmcParams(n_particles=300, rho=0.5507, mutation_steps=3,
                           final_sample_size=600, final_mh_steps=3,
                           kernel=GaussianRandomWalkKernel.matching_input_sds(model),
                           seed=5)
        before = box.call_count
        result = run_adaptive_smc(box, model, event, params)
        n, m = params.n_particles, result.n_levels
        # normal marginals cover the whole line, so no candidate is ever
        # discarded for leaving the support and the identity stays exact
        assert result.calls_probability_phase == n * (1 + m * params.mutation_steps)
        assert result.calls_sampling_phase == 600 * 3
        assert box.call_count - before == result.calls_total


class TestReproducibility:
    def test_identical_runs_bitwise_equal(self):
        box, model, event = builtin_model("toy1")
        a = run_adaptive_smc(box, model, event, toy1_params(seed=42))
        b = run_adaptive_smc(box, model, event, toy1_params(seed=42))
        assert a.p_f_hat == b.p_f_hat
        assert a.levels == b.levels
        np.testing.assert_array_equal(a.conditioned_sample, b.conditioned_sample)
        np.testing.assert_array_equal(a.conditioned_outputs, b.conditioned_outputs)

    def test_seed_changes_the_run(self):
        box, model, event = builtin_model("toy1")
        a = run_adaptive_smc(box, model, event, toy1_params(seed=1))
        b = run_adaptive_smc(box, model, event, toy1_params(seed=2))
        assert a.p_f_hat != b.p_f_hat


class TestMhStep:
    def test_candidate_below_level_rejected(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        x0 = np.array([0.4])
        x1, accepted = mh_step(x0, gamma=1e9, blackbox=box, input_model=model,
                               kernel=CrankNicolsonKernel(a=0.5), rng=stream(3, 0))
        assert not accepted
        np.testing.assert_array_equal(x1, x0)
        assert box.call_count == 1

    def test_tiny_crank_nicolson_step_accepts(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        x0 = np.array([0.4])
        x1, accepted = mh_step(x0, gamma=-1e9, blackbox=box, input_model=model,
                               kernel=CrankNicolsonKernel(a=1e-9), rng=stream(3, 1))
        assert accepted
        assert x1[0] == pytest.approx(0.4, abs=1e-3)
        assert x1[0] != 0.4

    def test_out_of_support_candidate_costs_no_call(self):
        box = identity_box()
        model = InputModel((Marginal("uniform", 0.0, 1.0),))
        # a step of a million starting from the middle of a unit interval
        # leaves the support with near certainty
        kernel = GaussianRandomWalkKernel((1e6,))
        x1, accepted = mh_step(np.array([0.5]), gamma=-1e9, blackbox=box,
                               input_model=model, kernel=kernel, rng=stream(7, 0))
        assert not accepted
        assert x1[0] == 0.5
        assert box.call_count == 0

    def test_crank_nicolson_rejects_non_gaussian_inputs(self):
        box = identity_box()
        model = InputModel((Marginal("lognormal", 0.0, 1.0),))
        with pytest.raises(SmcError, match="jointly Gaussian"):
            mh_step(np.array([1.0]), gamma=0.0, blackbox=box, input_model=model,
                    kernel=CrankNicolsonKernel(a=0.5), rng=stream(0, 0))

    def test_step_sds_dimension_mismatch(self):
        box, model, _ = builtin_model("toy1")
        with pytest.raises(SmcError, match="length 3 but the input has"):
            mh_step(np.array([0.0, 0.0]), gamma=-1.0, blackbox=box, input_model=model,
                    kernel=GaussianRandomWalkKernel((1.0, 1.0, 1.0)), rng=stream(0, 0))


class TestChainLaw:
    def test_random_walk_chain_targets_truncated_normal(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        event = FailureEvent(2.0)
        survivors = np.array([[2.1], [2.5], [3.0]])
        x, y, rate = final_sampling(survivors, survivors[:, 0], box, model, event,
                                    n_sample=4000, n_steps=40,
                                    kernel=GaussianRandomWalkKernel((1.0,)),
                                    rng=stream(11, 0))
        truncated_mean = stats.norm.pdf(2.0) / stats.norm.sf(2.0)
        assert y.min() > 2.0
        assert y.mean() == pytest.approx(truncated_mean, abs=0.05)
        assert 0.0 < rate < 1.0


class TestFinalSampling:
    def test_zero_steps_duplicates_survivors(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        event = FailureEvent(0.5)
        survivors = np.array([[0.2], [0.8], [1.4], [2.0]])
        x, y, rate = final_sampling(survivors, survivors[:, 0], box, model, event,
                                    n_sample=50, n_steps=0,
                                    kernel=GaussianRandomWalkKernel((1.0,)),
                                    rng=stream(13, 0))
        assert rate is None
        assert box.call_count == 0
        # only the rows above the threshold may appear
        assert set(np.round(x[:, 0], 12)) <= {0.8, 1.4, 2.0}
        np.testing.assert_array_equal(y, x[:, 0])

    def test_empty_survivor_set(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        event = FailureEvent(5.0)
        survivors = np.array([[0.2], [0.8]])
        with pytest.raises(SmcError, match="empty survivor set"):
            final_sampling(survivors, survivors[:, 0], box, model, event,
                           n_sample=10, n_steps=1,
                           kernel=GaussianRandomWalkKernel((1.0,)), rng=stream(0, 0))


class TestFailureModes:
    def test_max_levels_exceeded(self):
        box, model, _ = builtin_model("toy1")
        event = FailureEvent(9.0)
        params = toy1_params(max_levels=3)
        with pytest.raises(SmcError, match="after 3 levels"):
            run_adaptive_smc(box, model, event, params)

    def test_tied_outputs(self):
        box = BlackBox(fn=lambda x: 1.0, dimension=1, name="flat",
                       batch_fn=lambda x: np.ones(x.shape[0]))
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        params = SmcParams(n_particles=100, rho=0.5, mutation_steps=1,
                           final_sample_size=10, final_mh_steps=1,
                           kernel=CrankNicolsonKernel(a=0.5), seed=0)
        with pytest.raises(SmcError, match="no particles strictly above"):
            run_adaptive_smc(box, model, FailureEvent(2.0), params)

    def test_acceptance_collapse(self):
        box = identity_box()
        model = InputModel((Marginal("uniform", 0.0, 1.0),))
        params = SmcParams(n_particles=200, rho=0.3935, mutation_steps=3,
                           final_sample_size=10, final_mh_steps=1,
                           kernel=GaussianRandomWalkKernel((1e6,)), seed=0)
        with pytest.raises(SmcError, match="acceptance collapsed to zero"):
            run_adaptive_smc(box, model, FailureEvent(2.0), params)

    def test_adapted_acceptance_lands_in_band(self):
        box, model, event = builtin_model("toy1")
        result = run_adaptive_smc(box, model, event, toy1_params())
        # the first phase runs the configured kernel, the rest the adapted one
        assert result.acceptance_rates[0] > 0.6
        assert all(0.15 <= r <= 0.40 for r in result.acceptance_rates[2:])
        assert 0.15 <= result.final_acceptance_rate <= 0.40

    def test_acceptance_band_warning(self):
        box, model, _ = builtin_model("toy1")
        # a near-identity proposal accepts nearly everything, which is
        # flagged as an untuned kernel
        params = toy1_params(kernel=CrankNicolsonKernel(a=1e-6))
        with pytest.warns(UserWarning, match="acceptance rates"):
            run_adaptive_smc(box, model, FailureEvent(1.0), params)

    def test_dimension_mismatch(self):
        box, _, event = builtin_model("toy1")
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        with pytest.raises(ValueError, match="disagree on the dimension"):
            run_adaptive_smc(box, model, event, toy1_params())


class TestParameterValidation:
    def test_kernel_bounds(self):
        with pytest.raises(ValueError, match="lie in \\(0, 1\\)"):
            CrankNicolsonKernel(a=0.0)
        with pytest.raises(ValueError, match="lie in \\(0, 1\\)"):
            CrankNicolsonKernel(a=1.0)
        with pytest.raises(ValueError, match="strictly positive"):
            GaussianRandomWalkKernel((1.0, -0.5))

    def test_matching_input_sds(self):
        _, model, _ = builtin_model("toy1")
        kernel = GaussianRandomWalkKernel.matching_input_sds(model)
        assert kernel.step_sds == pytest.approx((1.0, math.sqrt(5.0)))

    def test_params_bounds(self):
        kernel = CrankNicolsonKernel(a=0.5)
        with pytest.raises(ValueError, match="rho"):
            SmcParams(n_particles=10, rho=1.2, mutation_steps=1,
                      final_sample_size=1, final_mh_steps=0, kernel=kernel)
        with pytest.raises(ValueError, match="at least 2"):
            SmcParams(n_particles=1, rho=0.5, mutation_steps=1,
                      final_sample_size=1, final_mh_steps=0, kernel=kernel)
        with pytest.raises(ValueError, match="no room"):
            SmcParams(n_particles=2, rho=0.999, mutation_steps=1,
                      final_sample_size=1, final_mh_steps=0, kernel=kernel)
        with pytest.raises(ValueError, match="kernel"):
            SmcParams(n_particles=10, rho=0.5, mutation_steps=1,
                      final_sample_size=1, final_mh_steps=0, kernel="not a kernel")


class TestKernelAdaptation:
    def test_crank_nicolson_steps_follow_the_rate(self):
        kernel = CrankNicolsonKernel(a=0.25)
        assert adapt_kernel(kernel, 0.8).a > 0.25
        assert adapt_kernel(kernel, 0.05).a < 0.25
        assert adapt_kernel(kernel, 0.35).a == pytest.approx(0.25)

    def test_crank_nicolson_weight_stays_below_one(self):
        kernel = CrankNicolsonKernel(a=0.9)
        assert adapt_kernel(kernel, 1.0).a < 1.0

    def test_random_walk_scales_every_step(self):
        kernel = GaussianRandomWalkKernel((1.0, 2.0))
        wider = adapt_kernel(kernel, 0.9)
        factor = wider.step_sds[0] / 1.0
        assert factor > 1.0
        assert wider.step_sds[1] == pytest.approx(2.0 * factor)
        assert all(s < t for s, t in zip(adapt_kernel(kernel, 0.0).step_sds, (1.0, 2.0)))


# One oscillator run with the random-walk kernel, recorded with the
# scipy.stats frozen-distribution densities that the closed forms in
# relsense.model replaced; every acceptance decision depends on the input
# log density, so a change of one ulp in it can move the whole ladder.
GOLDEN_OSCILLATOR_LEVELS = (
    -5.047102333870938, -4.865171360872072, -4.625182662698482, -4.517363018944642,
    -4.349712822105641, -4.221765853206785, -4.112230950006212, -3.9977467187911113,
    -3.9144232468900824, -3.806326701087931, -3.7266970749900823, -3.663344917763294,
    -3.596849516236663, -3.5208816635954063, -3.4390695218830434, -3.3628083812442977,
    -3.2871444710174003, -3.2190568739024146, -3.1373788388637593, -3.056313069076363,
    -2.9917881005413296, -2.928354633538691, -2.861034612030127, -2.79857540625388,
    -2.7393032379727074, -2.691789935917101, -2.6250369611253666, -2.563802792337332,
    -2.503648528007325, -2.443679172008685, -2.3669918903648117, -2.294030722701677,
    -2.2399200957009726, -2.2014784198349764, -2.146554489727946, -2.0887252783705086,
    -2.051561796997502, -1.9918937223555604, -1.9158597651739613, -1.865793515710878,
    -1.8173956662230264, -1.7465205428138066, -1.6884838503451505, -1.6296735767143322,
    -1.588917899464986, -1.5363460889605478, -1.4874499211878502, -1.427308795742594,
    -1.3854236893533844, -1.3167467153088483, -1.2535702306794168, -1.212117716066155,
    -1.157611514249926, -1.093761185724703, -1.0382255117867802, -0.9879678717459095,
    -0.9292349462086786, -0.8607464046255697, -0.8088586367793145, -0.7427554431152799,
    -0.6834007376896132, -0.6382158373588886, -0.57611317010518, -0.515259659116702,
    -0.461284193567316, -0.3851962305572938, -0.3256452812442312, -0.25729444023451453,
    -0.21079556406094824, -0.17158977576909606, -0.11208588155378685,
    -0.038823176502563506, 0.02992159314228715,
)


class TestGoldenTrajectory:
    @pytest.mark.filterwarnings("ignore:.*acceptance rates outside")
    def test_oscillator_random_walk_is_pinned(self):
        box, model, event = builtin_model("sdof_oscillator")
        params = SmcParams(n_particles=100, rho=0.5, mutation_steps=3,
                           final_sample_size=100, final_mh_steps=2,
                           kernel=GaussianRandomWalkKernel.matching_input_sds(model),
                           max_levels=200, seed=11)
        result = run_adaptive_smc(box, model, event, params)
        assert result.p_f_hat == 8.956666036443289e-23
        assert result.levels == GOLDEN_OSCILLATOR_LEVELS
        assert result.calls_probability_phase == 21699
        assert result.calls_sampling_phase == 200
