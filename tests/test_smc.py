"""Adaptive multilevel splitting: estimates, call accounting, failure modes."""

import math

import numpy as np
import pytest
from scipy import stats

from relsense.campaign import parse_config
from relsense.model import BlackBox, FailureEvent, InputModel, Marginal, builtin_model
from relsense.seeding import stream
from relsense.smc import (
    CrankNicolsonKernel,
    GaussianRandomWalkKernel,
    SmcError,
    SmcParams,
    SmcResult,
    _chain_sweep,
    adapt_kernel,
    final_sampling,
    run_adaptive_smc,
)

TOY1_PF = stats.norm.sf(3.0)  # failure is first coordinate above 3


def identity_box():
    return BlackBox(lambda x: x[:, 0], dimension=1, name="identity")


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
                           kernel=GaussianRandomWalkKernel((1.0, 1.0)), seed=5)
        before = box.call_count
        result = run_adaptive_smc(box, model, event, params)
        n, m = params.n_particles, result.n_levels
        assert result.calls_probability_phase == n * (1 + m * params.mutation_steps)
        assert result.calls_sampling_phase == 600 * 3
        assert box.call_count - before == result.calls_total

    @pytest.mark.parametrize("kernel", [GaussianRandomWalkKernel((1.0, 1.0)),
                                        CrankNicolsonKernel(a=0.5)])
    def test_identity_with_bounded_inputs(self, kernel):
        # every latent candidate maps into the support, so even uniform
        # and lognormal inputs spend exactly one call per candidate
        model = InputModel((Marginal("uniform", -1.0, 2.0), Marginal("lognormal", 0.0, 0.5)))
        box = BlackBox(lambda x: x[:, 0] + x[:, 1], dimension=2, name="sum")
        params = SmcParams(n_particles=200, rho=0.5, mutation_steps=2,
                           final_sample_size=300, final_mh_steps=2, kernel=kernel, seed=3)
        result = run_adaptive_smc(box, model, FailureEvent(4.0), params)
        n, m = params.n_particles, result.n_levels
        assert m > 0
        assert result.calls_probability_phase == n * (1 + m * params.mutation_steps)
        assert result.calls_sampling_phase == 300 * 2
        x = result.conditioned_sample
        assert np.all((x[:, 0] >= -1.0) & (x[:, 0] <= 1.0) & (x[:, 1] > 0.0))
        np.testing.assert_array_equal(result.conditioned_outputs, x[:, 0] + x[:, 1])


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


def one_transition(x0, gamma, box, model, kernel, rng):
    """One MH transition of a single state of an ``N(0, 1)`` input, whose
    latent and physical coordinates coincide.  The current output is not
    needed: acceptance only compares the candidate's output with the level."""
    u0 = np.asarray(x0, dtype=float).reshape(1, -1)
    u1, _, rate = _chain_sweep(u0, np.array([np.inf]), gamma, 1, box, model, kernel, rng)
    return model.from_latent(u1)[0], rate > 0


class TestMhStep:
    def test_candidate_below_level_rejected(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        x0 = np.array([0.4])
        x1, accepted = one_transition(x0, 1e9, box, model, CrankNicolsonKernel(a=0.5),
                                      stream(3, 0))
        assert not accepted
        np.testing.assert_array_equal(x1, x0)
        assert box.call_count == 1

    def test_tiny_crank_nicolson_step_accepts(self):
        box = identity_box()
        model = InputModel((Marginal("normal", 0.0, 1.0),))
        x0 = np.array([0.4])
        x1, accepted = one_transition(x0, -1e9, box, model, CrankNicolsonKernel(a=1e-9),
                                      stream(3, 1))
        assert accepted
        assert x1[0] == pytest.approx(0.4, abs=1e-3)
        assert x1[0] != 0.4

    def test_step_sds_dimension_mismatch(self):
        box, model, _ = builtin_model("toy1")
        with pytest.raises(SmcError, match="length 3 but the input has"):
            one_transition(np.array([0.0, 0.0]), -1.0, box, model,
                           GaussianRandomWalkKernel((1.0, 1.0, 1.0)), stream(0, 0))


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

    def test_crank_nicolson_chain_targets_truncated_lognormal(self):
        # log X = 0.5 + 0.3 U, so {X > exp(1.1)} is {U > 2} and the
        # conditioned log X has mean 0.5 + 0.3 E[U | U > 2]
        box = identity_box()
        model = InputModel((Marginal("lognormal", 0.5, 0.3),))
        event = FailureEvent(math.exp(1.1))
        survivors = np.array([[2.1], [2.5], [3.0]])
        x, y, rate = final_sampling(survivors, model.from_latent(survivors)[:, 0], box,
                                    model, event, n_sample=4000, n_steps=40,
                                    kernel=CrankNicolsonKernel(a=0.5), rng=stream(11, 1))
        truncated_mean = stats.norm.pdf(2.0) / stats.norm.sf(2.0)
        assert y.min() > event.threshold
        np.testing.assert_array_equal(y, x[:, 0])
        assert np.log(x[:, 0]).mean() == pytest.approx(0.5 + 0.3 * truncated_mean, abs=0.015)
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
        # only the rows above the threshold may appear, drawn uniformly
        assert set(np.round(x[:, 0], 12)) <= {0.8, 1.4, 2.0}
        np.testing.assert_array_equal(x, survivors[1:][stream(13, 0).integers(0, 3, size=50)])
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
        box = BlackBox(lambda x: np.ones(x.shape[0]), dimension=1, name="flat")
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
        # latent steps of one standard deviation of every input
        config = parse_config({
            "model": {"builtin": "toy1"},
            "smc": {"n_particles": 100, "rho": 0.5, "mutation_steps": 1,
                    "final_sample_size": 10, "final_mh_steps": 1,
                    "kernel": {"type": "random_walk", "step_sds": "match_input"}},
            "replications": 1})
        assert config.smc.kernel.step_sds == (1.0, 1.0)

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


# One oscillator run with the latent random-walk kernel, recorded when the
# sampler moved to latent standard-normal coordinates.  Every acceptance
# decision depends on the latent map and on the density ratio, so a change
# of one ulp in either can move the whole ladder.
GOLDEN_OSCILLATOR_LEVELS = (
    -5.047102333870938, -4.860704845113212, -4.638291349837341, -4.548215962012628,
    -4.414843828152519, -4.300737656868468, -4.214731748298324, -4.135100387027454,
    -4.061851464498811, -3.994778246374726, -3.9371377608315283, -3.867114655368983,
    -3.803469753621367, -3.723891601915618, -3.6439189855555005, -3.574697012600563,
    -3.4962680187674104, -3.39409705350353, -3.3207721921538327, -3.2422515918840427,
    -3.186175762209964, -3.1153336838709578, -3.058606913278402, -2.9906653122536966,
    -2.9329565144102148, -2.8478621931712373, -2.7542014833304824, -2.6752180518776694,
    -2.5985282733020774, -2.534487385275511, -2.450630851918646, -2.3703647948618123,
    -2.281589158675533, -2.198534216176288, -2.1347983977583174, -2.056864537684182,
    -1.9765535738931002, -1.9204389499649346, -1.8636332339957433, -1.8091734499266416,
    -1.7477446864458877, -1.676373332212215, -1.5428225549954733, -1.4694477249696756,
    -1.39575162396692, -1.3255047022845141, -1.2389143057839522, -1.1661268449189945,
    -1.0670212340821452, -0.9904466727457413, -0.8983101264821176, -0.8066816896786921,
    -0.7323724779667184, -0.6432950358776122, -0.5516941629749379, -0.44540536831470057,
    -0.3374484778191329, -0.23843020278130833, -0.14230486911538787, -0.01794965260520076,
    0.07865490128448904,
)


class TestGoldenTrajectory:
    @pytest.mark.filterwarnings("ignore:.*acceptance rates outside")
    def test_oscillator_random_walk_is_pinned(self):
        box, model, event = builtin_model("sdof_oscillator")
        params = SmcParams(n_particles=100, rho=0.5, mutation_steps=3,
                           final_sample_size=100, final_mh_steps=2,
                           kernel=GaussianRandomWalkKernel((1.0,) * 6),
                           max_levels=200, seed=11)
        result = run_adaptive_smc(box, model, event, params)
        assert result.p_f_hat == 6.0870811956618305e-19
        assert result.levels == GOLDEN_OSCILLATOR_LEVELS
        assert result.calls_probability_phase == 18100
        assert result.calls_sampling_phase == 200
