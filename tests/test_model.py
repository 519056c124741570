"""Input models, black-box wrappers and the built-in benchmarks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from relsense.model import (
    BlackBox,
    EvaluationError,
    FailureEvent,
    InputModel,
    Marginal,
    builtin_model,
    sample_input,
)


class TestBuiltinValues:
    def test_toy1_gate_open(self):
        box, _, _ = builtin_model("toy1")
        assert box.evaluate([4.0, 2.0]) == 6.0

    def test_toy1_gate_closed(self):
        box, _, _ = builtin_model("toy1")
        assert box.evaluate([2.0, 5.0]) == 2.0

    def test_additive_chi2_value(self):
        box, _, _ = builtin_model("additive_chi2")
        assert box.evaluate([1.0, 3.0]) == 10.0

    def test_sdof_median_point(self):
        box, _, _ = builtin_model("sdof_oscillator")
        c1, c2 = math.exp(2.0), math.exp(0.2)
        r = math.exp(0.6)
        m = t = f = math.e
        k = c1 + c2
        expected = -3.0 * r + abs(2.0 * f / k * math.sin(math.sqrt(k / m) * t / 2.0))
        got = box.evaluate([c1, c2, r, m, t, f])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_toy1_failure_iff_first_coordinate_exceeds_three(self):
        box, _, event = builtin_model("toy1")
        x1 = np.linspace(-5.0, 5.0, 41)
        x2 = np.array([-4.0, -0.5, 0.0, 0.5, 4.0])
        grid = np.column_stack([np.repeat(x1, x2.size), np.tile(x2, x1.size)])
        y = box.evaluate_batch(grid)
        np.testing.assert_array_equal(event.indicator(y), grid[:, 0] > 3.0)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin model"):
            builtin_model("nope")


class TestSampling:
    def test_toy1_second_coordinate_moments(self):
        _, model, _ = builtin_model("toy1")
        x = sample_input(model, 10**6, seed=11)
        assert abs(x[:, 1].mean()) < 3.0 * math.sqrt(5.0) / 1000.0
        assert x[:, 1].std() == pytest.approx(math.sqrt(5.0), rel=0.01)

    def test_determinism(self):
        _, model, _ = builtin_model("additive_chi2")
        a = sample_input(model, 50, seed=3)
        b = sample_input(model, 50, seed=3)
        np.testing.assert_array_equal(a, b)
        c = sample_input(model, 50, seed=4)
        assert not np.array_equal(a, c)

    def test_single_draw_shape(self):
        _, model, _ = builtin_model("toy1")
        assert sample_input(model, 1, seed=0).shape == (1, 2)

    def test_n_must_be_positive(self):
        _, model, _ = builtin_model("toy1")
        with pytest.raises(ValueError, match="at least 1"):
            sample_input(model, 0, seed=0)

    def test_sdof_first_input_median(self):
        _, model, _ = builtin_model("sdof_oscillator")
        x = sample_input(model, 200001, seed=5)
        med = float(np.median(x[:, 0]))
        assert med == pytest.approx(math.exp(2.0), rel=0.01)
        # every lognormal coordinate stays positive
        assert np.all(x > 0.0)

    @pytest.mark.parametrize("name", ["toy1", "additive_chi2", "sdof_oscillator"])
    def test_independent_draws_fill_one_column_after_another(self, name):
        # column i is T of the i-th block of n standard normals
        _, model, _ = builtin_model(name)
        rng = np.random.default_rng(17)
        expected = np.column_stack([InputModel((m,)).sample(300, rng)[:, 0]
                                    for m in model.marginals])
        np.testing.assert_array_equal(model.sample(300, np.random.default_rng(17)), expected)
        z = np.random.default_rng(17).standard_normal((model.dimension, 300)).T
        np.testing.assert_array_equal(model.sample(300, np.random.default_rng(17)),
                                      model.from_latent(z))


class TestLatentMap:
    def test_each_kind(self):
        model = InputModel((Marginal("normal", 1.0, 2.0), Marginal("lognormal", 0.5, 0.3),
                            Marginal("uniform", -1.0, 4.0)))
        u = np.random.default_rng(2).standard_normal((500, 3))
        x = model.from_latent(u)
        np.testing.assert_array_equal(x[:, 0], 1.0 + 2.0 * u[:, 0])
        np.testing.assert_array_equal(x[:, 1], np.exp(0.5 + 0.3 * u[:, 1]))
        np.testing.assert_array_equal(x[:, 2], -1.0 + 4.0 * stats.norm.cdf(u[:, 2]))

    def test_lognormal_tail_does_not_round_through_the_cdf(self):
        # at u = 40 the cdf rounds to 1, whose quantile is infinite
        m = Marginal("lognormal", 1.0, 0.2)
        x = InputModel((m,)).from_latent(np.array([[40.0], [-40.0]]))[:, 0]
        assert x[0] == pytest.approx(math.exp(9.0), rel=1e-14)
        assert x[1] == pytest.approx(math.exp(-7.0), rel=1e-14)
        assert m.quantile(stats.norm.cdf(40.0)) == math.inf

    def test_gaussian_copula_matches_the_quantile_route(self):
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, -0.3], [0.2, -0.3, 1.5]])
        margs = (Marginal("lognormal", 0.0, 0.4), Marginal("uniform", 2.0, 3.0),
                 Marginal("normal", -1.0, 0.5))
        model = InputModel(margs, dependence="gaussian", covariance=cov)
        u = np.random.default_rng(4).standard_normal((400, 3))
        z = u @ np.linalg.cholesky(cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))).T
        expected = np.column_stack([m.quantile(stats.norm.cdf(z[:, i]))
                                    for i, m in enumerate(margs)])
        # the quantile route loses digits where ndtr rounds near 0 and 1
        np.testing.assert_allclose(model.from_latent(u), expected, rtol=1e-9)

    @pytest.mark.parametrize("dependence", ["independent", "gaussian"])
    def test_rows_map_independently_of_the_batch(self, dependence):
        # the sampler recomputes x = T(u) for rows whose outputs it took
        # from another batch, so each row must map to the same bits
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, -0.3], [0.2, -0.3, 1.5]])
        model = InputModel((Marginal("lognormal", 0.0, 0.4), Marginal("uniform", 2.0, 3.0),
                            Marginal("normal", -1.0, 0.5)), dependence=dependence,
                           covariance=cov if dependence == "gaussian" else None)
        u = 3.0 * np.random.default_rng(6).standard_normal((3000, 3))
        full = model.from_latent(u)
        for start, n in ((0, 1), (1, 7), (5, 17), (3, 500), (0, 2999)):
            np.testing.assert_array_equal(model.from_latent(u[start:start + n].copy()),
                                          full[start:start + n])
        pick = np.random.default_rng(7).integers(0, 3000, 1000)
        np.testing.assert_array_equal(model.from_latent(u[pick]), full[pick])

    def test_gaussian_draws_are_the_latent_map_of_row_draws(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        model = InputModel((Marginal("normal", 0.0, 1.0), Marginal("lognormal", 0.0, 1.0)),
                           dependence="gaussian", covariance=cov)
        u = np.random.default_rng(8).standard_normal((50, 2))
        np.testing.assert_array_equal(model.sample(50, np.random.default_rng(8)),
                                      model.from_latent(u))


def scipy_marginal(m):
    """The scipy.stats distribution a Marginal stands for (the reference)."""
    if m.kind == "normal":
        return stats.norm(m.loc, m.scale)
    if m.kind == "lognormal":
        return stats.lognorm(s=m.scale, scale=math.exp(m.loc))
    return stats.uniform(m.loc, m.scale)


PARITY_MARGINALS = [Marginal("normal", 0.3, 1.7), Marginal("lognormal", 1.0, 0.2),
                    Marginal("uniform", -1.0, 3.0)]


def parity_points(m):
    """Deep tails (|z| up to 30), off-support points, the edges, +-inf, NaN."""
    z = np.linspace(-30.0, 30.0, 241)
    if m.kind == "normal":
        x = m.loc + m.scale * z
    elif m.kind == "lognormal":
        x = np.concatenate([np.exp(m.loc + m.scale * z), [0.0, -0.0, -1e-300, -2.5, 5e-324]])
    else:
        lo, hi = m.loc, m.loc + m.scale
        x = np.concatenate([m.loc + m.scale * np.linspace(-1.0, 2.0, 61),
                            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]])
    return np.concatenate([x, [-np.inf, np.inf, np.nan]])


def assert_scipy_parity(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


class TestMarginal:
    @pytest.mark.parametrize("m", PARITY_MARGINALS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("method", ["logpdf", "pdf", "cdf"])
    def test_density_and_cdf_match_scipy(self, m, method):
        x = parity_points(m)
        with np.errstate(divide="ignore"):
            want = getattr(scipy_marginal(m), method)(x)
        assert_scipy_parity(getattr(m, method)(x), want)

    @pytest.mark.parametrize("m", PARITY_MARGINALS, ids=lambda m: m.kind)
    def test_quantile_matches_scipy(self, m):
        u = np.concatenate([[0.0, 1.0, -0.1, 1.1, np.nan, 5e-324, 1e-300, 1.0 - 1e-16],
                            np.linspace(0.01, 0.99, 99)])
        assert_scipy_parity(m.quantile(u), scipy_marginal(m).ppf(u))

    @pytest.mark.parametrize("m", PARITY_MARGINALS, ids=lambda m: m.kind)
    def test_scalar_in_scalar_out(self, m):
        x = m.quantile(0.3)
        assert np.ndim(m.logpdf(x)) == np.ndim(m.pdf(x)) == np.ndim(m.cdf(x)) == 0
        assert m.cdf(x) == pytest.approx(0.3, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="unknown marginal kind"):
            Marginal("beta", 0.0, 1.0)
        with pytest.raises(ValueError, match="strictly positive"):
            Marginal("normal", 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            Marginal("normal", math.inf, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["normal", "lognormal", "uniform"]),
        loc=st.floats(-3.0, 3.0),
        scale=st.floats(0.05, 4.0),
        u=st.floats(1e-3, 1.0 - 1e-3),
    )
    def test_cdf_quantile_round_trip(self, kind, loc, scale, u):
        m = Marginal(kind, loc, scale)
        assert m.cdf(m.quantile(u)) == pytest.approx(u, abs=1e-8)

    def test_uniform_support(self):
        m = Marginal("uniform", -1.0, 3.0)
        assert m.pdf(-1.5) == 0.0
        assert m.pdf(0.0) == pytest.approx(1.0 / 3.0)
        assert m.pdf(2.5) == 0.0


class TestInputModel:
    def test_log_density_independent_normals(self):
        model = InputModel((Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, 2.0)))
        x = np.array([[0.3, -1.2], [2.0, 0.0]])
        expected = stats.norm.logpdf(x[:, 0]) + stats.norm.logpdf(x[:, 1], scale=2.0)
        np.testing.assert_allclose(model.log_density(x), expected, rtol=1e-12)

    def test_log_density_gaussian_dependence_matches_mvn(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        model = InputModel(
            (Marginal("normal", 1.0, 2.0), Marginal("normal", -1.0, math.sqrt(2.0))),
            dependence="gaussian",
            covariance=cov,
        )
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        expected = stats.multivariate_normal(mean=[1.0, -1.0], cov=cov).logpdf(x)
        np.testing.assert_allclose(model.log_density(x), expected, rtol=1e-9)

    def test_log_density_off_support(self):
        model = InputModel((Marginal("lognormal", 0.0, 1.0),))
        out = model.log_density(np.array([[-1.0], [1.0]]))
        assert out[0] == -math.inf
        assert math.isfinite(out[1])

    def test_gaussian_sample_covariance(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        model = InputModel(
            (Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, 1.0)),
            dependence="gaussian",
            covariance=cov,
        )
        x = model.sample(200000, np.random.default_rng(9))
        got = np.corrcoef(x.T)[0, 1]
        assert got == pytest.approx(0.6, abs=0.01)

    def test_covariance_validation(self):
        margs = (Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, 1.0))
        with pytest.raises(ValueError, match="requires a covariance"):
            InputModel(margs, dependence="gaussian")
        with pytest.raises(ValueError, match="symmetric"):
            InputModel(margs, dependence="gaussian", covariance=np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError, match="must be 2x2"):
            InputModel(margs, dependence="gaussian", covariance=np.eye(3))
        with pytest.raises(ValueError, match="positive definite"):
            InputModel(margs, dependence="gaussian", covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="only meaningful"):
            InputModel(margs, covariance=np.eye(2))
        # checked before any square root or division, so no NaN factor
        # slips through and no RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cov, message in (([[1.0, 0.0], [0.0, -1.0]], "diagonal must be strictly"),
                                 ([[math.inf, 0.0], [0.0, 1.0]], "entries must be finite"),
                                 ([[1.0, math.nan], [math.nan, 1.0]], "entries must be finite")):
                with pytest.raises(ValueError, match=message):
                    InputModel(margs, dependence="gaussian", covariance=cov)

    def test_equality_with_gaussian_dependence(self):
        margs = (Marginal("normal", 0.0, 1.0), Marginal("lognormal", 0.0, 0.5))
        cov = [[1.0, 0.3], [0.3, 2.0]]
        a = InputModel(margs, dependence="gaussian", covariance=cov)
        b = InputModel(margs, dependence="gaussian", covariance=np.array(cov))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = InputModel(margs, dependence="gaussian",
                           covariance=[[1.0, -0.3], [-0.3, 2.0]])
        assert a != other
        assert a != InputModel(margs)
        assert InputModel(margs) == InputModel(margs)

    def test_latent_map_reconstructs_covariance(self):
        # for all-normal inputs T(u) = mean + A u with A A^T the covariance
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        model = InputModel(
            (Marginal("normal", 3.0, 2.0), Marginal("normal", -1.0, math.sqrt(2.0))),
            dependence="gaussian",
            covariance=cov,
        )
        a = (model.from_latent(np.eye(2)) - [3.0, -1.0]).T
        np.testing.assert_allclose(a @ a.T, cov, atol=1e-12)


class TestBlackBox:
    def test_call_counter_exact(self):
        box, _, _ = builtin_model("toy1")
        for _ in range(7):
            box.evaluate([0.0, 0.0])
        assert box.call_count == 7
        box.evaluate_batch(np.zeros((13, 2)))
        assert box.call_count == 20

    def test_fresh_counter_per_instance(self):
        a, _, _ = builtin_model("toy1")
        b, _, _ = builtin_model("toy1")
        a.evaluate([0.0, 0.0])
        assert a.call_count == 1
        assert b.call_count == 0

    def test_dimension_check(self):
        box, _, _ = builtin_model("toy1")
        with pytest.raises(ValueError, match="expected 2 inputs"):
            box.evaluate([1.0])
        with pytest.raises(ValueError, match="expected 2 inputs"):
            box.evaluate_batch(np.zeros((4, 3)))

    def test_non_finite_scalar_output(self):
        box = BlackBox(fn=lambda x: math.inf, dimension=1, name="blowup")
        with pytest.raises(EvaluationError, match="non-finite output"):
            box.evaluate([1.0])

    def test_non_finite_batch_output_names_input(self):
        def batch(x):
            y = x[:, 0].copy()
            y[y > 1.0] = np.nan
            return y

        box = BlackBox(fn=lambda x: batch(x.reshape(1, -1))[0], dimension=1,
                       name="patchy", batch_fn=batch)
        with pytest.raises(EvaluationError, match=r"\[2\.0\]"):
            box.evaluate_batch(np.array([[0.0], [2.0], [0.5]]))

    def test_loop_fallback_without_batch_fn(self):
        box = BlackBox(fn=lambda x: float(x[0]) * 2.0, dimension=1, name="double")
        y = box.evaluate_batch(np.array([[1.0], [2.5]]))
        np.testing.assert_array_equal(y, [2.0, 5.0])
        assert box.call_count == 2


class TestFailureEvent:
    def test_strict_inequality(self):
        event = FailureEvent(3.0)
        np.testing.assert_array_equal(
            event.indicator(np.array([2.9, 3.0, 3.1])), [False, False, True])

    def test_threshold_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FailureEvent(math.nan)
