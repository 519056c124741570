"""Sensitivity indices: plug-in estimators, ranks, invariants, error paths."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from relsense.indices import (
    DivergenceSpec,
    EstimationError,
    WeightFunction,
    csiszar_indices,
    csiszar_marginal_index,
    delta_index,
    rank_descending,
    scaled_target_index,
    sobol_indicator_index,
    target_tv_index,
)
from relsense.maxent import (
    DEFAULT_EXPONENTS,
    MaxEntDensity,
    MomentConstraints,
    _family,
    _solve_copula,
    _solver_weights,
    _unit_axis,
    copula_fractional_moments,
    fit_copula,
    fit_density,
    fractional_moments_1d,
    solve_maxent,
)
from relsense.model import InputModel, Marginal, builtin_model


def unit_copula():
    """Copula identically one, solved from exact independence moments."""
    pairs = tuple((r, s) for r in DEFAULT_EXPONENTS for s in DEFAULT_EXPONENTS)
    targets = [1.0 / ((1.0 + r) * (1.0 + s)) for r, s in pairs]
    c = MomentConstraints(ndim=2, exponents=pairs, targets=targets,
                          support=((0.0, 1.0), (0.0, 1.0)))
    return _solve_copula(c, _family(c))[0]


def flat_density(lo, hi):
    """Uniform density on [lo, hi] as a fitted-density object."""
    return MaxEntDensity(exponents=(1.0,), multipliers=np.array([0.0]),
                         log_normalizer=-math.log(hi - lo),
                         support_shifted=(lo, hi), shift=0.0)


def standard_normal_density():
    c = MomentConstraints(ndim=1, exponents=(1.0, 2.0), targets=(0.0, 1.0),
                          support=(-8.0, 8.0))
    return solve_maxent(c)


def truncated_tail_density(lo=8.0, hi=9.0):
    """N(0, 1) truncated to [lo, hi] as a fitted-density object, and its
    nominal mass, which no practical number of nominal draws reaches."""
    mass = stats.norm.sf(lo) - stats.norm.sf(hi)
    density = MaxEntDensity(exponents=(2.0,), multipliers=np.array([0.5]),
                            log_normalizer=-0.5 * math.log(2.0 * math.pi) - math.log(mass),
                            support_shifted=(lo, hi), shift=0.0)
    return density, mass


def nominal_mc_tv(density, marginal, n_draws, seed):
    """Total-variation distance as ``mean(|f_hat/f - 1|) / 2`` over nominal
    draws: an estimate independent of the quadrature grid."""
    x = InputModel((marginal,)).sample(n_draws, np.random.default_rng(seed))[:, 0]
    return float(np.mean(0.5 * np.abs(density.pdf(x) / marginal.pdf(x) - 1.0)))


class GaussianCopulaDensity:
    """Exact bivariate Gaussian copula density (closed form, no fitting)."""

    def __init__(self, rho):
        self.rho = rho

    def pdf(self, uv):
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        z1 = stats.norm.ppf(np.clip(uv[:, 0], 1e-14, 1.0 - 1e-14))
        z2 = stats.norm.ppf(np.clip(uv[:, 1], 1e-14, 1.0 - 1e-14))
        det = 1.0 - self.rho ** 2
        quad = (self.rho ** 2 * (z1 ** 2 + z2 ** 2) - 2.0 * self.rho * z1 * z2) / (2.0 * det)
        return np.exp(-quad) / math.sqrt(det)

    def grid_pdf(self):
        """The closed form on the tensor nodes of the copula solver's grid."""
        u, _ = _unit_axis(128)
        wuv = _solver_weights()
        nodes = np.column_stack([np.repeat(u, u.size), np.tile(u, u.size)])
        return wuv, self.pdf(nodes).reshape(wuv.shape)


class TestDeltaIndex:
    def test_independence_copula_scores_zero(self):
        assert delta_index(unit_copula()) == pytest.approx(0.0, abs=1e-6)

    def test_kl_on_independence_is_zero(self):
        got = delta_index(unit_copula(), divergence=DivergenceSpec.kullback_leibler())
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_kl_recovers_gaussian_mutual_information(self):
        # correlation one half gives mutual information (1/2) log(4/3)
        exact = 0.5 * math.log(4.0 / 3.0)
        got = delta_index(GaussianCopulaDensity(0.5),
                          divergence=DivergenceSpec.kullback_leibler())
        assert abs(got - exact) <= 0.005 * exact

    def test_determinism(self):
        cop = unit_copula()
        a = delta_index(cop)
        b = delta_index(cop)
        assert a == b

    def test_independent_sample_stays_below_null_floor(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            xy = rng.standard_normal((3000, 2))
            assert delta_index(fit_copula(xy)) <= 0.08

    def test_strong_dependence_scores_high(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(3000)
        xy = np.column_stack([x, x + 0.05 * rng.standard_normal(3000)])
        assert delta_index(fit_copula(xy)) > 0.3


class TestUnconditionalDependence:
    """Plug-in input/output dependence on unconditional draws.

    The additive benchmark is pinned to its quadrature references; the
    oscillator, which has none, to a frozen run of this exact
    configuration.  Both must preserve the importance ordering.
    """

    def test_additive_chi2_ordering(self, chi2_refs):
        box, model, _ = builtin_model("additive_chi2")
        x = model.sample(100_000, np.random.default_rng(2718))
        y = box.evaluate_batch(x)
        d1 = delta_index(fit_copula(np.column_stack([x[:, 0], y])))
        d2 = delta_index(fit_copula(np.column_stack([x[:, 1], y])))
        assert d1 == pytest.approx(chi2_refs["delta_1"].value, abs=0.03)
        assert d2 == pytest.approx(chi2_refs["delta_2"].value, abs=0.03)
        assert d1 > d2

    def test_oscillator_capacity_dominates(self):
        box, model, _ = builtin_model("sdof_oscillator")
        x = model.sample(100_000, np.random.default_rng(999))
        y = box.evaluate_batch(x)
        vals = [delta_index(fit_copula(np.column_stack([x[:, i], y]))) for i in range(6)]
        assert int(np.argmax(vals)) == 2
        assert vals[2] == pytest.approx(0.344, abs=0.03)
        assert vals[4] > vals[0] > vals[5]


class TestTargetIndex:
    def test_matching_density_scores_near_zero(self):
        density = standard_normal_density()
        marginal = Marginal("normal", 0.0, 1.0)
        q = target_tv_index(density, marginal)
        m = nominal_mc_tv(density, marginal, n_draws=100_000, seed=3)
        assert q < 0.01
        assert m < 0.01
        assert abs(q - m) < 0.005

    def test_methods_agree_on_a_shifted_law(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(2.0, 1.0, 40_000)
        density = solve_maxent(fractional_moments_1d(sample))
        marginal = Marginal("normal", 0.0, 1.0)
        q = target_tv_index(density, marginal)
        m = nominal_mc_tv(density, marginal, n_draws=200_000, seed=5)
        exact = 2.0 * stats.norm.cdf(1.0) - 1.0  # distance N(0,1) to N(2,1)
        assert q == pytest.approx(exact, abs=0.05)
        assert abs(q - m) < 0.02

    def test_disjoint_supports_score_one(self):
        density = flat_density(0.0, 1.0)
        marginal = Marginal("uniform", 5.0, 1.0)
        assert target_tv_index(density, marginal) == pytest.approx(1.0, abs=1e-9)

    def test_deep_tail_truncation_closed_form(self):
        # conditioned law N(0, 1) truncated to [8, 9]: the distance is the
        # nominal mass outside, 1 - mass, although no nominal draw lands inside
        density, mass = truncated_tail_density()
        got = target_tv_index(density, Marginal("normal", 0.0, 1.0))
        assert got == pytest.approx(1.0 - mass, rel=1e-6)

    def test_nominal_density_vanishing_under_fitted_mass(self):
        # fitted mass on [0, 1.5] against a nominal uniform on [0, 1]: the
        # distance is half of |1 - 2/3| on [0, 1] plus half of 1/3 beyond it;
        # the jump at 1 falls between grid nodes, which costs about 2e-5
        got = target_tv_index(flat_density(0.0, 1.5), Marginal("uniform", 0.0, 1.0))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-3)


class TestScaledTargetIndex:
    def test_definition(self):
        assert scaled_target_index(0.7, 1e-3) == pytest.approx(1.4e-3)

    def test_upper_bound_at_full_distance(self):
        p = 3.2e-4
        assert scaled_target_index(1.0, p) == pytest.approx(2.0 * p)

    def test_validation(self):
        with pytest.raises(ValueError, match="p_f_hat"):
            scaled_target_index(0.5, 1.5)
        with pytest.raises(ValueError, match="eta_bar"):
            scaled_target_index(-0.1, 0.5)


class TestSobolIndicator:
    def test_identical_densities_give_zero(self):
        density = standard_normal_density()
        marginal = Marginal("normal", 0.0, 1.0)
        s = sobol_indicator_index(density, marginal, p_f_hat=0.5)
        assert 0.0 <= s < 1e-4

    def test_half_support_ratio_variance(self):
        # conditioned density uniform on the lower half of a uniform
        # nominal: the ratio is 2 or 0, its variance is exactly 1
        density = flat_density(0.0, 0.5)
        marginal = Marginal("uniform", 0.0, 1.0)
        s = sobol_indicator_index(density, marginal, p_f_hat=0.2)
        assert s == pytest.approx(0.2 / 0.8, abs=0.02)

    def test_probability_bounds(self):
        density = flat_density(0.0, 1.0)
        marginal = Marginal("uniform", 0.0, 1.0)
        with pytest.raises(ValueError, match=r"lie in \[0, 1\)"):
            sobol_indicator_index(density, marginal, p_f_hat=1.0)

    def test_deep_tail_indicator_of_the_input_itself(self):
        # failure is X in [8, 9]: the conditioned density is the nominal one
        # truncated there, so the input explains the indicator fully, S = 1,
        # although no practical number of nominal draws lands in [8, 9]
        density, mass = truncated_tail_density()
        s = sobol_indicator_index(density, Marginal("normal", 0.0, 1.0), p_f_hat=mass)
        assert s == pytest.approx(1.0, rel=1e-6)

    def test_nominal_density_vanishing_inside_support_is_an_error(self):
        density = flat_density(0.0, 1.5)
        with pytest.raises(EstimationError, match="vanishes inside the fitted support"):
            sobol_indicator_index(density, Marginal("uniform", 0.0, 1.0), p_f_hat=0.1)


class TestCsiszarGeneralization:
    @staticmethod
    def tilted_sample(n=2500, seed=33):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.standard_normal(n)) + 0.2
        y = x + 0.3 * rng.standard_normal(n) ** 2 + 0.1
        return np.column_stack([x, y])

    def test_total_variation_specializes_exactly(self):
        xy = self.tilted_sample()
        marginal = Marginal("normal", 0.0, 1.0)
        tv, indicator = DivergenceSpec.total_variation(), WeightFunction.indicator_above(0.0)
        # by default the densities are the campaign's ladder fits
        eta, delta = csiszar_indices(tv, indicator, xy, marginal)
        assert eta == target_tv_index(fit_density(xy[:, 0]), marginal)
        assert delta == delta_index(fit_copula(xy))
        # pinned exponent sets give the direct solves of those sets
        eta, delta = csiszar_indices(tv, indicator, xy, marginal,
                                     marginal_exponents=DEFAULT_EXPONENTS,
                                     copula_exponents=DEFAULT_EXPONENTS)
        density = solve_maxent(fractional_moments_1d(xy[:, 0], DEFAULT_EXPONENTS))
        c = copula_fractional_moments(xy, DEFAULT_EXPONENTS)
        copula = _solve_copula(c, _family(c))[0]
        assert eta == target_tv_index(density, marginal)
        assert delta == delta_index(copula)

    def test_kl_exceeds_nothing_on_independence(self):
        rng = np.random.default_rng(34)
        xy = np.column_stack([rng.standard_normal(3000) + 5.0,
                              rng.standard_normal(3000) + 5.0])
        _, delta = csiszar_indices(DivergenceSpec.kullback_leibler(),
                                   WeightFunction.indicator_above(0.0),
                                   xy, Marginal("normal", 5.0, 1.0))
        assert delta == pytest.approx(0.0, abs=0.02)

    def test_kl_on_a_campaign_sample(self, small_toy1_run):
        # a campaign reports total variation only; KL on its conditioned
        # sample, through the campaign's ladder fits, is a library call
        run, kl = small_toy1_run, DivergenceSpec.kullback_leibler()
        x = run.conditioned_sample
        marginal = builtin_model("toy1")[1].marginals[0]
        density = fit_density(x[:, 0], sample_size=run.n_survivors)
        # unbounded, unlike total variation: X1's index reads above 1
        eta_bar = csiszar_marginal_index(density, marginal, kl)
        assert math.isfinite(eta_bar) and eta_bar > 1.0
        for i in range(2):
            pair = np.column_stack([x[:, i], run.conditioned_outputs])
            copula = fit_copula(pair, sample_size=run.n_survivors)
            assert math.isfinite(delta_index(copula, kl))

    def test_diverging_generator_warns_and_returns_inf(self):
        def neg_log(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.0, -np.log(np.maximum(x, 1e-300)), np.inf)

        spec = DivergenceSpec.custom("neg_log", neg_log)
        density = flat_density(0.0, 1.0)
        marginal = Marginal("normal", 0.0, 1.0)  # mass outside [0, 1]
        with pytest.warns(UserWarning, match="is infinite"):
            got = csiszar_marginal_index(density, marginal, spec)
        assert got == math.inf

    def test_kl_deep_tail_truncation_closed_form(self):
        # KL of N(0, 1) truncated to [8, 9] from N(0, 1) is -log(mass); a
        # nominal Monte Carlo average reads 0 here
        density, mass = truncated_tail_density()
        got = csiszar_marginal_index(density, Marginal("normal", 0.0, 1.0),
                                     DivergenceSpec.kullback_leibler())
        assert got == pytest.approx(-math.log(mass), rel=1e-6)

    def test_kl_with_nominal_density_vanishing_under_fitted_mass_is_infinite(self):
        with pytest.warns(UserWarning, match="is infinite"):
            got = csiszar_marginal_index(flat_density(0.0, 1.5), Marginal("uniform", 0.0, 1.0),
                                         DivergenceSpec.kullback_leibler())
        assert got == math.inf

    def test_custom_generator_with_nominal_density_vanishing_is_an_error(self):
        spec = DivergenceSpec.custom("squared", lambda x: (np.asarray(x) - 1.0) ** 2)
        with pytest.raises(EstimationError, match="vanishes inside the fitted support"):
            csiszar_marginal_index(flat_density(0.0, 1.5), Marginal("uniform", 0.0, 1.0), spec)

    def test_nan_generator_is_an_error(self):
        spec = DivergenceSpec.custom(
            "nan_off_one", lambda x: np.where(np.asarray(x) == 1.0, 0.0, np.nan))
        density = flat_density(0.0, 1.0)
        with pytest.raises(EstimationError, match="returned NaN"):
            csiszar_marginal_index(density, Marginal("normal", 0.0, 1.0), spec)

    def test_weight_validation(self):
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(EstimationError, match="negative on the sample"):
            WeightFunction.custom("bad", lambda y: -np.ones_like(y)).check_on(y)
        with pytest.raises(EstimationError, match="vanishes on the whole sample"):
            WeightFunction.custom("null", lambda y: np.zeros_like(y)).check_on(y)

    def test_tilted_sample_must_have_positive_weight(self):
        xy = np.column_stack([np.linspace(1.0, 2.0, 50), np.linspace(-1.0, 1.0, 50)])
        with pytest.raises(EstimationError, match="cannot come from the tilted law"):
            csiszar_indices(DivergenceSpec.total_variation(),
                            WeightFunction.indicator_above(0.0),
                            xy, Marginal("normal", 0.0, 1.0))

    def test_sample_shape_checked(self):
        with pytest.raises(ValueError, match="tilted sample"):
            csiszar_indices(DivergenceSpec.total_variation(),
                            WeightFunction.indicator_above(0.0),
                            np.zeros((5, 3)), Marginal("normal", 0.0, 1.0))


class TestDivergenceSpec:
    def test_generator_must_vanish_at_one(self):
        with pytest.raises(ValueError, match=r"phi\(1\) must be 0"):
            DivergenceSpec.custom("off", lambda x: np.asarray(x) + 1.0)

    def test_concave_generator_rejected(self):
        with pytest.raises(ValueError, match="convexity midpoint"):
            DivergenceSpec.custom("concave", lambda x: -(np.asarray(x) - 1.0) ** 2)

    def test_kl_generator_value_at_zero(self):
        kl = DivergenceSpec.kullback_leibler()
        np.testing.assert_allclose(kl.phi(np.array([0.0, 1.0, math.e])),
                                   [0.0, 0.0, math.e])


class TestRanksAndClipping:
    def test_rank_two_values(self):
        np.testing.assert_array_equal(rank_descending([0.1, 0.9]), [2, 1])

    def test_tie_shares_smaller_rank(self):
        np.testing.assert_array_equal(rank_descending([0.3, 0.3]), [1, 1])
        np.testing.assert_array_equal(rank_descending([0.3, 0.3, 0.1]), [1, 1, 3])

    def test_six_input_example(self):
        vals = [0.0769, 0.0231, 0.4441, 0.0219, 0.0751, 0.1554]
        np.testing.assert_array_equal(rank_descending(vals), [3, 5, 1, 6, 4, 2])

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            rank_descending([])
        with pytest.raises(ValueError, match="non-empty 1-D"):
            rank_descending(np.zeros((2, 2)))
