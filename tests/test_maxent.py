"""Maximum-entropy densities and copulas under fractional moment constraints."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import solve_triangular

from relsense import maxent
from relsense.maxent import (
    COPULA_LADDER,
    DEFAULT_EXPONENTS,
    MARGINAL_LADDER,
    InfeasibleConstraintsError,
    MaxEntError,
    MomentConstraints,
    _bic,
    _copula_family,
    _log_partition,
    _newton,
    _solve_copula,
    _solve_upper,
    _unit_axis,
    copula_fractional_moments,
    fit_copula,
    fit_density,
    fractional_moments_1d,
    solve_maxent,
)
from relsense.indices import delta_index


def integrate_pdf(density, fn=None):
    """Integrate ``fn(z) * pdf`` over the support in shifted coordinates."""
    a, b = density.support
    if fn is None:
        fn = lambda z: 1.0
    val, _ = integrate.quad(
        lambda x: fn(x + density.shift) * float(density.pdf(np.array([x]))[0]),
        a, b, limit=200)
    return val


def copula_grid(n=96):
    """Nodes and weights of a tensor Gauss-Legendre rule on the unit square.

    The substitution u = s**2, v = t**2 removes the fractional-power kink
    at the axes, after which the rule converges fast.
    """
    s, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    gu, gv = np.meshgrid(s, s, indexing="ij")
    u, v = gu.ravel() ** 2, gv.ravel() ** 2
    return u, v, 4.0 * gu.ravel() * gv.ravel() * np.outer(w, w).ravel()


def copula_integral(copula, fn, n=96):
    """Integrate ``fn(u, v) * pdf`` over the unit square."""
    u, v, w = copula_grid(n)
    return float(np.sum(copula.pdf(np.column_stack([u, v])) * fn(u, v) * w))


def dual_value(c, lam):
    """The convex dual ``<lam, mu> + log Z(lam)`` of constraints ``c``,
    formed from the family its solve runs on."""
    family = (maxent._density_family(c) if c.ndim == 1
              else _copula_family(maxent._copula_key(c.exponents), 128))
    lam = np.asarray(lam, dtype=float)
    return float(lam @ c.targets + family.log_partition(lam))


def toy1_pair(which, n=3000, seed=2025):
    """I.i.d. draws of ``(X_which, Y)`` from the first example given failure:
    ``X1`` normal truncated to (3, inf), ``X2 ~ N(0, 5)``, ``Y = X1 + |X2|``."""
    rng = np.random.default_rng(seed)
    x1 = stats.truncnorm.rvs(3.0, np.inf, size=n, random_state=rng)
    x2 = rng.normal(0.0, math.sqrt(5.0), n)
    return np.column_stack([x1 if which == 1 else x2, x1 + np.abs(x2)])


class TestMoments1d:
    def test_two_point_sample_half_power(self):
        c = fractional_moments_1d([1.0, 4.0], exponents=(0.5,))
        assert c.targets[0] == pytest.approx(1.5, abs=1e-15)
        assert c.shift == 0.0
        assert c.support == (1.0, 4.0)

    def test_folded_normal_half_moment(self):
        rng = np.random.default_rng(2024)
        sample = np.abs(rng.standard_normal(10**6))
        c = fractional_moments_1d(sample, exponents=(0.5,))
        exact, _ = integrate.quad(lambda z: math.sqrt(z) * 2.0 * stats.norm.pdf(z),
                                  0.0, np.inf)
        assert c.targets[0] == pytest.approx(exact, abs=1.5e-3)

    def test_support_equals_sample_range(self):
        rng = np.random.default_rng(0)
        sample = rng.chisquare(3, 500) + 2.0
        c = fractional_moments_1d(sample)
        assert c.support == (sample.min(), sample.max())
        assert c.shift == 0.0

    def test_negative_sample_is_shifted(self):
        sample = np.array([-2.0, -1.0, 0.5, 3.0])
        c = fractional_moments_1d(sample, exponents=(0.5, 1.0))
        assert c.shift == pytest.approx(2.0 + 1e-6 * 5.0)
        assert c.support[0] >= 0.0
        # targets are moments of the shifted variable
        z = sample + c.shift
        assert c.targets[1] == pytest.approx(z.mean())

    def test_integer_exponents_need_no_shift(self):
        sample = np.array([-2.0, -1.0, 0.5, 3.0])
        c = fractional_moments_1d(sample, exponents=(1.0, 2.0))
        assert c.shift == 0.0
        assert c.support == (-2.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            fractional_moments_1d([1.0])
        with pytest.raises(ValueError, match="non-finite"):
            fractional_moments_1d([1.0, math.nan])
        with pytest.raises(ValueError, match="degenerate"):
            fractional_moments_1d([2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="distinct"):
            fractional_moments_1d([1.0, 2.0], exponents=(0.5, 0.5))
        with pytest.raises(ValueError, match="strictly positive"):
            fractional_moments_1d([1.0, 2.0], exponents=(-0.5,))
        with pytest.raises(ValueError, match="at least one exponent"):
            fractional_moments_1d([1.0, 2.0], exponents=())


class TestCopulaMoments:
    def test_comonotone_product_moment(self):
        # when both columns share one ordering the pseudo-observations
        # coincide, so the (1, 1) moment is the mean of squared ranks
        n = 40
        x = np.arange(1.0, n + 1.0)
        c = copula_fractional_moments(np.column_stack([x, 2.0 * x + 5.0]),
                                      exponents=(1.0,))
        expected = np.mean((np.arange(1, n + 1) / n) ** 2)
        assert c.exponents == ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert c.targets[2] == pytest.approx(expected, abs=1e-15)

    def test_independent_columns_product_form(self):
        rng = np.random.default_rng(77)
        xy = rng.standard_normal((4000, 2))
        c = copula_fractional_moments(xy, exponents=(0.5, 1.0))
        for (r, s), target in zip(c.exponents, c.targets):
            assert target == pytest.approx(1.0 / ((1.0 + r) * (1.0 + s)), abs=0.02)

    def test_tied_values_use_average_ranks(self):
        xy = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        c = copula_fractional_moments(xy, exponents=(1.0,))
        u = np.array([1.5, 1.5, 3.0, 4.0]) / 4.0
        v = np.array([1.0, 2.0, 3.0, 4.0]) / 4.0
        assert c.exponents[2] == (1.0, 1.0)
        assert c.targets[2] == pytest.approx(np.mean(u * v), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"\(n, 2\) sample"):
            copula_fractional_moments(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="column 1 is constant"):
            copula_fractional_moments(np.column_stack([np.arange(5.0), np.ones(5)]))


class TestSolve1d:
    def test_exact_uniform_moments_give_flat_density(self):
        exps = (0.5, 1.0, 1.5)
        targets = [1.0 / (1.0 + e) for e in exps]
        c = MomentConstraints(ndim=1, exponents=exps, targets=targets,
                              support=(0.0, 1.0))
        density = solve_maxent(c)
        assert np.linalg.norm(density.multipliers) < 1e-5
        grid = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(density.pdf(grid), 1.0, atol=1e-5)

    def test_gaussian_from_first_two_moments(self):
        c = MomentConstraints(ndim=1, exponents=(1.0, 2.0), targets=(0.0, 1.0),
                              support=(-8.0, 8.0))
        density = solve_maxent(c)
        grid = np.linspace(-3.0, 3.0, 121)
        sup_dist = np.max(np.abs(density.pdf(grid) - stats.norm.pdf(grid)))
        assert sup_dist < 1e-3
        assert density.pdf(np.array([0.0]))[0] == pytest.approx(0.3989, abs=1e-3)

    def test_normalization_and_moment_match(self):
        rng = np.random.default_rng(5)
        sample = 15.0 + rng.chisquare(3, 3000)
        c = fractional_moments_1d(sample)
        density = solve_maxent(c)
        assert integrate_pdf(density) == pytest.approx(1.0, abs=1e-5)
        for e, target in zip(c.exponents, c.targets):
            got = integrate_pdf(density, lambda z, e=e: z ** e)
            assert got == pytest.approx(target, abs=1e-5 * max(1.0, abs(target)))

    def test_dual_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(6)
        sample = np.abs(rng.standard_normal(2000)) + 0.5
        c = fractional_moments_1d(sample)
        density = solve_maxent(c)
        # the dual gradient is target minus fitted moment, so a converged
        # solve means the two agree to the solver's tolerance
        for e, target in zip(c.exponents, c.targets):
            got = integrate_pdf(density, lambda z, e=e: z ** e)
            assert abs(got - target) < 2e-6

    def test_dual_is_convex_along_midpoints(self):
        rng = np.random.default_rng(7)
        sample = rng.chisquare(4, 800) + 1.0
        c = fractional_moments_1d(sample)
        for trial in range(5):
            la = rng.normal(scale=0.5, size=3)
            lb = rng.normal(scale=0.5, size=3)
            mid = dual_value(c, (la + lb) / 2.0)
            assert mid <= (dual_value(c, la) + dual_value(c, lb)) / 2.0 + 1e-9

    def test_solution_minimizes_dual(self):
        rng = np.random.default_rng(8)
        sample = rng.chisquare(4, 800) + 1.0
        c = fractional_moments_1d(sample)
        density = solve_maxent(c)
        best = dual_value(c, density.multipliers)
        for scale in (1e-3, 1e-2, 0.1):
            for direction in (np.array([1.0, 0, 0]), np.array([0, -1.0, 0.5])):
                assert best <= dual_value(c, density.multipliers + scale * direction) + 1e-10

    def test_infeasible_moments_raise(self):
        # a mean of 0.9 forces a second moment of at least 0.81
        c = MomentConstraints(ndim=1, exponents=(1.0, 2.0), targets=(0.9, 0.2),
                              support=(0.0, 1.0))
        with pytest.raises(InfeasibleConstraintsError):
            solve_maxent(c)

    def test_copula_constraints_are_refused(self):
        # a copula has one fit path, fit_copula, and one resolution rule
        c = copula_fractional_moments(np.random.default_rng(10).standard_normal((200, 2)))
        with pytest.raises(ValueError, match="fit_copula"):
            solve_maxent(c)

    def test_shifted_sample_density_lives_on_original_scale(self):
        rng = np.random.default_rng(9)
        sample = rng.standard_normal(2000) - 1.0
        c = fractional_moments_1d(sample)
        assert c.shift > 0.0
        density = solve_maxent(c)
        lo, hi = density.support
        assert lo == pytest.approx(sample.min(), abs=1e-9)
        assert hi == pytest.approx(sample.max(), abs=1e-9)
        assert integrate_pdf(density) == pytest.approx(1.0, abs=1e-5)
        assert density.pdf(np.array([lo - 1.0]))[0] == 0.0

    def test_sixth_power_rung_converges_at_a_hard_edge(self):
        # a normal truncated at 3, like toy1's X1 given failure; near the
        # optimum the dual of the (1, ..., 6) rung on this sample is flat
        # to roundoff, and the line search must still reach the tolerance
        sample = np.abs(np.random.default_rng(3).standard_normal(3000)) + 3.0
        c = fractional_moments_1d(sample, MARGINAL_LADDER[-1])
        density = solve_maxent(c)
        assert integrate_pdf(density) == pytest.approx(1.0, abs=1e-8)
        for e, target in zip(c.exponents, c.targets):
            got = integrate_pdf(density, lambda z, e=e: z ** e)
            assert got == pytest.approx(target, rel=1e-8)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6), df=st.integers(2, 8),
           offset=st.floats(0.0, 20.0))
    def test_random_samples_solve_cleanly(self, seed, df, offset):
        rng = np.random.default_rng(seed)
        sample = rng.chisquare(df, 600) + offset
        density = solve_maxent(fractional_moments_1d(sample))
        assert integrate_pdf(density) == pytest.approx(1.0, abs=1e-4)


class TestSolveCopula:
    def test_exact_independence_moments_give_unit_density(self):
        exps = DEFAULT_EXPONENTS
        pairs = tuple((r, s) for r in exps for s in exps)
        targets = [1.0 / ((1.0 + r) * (1.0 + s)) for r, s in pairs]
        c = MomentConstraints(ndim=2, exponents=pairs, targets=targets,
                              support=((0.0, 1.0), (0.0, 1.0)))
        copula = _solve_copula(c)[0]
        grid = np.linspace(0.05, 0.95, 10)
        uv = np.column_stack([g.ravel() for g in np.meshgrid(grid, grid)])
        np.testing.assert_allclose(copula.pdf(uv), 1.0, atol=1e-6)

    @pytest.mark.parametrize("family", list(COPULA_LADDER) + ["cross_only"],
                             ids=[f"{len(e)}_exponents" for e in COPULA_LADDER] + ["cross_only"])
    def test_fitted_copula_normalizes_and_matches_moments(self, family):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((3000, 2))
        xy = np.column_stack([z[:, 0], 0.7 * z[:, 0] + math.sqrt(1 - 0.49) * z[:, 1]])
        if family == "cross_only":
            # a hand-built set without margin features
            full = copula_fractional_moments(xy, DEFAULT_EXPONENTS)
            keep = [j for j, (r, s) in enumerate(full.exponents) if r > 0.0 and s > 0.0]
            c = MomentConstraints(ndim=2, exponents=tuple(full.exponents[j] for j in keep),
                                  targets=full.targets[keep], support=full.support)
            copula = _solve_copula(c)[0]
        else:
            c = copula_fractional_moments(xy, family)
            copula = fit_copula(xy, family)
        # every feature built densely on a grid of the test's own
        u, v, w = copula_grid()
        mass = copula.pdf(np.column_stack([u, v])) * w
        feats = np.vstack([u ** r * v ** s for r, s in c.exponents])
        assert np.sum(mass) == pytest.approx(1.0, abs=1e-5)
        np.testing.assert_allclose(feats @ mass, c.targets, rtol=0.0, atol=2e-5)

    def test_positive_dependence_concentrates_on_diagonal(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((3000, 2))
        xy = np.column_stack([z[:, 0], 0.8 * z[:, 0] + 0.6 * z[:, 1]])
        copula = fit_copula(xy, DEFAULT_EXPONENTS)
        on_diag = copula.pdf(np.array([[0.9, 0.9], [0.1, 0.1]]))
        off_diag = copula.pdf(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert on_diag.min() > off_diag.max()

    def test_uniformity_gap_small_for_independence(self):
        rng = np.random.default_rng(14)
        copula = fit_copula(rng.standard_normal((5000, 2)), DEFAULT_EXPONENTS)
        assert copula.uniformity_gap() < 0.2

    def test_solution_minimizes_dual(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((2000, 2))
        xy = np.column_stack([z[:, 0], z[:, 0] + z[:, 1]])
        c = copula_fractional_moments(xy)
        copula = fit_copula(xy, DEFAULT_EXPONENTS)
        best = dual_value(c, copula.multipliers)
        assert best == pytest.approx(
            float(copula.multipliers @ c.targets) - copula.log_normalizer, abs=1e-12)
        for scale in (1e-3, 1e-2, 0.1):
            for direction in np.eye(len(c.exponents))[[0, 3, 8]]:
                assert best <= dual_value(c, copula.multipliers + scale * direction) + 1e-10
                assert best <= dual_value(c, copula.multipliers - scale * direction) + 1e-10

    @pytest.mark.parametrize("exponents, targets", [
        (((1.0, 0.0),), (1.2,)),
        (((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), (1.2, 0.5, 0.6)),
        (((1.0, 0.0), (2.0, 0.0)), (0.5, 0.6)),
    ], ids=["mean_above_one", "mean_above_one_with_cross", "second_above_first"])
    def test_infeasible_targets_raise(self, exponents, targets):
        # on the unit square E[u] < 1 and E[u**2] <= E[u]
        c = MomentConstraints(ndim=2, exponents=exponents, targets=targets,
                              support=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(InfeasibleConstraintsError, match="no density on the support"):
            _solve_copula(c)

    @pytest.mark.parametrize("exponents", [((1.0, 1.0), (0.5, 1.0), (1.0, 1.0)),
                                           ((0.0, 0.0), (1.0, 1.0))],
                             ids=["repeated_pair", "constant_feature"])
    def test_dependent_features_raise(self, exponents):
        c = MomentConstraints(ndim=2, exponents=exponents,
                              targets=[0.25] * len(exponents),
                              support=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(MaxEntError, match="linearly dependent"):
            _solve_copula(c)

    def test_off_square_density_is_zero(self):
        rng = np.random.default_rng(15)
        copula = fit_copula(rng.standard_normal((500, 2)), DEFAULT_EXPONENTS)
        assert copula.pdf(np.array([1.5, 0.5])) == 0.0
        assert copula.pdf(np.array([[0.5, -0.1]]))[0] == 0.0


class TestExponentLadder:
    def test_gaussian_sample_picks_the_gaussian_family(self):
        rng = np.random.default_rng(19)
        density = fit_density(rng.normal(1.0, 2.0, 3000))
        assert density.exponents == (1.0, 2.0)

    def test_bimodal_sample_picks_even_powers_beyond_two(self):
        rng = np.random.default_rng(20)
        sample = np.concatenate([rng.normal(-3.0, 0.5, 1500), rng.normal(3.0, 0.5, 1500)])
        density = fit_density(sample)
        assert 4.0 in density.exponents
        # the fit hollows out the middle between the modes
        assert density.pdf(np.array([0.0]))[0] < 0.2 * density.pdf(np.array([3.0]))[0]

    def test_explicit_exponents_pin_the_family(self):
        rng = np.random.default_rng(21)
        xy = rng.standard_normal((800, 2))
        pinned = fit_copula(xy, (0.5, 1.0))
        direct = _solve_copula(copula_fractional_moments(xy, (0.5, 1.0)))[0]
        assert pinned.exponents == direct.exponents
        np.testing.assert_array_equal(pinned.multipliers, direct.multipliers)
        assert pinned.log_normalizer == direct.log_normalizer

    def test_pinned_set_is_a_ladder_of_one(self):
        # judged by the ladder's one-nat rule, the pinned richest rung is the
        # fit the ladder itself picks, and neither fit warns
        xy = toy1_pair(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pinned = fit_copula(xy, COPULA_LADDER[2])
            chosen = fit_copula(xy)
        assert pinned.exponents == chosen.exponents
        np.testing.assert_array_equal(pinned.multipliers, chosen.multipliers)
        assert pinned.log_normalizer == chosen.log_normalizer

    def test_unresolved_family_is_not_chosen(self):
        # the richest family fits this near-functional pair with a spike the
        # solver grid cannot see; ranked on its wrong normalizer it would win
        rng = np.random.default_rng(32)
        x = rng.standard_normal(3000)
        xy = np.column_stack([x, x + 0.05 * rng.standard_normal(3000)])
        copula = fit_copula(xy)
        # pinned, the rung is a ladder of one that the grid cannot resolve
        with pytest.warns(UserWarning, match="quadrature error"):
            rich = fit_copula(xy, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        # integrated on grids other than the solver's; the spike is narrow
        # and, where it falls on the flat dual, can slip between the nodes
        # of a coarse rule too, so the rich fit is integrated finely
        assert copula_integral(copula, lambda u, v: 1.0) == pytest.approx(1.0, abs=1e-3)
        assert abs(copula_integral(rich, lambda u, v: 1.0, n=400) - 1.0) > 0.5

    def test_copula_margins_match_the_ranks(self):
        rng = np.random.default_rng(22)
        z = rng.standard_normal((3000, 2))
        xy = np.column_stack([z[:, 0], z[:, 0] + 0.3 * z[:, 1]])
        copula = fit_copula(xy)
        n = xy.shape[0]
        margins = [(r, s) for r, s in copula.exponents if r == 0.0 or s == 0.0]
        assert len(margins) >= 4
        for r, s in margins:
            rank_moment = np.mean((np.arange(1, n + 1) / n) ** (r + s))
            got = copula_integral(copula, lambda u, v, r=r, s=s: u ** r * v ** s)
            assert got == pytest.approx(rank_moment, abs=1e-5)


# Each rung of COPULA_LADDER on toy1_pair(which), as solved by the dense
# whitened Newton solver this one replaced: delta_index, log normalizer
# and BIC, and the rung (feature count) the ladder picks.  NEWTON_STEPS
# holds the iterations of each rung's solve on the 128-point grid.
NEWTON_STEPS = {1: (6, 7, 9), 2: (14, 17, 42)}
DENSE_SOLVER_RUNGS = {
    1: ([(0.08338296446855968, 2.2911570610822065, -115.88049679046429),
         (0.08477415364715388, 0.6186114154502942, -68.19231213575927),
         (0.09118306800520076, 1.9586838002599303, 59.977481160403045)], 15),
    2: ([(0.47397273981107635, 8.739887163939088, -4198.8986474623525),
         (0.7333892636066508, -2007.7977197596686, -8943.860517700958),
         (0.7454898718126919, 3.1381261067213133, -9313.897177841529)], 48),
}


class TestSolverPinned:
    """The copula solve keeps the estimates of the dense solver it replaced
    and the Newton path of the solver before the product-span moments."""

    @pytest.mark.parametrize("which", [1, 2])
    def test_ladder_rungs_match_the_dense_solver(self, which):
        xy = toy1_pair(which)
        rungs, winner = DENSE_SOLVER_RUNGS[which]
        for exps, (delta, log_c, bic), steps in zip(COPULA_LADDER, rungs,
                                                     NEWTON_STEPS[which]):
            c = copula_fractional_moments(xy, exps)
            copula = fit_copula(xy, exps)
            assert delta_index(copula) == pytest.approx(delta, abs=1e-8), exps
            assert copula.log_normalizer == pytest.approx(log_c, abs=1e-5), exps
            assert _bic(c, copula) == pytest.approx(bic, abs=1e-3), exps
            family = _copula_family(maxent._copula_key(c.exponents), 128)
            assert _newton(c.targets, family, 1e-6, 200)[2] == steps, exps
        assert len(fit_copula(xy).exponents) == winner


def copula_features(exps):
    """The features of :func:`copula_fractional_moments` for ``exps``."""
    margins = tuple((e, 0.0) for e in exps) + tuple((0.0, e) for e in exps)
    return margins + tuple((r, s) for r in exps for s in exps)


def dense_moments(family, p):
    """Whitened means and covariance under grid probabilities ``p`` from
    every pairwise product of the axis polynomials ``g``, formed over the
    grid: the formula the product-span projection replaced."""
    g = family.g
    k1 = g.shape[0]
    first = (g @ p @ g.T).ravel()[1:]
    pairs = (g[:, None, :] * g[None, :, :]).reshape(-1, g.shape[1])
    second = (pairs @ p @ pairs.T).reshape(k1, k1, k1, k1)
    second = second.transpose(0, 2, 1, 3).reshape(k1 * k1, k1 * k1)[1:, 1:]
    cov = second - np.outer(first, first)
    return family.coef.T @ first, family.coef.T @ cov @ family.coef


SPAN_SETS = COPULA_LADDER + ((0.3, 0.7, 1.1),)


class TestProductSpan:
    """The basis ``h`` of the products of the axis polynomials, on which a
    copula family reads its moments and Hessian."""

    @pytest.mark.parametrize("n_axis", [128, 256])
    @pytest.mark.parametrize("exps", SPAN_SETS, ids=str)
    def test_basis(self, exps, n_axis):
        family = _copula_family(copula_features(exps), n_axis)
        _, wu, _ = _unit_axis(n_axis)
        k1, h = family.g.shape[0], family.h
        np.testing.assert_array_equal(h[:k1], family.g)
        gram = (h * (wu / np.sum(wu))) @ h.T
        np.testing.assert_allclose(gram, np.eye(h.shape[0]), rtol=0.0, atol=1e-13)
        # u**a * u**b is u**(a + b): one function per distinct sum
        values = (0.0, *exps)
        assert h.shape[0] == len({round(a + b, 12) for a in values for b in values})
        assert family.pair_coef.shape == (k1 * k1, h.shape[0])

    @pytest.mark.parametrize("n_axis", [128, 256])
    @pytest.mark.parametrize("exps", SPAN_SETS, ids=str)
    def test_moments_of_a_random_grid_are_the_dense_ones(self, exps, n_axis):
        # measured: means within 1e-15, Hessians within 2.6e-11 of their
        # largest entry (the six-power rung at 128 points); a rough p
        # weighs the sliver of the products outside the span the most
        family = _copula_family(copula_features(exps), n_axis)
        p = np.random.default_rng(26).random((n_axis, n_axis))
        p /= np.sum(p)
        self._assert_dense(family, p, 1e-10)

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("exps", SPAN_SETS, ids=str)
    def test_moments_of_a_fitted_copula_are_the_dense_ones(self, exps, which):
        # measured: Hessians within 2.6e-14 of their largest entry
        copula = fit_copula(toy1_pair(which), exps)
        w, c = copula.grid_pdf()
        self._assert_dense(_copula_family(copula_features(exps), 128), w * c, 1e-12)

    @staticmethod
    def _assert_dense(family, p, rel):
        mom, hess = family.moments(p)
        want_mom, want_hess = dense_moments(family, p)
        np.testing.assert_allclose(mom, want_mom, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(hess, want_hess, rtol=0.0,
                                   atol=rel * np.max(np.abs(want_hess)))



class _FakeFamily:
    """Test double of the family contract of :func:`_newton`: features that
    are already whitened (unit scale, zero centre, ``r`` the identity), the
    rows of ``g`` on a grid with quadrature weights ``weights``.  A given
    ``hessian`` replaces the covariance that :meth:`moments` reports."""

    def __init__(self, g, weights, hessian=None):
        self.g, self.weights, self.hessian = g, weights, hessian
        k = g.shape[0]
        self.scale, self.center, self.r = np.ones(k), np.zeros(k), np.eye(k)

    def whitened_log_q(self, lam):
        return -(lam @ self.g)

    def log_partition(self, lam):
        return math.log(np.sum(self.weights * np.exp(-(lam @ self.g))))

    def moments(self, p):
        mom = self.g @ p
        cov = (self.g * p) @ self.g.T - np.outer(mom, mom)
        return mom, cov if self.hessian is None else self.hessian


class TestNewtonRidge:
    """The ridge that :func:`_newton` adds when the dual Hessian has no
    Cholesky factor."""

    def _family(self, hessian=None):
        # the second feature is zero on the grid, so the Hessian is PSD of rank 1
        x, w = np.polynomial.legendre.leggauss(64)
        return _FakeFamily(np.vstack([x, np.zeros_like(x)]), w, hessian)

    def test_rank_deficient_hessian_gets_a_ridge_and_converges(self, monkeypatch):
        attempts = []  # (matrix, factorized) per Cholesky attempt
        factor = maxent.cholesky

        def recording(a):
            try:
                chol = factor(a)
            except np.linalg.LinAlgError:
                attempts.append((a.copy(), False))
                raise
            attempts.append((a.copy(), True))
            return chol

        monkeypatch.setattr(maxent, "cholesky", recording)
        family = self._family()
        lam, log_z, _ = _newton(np.array([0.3, 0.0]), family, 1e-9, 50)
        # the plain factorization fails on the zero pivot; a ridged one succeeds
        first, factorized = attempts[0]
        assert not factorized and first[1, 1] == 0.0
        ridged = [a for a, ok in attempts if ok and a[1, 1] > 0.0]
        assert ridged and all(a[0, 1] == a[1, 0] == 0.0 for a in ridged)
        p = family.weights * np.exp(-(lam @ family.g) - log_z)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
        assert family.g[0] @ p == pytest.approx(0.3, abs=1e-9)
        assert lam[1] == 0.0

    @pytest.mark.parametrize("hessian, message", [
        # no ridge up to the ceiling makes it positive definite
        (-1e7 * np.eye(2), "^dual Hessian is numerically singular$"),
        # LAPACK factors NaNs without complaint; the step then fails
        (np.full((2, 2), np.nan), "^Newton step is not a descent direction; the dual "
                                  "Hessian is numerically singular$"),
    ], ids=["indefinite", "nan"])
    def test_unusable_hessian_is_numerically_singular(self, hessian, message):
        with pytest.raises(MaxEntError, match=message):
            _newton(np.array([0.3, 0.0]), self._family(hessian), 1e-9, 50)


class TestGridPdf:
    """A fitted copula read off its solver grid."""

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("exps", COPULA_LADDER, ids=lambda e: f"{len(e)}_exponents")
    def test_grid_values_integrate_to_one_and_are_the_pointwise_density(self, which, exps):
        copula = fit_copula(toy1_pair(which), exps)
        w, c = copula.grid_pdf()
        assert np.sum(w * c) == pytest.approx(1.0, abs=1e-12)
        u, _, _ = _unit_axis(128)
        nodes = np.column_stack([np.repeat(u, u.size), np.tile(u, u.size)])
        pointwise = copula.pdf(nodes).reshape(c.shape)
        positive = pointwise > 0.0
        np.testing.assert_allclose(c[positive], pointwise[positive], rtol=1e-6)


class TestSolverBitIdentity:
    """The solver's shortcuts give the bits of the plain formulas."""

    def test_copula_targets_are_per_feature_means(self):
        rng = np.random.default_rng(23)
        xy = np.round(rng.standard_normal((500, 2)), 1)  # many ties
        u = stats.rankdata(xy[:, 0]) / xy.shape[0]
        v = stats.rankdata(xy[:, 1]) / xy.shape[0]
        for exps in COPULA_LADDER:
            c = copula_fractional_moments(xy, exps)
            expected = [np.mean(u ** r * v ** s) for r, s in c.exponents]
            np.testing.assert_array_equal(c.targets, expected)

    def test_drift_grid_is_the_unit_square_grid(self):
        u, wu, wuv = _unit_axis(256)
        s, ws = np.polynomial.legendre.leggauss(256)
        s, ws = 0.5 + 0.5 * s, 0.5 * ws
        np.testing.assert_array_equal(u, s * s)
        np.testing.assert_array_equal(wu, 2.0 * s * ws)
        np.testing.assert_array_equal(wuv, np.outer(wu, wu))
        pairs = tuple((r, t) for r in COPULA_LADDER[2] for t in COPULA_LADDER[2])
        family = _copula_family(pairs, 256)
        np.testing.assert_array_equal(family.powers[1], u)  # the row of u ** 1.0
        assert family.weights is wuv

    def test_log_partition_in_place(self):
        rng = np.random.default_rng(24)
        logq, w = 30.0 * rng.standard_normal((128, 128)), rng.random((128, 128))
        m = np.max(logq)
        expected = float(m + math.log(np.sum(w * np.exp(logq - m))))
        assert _log_partition(logq.copy(), w) == expected

    @pytest.mark.parametrize("k", [1, 48])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_triangular_solve_is_scipys(self, k, trans):
        # the solve is numpy's general one on ``r`` or ``r.T``, bit for bit;
        # it agrees with scipy's triangular solve to roundoff: cond(r) is
        # about 44 at k = 48, the gap measured 1.1e-15 of the largest entry
        # and the bound is 1e-14 of it
        rng = np.random.default_rng(25)
        _, r = np.linalg.qr(rng.standard_normal((k + 3, k)))
        b = rng.standard_normal(k)
        got = _solve_upper(r, b, trans)
        np.testing.assert_array_equal(got, np.linalg.solve(r.T if trans else r, b))
        want = solve_triangular(r, b, trans=trans)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))
