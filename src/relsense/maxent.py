"""Maximum-entropy density estimation under fractional moment constraints.

Given empirical moments ``mu_j = mean(phi_j)`` of a sample, the density
of maximum entropy supported on a box and matching those moments has the
form ``f(x) = c * exp(-sum_j lam_j phi_j(x))``.  The multipliers solve
the strictly convex dual problem

    minimize  <lam, mu> + log integral exp(-<lam, phi(x)>) dx,

whose gradient is ``mu - E_f[phi]`` and whose Hessian is ``Cov_f(phi)``;
a damped Newton iteration with backtracking line search drives the
gradient norm below ``tol``.  The iteration runs in a centred,
orthonormal (whitened) basis of the features, integrated by
Gauss-Legendre quadrature.

Two families are provided: one-dimensional densities with power features
``x**beta`` on a data-driven support (used for failure-conditioned input
marginals), and copula densities on the unit square fitted to rank
pseudo-observations (used for the input/output dependence indices).  The
copula features are the margin powers ``u**a`` and ``v**b`` plus the
cross products ``u**a * v**b``; matching the margin moments of the ranks
makes the fit a minimum-information copula in the sense of Bedford &
Wilson (2014), with marginals uniform up to the fitted moments.

That copula family is a tensor product of one set of axis powers with
itself, so the solver never builds its features over the 128 x 128
grid: it whitens the axis powers per axis, writes every feature in
products of the axis polynomials through a Kronecker map, and evaluates
the log density, the moments and the Hessian as small matrix products
on 128-point axis arrays.  A 1-D family is whitened by the same
per-axis recipe (its powers with the constant first, orthonormalized on
its 384-node grid, then mapped to the features), and its whitened
features are kept as dense rows over that grid.

:func:`fit_density` and :func:`fit_copula` choose the exponent set of
each fit from a short built-in ladder (:data:`MARGINAL_LADDER`,
:data:`COPULA_LADDER`) by the Bayesian information criterion, unless an
explicit exponent set pins one family.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, LinAlgError

__all__ = [
    "MaxEntError",
    "InfeasibleConstraintsError",
    "MomentConstraints",
    "MaxEntDensity",
    "MaxEntCopula",
    "fractional_moments_1d",
    "copula_fractional_moments",
    "solve_maxent",
    "fit_density",
    "fit_copula",
    "dual_objective",
    "MARGINAL_LADDER",
    "COPULA_LADDER",
    "unit_square_grid",
]

SHIFT_EPS = 1e-6
DEFAULT_EXPONENTS = (0.5, 1.0, 1.5)
# Largest change of a copula's log normalizer from its 128-point solver
# grid to a 256-point grid before a single fit warns of under-resolution.
DRIFT_TOL = 1e-7

# Candidate exponent sets, from sparse to rich, searched by BIC when a fit
# is not pinned to one set.  Even integer powers let a marginal hollow out
# the middle of a bimodal conditional; the richer copula sets resolve
# dependence concentrated near a curve.  (Half-integer steps up to 3 on a
# copula stall the solver on 3000 ranks of a near-functional pair; the
# integer powers up to 6 converge there in about 40 Newton steps.)
MARGINAL_LADDER = ((0.5, 1.0, 1.5), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0),
                   (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
COPULA_LADDER = ((0.5, 1.0, 1.5), (1.0, 2.0, 3.0, 4.0),
                 (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))


class MaxEntError(RuntimeError):
    """The dual solve failed to converge."""


class InfeasibleConstraintsError(MaxEntError):
    """The dual is diverging: no density on the support matches the moments."""


@dataclass(frozen=True)
class MomentConstraints:
    """Moment targets defining one maximum-entropy problem.

    For ``ndim == 1`` the exponents are floats, the support is an
    interval in shifted coordinates ``z = x + shift`` and the targets are
    means of ``z**beta``.  For ``ndim == 2`` the exponents are ``(a, b)``
    pairs on the unit square and the targets are means of
    ``u**a * v**b``; a zero exponent drops that coordinate, so ``(a, 0)``
    is a margin feature.
    """

    ndim: int
    exponents: tuple
    targets: np.ndarray
    support: tuple
    shift: float = 0.0
    sample_size: int = 0

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=float)
        targets.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        if self.ndim not in (1, 2):
            raise ValueError("ndim must be 1 or 2")
        if len(self.exponents) != targets.shape[0]:
            raise ValueError("exponents and targets must have the same length")
        if not np.all(np.isfinite(targets)):
            raise ValueError("moment targets must be finite")


def _check_exponents(exponents):
    exps = tuple(float(e) for e in exponents)
    if len(exps) == 0:
        raise ValueError("need at least one exponent")
    if len(set(exps)) != len(exps):
        raise ValueError(f"exponents must be distinct, got {exps}")
    if any(not np.isfinite(e) or e <= 0 for e in exps):
        raise ValueError(f"exponents must be strictly positive, got {exps}")
    return exps


def fractional_moments_1d(sample, exponents=DEFAULT_EXPONENTS) -> MomentConstraints:
    """Empirical moments ``mean((x + shift)**beta)`` of a 1-D sample.

    When the sample touches zero or goes negative and any exponent is
    non-integer, the sample is first shifted by ``-min + 1e-6 * range``
    so all powers are real; the shift is recorded and undone at density
    evaluation time.  The support is the sample range, unpadded:
    conditional densities of rare-event problems often have hard edges
    at the failure boundary, and padding the support smears them, which
    biases ratio-based indices downward.
    """
    x = np.asarray(sample, dtype=float).reshape(-1)
    if x.size < 2:
        raise ValueError("need at least two sample points")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    lo, hi = float(x.min()), float(x.max())
    rng = hi - lo
    if rng == 0.0:
        raise ValueError("degenerate sample: all values are equal")
    exps = _check_exponents(exponents)
    shift = 0.0
    if lo <= 0.0 and any(e != int(e) for e in exps):
        shift = -lo + SHIFT_EPS * rng
    z = x + shift
    targets = np.array([np.mean(z ** e) for e in exps])
    return MomentConstraints(ndim=1, exponents=exps, targets=targets,
                             support=(lo + shift, hi + shift), shift=shift,
                             sample_size=x.size)


def _average_ranks(x):
    """Ranks ``1..n`` of ``x``, ties sharing their mean rank: the values
    of ``scipy.stats.rankdata(x, method="average")``, bit for bit (every
    rank is an integer or a half-integer)."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.r_[first, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2.0, counts)
    return ranks


def copula_fractional_moments(sample_xy, exponents=DEFAULT_EXPONENTS) -> MomentConstraints:
    """Empirical copula moments of a bivariate sample.

    Pseudo-observations are ``rank / n`` with average ranks on ties, so
    they lie in ``(0, 1]``.  The features are the margin powers
    ``(a, 0)`` and ``(0, b)`` for every exponent, followed by every cross
    pair ``(a, b)``; the targets are their means over the
    pseudo-observations.  The margin targets are the moments of the
    uniform law up to ``O(1/n)``, which makes the fitted density a copula
    in those moments.
    """
    xy = np.asarray(sample_xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) sample, got shape {xy.shape}")
    if xy.shape[0] < 2:
        raise ValueError("need at least two sample points")
    if not np.all(np.isfinite(xy)):
        raise ValueError("sample contains non-finite values")
    for col in range(2):
        if xy[:, col].min() == xy[:, col].max():
            raise ValueError(f"degenerate sample: column {col} is constant")
    exps = _check_exponents(exponents)
    n = xy.shape[0]
    u = _average_ranks(xy[:, 0]) / n
    v = _average_ranks(xy[:, 1]) / n
    margins = tuple((e, 0.0) for e in exps) + tuple((0.0, e) for e in exps)
    pairs = margins + tuple((r, s) for r in exps for s in exps)
    targets = np.array([np.mean(u ** r * v ** s) for r, s in pairs])
    return MomentConstraints(ndim=2, exponents=pairs, targets=targets,
                             support=((0.0, 1.0), (0.0, 1.0)), sample_size=n)


@dataclass(frozen=True)
class MaxEntDensity:
    """Density ``c * exp(-sum lam_j z**beta_j)`` on an interval.

    Evaluation is in original coordinates; internally ``z = x + shift``.
    """

    exponents: tuple[float, ...]
    multipliers: np.ndarray
    log_normalizer: float
    support_shifted: tuple[float, float]
    shift: float

    @property
    def support(self) -> tuple[float, float]:
        """Support interval in original coordinates."""
        a, b = self.support_shifted
        return (a - self.shift, b - self.shift)

    def log_pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = x + self.shift
        a, b = self.support_shifted
        inside = (z >= a) & (z <= b)
        out = np.full(x.shape, -np.inf)
        zin = z[inside]
        acc = np.full(zin.shape, self.log_normalizer)
        for lam, e in zip(self.multipliers, self.exponents):
            acc -= lam * zin ** e
        out[inside] = acc
        return out

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (original coordinates) and weights of the solver's grid
        on the support, for integrals against this density."""
        z, w = _support_nodes(*self.support_shifted)
        return z - self.shift, w


@dataclass(frozen=True)
class MaxEntCopula:
    """Density ``c * exp(-sum lam_rs u**a_r v**a_s)`` on the unit square.

    Fitted through :func:`copula_fractional_moments`, the margin features
    hold the moments of the ranks, so the marginals are uniform up to
    those moments; :meth:`uniformity_gap` measures what remains.
    """

    exponents: tuple[tuple[float, float], ...]
    multipliers: np.ndarray
    log_normalizer: float

    def log_pdf(self, uv) -> np.ndarray:
        uv = np.asarray(uv, dtype=float)
        scalar_pair = uv.ndim == 1
        uv2 = np.atleast_2d(uv)
        u, v = uv2[:, 0], uv2[:, 1]
        inside = (u >= 0) & (u <= 1) & (v >= 0) & (v <= 1)
        acc = np.full(u.shape, self.log_normalizer)
        uc, vc = np.clip(u, 0.0, 1.0), np.clip(v, 0.0, 1.0)
        for lam, (r, s) in zip(self.multipliers, self.exponents):
            acc -= lam * uc ** r * vc ** s
        acc[~inside] = -np.inf
        return acc[0] if scalar_pair else acc

    def pdf(self, uv) -> np.ndarray:
        return np.exp(self.log_pdf(uv))

    def uniformity_gap(self, n_grid: int = 201) -> float:
        """Max deviation from 1 of both marginal densities (diagnostic)."""
        nodes, weights, _, _ = unit_square_grid()
        grid = np.linspace(0.0, 1.0, n_grid)
        gg, nn = np.meshgrid(grid, nodes, indexing="ij")
        mu = np.sum(self.pdf(np.column_stack([gg.ravel(), nn.ravel()])).reshape(gg.shape)
                    * weights, axis=1)
        mv = np.sum(self.pdf(np.column_stack([nn.ravel(), gg.ravel()])).reshape(gg.shape)
                    * weights, axis=1)
        return float(max(np.max(np.abs(mu - 1.0)), np.max(np.abs(mv - 1.0))))


@functools.lru_cache(maxsize=None)
def _legendre_rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_legendre(a, b, n):
    x, w = _legendre_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _composite_gl(a, b, panels, nodes):
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = _gauss_legendre(lo, hi, nodes)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _support_nodes(a, b, panels=8, nodes=48):
    """Gauss-Legendre nodes and weights on ``[a, b]``.

    With a non-negative interval the substitution ``z = t**2`` removes the
    square-root kink of fractional powers at zero, so the panels converge
    spectrally; otherwise (all-integer exponents) the grid is laid out
    directly.
    """
    if a >= 0.0:
        t, wt = _composite_gl(math.sqrt(a), math.sqrt(b), panels, nodes)
        return t * t, 2.0 * t * wt
    return _composite_gl(a, b, panels, nodes)


@functools.lru_cache(maxsize=4)
def unit_square_grid(n_axis=128):
    """Gauss-Legendre grid of the copula solver on the unit square.

    The substitution ``u = s**2`` removes the square-root kink of
    fractional powers at zero.  Returns the axis nodes and weights and the
    tensor grid built from them: ``(n_axis**2, 2)`` nodes, ``v`` running
    fastest, with the product weights.  The 128-point grid is the one
    whose resolution the drift check of :func:`solve_maxent` certifies.
    All arrays are read-only and shared.
    """
    s, ws = _gauss_legendre(0.0, 1.0, n_axis)
    u, wu = s * s, 2.0 * s * ws
    nodes = np.column_stack([np.repeat(u, n_axis), np.tile(u, n_axis)])
    weights = np.outer(wu, wu).ravel()
    for arr in (u, wu, nodes, weights):
        arr.setflags(write=False)
    return u, wu, nodes, weights


def _log_partition(logq, w):
    m = np.max(logq)
    return float(m + math.log(np.sum(w * np.exp(logq - m))))


@dataclass(frozen=True)
class _TensorFamily:
    """A copula family held as per-axis arrays (see :func:`_whiten`).

    ``powers`` holds the axis powers ``u**e`` (row 0 the constant) and
    ``index`` the power row of each feature on each axis; ``g`` holds the
    axis polynomials orthonormal under the axis weights and ``pairs``
    their pairwise products ``g_i * g_k``.  The whitened features are the
    columns of ``coef`` over the non-constant products ``g_i(u) g_j(v)``,
    with ``r.T @ whitened = features / scale - center``.  A function on
    the grid is the bilinear form ``axis.T @ C @ axis`` of a coefficient
    matrix, ``u`` along rows and ``v`` along columns.
    """

    powers: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    scale: np.ndarray
    center: np.ndarray
    r: np.ndarray
    coef: np.ndarray
    g: np.ndarray
    pairs: np.ndarray

    def log_partition(self, lam) -> float:
        """``log Z`` at multipliers ``lam`` of the original features."""
        k1 = self.g.shape[0]
        coef = np.zeros((k1, k1))
        np.add.at(coef, (self.index[:, 0], self.index[:, 1]), lam)
        return _log_partition(-(self.powers.T @ coef @ self.powers), self.weights)

    def whitened_log_q(self, lam):
        """Unnormalized log density at multipliers of the whitened features."""
        k1 = self.g.shape[0]
        theta = np.concatenate([[0.0], self.coef @ lam]).reshape(k1, k1)
        return -(self.g.T @ theta @ self.g)

    def moments(self, p):
        """Mean and covariance of the whitened features under the grid
        probabilities ``p``."""
        k1 = self.g.shape[0]
        first = (self.g @ p @ self.g.T).ravel()[1:]
        # E[g_i g_k (u) g_j g_l (v)] comes out indexed ((i, k), (j, l))
        second = (self.pairs @ p @ self.pairs.T).reshape(k1, k1, k1, k1)
        second = second.transpose(0, 2, 1, 3).reshape(k1 * k1, k1 * k1)[1:, 1:]
        cov = second - np.outer(first, first)
        return self.coef.T @ first, self.coef.T @ cov @ self.coef


def _orthonormal_powers(powers, weights):
    """Polynomials ``g`` orthonormal under ``weights`` with the span of the
    rows of ``powers``, row 0 the constant.

    A QR factorization of the powers under the weights gives
    ``powers = R.T @ g``; the signs are fixed so that ``R`` has a positive
    diagonal, which makes ``g[0]`` the constant 1.  Returns ``(g, R)``.
    """
    wn = weights / np.sum(weights)
    q, r = np.linalg.qr((powers * np.sqrt(wn)).T)
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return sign[:, None] * (q / np.sqrt(wn)[:, None]).T, sign[:, None] * r


def _feature_map(kron):
    """Centre and whiten features given by their coefficients ``kron`` over
    an orthonormal basis whose first element is the constant.

    The constant row of ``kron`` is each feature's mean and the remaining
    rows its centred part; a QR factorization of those rows,
    ``kron[1:] = coef @ r``, whitens the features.  Returns
    ``(center, coef, r)``.
    """
    coef, r = np.linalg.qr(kron[1:])
    if np.any(np.abs(np.diag(r)) <= 1e-14 * np.max(np.abs(np.diag(r)))):
        raise MaxEntError("features are linearly dependent on the support")
    return kron[0], coef, r


def _whiten(exponents, nodes, axis_weights) -> _TensorFamily:
    """Whitened basis of a copula family ``u**a * v**b`` on a tensor grid.

    Power features on one interval are close to collinear (the Gram
    matrix of six powers per axis of a copula has condition number near
    1e17), so the solver works in a centred, orthonormal basis of the
    same span.  It is built per axis, both axes sharing ``nodes`` and
    ``axis_weights``: :func:`_orthonormal_powers` turns the ``k + 1``
    axis powers (the constant first) into polynomials ``g`` with
    ``powers = R.T @ g``.  The products ``g_i(u) g_j(v)`` other than the
    constant are then orthonormal and centred under the product weights,
    and the Kronecker map ``C[(i, j), (a, b)] = R[i, a] R[j, b]`` writes
    every feature in them.  :func:`_feature_map` whitens the features
    through that small ``((k+1)**2, m)`` matrix, so a hand-built set
    without margin features works alike.  No feature matrix over the
    grid is built.
    """
    values = sorted({0.0} | {e for pair in exponents for e in pair})
    pos = {e: i for i, e in enumerate(values)}
    index = np.array([[pos[a], pos[b]] for a, b in exponents])
    powers = np.vstack([nodes ** e for e in values])
    g, r_axis = _orthonormal_powers(powers, axis_weights)
    scale = np.prod(np.max(np.abs(powers), axis=1)[index], axis=1)
    kron = np.column_stack([np.outer(r_axis[:, a], r_axis[:, b]).ravel()
                            for a, b in index]) / scale
    center, coef, r = _feature_map(kron)
    pairs = (g[:, None, :] * g[None, :, :]).reshape(-1, nodes.shape[0])
    family = _TensorFamily(powers=powers, index=index,
                           weights=np.outer(axis_weights, axis_weights), scale=scale,
                           center=center, r=r, coef=coef, g=g, pairs=pairs)
    for arr in vars(family).values():
        arr.setflags(write=False)
    return family


@dataclass(frozen=True)
class _DenseFamily:
    """A 1-D family with its features as a dense matrix on the support
    grid: six powers on 384 nodes cost little.  ``g`` holds the whitened
    features of :func:`_density_family`, with the contract of
    :class:`_TensorFamily`."""

    feats: np.ndarray
    weights: np.ndarray
    scale: np.ndarray
    center: np.ndarray
    r: np.ndarray
    g: np.ndarray

    def log_partition(self, lam) -> float:
        return _log_partition(-(lam @ self.feats), self.weights)

    def whitened_log_q(self, lam):
        return -(lam @ self.g)

    def moments(self, p):
        mom = self.g @ p
        return mom, (self.g * p) @ self.g.T - np.outer(mom, mom)


def _density_family(constraints):
    """Whitened basis of a 1-D family on its support grid, built as one
    axis of :func:`_whiten`: the powers with the constant first, their
    orthonormal polynomials, then the feature map.  The whitened features
    are kept as dense rows over the grid."""
    z, w = _support_nodes(*constraints.support)
    powers = np.vstack([z ** e for e in (0.0, *constraints.exponents)])
    g, r_axis = _orthonormal_powers(powers, w)
    scale = np.max(np.abs(powers[1:]), axis=1)
    center, coef, r = _feature_map(r_axis[:, 1:] / scale)
    return _DenseFamily(feats=powers[1:], weights=w, scale=scale, center=center, r=r,
                        g=coef.T @ g[1:])


@functools.lru_cache(maxsize=8)
def _copula_family(exponents, n_axis=128):
    """The unit square does not depend on the data, so a copula family is
    whitened once per (exponent set, grid) and shared by every fit."""
    u, wu, _, _ = unit_square_grid(n_axis)
    return _whiten(exponents, u, wu)


def _family(constraints):
    if constraints.ndim == 1:
        return _density_family(constraints)
    return _copula_family(tuple(tuple(float(e) for e in pair)
                                for pair in constraints.exponents))


def dual_objective(constraints: MomentConstraints, lam) -> float:
    """Value of the convex dual at ``lam`` (used to certify convexity)."""
    lam = np.asarray(lam, dtype=float)
    return float(lam @ constraints.targets + _family(constraints).log_partition(lam))


def _newton(targets, family, tol, max_iter):
    """Damped Newton on the dual; returns (multipliers, log Z, iterations).

    ``family`` is a :class:`_TensorFamily` (copula) or a
    :class:`_DenseFamily` (1-D).  The steps are taken in its whitened
    basis; for a copula that works on the per-axis arrays of
    :func:`_whiten`: the log density is the bilinear form
    ``g.T @ Theta @ g`` over the 128 x 128 grid ``P`` of probabilities,
    the moments are ``g P g.T`` and the Hessian comes from the pairwise
    products, ``(g * g) P (g * g).T``.  Newton steps are affine
    invariant, so the iterates are those of the original features.
    Convergence is judged on the moments of the original features,
    ``r.T @ grad``, and the multipliers are returned in that basis.
    """
    scale, center, r, w = family.scale, family.center, family.r, family.weights
    mu_s = targets / scale
    mu_g = solve_triangular(r, mu_s - center, trans="T")
    lam = np.zeros(targets.shape[0])
    for it in range(1, max_iter + 1):
        logq = family.whitened_log_q(lam)
        mstar = np.max(logq)
        qw = w * np.exp(logq - mstar)
        z = float(np.sum(qw))
        if not np.isfinite(z) or z <= 0.0:
            raise InfeasibleConstraintsError("dual integrand degenerated; constraints "
                                             "are infeasible on this support")
        mom, hess = family.moments(qw / z)
        grad = mu_g - mom
        grad_s = r.T @ grad
        if np.linalg.norm(grad_s * scale) <= tol and np.linalg.norm(grad_s) <= tol:
            lam_orig = solve_triangular(r, lam) / scale
            return lam_orig, family.log_partition(lam_orig), it
        obj = float(lam @ mu_g + mstar + math.log(z))
        ridge = 0.0
        while True:
            try:
                chol = cho_factor(hess + ridge * np.eye(hess.shape[0]), lower=True)
                break
            except LinAlgError:
                # the trace-relative floor alone can stall at zero when the
                # dual iterate collapses the density onto a single node
                ridge = max(ridge * 10.0, 1e-12 * np.trace(hess) / hess.shape[0], 1e-15)
                if ridge > 1e6:
                    raise MaxEntError("dual Hessian is numerically singular")
        step = -cho_solve(chol, grad)
        slope = float(grad @ step)
        if not slope < 0.0:
            raise MaxEntError("Newton step is not a descent direction; the dual "
                              "Hessian is numerically singular")
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            cand_obj = float(cand @ mu_g + _log_partition(family.whitened_log_q(cand), w))
            if cand_obj <= obj + 1e-4 * t * slope:
                lam = cand
                break
            t *= 0.5
        else:
            raise MaxEntError("line search failed; the dual may be flat or the "
                              "constraints near the feasibility boundary")
        if np.linalg.norm(lam) > 1e10:
            raise InfeasibleConstraintsError("dual multipliers diverging; no density on "
                                             "the support matches the moment targets")
    raise MaxEntError(f"Newton did not reach gradient norm {tol} in {max_iter} iterations")


def _solve_copula(constraints, tol=1e-6, max_iter=200):
    """Fitted copula and its quadrature drift, the change of ``log Z``
    from the 128-point solver grid to a 256-point one."""
    exps = tuple(tuple(float(e) for e in pair) for pair in constraints.exponents)
    lam, log_z, _ = _newton(constraints.targets, _copula_family(exps, 128), tol, max_iter)
    drift = abs(_copula_family(exps, 256).log_partition(lam) - log_z)
    return MaxEntCopula(exponents=constraints.exponents, multipliers=lam,
                        log_normalizer=-log_z), drift


def solve_maxent(constraints: MomentConstraints, tol: float = 1e-6,
                 max_iter: int = 200):
    """Solve the dual and return the fitted density object.

    Returns a :class:`MaxEntDensity` (``ndim == 1``) or a
    :class:`MaxEntCopula` (``ndim == 2``).  Raises
    :class:`InfeasibleConstraintsError` when the multipliers diverge and
    :class:`MaxEntError` when the iteration stalls; warns when a copula
    is under-resolved by its quadrature grid.
    """
    if constraints.ndim == 1:
        lam, log_z, _ = _newton(constraints.targets, _density_family(constraints),
                                tol, max_iter)
        return MaxEntDensity(exponents=constraints.exponents, multipliers=lam,
                             log_normalizer=-log_z,
                             support_shifted=constraints.support, shift=constraints.shift)
    copula, drift = _solve_copula(constraints, tol, max_iter)
    if drift > DRIFT_TOL:
        warnings.warn(f"copula quadrature drift {drift:.2e} between 128- and 256-point "
                      "grids; results may be under-resolved", stacklevel=2)
    return copula


def _bic(constraints: MomentConstraints, fitted) -> float:
    """BIC of a fit.  The targets are sample means of the features, so the
    log-likelihood of the sample is exactly ``n * (log c - lam . targets)``
    and costs nothing extra."""
    n = constraints.sample_size
    loglik = n * (fitted.log_normalizer - float(fitted.multipliers @ constraints.targets))
    return -2.0 * loglik + len(constraints.exponents) * math.log(n)


def _select(ladder, fit):
    """Smallest-BIC fit over a ladder of exponent sets.

    ``fit`` returns ``(estimate, bic, error)``, ``error`` bounding the
    quadrature error of the log-likelihood in nats, or raises
    :class:`MaxEntError` when the set has no resolvable optimum; such a
    set leaves the race, and when every set fails the errors are raised
    together.  A fit whose error exceeds one nat, a fraction of the BIC
    charge of one parameter, cannot be ranked, so it competes only when
    no other fit exists; then the least-error fit is returned with a
    warning.
    """
    fits, errors = [], []
    for exps in ladder:
        try:
            fits.append(fit(exps))
        except MaxEntError as exc:
            errors.append(f"{exps}: {exc}")
    if not fits:
        raise MaxEntError("no exponent set of the ladder could be fitted: "
                          + "; ".join(errors))
    ranked = [f for f in fits if f[2] <= 1.0]
    if ranked:
        return min(ranked, key=lambda f: f[1])[0]
    best, _, error = min(fits, key=lambda f: f[2])
    warnings.warn(f"quadrature error of {error:.2g} nats in the log-likelihood of "
                  "every exponent set; results may be under-resolved", stacklevel=3)
    return best


def fit_density(sample, exponents=None) -> MaxEntDensity:
    """Maximum-entropy density of a 1-D sample on the sample's range.

    With ``exponents`` given the fit uses exactly that set; with ``None``
    every set of :data:`MARGINAL_LADDER` is fitted and the one with the
    smallest BIC wins.
    """
    if exponents is not None:
        return solve_maxent(fractional_moments_1d(sample, exponents))

    def fit(exps):
        cons = fractional_moments_1d(sample, exps)
        density = solve_maxent(cons)
        return density, _bic(cons, density), 0.0

    return _select(MARGINAL_LADDER, fit)


def fit_copula(sample_xy, exponents=None) -> MaxEntCopula:
    """Maximum-entropy copula of a bivariate sample's ranks.

    With ``exponents`` given the fit uses exactly that set; with ``None``
    every set of :data:`COPULA_LADDER` is fitted and the one with the
    smallest BIC among the fits the quadrature grid resolves well enough
    to rank (see :func:`_select`); the drift check of :func:`solve_maxent`
    measures the same resolution.
    """
    if exponents is not None:
        return solve_maxent(copula_fractional_moments(sample_xy, exponents))

    def fit(exps):
        cons = copula_fractional_moments(sample_xy, exps)
        copula, drift = _solve_copula(cons)
        return copula, _bic(cons, copula), cons.sample_size * drift

    return _select(COPULA_LADDER, fit)
