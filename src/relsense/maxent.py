"""Maximum-entropy density estimation under fractional moment constraints.

Given empirical moments ``mu_j = mean(phi_j)`` of a sample, the density
of maximum entropy supported on a box and matching those moments has the
form ``f(x) = c * exp(-sum_j lam_j phi_j(x))``.  The multipliers solve
the strictly convex dual problem

    minimize  <lam, mu> + log integral exp(-<lam, phi(x)>) dx,

whose gradient is ``mu - E_f[phi]`` and whose Hessian is ``Cov_f(phi)``;
a damped Newton iteration with backtracking line search drives the
gradient norm below 1e-6 in at most 200 steps (``_NEWTON_TOL``,
``_NEWTON_MAX_ITER``) in a centred, orthonormal (whitened) basis of the
features, integrated by Gauss-Legendre quadrature.

Two families are provided: one-dimensional densities with power features
``x**beta`` on a data-driven support (used for failure-conditioned input
marginals), and copula densities on the unit square fitted to rank
pseudo-observations (used for the input/output dependence indices).  The
copula features are the margin powers ``u**a`` and ``v**b`` plus the
cross products ``u**a * v**b``; matching the margin moments of the ranks
makes the fit a minimum-information copula in the sense of Bedford &
Wilson (2014), with marginals uniform up to the fitted moments.

That copula family is a tensor product of one set of axis powers with
itself, so the solver never builds its features over the square grid:
it whitens the axis powers per axis, writes every feature in products of
the axis polynomials through a Kronecker map, and evaluates the log
density and the moments as small matrix products on axis arrays.  The
Hessian needs the products of pairs of axis polynomials, which are
powers ``u**(a + b)`` and so span one function per distinct exponent sum
(13 for the six integer powers, against 49 pairs); the grid
probabilities are projected once onto an orthonormal basis of that span,
and the means and the Hessian are read off the small projection.  A 1-D
family is whitened by the same per-axis recipe (its powers with the
constant first, orthonormalized on its 384-node grid, then mapped to the
features), and its whitened features are kept as dense rows over that
grid.

The copula axis is the 1-D rule of :func:`_support_nodes` on ``[0, 1]``
with one panel, of 128 points for the solver (``_COPULA_AXIS``) and 256
for its drift check (``_DRIFT_AXIS``).  Each copula grid is built once:
its axis rule and one product-weight array are shared by every family on
it; a fitted copula is integrated at the solver's own grid values
(:meth:`MaxEntCopula.grid_pdf`).  On a grid the log density is
formed in one buffer that is then turned in place into the weighted
exponentials; the Newton loop carries those of an accepted line-search
candidate to the next iterate.  Its linear algebra is ``numpy.linalg``
alone: one Cholesky factorization tests each ridged Hessian for positive
definiteness and one general solve gives the step, so a fit loads no
scipy.

:func:`fit_density` and :func:`fit_copula` choose the exponent set of
each fit from a short built-in ladder (:data:`MARGINAL_LADDER`,
:data:`COPULA_LADDER`) by the Bayesian information criterion.  An
explicit exponent set is a ladder of one rung, judged by the same
resolution rule.  A copula is fitted only by :func:`fit_copula`;
:func:`solve_maxent` solves 1-D constraints alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, cholesky

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
    "MARGINAL_LADDER",
    "COPULA_LADDER",
]

SHIFT_EPS = 1e-6
DEFAULT_EXPONENTS = (0.5, 1.0, 1.5)

# Newton limits of every solve; axis points of the copula and drift grids.
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-6, 200
_COPULA_AXIS, _DRIFT_AXIS = 128, 256

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
    rank is an integer or a half-integer).

    The sort need not be stable: every value of a group of ties gets the
    group's mean rank, so the order of the ties among themselves does not
    reach the ranks."""
    order = np.argsort(x)
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
    # each axis power once: pu[r] * pv[s] is u ** r * v ** s, bit for bit
    pu = {e: u ** e for e in (0.0, *exps)}
    pv = {e: v ** e for e in (0.0, *exps)}
    targets = np.array([np.mean(pu[r] * pv[s]) for r, s in pairs])
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

    Fitted only by :func:`fit_copula`, whose margin features hold the
    moments of the ranks (:func:`copula_fractional_moments`), so the
    marginals are uniform up to those moments; :meth:`uniformity_gap`
    measures what remains.
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

    def grid_pdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Product weights of the solver grid and the density at its nodes,
        ``u`` along rows, from the solver's own log density and ``log Z``,
        so the values integrate to 1 to rounding."""
        family = _copula_family(_copula_key(self.exponents), _COPULA_AXIS)
        return family.weights, np.exp(family.log_q(self.multipliers) + self.log_normalizer)

    def uniformity_gap(self) -> float:
        """Max deviation from 1 of both marginal densities at the axis
        nodes of the solver grid (diagnostic)."""
        _, wu, _ = _unit_axis(_COPULA_AXIS)
        _, c = self.grid_pdf()
        return float(max(np.max(np.abs(c @ wu - 1.0)), np.max(np.abs(wu @ c - 1.0))))


@functools.lru_cache(maxsize=None)
def _legendre_rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _composite_gl(a, b, panels, nodes):
    """The ``nodes``-point Gauss-Legendre rule on ``panels`` equal panels of ``[a, b]``."""
    x, w = _legendre_rule(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


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


@functools.lru_cache(maxsize=None)
def _unit_axis(n_axis):
    """Axis rule of the copula grids: the 1-D rule of
    :func:`_support_nodes` on ``[0, 1]`` with one ``n_axis``-point panel,
    and its ``(n_axis, n_axis)`` product weights, ``u`` along rows.
    Read-only, and shared by every copula family on that grid."""
    u, wu = _support_nodes(0.0, 1.0, 1, n_axis)
    wuv = np.outer(wu, wu)
    for arr in (u, wu, wuv):
        arr.setflags(write=False)
    return u, wu, wuv


def _weighted_exp(logq, w):
    """``(m, w * exp(logq - m))`` with ``m = max(logq)``, formed in the
    buffer of ``logq``, which is overwritten."""
    m = np.max(logq)
    np.subtract(logq, m, out=logq)
    np.exp(logq, out=logq)
    np.multiply(w, logq, out=logq)
    return m, logq


def _log_partition(logq, w):
    """``log sum(w * exp(logq))``, overwriting ``logq``."""
    m, qw = _weighted_exp(logq, w)
    return float(m + math.log(np.sum(qw)))


def _norm(v):
    """Euclidean norm, as ``numpy.linalg.norm`` forms it for a vector."""
    return math.sqrt(v.dot(v))


def _solve_upper(r, b, trans):
    """Solve ``r x = b`` (``trans=0``) or ``r.T x = b`` (``trans=1``) for
    the upper triangular ``r`` of :func:`_feature_map`.  numpy has no
    triangular solve, so this is a general one; it runs twice per fit."""
    return np.linalg.solve(r.T if trans else r, b)


@dataclass(frozen=True)
class _TensorFamily:
    """A copula family held as per-axis arrays (see :func:`_whiten`).

    ``powers`` holds the axis powers ``u**e`` (row 0 the constant) and
    ``index`` the power row of each feature on each axis; ``g`` holds the
    axis polynomials orthonormal under the axis weights.  ``h`` is an
    orthonormal basis of the span of their pairwise products
    ``g_i * g_k``, its first rows ``g`` itself, and ``pair_coef`` holds
    each product's coordinates in it, ``g_i g_k = pair_coef[(i, k)] @ h``.
    The whitened features are the columns of ``coef`` over the
    non-constant products ``g_i(u) g_j(v)``, with
    ``r.T @ whitened = features / scale - center``.  A function on the
    grid is the bilinear form ``axis.T @ C @ axis`` of a coefficient
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
    h: np.ndarray
    pair_coef: np.ndarray

    def log_q(self, lam):
        """Unnormalized log density on the grid at multipliers ``lam`` of
        the original features."""
        k1 = self.g.shape[0]
        coef = np.zeros((k1, k1))
        np.add.at(coef, (self.index[:, 0], self.index[:, 1]), lam)
        logq = self.powers.T @ coef @ self.powers
        return np.negative(logq, out=logq)

    def log_partition(self, lam) -> float:
        """``log Z`` at multipliers ``lam`` of the original features."""
        return _log_partition(self.log_q(lam), self.weights)

    def whitened_log_q(self, lam):
        """Unnormalized log density at multipliers of the whitened features."""
        k1 = self.g.shape[0]
        theta = np.concatenate([[0.0], self.coef @ lam]).reshape(k1, k1)
        logq = self.g.T @ theta @ self.g
        return np.negative(logq, out=logq)

    def moments(self, p):
        """Mean and covariance of the whitened features under the grid
        probabilities ``p``.

        Both are read off one projection of ``p`` onto the product span,
        ``m = h P h.T``: the means are its ``g`` block, and the second
        moments ``E[g_i g_k (u) g_j g_l (v)]`` are ``pair_coef m
        pair_coef.T``, which holds them indexed ``((i, k), (j, l))``.
        """
        k1 = self.g.shape[0]
        m = self.h @ p @ self.h.T
        first = m[:k1, :k1].ravel()[1:]
        second = (self.pair_coef @ m @ self.pair_coef.T).reshape(k1, k1, k1, k1)
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


def _product_span(g, weights):
    """Orthonormal basis ``h`` of the span of the products ``g_i * g_k``
    of orthonormal polynomials ``g`` (``g[0]`` the constant), and each
    product's coordinates in it.

    The products of ``k + 1`` axis polynomials are powers ``u**(a + b)``
    in disguise, so they span one function per distinct exponent sum, far
    fewer than ``(k + 1)**2``.  ``g`` spans some of them (``g_0 g_k`` is
    ``g_k``) and is kept as the first rows of ``h``; the rest of the span
    is the row space of the residual of the products ``g_i g_k``,
    ``1 <= i <= k``, after projecting out ``g``, taken from one SVD under
    the weights, with the singular values above ``1e-10`` of the largest.
    (Leaving out the products that repeat or lie in ``g`` leaves
    ``k (k + 1) / 2`` rows, 21 at the ladder's six exponents; LAPACK takes
    an SVD that small without divide and conquer, so a fit pages in less
    of its code.)  Returns ``(h, pair_coef)`` with
    ``pair_coef = (pairs * wn) @ h.T`` over all ``(k + 1)**2`` products,
    ``wn`` the normalized weights.
    """
    wn = weights / np.sum(weights)
    i, k = np.triu_indices(g.shape[0] - 1)
    prods = g[1:][i] * g[1:][k]
    resid = prods - ((prods * wn) @ g.T) @ g
    _, sv, vt = np.linalg.svd(resid * np.sqrt(wn), full_matrices=False)
    rest = vt[sv > 1e-10 * sv[0]] / np.sqrt(wn)
    # a small singular value scales up the roundoff overlap of the
    # residual with g (to 5e-11 on the set 0.3, 0.7, 1.1); projecting once
    # more leaves h orthonormal to roundoff
    rest -= ((rest * wn) @ g.T) @ g
    h = np.vstack([g, rest])
    pairs = (g[:, None, :] * g[None, :, :]).reshape(-1, g.shape[1])
    return h, (pairs * wn) @ h.T


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


def _whiten(exponents, nodes, axis_weights, weights) -> _TensorFamily:
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
    grid is built; ``weights``, the product of ``axis_weights`` with
    itself, is held as given, shared with the other families of the grid.

    For the moments, :func:`_product_span` adds a basis ``h`` of the span
    of the pairwise products ``g_i g_k`` (``g`` its first rows) and the
    coordinates of each product in it, so that a Newton step projects the
    grid probabilities onto ``h`` alone and reads the Hessian off that
    projection.
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
    h, pair_coef = _product_span(g, axis_weights)
    family = _TensorFamily(powers=powers, index=index, weights=weights, scale=scale,
                           center=center, r=r, coef=coef, g=g, h=h, pair_coef=pair_coef)
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


def _copula_key(exponents):
    return tuple(tuple(float(e) for e in pair) for pair in exponents)


@functools.lru_cache(maxsize=8)
def _copula_family(exponents, n_axis):
    """The unit square does not depend on the data, so a copula family is
    whitened once per (exponent set, grid) and shared by every fit.  The
    grid has no default: ``lru_cache`` would key it apart when passed."""
    return _whiten(exponents, *_unit_axis(n_axis))


def _newton(targets, family, tol, max_iter):
    """Damped Newton on the dual; returns (multipliers, log Z, iterations).

    ``family`` is a :class:`_TensorFamily` (copula) or a
    :class:`_DenseFamily` (1-D).  The steps are taken in its whitened
    basis; for a copula that works on the per-axis arrays of
    :func:`_whiten`: the log density is the bilinear form
    ``g.T @ Theta @ g`` over the grid ``P`` of probabilities,
    and the moments and the Hessian are read off its projection onto the
    span of the pairwise products, ``h P h.T`` (see
    :meth:`_TensorFamily.moments`).  Newton steps are affine
    invariant, so the iterates are those of the original features.
    Convergence is judged on the moments of the original features,
    ``r.T @ grad``, and the multipliers are returned in that basis.

    Each ridge attempt is one :func:`numpy.linalg.cholesky`, which
    raises :class:`numpy.linalg.LinAlgError` when the ridged Hessian is
    not positive definite; the step is then one
    :func:`numpy.linalg.solve` with that matrix, and the factor itself is
    not used.  The weighted exponentials of an accepted line-search
    candidate are those of the next iterate, so they are carried over.
    """
    scale, center, r, w = family.scale, family.center, family.r, family.weights
    mu_s = targets / scale
    mu_g = _solve_upper(r, mu_s - center, trans=1)
    lam = np.zeros(targets.shape[0])
    eye = np.eye(lam.shape[0])
    mstar, qw = _weighted_exp(family.whitened_log_q(lam), w)
    z = float(np.sum(qw))
    for it in range(1, max_iter + 1):
        # a finite, positive z keeps the moments and so the Hessian finite
        if not np.isfinite(z) or z <= 0.0:
            raise InfeasibleConstraintsError("dual integrand degenerated; constraints "
                                             "are infeasible on this support")
        mom, hess = family.moments(np.divide(qw, z, out=qw))
        grad = mu_g - mom
        grad_s = r.T @ grad
        if _norm(grad_s * scale) <= tol and _norm(grad_s) <= tol:
            lam_orig = _solve_upper(r, lam, trans=0) / scale
            return lam_orig, family.log_partition(lam_orig), it
        obj = float(lam @ mu_g + mstar + math.log(z))
        ridge = 0.0
        while True:
            ridged = hess + ridge * eye
            try:
                cholesky(ridged)
                break
            except LinAlgError:  # a leading minor is not positive definite
                pass
            # the trace-relative floor alone can stall at zero when the
            # dual iterate collapses the density onto a single node (all a
            # zero Hessian means on a real grid); the absolute floor carries
            # that on to the divergence test, which names it infeasible
            ridge = max(ridge * 10.0, 1e-12 * np.trace(hess) / hess.shape[0], 1e-15)
            if ridge > 1e6:
                raise MaxEntError("dual Hessian is numerically singular")
        step = -np.linalg.solve(ridged, grad)
        slope = float(grad @ step)
        if not slope < 0.0:
            raise MaxEntError("Newton step is not a descent direction; the dual "
                              "Hessian is numerically singular")
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            cand_m, cand_qw = _weighted_exp(family.whitened_log_q(cand), w)
            cand_z = float(np.sum(cand_qw))
            cand_obj = float(cand @ mu_g + (cand_m + math.log(cand_z)))
            if cand_obj <= obj + 1e-4 * t * slope:
                lam, mstar, qw, z = cand, cand_m, cand_qw, cand_z
                break
            t *= 0.5
        else:
            raise MaxEntError("line search failed; the dual may be flat or the "
                              "constraints near the feasibility boundary")
        if _norm(lam) > 1e10:
            raise InfeasibleConstraintsError("dual multipliers diverging; no density on "
                                             "the support matches the moment targets")
    raise MaxEntError(f"Newton did not reach gradient norm {tol} in {max_iter} iterations")


def _solve_copula(constraints):
    """Fitted copula and the drift of its ``log Z`` from the solver grid to
    the finer drift grid.

    This is the one copula solve: :func:`fit_copula` calls it on each
    rung, and :func:`_select` judges the drift times the sample size."""
    exps = _copula_key(constraints.exponents)
    lam, log_z, _ = _newton(constraints.targets, _copula_family(exps, _COPULA_AXIS),
                            _NEWTON_TOL, _NEWTON_MAX_ITER)
    drift = abs(_copula_family(exps, _DRIFT_AXIS).log_partition(lam) - log_z)
    return MaxEntCopula(exponents=constraints.exponents, multipliers=lam,
                        log_normalizer=-log_z), drift


def solve_maxent(constraints: MomentConstraints) -> MaxEntDensity:
    """Solve the dual of 1-D constraints to the fixed Newton limits and
    return the fitted density.

    Raises :class:`InfeasibleConstraintsError` when the multipliers
    diverge and :class:`MaxEntError` when the iteration stalls.  Copula
    constraints (``ndim == 2``) are rejected: a copula is fitted only by
    :func:`fit_copula`, which also judges its quadrature resolution.
    """
    if constraints.ndim != 1:
        raise ValueError("solve_maxent fits 1-D constraints only; fit a copula "
                         "with fit_copula")
    lam, log_z, _ = _newton(constraints.targets, _density_family(constraints),
                            _NEWTON_TOL, _NEWTON_MAX_ITER)
    return MaxEntDensity(exponents=constraints.exponents, multipliers=lam,
                         log_normalizer=-log_z,
                         support_shifted=constraints.support, shift=constraints.shift)


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

    With ``None`` every set of :data:`MARGINAL_LADDER` is fitted and the
    one with the smallest BIC wins; an explicit ``exponents`` set is the
    only rung of its ladder, so the fit uses exactly that set.
    """
    def fit(exps):
        cons = fractional_moments_1d(sample, exps)
        density = solve_maxent(cons)
        return density, _bic(cons, density), 0.0

    return _select(MARGINAL_LADDER if exponents is None else (exponents,), fit)


def fit_copula(sample_xy, exponents=None) -> MaxEntCopula:
    """Maximum-entropy copula of a bivariate sample's ranks.

    With ``None`` every set of :data:`COPULA_LADDER` is fitted and the one
    with the smallest BIC among the fits the quadrature grid resolves well
    enough to rank wins (see :func:`_select`); an explicit ``exponents``
    set is a ladder of one rung, judged by the same rule.
    """
    def fit(exps):
        cons = copula_fractional_moments(sample_xy, exps)
        copula, drift = _solve_copula(cons)
        return copula, _bic(cons, copula), cons.sample_size * drift

    return _select(COPULA_LADDER if exponents is None else (exponents,), fit)
