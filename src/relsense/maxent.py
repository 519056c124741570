"""Maximum-entropy density estimation under fractional moment constraints.

Given empirical moments ``mu_j = mean(phi_j)`` of a sample, the density
of maximum entropy supported on a box and matching those moments has the
form ``f(x) = c * exp(-sum_j lam_j phi_j(x))``.  The multipliers solve
the strictly convex dual problem

    minimize  <lam, mu> + log integral exp(-<lam, phi(x)>) dx,

whose gradient is ``mu - E_f[phi]`` and whose Hessian is ``Cov_f(phi)``;
a damped Newton iteration with backtracking line search drives the
gradient norm below 1e-6 in at most 200 steps (``_NEWTON_TOL`` and
``_NEWTON_MAX_ITER`` in :mod:`relsense._dual`) in a centred, orthonormal
(whitened) basis of the features, integrated by Gauss-Legendre quadrature.

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

Every grid is laid out from one Gauss-Legendre rule
(:func:`_legendre_rule`): its nodes come from Newton's method on the
three-term recurrence of the Legendre polynomials and its weights from
``P'_n`` at them, so a fit solves no eigenproblem and loads no
``numpy.polynomial``.  The copula axis is the 1-D rule of
:func:`_support_nodes` on ``[0, 1]`` with one panel, of 128 points for
the solver (``_COPULA_AXIS``) and 256 for its drift check
(``_DRIFT_AXIS``).  The solver grid is built once: its axis rule and its
one product-weight array are shared by every family on it, and a fitted
copula is integrated at the solver's own grid values
(:meth:`MaxEntCopula.grid_pdf`).  The drift check builds neither a
family nor an array over its grid: :func:`_drift_log_partition` sums
``log Z`` over panels of ``_DRIFT_PANEL`` rows, each formed from the
axis powers (formed at each check) and the axis weights.  On the solver
grid the log density is formed in one buffer that is then turned in
place into the weighted exponentials; the Newton loop of
:mod:`relsense._dual` forms every line-search candidate in that buffer
and carries the accepted one to the next iterate.  Its linear algebra is
numpy alone, so a fit loads no scipy.  The whitening QR
factorizations, plain and column-pivoted, are Householder reflections
written in numpy (:func:`_householder_qr`).  The matrices are at most
384 x 7 and 48 x 48, and calling LAPACK's QR and SVD on them would page
their code in: about 0.8 MiB of a campaign process's peak resident
memory.  So a fit calls two LAPACK routines, through ``numpy.linalg``:
one Cholesky factorization tests each ridged Hessian for positive
definiteness and one general solve gives the step.

:func:`fit_density` and :func:`fit_copula` choose the exponent set of
each fit from a short built-in ladder (:data:`MARGINAL_LADDER`,
:data:`COPULA_LADDER`) by the Bayesian information criterion.  An
explicit exponent set is a ladder of one rung, judged by the same
resolution rule.  Both are one call of :func:`_select`, which builds
each rung's family once and alone forms the BIC.  A copula is fitted
only by :func:`fit_copula`; :func:`solve_maxent` solves 1-D constraints
alone.

A rung that provably loses is not solved.  Once a ranked fit exists, a
rung whose features hold those of the rung before it is first certified
(:func:`relsense._dual._certify`).  Newton iterates start from the
earlier rung's multipliers, with zeros on the new features, and share
their step with the solver.  At each iterate the grid density is tilted
toward the rung's moment targets.  Its entropy, less a charge for the
targets it still misses, bounds from below the dual at any multipliers
a solve can return (weak duality), and so the BIC the rung would
report.  :func:`_select` states the BIC it must beat as a ceiling on
that dual.  When the bound exceeds the best ranked BIC by more than
one, the rung is skipped: it could never be chosen, and nothing else is
read from it.  Otherwise the rung is solved from zero, as every rung
was before.  So each fit, chosen rung and warning is the one that
solving every rung gives, bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._dual import (
    InfeasibleConstraintsError,
    MaxEntError,
    _certify,
    _newton,
    _weighted_exp,
)

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

# Axis points of the copula and drift grids, and the rows of the drift grid
# summed at once (a 64 KiB panel; it must divide the drift axis).
_COPULA_AXIS, _DRIFT_AXIS, _DRIFT_PANEL = 128, 256, 32

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


@dataclass(frozen=True)
class MomentConstraints:
    """Moment targets defining one maximum-entropy problem.

    For ``ndim == 1`` the exponents are floats, the support is an
    interval in shifted coordinates ``z = x + shift`` and the targets are
    means of ``z**beta``.  For ``ndim == 2`` the exponents are ``(a, b)``
    pairs on the unit square and the targets are means of
    ``u**a * v**b``; a zero exponent drops that coordinate, so ``(a, 0)``
    is a margin feature.  ``sample_size`` is the ``n`` of the fit's BIC
    and of its drift rule: the row count, or fewer when the rows are not
    independent (see :func:`fit_density`).
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
    # each axis power once, and one power of u held at a time: pu * pv[s]
    # is u ** r * v ** s, bit for bit
    pv = {e: v ** e for e in (0.0, *exps)}
    means = {}
    for r in pv:
        pu = u ** r
        means.update(((r, s), np.mean(pu * pv[s])) for s in pv if r or s)
    targets = np.array([means[pair] for pair in pairs])
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
        family = _copula_family(_copula_key(self.exponents))
        return family.weights, np.exp(family.log_q(self.multipliers) + self.log_normalizer)

    def uniformity_gap(self) -> float:
        """Max deviation from 1 of both marginal densities at the axis
        nodes of the solver grid (diagnostic)."""
        _, wu = _unit_axis(_COPULA_AXIS)
        _, c = self.grid_pdf()
        return float(max(np.max(np.abs(c @ wu - 1.0)), np.max(np.abs(wu @ c - 1.0))))


def _legendre(x, n):
    """``(P_n(x), P'_n(x))`` from the three-term recurrence, for ``|x| < 1``."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@functools.lru_cache(maxsize=None)
def _legendre_rule(n):
    """The ``n``-point Gauss-Legendre rule on ``[-1, 1]``, nodes ascending.

    The nodes are the roots of ``P_n``, found by Newton's method on the
    three-term recurrence from the asymptotic guesses
    ``cos(pi (k - 1/4) / (n + 1/2))``; the weights are
    ``2 / ((1 - x**2) P'_n(x)**2)``.  The positive half is computed and
    mirrored, so the rule is exactly symmetric.  Unlike the Golub-Welsch
    eigenproblem of ``numpy.polynomial.legendre.leggauss`` this needs no
    dense matrix, and its weights are closer to exact (relative error
    1.7e-14 at n = 48 and 2.9e-13 at n = 128, against 1.3e-12 and
    1.4e-11); see Hale & Townsend, SIAM J. Sci. Comput. 35 (2013).
    """
    half = (n + 1) // 2
    x = np.cos(math.pi * (np.arange(1, half + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(x, n)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:  # quadratic convergence: x is now exact to rounding
            break
    if n % 2:
        x[-1] = 0.0  # the middle root of an odd rule
    _, dp = _legendre(x, n)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes, weights = np.empty(n), np.empty(n)
    nodes[:half], nodes[n - half:] = -x, x[::-1]
    weights[:half], weights[n - half:] = w, w[::-1]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    :func:`_support_nodes` on ``[0, 1]`` with one ``n_axis``-point panel.
    Read-only."""
    u, wu = _support_nodes(0.0, 1.0, 1, n_axis)
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


@functools.lru_cache(maxsize=None)
def _solver_weights():
    """Product weights of the solver grid, ``u`` along rows: one read-only
    array shared by every copula family."""
    _, wu = _unit_axis(_COPULA_AXIS)
    wuv = np.outer(wu, wu)
    wuv.setflags(write=False)
    return wuv


def _log_partition(logq, w):
    """``log sum(w * exp(logq))``, overwriting ``logq``."""
    m, qw = _weighted_exp(logq, w)
    return float(m + math.log(np.sum(qw)))


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

    def power_coef(self, lam):
        """Coefficients ``C`` of multipliers ``lam`` of the original
        features over the products of axis powers: the log density is
        ``-powers.T @ C @ powers`` on any axis."""
        k1 = self.g.shape[0]
        coef = np.zeros((k1, k1))
        np.add.at(coef, (self.index[:, 0], self.index[:, 1]), lam)
        return coef

    def log_q(self, lam):
        """Unnormalized log density on the grid at multipliers ``lam`` of
        the original features."""
        logq = self.powers.T @ self.power_coef(lam) @ self.powers
        return np.negative(logq, out=logq)

    def log_partition(self, lam) -> float:
        """``log Z`` at multipliers ``lam`` of the original features."""
        return _log_partition(self.log_q(lam), self.weights)

    def whitened_log_q(self, lam, out=None):
        """Unnormalized log density at multipliers of the whitened features,
        formed in ``out`` when given."""
        k1 = self.g.shape[0]
        theta = np.concatenate([[0.0], self.coef @ lam]).reshape(k1, k1)
        logq = np.matmul(self.g.T @ theta, self.g, out=out)
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


def _householder_qr(a, rtol=None):
    """Thin QR factorization ``a[:, perm] = q @ r`` of an ``(m, n)``
    matrix, ``m >= n``, by Householder reflections (Golub & Van Loan,
    *Matrix Computations*, 5.1-5.2): ``q`` has orthonormal columns and
    ``r`` is upper triangular with a non-negative diagonal.  Each
    reflector maps its column onto ``+|x| e_1`` (Parlett's choice of
    vector, which needs no cancelling difference), so no signs are fixed
    afterwards.  ``q`` is accumulated backwards from the reflectors.

    Without ``rtol`` the columns keep their order and ``perm`` is the
    identity.  With ``rtol`` the columns are pivoted (Businger & Golub,
    Numer. Math. 1965; Golub & Van Loan 5.4): each step reflects the
    remaining column of largest norm, whose norm is the next diagonal
    entry, and the factorization stops before the first one at most
    ``rtol`` times the first; ``q`` and ``r`` then have that many columns
    and rows, and ``q`` is an orthonormal basis of the numerical column
    space.  Returns ``(q, r, perm)``.
    """
    r = np.array(a, dtype=float)
    m, n = r.shape
    perm = np.arange(n)
    refl = []  # (v, 2 / v.v) per step
    for j in range(n):
        if rtol is not None:
            block = r[j:, j:]
            norms = (block * block).sum(0)
            p = j + int(np.argmax(norms))
            if j and math.sqrt(norms[p - j]) <= rtol * r[0, 0]:
                break
            r[:, [j, p]] = r[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
        x = r[j:, j]
        sigma = x[1:].dot(x[1:])
        alpha = math.sqrt(x[0] * x[0] + sigma)
        v0 = x[0] - alpha if x[0] <= 0.0 else -sigma / (x[0] + alpha)
        vv = v0 * v0 + sigma
        beta = 2.0 / vv if vv > 0.0 else 0.0  # 0: x is already alpha e_1
        v = x.copy()
        v[0] = v0
        rest = r[j:, j + 1:]
        rest -= np.outer(v, beta * (v @ rest))
        refl.append((v, beta))
        r[j, j] = alpha
        r[j + 1:, j] = 0.0
    k = len(refl)
    q = np.eye(m, k)
    for j in range(k - 1, -1, -1):
        v, beta = refl[j]
        block = q[j:, j:]
        block -= np.outer(v, beta * (v @ block))
    return q, r[:k], perm


def _orthonormal_powers(powers, weights):
    """Polynomials ``g`` orthonormal under ``weights`` with the span of the
    rows of ``powers``, row 0 the constant.

    A QR factorization of the powers under the weights gives
    ``powers = R.T @ g``; ``R`` has a positive diagonal, which makes
    ``g[0]`` the constant 1.  Returns ``(g, R)``.
    """
    wn = weights / np.sum(weights)
    q, r, _ = _householder_qr((powers * np.sqrt(wn)).T)
    return (q / np.sqrt(wn)[:, None]).T, r


def _product_span(g, weights):
    """Orthonormal basis ``h`` of the span of the products ``g_i * g_k``
    of orthonormal polynomials ``g`` (``g[0]`` the constant), and each
    product's coordinates in it.

    The products of ``k + 1`` axis polynomials are powers ``u**(a + b)``
    in disguise, so they span one function per distinct exponent sum, far
    fewer than ``(k + 1)**2``.  ``g`` spans some of them (``g_0 g_k`` is
    ``g_k``) and is kept as the first rows of ``h``; the rest of the span
    is the row space of the residual of the products ``g_i g_k``,
    ``1 <= i <= k``, after projecting out ``g``.  A column-pivoted QR
    factorization of that residual under the weights gives it: the
    leading columns of ``q``, cut where the diagonal of ``r`` falls to
    ``1e-10`` of its largest entry.  (Leaving out the products that
    repeat or lie in ``g`` leaves ``k (k + 1) / 2`` rows, 21 at the
    ladder's six exponents.)  Returns ``(h, pair_coef)`` with
    ``pair_coef = (pairs * wn) @ h.T`` over all ``(k + 1)**2`` products,
    ``wn`` the normalized weights.
    """
    wn = weights / np.sum(weights)
    i, k = np.triu_indices(g.shape[0] - 1)
    prods = g[1:][i] * g[1:][k]
    resid = prods - ((prods * wn) @ g.T) @ g
    q, _, _ = _householder_qr((resid * np.sqrt(wn)).T, rtol=1e-10)
    rest = q.T / np.sqrt(wn)
    # a small pivot scales up the roundoff overlap of the residual with g
    # (to 5e-11 on the set 0.3, 0.7, 1.1); projecting once more leaves h
    # orthonormal to roundoff
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
    if kron.shape[0] <= kron.shape[1]:  # more features than centred basis functions
        raise MaxEntError("features are linearly dependent on the support")
    coef, r, _ = _householder_qr(kron[1:])
    diag = np.diag(r)
    if np.any(diag <= 1e-14 * np.max(diag)):
        raise MaxEntError("features are linearly dependent on the support")
    return kron[0], coef, r


def _axis_exponents(exponents):
    """The distinct axis exponents of a copula feature set, 0 first, and
    the row of each feature's ``u`` and ``v`` power among them."""
    values = sorted({0.0} | {e for pair in exponents for e in pair})
    pos = {e: i for i, e in enumerate(values)}
    return values, np.array([[pos[a], pos[b]] for a, b in exponents])


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
    values, index = _axis_exponents(exponents)
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

    def whitened_log_q(self, lam, out=None):
        logq = np.matmul(lam, self.g, out=out)
        return np.negative(logq, out=logq)

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
def _copula_family(exponents):
    """The unit square does not depend on the data, so a copula family is
    whitened once per exponent set on the solver grid and shared by every
    fit."""
    return _whiten(exponents, *_unit_axis(_COPULA_AXIS), _solver_weights())


def _drift_log_partition(exponents, coef):
    """``log Z`` on the drift grid of a copula with power coefficients
    ``coef`` (:meth:`_TensorFamily.power_coef`), summed over panels of
    ``_DRIFT_PANEL`` rows of ``u``.

    Each panel's log density is formed in one buffer from the axis
    powers, formed at each call, and shifted by the largest value seen so
    far; the running sum is rescaled whenever a panel raises it.  No
    array over the whole grid is built."""
    u, wu = _unit_axis(_DRIFT_AXIS)
    powers = np.vstack([u ** e for e in _axis_exponents(exponents)[0]])
    left = powers.T @ -coef
    buf = np.empty((_DRIFT_PANEL, wu.size))
    m, total = -math.inf, 0.0
    for lo in range(0, wu.size, _DRIFT_PANEL):
        rows = slice(lo, lo + _DRIFT_PANEL)
        logq = np.matmul(left[rows], powers, out=buf)
        top = logq.max()
        if top > m:
            total *= math.exp(m - top)
            m = top
        logq -= m
        np.exp(logq, out=logq)
        total += logq.dot(wu).dot(wu[rows])  # row sums first: a gemv on contiguous rows
    return float(m + math.log(total))


def _solve_copula(constraints, family):
    """Fitted copula of ``constraints`` on its ``family``, and the
    quadrature error of its log-likelihood: the sample size times the
    drift of ``log Z`` from the solver grid to the finer drift grid."""
    lam, log_z, _ = _newton(constraints.targets, family)
    drift = _drift_log_partition(_copula_key(constraints.exponents), family.power_coef(lam))
    return MaxEntCopula(exponents=constraints.exponents, multipliers=lam,
                        log_normalizer=-log_z), constraints.sample_size * abs(drift - log_z)


def _solve_density(constraints, family):
    """Fitted 1-D density of ``constraints`` on its ``family``, and a
    quadrature error of 0: the 1-D twin of :func:`_solve_copula`."""
    lam, log_z, _ = _newton(constraints.targets, family)
    return MaxEntDensity(exponents=constraints.exponents, multipliers=lam,
                         log_normalizer=-log_z, support_shifted=constraints.support,
                         shift=constraints.shift), 0.0


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
    return _solve_density(constraints, _density_family(constraints))[0]


def _family(constraints):
    """The family a rung is solved on: its support grid for a density,
    the shared solver grid for a copula."""
    if constraints.ndim == 1:
        return _density_family(constraints)
    return _copula_family(_copula_key(constraints.exponents))


def _nested_start(last, constraints):
    """Multipliers of the features of ``constraints``: those of the rung
    ``last = (constraints, multipliers)`` on its features and zero on the
    new ones; ``None`` unless every feature of that rung is one of these,
    on the same shift (so on the same support)."""
    if last is None:
        return None
    prev, lam = last
    pos = {e: i for i, e in enumerate(constraints.exponents)}
    if prev.shift != constraints.shift or not all(e in pos for e in prev.exponents):
        return None
    start = np.zeros(len(pos))
    start[[pos[e] for e in prev.exponents]] = lam
    return start


def _select(ladder, moments, sample_size, solve):
    """Smallest-BIC fit over a ladder of exponent sets.

    Each set's constraints, ``moments(exps)`` with ``sample_size`` as
    their ``n`` (:func:`_sized`), and its family (:func:`_family`) are
    built once; ``solve(constraints, family)`` returns ``(estimate,
    error)``, ``error`` bounding the quadrature error of the
    log-likelihood in nats.  A set that raises :class:`MaxEntError` has no
    resolvable optimum and leaves the race; when every set fails the
    errors are raised together.  The targets are sample means of the
    features, so the BIC is exactly ``2 n D(lam) + k log n``, ``D`` the
    dual at the fitted multipliers.  A fit whose error exceeds one nat, a
    fraction of the BIC charge of one parameter, cannot be ranked, so it
    competes only when no other fit exists; then the least-error fit is
    returned with a warning.

    Once a ranked fit exists, a set that holds every feature of the set
    before it (on the same shift) is certified before it is solved:
    :func:`relsense._dual._certify` runs Newton iterates from the
    multipliers of that set, with zeros on the new features, and the set
    is skipped when its dual provably exceeds ``ceiling``, the dual at a
    BIC of the smallest ranked BIC plus one, ``(best + 1 - k log n) / (2
    n)``; ``slack``, a hundredth of a BIC unit, is ``0.005 / n``.  A
    skipped set could never be chosen, and nothing else is read from it,
    so the chosen fit, every estimate and every warning are those of
    solving every set; a set the certificate cannot rule out is solved
    from zero, as every set was.  The next set starts from the
    multipliers of the last set reached, solved or certified.  On today's
    ladders this covers the copula set (1, ..., 6) after (1, ..., 4), and
    the marginal sets (1, 2, 3, 4) after (1, 2) and (1, ..., 6) after
    (1, 2, 3, 4).
    """
    fits, errors = [], []  # (estimate, BIC, error) of each set solved
    best, last = math.inf, None  # smallest ranked BIC; the last set reached
    for exps in ladder:
        try:
            cons = _sized(moments(exps), sample_size)
            family = _family(cons)
            n = cons.sample_size
            penalty = len(cons.exponents) * math.log(n)
            start = None if best == math.inf else _nested_start(last, cons)
            lam = None if start is None else _certify(
                family, cons.targets, start, (best + 1.0 - penalty) / (2.0 * n), 0.005 / n)
            if lam is not None:
                last = cons, lam
                continue
            fitted, error = solve(cons, family)
        except MaxEntError as exc:
            errors.append(f"{exps}: {exc}")
            last = None
            continue
        loglik = n * (fitted.log_normalizer - float(fitted.multipliers @ cons.targets))
        bic = -2.0 * loglik + penalty
        fits.append((fitted, bic, error))
        last = cons, fitted.multipliers
        if error <= 1.0:
            best = min(best, bic)
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


def _sized(constraints, sample_size):
    """The constraints with ``sample_size`` as their ``n``, clamped to the
    row count; ``None`` keeps the row count."""
    if sample_size is None:
        return constraints
    if sample_size < 1:
        raise ValueError(f"sample_size must be at least 1, got {sample_size}")
    return replace(constraints, sample_size=min(constraints.sample_size, sample_size))


def fit_density(sample, exponents=None, sample_size=None) -> MaxEntDensity:
    """Maximum-entropy density of a 1-D sample on the sample's range.

    With ``None`` every set of :data:`MARGINAL_LADDER` competes and the
    one with the smallest BIC wins; an explicit ``exponents`` set is the
    only rung of its ladder, so the fit uses exactly that set.  A set that
    provably loses is not solved (see :func:`_select`).

    ``sample_size`` is the number of independent units behind the rows,
    BIC's ``n`` (Kass & Raftery, JASA 1995), clamped to the row count,
    which is its default.  Rows grown by Markov chains from a few hundred
    seeds are fewer units than rows, and counting each row charges too
    little per feature, so a rich rung can win by fitting the clumps.
    """
    return _select(MARGINAL_LADDER if exponents is None else (exponents,),
                   functools.partial(fractional_moments_1d, sample), sample_size,
                   _solve_density)


def fit_copula(sample_xy, exponents=None, sample_size=None) -> MaxEntCopula:
    """Maximum-entropy copula of a bivariate sample's ranks.

    With ``None`` every set of :data:`COPULA_LADDER` competes and the one
    with the smallest BIC among the fits the quadrature grid resolves well
    enough to rank wins (see :func:`_select`, which also skips a set that
    provably loses); an explicit ``exponents`` set is a ladder of one
    rung, judged by the same rule.  ``sample_size`` is BIC's ``n``, as for
    :func:`fit_density`; the quadrature error is judged as ``n`` times the
    drift of ``log Z``.
    """
    return _select(COPULA_LADDER if exponents is None else (exponents,),
                   functools.partial(copula_fractional_moments, sample_xy), sample_size,
                   _solve_copula)
