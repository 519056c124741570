"""Sensitivity indices of a failure event from conditioned samples.

All indices compare the nominal input law with the law of the inputs
given failure, in total variation or a user-chosen convex divergence:

* ``delta_index`` -- dependence between one input and the output under
  the conditioned law, read off a fitted copula density;
  ``delta_index(fit_copula(xy))`` on an unconditional sample ``xy`` is
  the unconditional input/output dependence index.
* ``target_tv_index`` -- total-variation distance between an input's
  nominal marginal and its failure-conditioned marginal.
* ``scaled_target_index`` -- the same distance scaled by twice the
  failure probability, an absolute perturbation of ``P(Y > S)``.
* ``sobol_indicator_index`` -- first-order Sobol index of the failure
  indicator, computed from the conditioned-to-nominal density ratio.
* ``csiszar_indices`` -- the generalization to an arbitrary convex
  divergence and output weight function.

Every density is fitted by :func:`~relsense.maxent.fit_density` or
:func:`~relsense.maxent.fit_copula`, and every index is integrated on
the Gauss-Legendre grid the max-entropy solver fitted that density on
(:meth:`MaxEntDensity.quadrature` and :meth:`MaxEntCopula.grid_pdf`), so
estimates are deterministic functions of the fitted densities and reach
deep tails that no nominal draw does.  The estimators return raw
values; clipping them to their theoretical range and folding
replications belong to :mod:`relsense.campaign`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .maxent import MaxEntCopula, MaxEntDensity, fit_copula, fit_density
from .model import Marginal

__all__ = [
    "EstimationError",
    "DivergenceSpec",
    "WeightFunction",
    "delta_index",
    "target_tv_index",
    "scaled_target_index",
    "sobol_indicator_index",
    "csiszar_indices",
    "rank_descending",
]

NEGATIVE_VARIANCE_FLOOR = -1e-12


class EstimationError(RuntimeError):
    """An index estimate cannot be formed from the given inputs."""


def _tv_phi(x):
    return 0.5 * np.abs(1.0 - np.asarray(x, dtype=float))


def _kl_phi(x):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    out[x == 0.0] = 0.0
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


# lim phi(r) / r as r grows, for the generators whose limit is known
_SLOPE_AT_INFINITY = {_tv_phi: 0.5, _kl_phi: math.inf}


@dataclass(frozen=True)
class DivergenceSpec:
    """Convex generator ``phi`` with ``phi(1) = 0`` of a Csiszar divergence.

    ``phi`` must accept numpy arrays.  Construction spot-checks
    convexity at 100 random midpoints and the normalization at 1; a
    generator with ``phi(0) = +inf`` (e.g. ``-log``) is allowed and
    makes estimates infinite, with a warning, whenever the density
    ratio hits zero.
    """

    name: str
    phi: Callable = field(compare=False)

    @classmethod
    def total_variation(cls) -> "DivergenceSpec":
        return cls("total_variation", _tv_phi)

    @classmethod
    def kullback_leibler(cls) -> "DivergenceSpec":
        """Generator ``x * log(x)``, so the index is a forward
        Kullback-Leibler divergence (mutual information on copulas)."""
        return cls("kullback_leibler", _kl_phi)

    @classmethod
    def custom(cls, name: str, phi: Callable) -> "DivergenceSpec":
        return cls(name, phi)

    def __post_init__(self):
        at_one = float(np.asarray(self.phi(np.array([1.0])))[0])
        if not abs(at_one) <= 1e-12:
            raise ValueError(f"phi(1) must be 0, got {at_one!r}")
        rng = np.random.default_rng(20240 + len(self.name))
        x = rng.uniform(1e-6, 10.0, size=100)
        y = rng.uniform(1e-6, 10.0, size=100)
        mid = np.asarray(self.phi(0.5 * (x + y)), dtype=float)
        avg = 0.5 * (np.asarray(self.phi(x), dtype=float) + np.asarray(self.phi(y), dtype=float))
        if np.any(mid > avg + 1e-9):
            raise ValueError(f"phi failed the convexity midpoint check for {self.name!r}")


@dataclass(frozen=True)
class WeightFunction:
    """Non-negative output weight defining a tilted conditioning law."""

    name: str
    fn: Callable = field(compare=False)

    @classmethod
    def indicator_above(cls, threshold: float) -> "WeightFunction":
        return cls(f"indicator_above_{threshold}", lambda y: (np.asarray(y) > threshold).astype(float))

    @classmethod
    def custom(cls, name: str, fn: Callable) -> "WeightFunction":
        return cls(name, fn)

    def check_on(self, y) -> np.ndarray:
        """Evaluate on outputs, enforcing ``w >= 0`` and ``E[w] > 0``."""
        w = np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=float)
        if np.any(w < 0.0):
            raise EstimationError(f"weight {self.name!r} is negative on the sample")
        if not np.any(w > 0.0):
            raise EstimationError(f"weight {self.name!r} vanishes on the whole sample")
        return w


def _phi_integral(values, weights, what: str) -> float:
    values = np.asarray(values, dtype=float)
    if np.any(np.isnan(values)):
        raise EstimationError(f"divergence generator returned NaN while estimating {what}")
    if np.any(np.isinf(values)):
        warnings.warn(f"{what} is infinite: the generator diverges where the density "
                      "ratio vanishes", stacklevel=3)
        return float("inf")
    return float(np.sum(weights * values))


def delta_index(copula: MaxEntCopula, divergence: DivergenceSpec | None = None) -> float:
    """Dependence index ``integral phi(c(u, v))`` over the unit square.

    Integrated at the copula solver's grid values
    (:meth:`MaxEntCopula.grid_pdf`).  With the default total-variation
    generator this is half the L1 distance between the fitted copula
    density and independence.
    """
    phi = (divergence or DivergenceSpec.total_variation()).phi
    weights, c = copula.grid_pdf()
    return _phi_integral(phi(c), weights, "copula dependence index")


def target_tv_index(density: MaxEntDensity, marginal: Marginal) -> float:
    """Total-variation distance between nominal and conditioned marginals.

    :func:`csiszar_marginal_index` with the total-variation generator;
    the distance is 1 when the conditioned marginal escapes the nominal
    support entirely.
    """
    return csiszar_marginal_index(density, marginal, DivergenceSpec.total_variation())


def csiszar_marginal_index(density: MaxEntDensity, marginal: Marginal,
                           divergence: DivergenceSpec) -> float:
    """Divergence ``integral f * phi(f_hat / f)`` of the conditioned marginal.

    ``f`` is the nominal marginal density and ``f_hat`` the fitted
    conditioned one.  The integral runs over the fitted density's own
    Gauss-Legendre grid, with the ratio formed in log space, plus
    ``phi(0)`` times the nominal mass outside the fitted support.  As for
    :func:`sobol_indicator_index`, nominal draws cannot stand in for it
    deep in the tail.  Where ``f`` vanishes under fitted mass the
    integrand tends to ``f_hat * lim phi(r)/r``: ``f_hat / 2`` for total
    variation, so disjoint supports score exactly 1, and infinity for
    Kullback-Leibler; other generators are an error there.
    """
    x, w = density.quadrature()
    log_f = marginal.logpdf(x)
    log_fhat = density.log_pdf(x)
    void = np.isneginf(log_f)
    ok = ~void
    values = [np.exp(log_f[ok]) * divergence.phi(np.exp(log_fhat[ok] - log_f[ok]))]
    weights = [w[ok]]
    a, b = density.support
    outside = float(marginal.cdf(a) + 1.0 - marginal.cdf(b))
    if outside > 0.0:
        values.append(divergence.phi(np.array([0.0])))
        weights.append(np.array([outside]))
    if np.any(void):
        slope = _SLOPE_AT_INFINITY.get(divergence.phi)
        if slope is None:
            raise EstimationError(f"nominal marginal density vanishes inside the fitted "
                                  f"support, where the limit of generator "
                                  f"{divergence.name!r} is unknown")
        values.append(slope * np.exp(log_fhat[void]))
        weights.append(w[void])
    return _phi_integral(np.concatenate(values), np.concatenate(weights),
                         "marginal divergence index")


def scaled_target_index(eta_bar: float, p_f_hat: float) -> float:
    """Absolute failure-probability perturbation ``2 * p_f * eta_bar``."""
    if not (0.0 <= p_f_hat <= 1.0):
        raise ValueError(f"p_f_hat must lie in [0, 1], got {p_f_hat}")
    if eta_bar < 0.0:
        raise ValueError(f"eta_bar must be non-negative, got {eta_bar}")
    return 2.0 * p_f_hat * eta_bar


def sobol_indicator_index(density: MaxEntDensity, marginal: Marginal,
                          p_f_hat: float) -> float:
    """First-order Sobol index of the failure indicator.

    Uses ``S = p/(1-p) * Var_f(f_hat/f)`` with the variance written as
    ``integral(f_hat**2 / f) - integral(f_hat)**2`` over the fitted
    support and evaluated in log space on the solver's Gauss-Legendre
    grid.  Nominal draws cannot stand in for the integral: deep in the
    tail none of them lands in the fitted support, and the index of the
    dominant input would read exactly zero.  A nominal density that
    vanishes inside the fitted support makes the variance infinite and
    is an error.  A campaign fits each marginal on the range of its own
    conditioned sample, so this only happens when a caller pairs a
    density with a foreign marginal.  Round-off can push the variance a
    hair below zero, and anything beyond ``-1e-12`` is an error too.
    """
    if not (0.0 <= p_f_hat < 1.0):
        raise ValueError(f"p_f_hat must lie in [0, 1), got {p_f_hat}")
    x, w = density.quadrature()
    log_f = marginal.logpdf(x)
    if not np.all(np.isfinite(log_f)):
        raise EstimationError("nominal marginal density vanishes inside the fitted "
                              "support; the density-ratio variance is infinite")
    log_fhat = density.log_pdf(x)
    mass = float(np.sum(w * np.exp(log_fhat)))
    log_terms = 2.0 * log_fhat - log_f + np.log(w)
    top = float(np.max(log_terms))
    log_second = top + math.log(float(np.sum(np.exp(log_terms - top))))
    # Var / second moment, so a second moment beyond float range still works
    rel = 1.0 - mass * mass * math.exp(-log_second)
    if rel <= 0.0:
        var = rel * math.exp(log_second)
        if var < NEGATIVE_VARIANCE_FLOOR:
            raise EstimationError(f"density-ratio variance {var} is negative beyond "
                                  "round-off; the density estimate is inconsistent")
        return 0.0
    if p_f_hat == 0.0:
        return 0.0
    return math.exp(math.log(p_f_hat) - math.log1p(-p_f_hat) + log_second + math.log(rel))


def csiszar_indices(divergence: DivergenceSpec, weight: WeightFunction,
                    tilted_xy, marginal: Marginal, *,
                    marginal_exponents=None,
                    copula_exponents=None) -> tuple[float, float]:
    """Generalized pair (marginal index, dependence index) under a weight.

    ``tilted_xy`` holds ``(X_i, Y)`` pairs drawn from the law reweighted
    by ``w(Y)``; for ``w = indicator_above(S)`` that is exactly the
    conditioned output of a splitting run.  Returns
    ``(eta_bar_phi, delta_phi)``.  The fits are a campaign's (exponent
    sets chosen by BIC unless pinned), so with the total-variation
    generator and an indicator weight this reproduces its ``eta_bar``
    and ``delta_f`` exactly.
    """
    xy = np.asarray(tilted_xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) tilted sample, got shape {xy.shape}")
    w = weight.check_on(xy[:, 1])
    if np.any(w == 0.0):
        raise EstimationError(f"tilted sample contains points where weight {weight.name!r} "
                              "vanishes; it cannot come from the tilted law")
    density = fit_density(xy[:, 0], marginal_exponents)
    copula = fit_copula(xy, copula_exponents)
    return (csiszar_marginal_index(density, marginal, divergence),
            delta_index(copula, divergence))


def rank_descending(values) -> np.ndarray:
    """Competition ranks, largest value first; ties share the smaller rank."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a non-empty 1-D array of index values")
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.size, dtype=int)
    rank = 1
    for pos, idx in enumerate(order):
        if pos > 0 and values[idx] < values[order[pos - 1]]:
            rank = pos + 1
        ranks[idx] = rank
    return ranks
