"""Independent reference values for the two analytically tractable models.

Everything here is deliberately redundant with the main pipeline: the
point is to compute the same quantities by a different route (numerical
integration of closed-form densities, or brute-force rejection
sampling) so the test suite can compare the two.  Nothing in this
module calls the splitting sampler or the entropy solver.

For ``toy1`` the conditional law given failure factorises: the first
input is a normal truncated to (3, inf), the second keeps its
unconditional N(0, 5) law, and the output is their sum through
``abs``; completing the square in that convolution gives the output
density in closed form.  For ``additive_chi2`` the output given the
first input is a shifted chi-square with one degree of freedom, and
given the second a shifted standard normal; all integrals reduce to
one- and two-dimensional quadrature against those densities.

Every other integral uses composite Simpson rules on tensor grids whose
sizes scale with ``refine``, so doubling it checks convergence; kinks
from absolute values and truncation edges are handled by splitting at
the known edge locations where possible and by grid density elsewhere.

The normal law is written with ``scipy.special.ndtr`` (``sf(x)`` is
``ndtr(-x)``) and the closed-form density, which round exactly as
``scipy.stats.norm`` does; ``scipy.integrate`` is imported only when a
reference is computed.  Importing this module therefore loads neither.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import BlackBox, FailureEvent, InputModel

__all__ = [
    "ReferenceValue",
    "OracleError",
    "BudgetExhaustedError",
    "RejectionSample",
    "toy1_references",
    "chi2_references",
    "rejection_conditioned_sample",
]

class OracleError(RuntimeError):
    """A reference computation failed to converge."""


class BudgetExhaustedError(OracleError):
    """Rejection sampling ran out of budget before reaching its target."""

    def __init__(self, message: str, n_accepted: int):
        super().__init__(message)
        self.n_accepted = n_accepted


@dataclass(frozen=True)
class ReferenceValue:
    """One audited reference: a named number, how it was obtained, and
    how precisely it should be trusted."""

    name: str
    value: float
    method: str
    tolerance: float

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.method not in ("closed_form", "quadrature", "rejection"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class RejectionSample:
    """Accepted conditioned draws plus the proposal count that produced
    them, so acceptance-fraction checks need no extra bookkeeping."""

    inputs: np.ndarray
    outputs: np.ndarray
    n_proposed: int

    def __post_init__(self):
        self.inputs.setflags(write=False)
        self.outputs.setflags(write=False)


# ---------------------------------------------------------------------------
# First example: y = x1 + 1{x1 > 3} * |x2|, failure when y > 3.
# ---------------------------------------------------------------------------

_T1_S = 3.0
_T1_SD2 = np.sqrt(5.0)
_T1_X_HI = 9.0       # truncated-normal mass beyond here is ~1e-16 of total
_T1_Y_HI = 34.0      # requires |x2| > 25, mass ~1e-29


def _phi(x):
    """Standard normal density, bit for bit ``scipy.stats.norm.pdf`` at a
    fraction of its cost on the million-point grids of the quadrature."""
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _simpson(*args, **kwargs):
    """``scipy.integrate.simpson``, imported on first use."""
    from scipy.integrate import simpson

    return simpson(*args, **kwargs)


def _t1_f1c(x):
    """Conditional density of the first input given failure.

    The closed edge matters numerically: quadrature grids hit the
    truncation point exactly, where the density's limit value applies.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x >= _T1_S, _phi(x) / ndtr(-_T1_S), 0.0)


def _t1_fabs2(t):
    """Density of the absolute value of the second input."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, 2.0 * _phi(t / _T1_SD2) / _T1_SD2, 0.0)


def _t1_fy(y):
    """Conditional output density at the points ``y`` (vectorised).

    The convolution of the truncated normal with the folded normal has a
    closed form: completing the square in ``t**2 / 10 + (y - t)**2 / 2``
    leaves a normal integral in ``t`` with mean ``5 y / 6`` and variance
    ``5 / 6`` over ``[0, y - 3]``, so

        f_Y(y) = 2 phi(y / sqrt 6) / sqrt 6
                 * [Phi((y/6 - 3) / s) - Phi(-(5y/6) / s)] / sf(3),

    with ``s**2 = 5 / 6``, for ``y >= 3`` and zero below.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s = np.sqrt(5.0 / 6.0)
    root6 = np.sqrt(6.0)
    window = ndtr((y / 6.0 - _T1_S) / s) - ndtr(-(5.0 * y / 6.0) / s)
    dens = 2.0 * _phi(y / root6) / root6 * window / ndtr(-_T1_S)
    return np.where(y >= _T1_S, dens, 0.0)


def _t1_delta_f(which, fy_spline, fy_cdf, n_outer=513, n_tau=2049):
    """Conditional output-dependence of one input by 2-D quadrature.

    Both reduce to an expected shifted-density mismatch: for the first
    input the folded-normal density slides along the output axis, for
    the second the truncated normal does.  The sliding density jumps at
    the left edge of its support, so each inner integral is split
    there: below the edge only the output density contributes (read off
    the antiderivative), above it both densities are smooth.
    """
    if which == 1:
        shifts = np.linspace(_T1_S, _T1_X_HI, n_outer)
        weights = _t1_f1c(shifts)
        edges = shifts
        sliding = _t1_fabs2
    else:
        shifts = np.linspace(0.0, _T1_Y_HI - _T1_S, n_outer)
        weights = _t1_fabs2(shifts)
        edges = _T1_S + shifts
        sliding = _t1_f1c
    below = fy_cdf(np.clip(edges, _T1_S, _T1_Y_HI)) - fy_cdf(_T1_S)
    tau = np.linspace(0.0, 1.0, n_tau)
    span = _T1_Y_HI - edges
    y = edges[:, None] + span[:, None] * tau[None, :]
    mism = np.abs(sliding(y - shifts[:, None]) - fy_spline(y))
    above = span * _simpson(mism, x=tau, axis=1)
    inner = 0.5 * (below + above)
    return float(_simpson(weights * inner, x=shifts))


def toy1_references(refine=1) -> list[ReferenceValue]:
    """Reference index values for the first example.

    The failure probability, the marginal deviations of both inputs and
    the conditional output density have closed forms; the conditional
    output-dependence values come from quadrature of the exact
    conditional densities.  ``refine`` multiplies every grid size, so
    doubling it checks convergence.
    """
    if refine < 1:
        raise ValueError("refine must be at least 1")
    k = int(refine)
    p_f = float(ndtr(-_T1_S))
    eta1 = float(ndtr(_T1_S))
    from scipy.interpolate import CubicSpline
    ys = np.linspace(_T1_S, _T1_Y_HI, 8192 * k + 1)
    fy_spline = CubicSpline(ys, _t1_fy(ys))
    fy_cdf = fy_spline.antiderivative()
    mass = float(fy_cdf(_T1_Y_HI) - fy_cdf(_T1_S))
    if abs(mass - 1.0) > 5e-6:
        raise OracleError(
            f"conditional output density integrates to {mass:.8f}; "
            "quadrature did not converge")
    df1 = _t1_delta_f(1, fy_spline, fy_cdf,
                      n_outer=512 * k + 1, n_tau=2048 * k + 1)
    df2 = _t1_delta_f(2, fy_spline, fy_cdf,
                      n_outer=512 * k + 1, n_tau=2048 * k + 1)
    return [
        ReferenceValue("p_f", p_f, "closed_form", 1e-12),
        ReferenceValue("eta_bar_1", eta1, "closed_form", 1e-12),
        ReferenceValue("eta_bar_2", 0.0, "closed_form", 1e-12),
        ReferenceValue("delta_f_1", df1, "quadrature", 1e-3),
        ReferenceValue("delta_f_2", df2, "quadrature", 1e-3),
        ReferenceValue("sobol_indicator_1", 1.0, "closed_form", 1e-12),
        ReferenceValue("sobol_indicator_2", 0.0, "closed_form", 1e-12),
    ]


# ---------------------------------------------------------------------------
# Second example: y = x1 + x2**2, failure when y > 15.
# ---------------------------------------------------------------------------

_C2_S = 15.0
_C2_X_HI = 8.5
_C2_Y_LO = -10.0
_C2_Y_HI = 46.0


def _c2_fy(y, n_inner=2049):
    """Unconditional output density at the points ``y`` (vectorised).

    Substituting the square root of the chi-square part turns the
    convolution with the one-degree chi-square density into a smooth
    integral: f_Y(y) = int_0^inf 2 phi(s) phi(y - s^2) ds.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s = np.linspace(0.0, 8.0, n_inner)
    vals = 2.0 * _phi(s)[None, :] * _phi(y[:, None] - (s * s)[None, :])
    return _simpson(vals, x=s, axis=1)


def _c2_surv1(x):
    """Failure probability given the first input."""
    x = np.asarray(x, dtype=float)
    gap = _C2_S - x
    return np.where(gap > 0.0,
                    2.0 * ndtr(-np.sqrt(np.maximum(gap, 1e-300))), 1.0)


def _c2_surv2(x2):
    """Failure probability given the second input."""
    x2 = np.asarray(x2, dtype=float)
    return ndtr(x2 * x2 - _C2_S)


# Outer-axis split points.  The conditional failure probability given
# the second input swings from ~0 to ~1 across t in [3, 5] (failure
# needs t^2 near the threshold), so integrands are resolved separately
# there; the first-input axis is smooth enough for a single region.
_C2_T_EDGES = (0.0, 3.0, 3.6, 4.2, 5.0, _C2_X_HI)
_C2_X_EDGES = (-_C2_X_HI, 0.0, 1.8, 3.0, _C2_X_HI)


def _region_simpson(point_fn, edges, n_per_region):
    """Sum of composite Simpson integrals over consecutive regions."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, n_per_region)
        total += float(_simpson(point_fn(xs), x=xs))
    return total


def _c2_delta1(fy_grid, ys, edges, n_outer):
    """Unconditional output-dependence of the first input.

    The chi-square conditional density is singular at its left edge, so
    the inner integral runs in the square-root variable where the
    integrand is bounded: |f_{Y|X1} - f_Y| dy becomes
    |2 phi(s) - 2 s f_Y(x + s^2)| ds.
    """
    from scipy.integrate import cumulative_simpson

    cdf = cumulative_simpson(fy_grid, x=ys, initial=0.0)
    s = np.linspace(0.0, 8.0, 2049)

    def point(xs):
        y_at = xs[:, None] + (s * s)[None, :]
        fy_at = np.interp(y_at, ys, fy_grid, left=0.0, right=0.0)
        body = _simpson(
            np.abs(2.0 * _phi(s)[None, :] - 2.0 * s[None, :] * fy_at),
            x=s, axis=1)
        below = np.interp(xs, ys, cdf)
        return 0.5 * (body + below) * _phi(xs)

    return _region_simpson(point, edges, n_outer)


def _c2_delta2(fy_grid, ys, edges, n_outer):
    """Unconditional output-dependence of the second input."""

    def point(ts):
        shifted = _phi(ys[None, :] - (ts * ts)[:, None])
        inner = 0.5 * _simpson(np.abs(shifted - fy_grid[None, :]),
                                        x=ys, axis=1)
        return 2.0 * _phi(ts) * inner

    return _region_simpson(point, edges, n_outer)


def _c2_delta_f1(fy_grid, ys, p_f, edges, n_outer):
    """Conditional output-dependence of the first input."""
    mask = ys >= _C2_S
    yc = ys[mask]
    fyc = fy_grid[mask]

    def point(xs):
        gap = yc[None, :] - xs[:, None]
        chi = np.exp(-0.5 * gap) / np.sqrt(2.0 * np.pi * gap)
        mism = np.abs(chi - (_c2_surv1(xs)[:, None] / p_f) * fyc[None, :])
        inner = 0.5 * _simpson(mism, x=yc, axis=1) / p_f
        return _phi(xs) * inner

    return _region_simpson(point, edges, n_outer)


def _c2_delta_f2(fy_grid, ys, p_f, edges, n_outer):
    """Conditional output-dependence of the second input."""
    mask = ys >= _C2_S
    yc = ys[mask]
    fyc = fy_grid[mask]

    def point(ts):
        shifted = _phi(yc[None, :] - (ts * ts)[:, None])
        mism = np.abs(shifted - (_c2_surv2(ts)[:, None] / p_f) * fyc[None, :])
        inner = 0.5 * _simpson(mism, x=yc, axis=1) / p_f
        return 2.0 * _phi(ts) * inner

    return _region_simpson(point, edges, n_outer)


def chi2_references(refine=1) -> list[ReferenceValue]:
    """Reference index values for the second example, all by quadrature
    against the closed-form conditional densities of the output.
    ``refine`` multiplies every grid size, so doubling it checks
    convergence."""
    if refine < 1:
        raise ValueError("refine must be at least 1")
    from scipy.integrate import quad

    k = int(refine)
    p_f, _ = quad(
        lambda z: _phi(z) * ndtr(z * z - _C2_S),
        -np.inf, np.inf, limit=400)
    p_f = float(p_f)

    # 128k points per unit keeps the step dyadic, so the failure
    # threshold is exactly a grid point and the conditional restriction
    # loses no sliver of mass
    n_y = int(_C2_Y_HI - _C2_Y_LO) * 128 * k + 1
    n_outer = 512 * k + 1
    ys = np.linspace(_C2_Y_LO, _C2_Y_HI, n_y)
    fy = _c2_fy(ys, n_inner=2048 * k + 1)
    mass = float(_simpson(fy, x=ys))
    cond_mass = float(_simpson(fy[ys >= _C2_S], x=ys[ys >= _C2_S]))
    if abs(mass - 1.0) > 5e-6 or abs(cond_mass / p_f - 1.0) > 1e-4:
        raise OracleError(
            f"output density integrates to {mass:.8f} "
            f"(conditional mass ratio {cond_mass / p_f:.6f}); "
            "quadrature did not converge")

    delta1 = _c2_delta1(fy, ys, _C2_X_EDGES, n_outer)
    delta2 = _c2_delta2(fy, ys, _C2_T_EDGES, n_outer)
    delta_f1 = _c2_delta_f1(fy, ys, p_f, _C2_X_EDGES, n_outer)
    delta_f2 = _c2_delta_f2(fy, ys, p_f, _C2_T_EDGES, n_outer)

    eta1 = _region_simpson(
        lambda x: 0.5 * np.abs(_phi(x) * (1.0 - _c2_surv1(x) / p_f)),
        _C2_X_EDGES, n_outer)
    eta2 = _region_simpson(
        lambda t: np.abs(_phi(t) * (1.0 - _c2_surv2(t) / p_f)),
        _C2_T_EDGES, n_outer)

    e_h1_sq = _region_simpson(lambda x: _phi(x) * _c2_surv1(x) ** 2,
                              _C2_X_EDGES, n_outer)
    e_h2_sq = _region_simpson(lambda t: 2.0 * _phi(t) * _c2_surv2(t) ** 2,
                              _C2_T_EDGES, n_outer)
    denom = p_f * (1.0 - p_f)
    s1 = (e_h1_sq - p_f * p_f) / denom
    s2 = (e_h2_sq - p_f * p_f) / denom

    return [
        ReferenceValue("p_f", p_f, "quadrature", 1e-6),
        ReferenceValue("delta_1", delta1, "quadrature", 2e-3),
        ReferenceValue("delta_2", delta2, "quadrature", 2e-3),
        ReferenceValue("delta_f_1", delta_f1, "quadrature", 5e-4),
        ReferenceValue("delta_f_2", delta_f2, "quadrature", 2e-3),
        ReferenceValue("eta_bar_1", eta1, "quadrature", 2e-3),
        ReferenceValue("eta_bar_2", eta2, "quadrature", 1e-3),
        ReferenceValue("sobol_indicator_1", s1, "quadrature", 1e-5),
        ReferenceValue("sobol_indicator_2", s2, "quadrature", 1e-2),
    ]


# ---------------------------------------------------------------------------
# Brute-force conditioned sampling.
# ---------------------------------------------------------------------------

def rejection_conditioned_sample(blackbox: BlackBox, input_model: InputModel,
                                 event: FailureEvent, n_target: int,
                                 budget: int, seed,
                                 block_size: int = 100_000) -> RejectionSample:
    """Exact i.i.d. draws from the input law conditioned on failure.

    Proposes unconditional input blocks, evaluates them in batch, and
    keeps failing ones until ``n_target`` are collected.  Raises
    :class:`BudgetExhaustedError` when the proposal budget runs out
    first; warns as soon as the running acceptance rate projects a
    shortfall.
    """
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    if budget < n_target:
        raise ValueError("budget smaller than the requested sample")
    rng = np.random.default_rng(seed)
    kept_x, kept_y = [], []
    n_acc = 0
    used = 0
    warned = False
    while n_acc < n_target:
        if used >= budget:
            raise BudgetExhaustedError(
                f"budget {budget} exhausted with {n_acc} of {n_target} "
                f"accepted draws", n_acc)
        n = min(block_size, budget - used)
        x = input_model.sample(n, rng)
        y = blackbox.evaluate_batch(x)
        used += n
        mask = event.indicator(y)
        kept_x.append(x[mask])
        kept_y.append(y[mask])
        n_acc += int(mask.sum())
        if not warned and used >= 10 * block_size:
            projected = n_acc / used * budget
            if projected < n_target:
                warnings.warn(
                    f"acceptance rate {n_acc / used:.2e} projects only "
                    f"{projected:.0f} draws within the budget "
                    f"(target {n_target})", stacklevel=2)
                warned = True
    xs = np.concatenate(kept_x)[:n_target]
    ys = np.concatenate(kept_y)[:n_target]
    return RejectionSample(inputs=xs, outputs=ys, n_proposed=used)
