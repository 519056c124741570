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
given the second a shifted standard normal; its density is a smooth
one-dimensional integral.

Every integral is a sum on one rule: Gauss-Legendre nodes on equal
panels between fixed edges (:func:`_panels`); ``m`` nodes are exact
for polynomials up to degree ``2m - 1`` on each panel.  ``refine``
multiplies every panel count, so doubling it checks convergence.  The
marginal deviations of ``additive_chi2`` have a kink where the
conditional failure probability crosses ``p_f``; a panel edge sits
there.  The unconditional output-dependence values, and the conditional
ones of ``toy1``, are integrated over the output: given the output, the
set on which the joint density exceeds the product of the marginals is
an interval with closed-form ends (Scheffe's identity), so no absolute
value is integrated.  Only the conditional output-dependence of
``additive_chi2`` integrates an absolute value, whose kinks fall inside
the panels.

The normal law is written with ``scipy.special.ndtr`` (``sf(x)`` is
``ndtr(-x)``) and the closed-form density, which round exactly as
``scipy.stats.norm`` does.  Of scipy the module uses only
``scipy.special``, imported inside the functions that need it, so that
importing the module loads no scipy; its rule shares no code with the
entropy solver's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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


def _panels(edges, n_panels, m=8):
    """Nodes and weights of an ``m``-point Gauss-Legendre rule on each of
    ``n_panels`` equal panels of every region between consecutive
    ``edges``, flattened into one rule over the whole range."""
    t, w = np.polynomial.legendre.leggauss(m)
    cuts = np.unique(np.concatenate(
        [np.linspace(a, b, n_panels + 1) for a, b in zip(edges[:-1], edges[1:])]))
    mid = 0.5 * (cuts[1:] + cuts[:-1])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


def _y_panels(lo, hi, k):
    """Panel rule over an output range, with panels ``0.25 / k`` wide."""
    return _panels((lo, hi), int(round(4 * (hi - lo))) * k)


def _phi(x):
    """Standard normal density, bit for bit ``scipy.stats.norm.pdf`` at a
    fraction of its cost."""
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# First example: y = x1 + 1{x1 > 3} * |x2|, failure when y > 3.
# ---------------------------------------------------------------------------

_T1_S = 3.0
_T1_SD2 = np.sqrt(5.0)
_T1_Y_HI = 34.0      # requires |x2| > 25, mass ~1e-29


def _t1_conv(y, t0, t1):
    """Partial convolution ``int_t0^t1 f_|X2|(t) f_X1|F(y - t) dt`` in
    closed form, for ``0 <= t0 <= t1 <= y - 3`` (vectorised).

    Completing the square in ``t**2 / 10 + (y - t)**2 / 2`` leaves a
    normal integral in ``t`` with mean ``5 y / 6`` and variance
    ``s**2 = 5 / 6``, so the integral is

        2 phi(y / sqrt 6) / sqrt 6
        * [Phi((t1 - 5y/6) / s) - Phi((t0 - 5y/6) / s)] / sf(3).
    """
    from scipy.special import ndtr

    s = np.sqrt(5.0 / 6.0)
    root6 = np.sqrt(6.0)
    window = ndtr((t1 - 5.0 * y / 6.0) / s) - ndtr((t0 - 5.0 * y / 6.0) / s)
    return 2.0 * _phi(y / root6) / root6 * window / ndtr(-_T1_S)


def _t1_fy(y):
    """Conditional output density at the points ``y`` (vectorised): the
    whole convolution, over ``t`` in ``[0, y - 3]``, and zero below 3."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return np.where(y >= _T1_S, _t1_conv(y, 0.0, y - _T1_S), 0.0)


def _t1_delta_f(y, fy):
    """Conditional output-dependence of both inputs, as integrands over
    the output at the points ``y``.

    Given ``Y = y`` the joint density ``f(x, y)`` and the product
    ``f(x) f_Y(y)`` carry the same mass ``f_Y(y)``, so half their L1
    distance is the mass of the positive part (Scheffe's identity).  For
    the first input the joint density is ``f_X1|F(x) f_|X2|(y - x)``; it
    exceeds the product where ``y - x`` is below the point ``d`` at
    which the folded normal density falls to ``f_Y(y)``.  For the second
    it is ``f_|X2|(t) f_X1|F(y - t)``, above the product where ``y - t``
    is below the point ``c`` at which the truncated normal density falls
    to ``f_Y(y)``; ``c > 3`` always.  Both sets are intervals with
    closed-form ends, and the joint mass on them is a partial
    convolution.
    """
    from scipy.special import ndtr

    sf3 = ndtr(-_T1_S)
    d = np.sqrt(np.maximum(-10.0 * np.log(fy * np.sqrt(2.5 * np.pi)), 0.0))
    t1 = np.minimum(d, y - _T1_S)
    df1 = _t1_conv(y, 0.0, t1) - fy * (ndtr(t1 - y) - ndtr(-y)) / sf3
    c = np.sqrt(-2.0 * np.log(np.sqrt(2.0 * np.pi) * sf3 * fy))
    t0 = np.maximum(y - c, 0.0)
    df2 = (_t1_conv(y, t0, y - _T1_S)
           - 2.0 * fy * (ndtr((y - _T1_S) / _T1_SD2) - ndtr(t0 / _T1_SD2)))
    return df1, df2


def toy1_references(refine=1) -> list[ReferenceValue]:
    """Reference index values for the first example.

    The failure probability, the marginal deviations of both inputs and
    the conditional output density have closed forms; the conditional
    output-dependence values are one quadrature over the output of
    closed-form integrands.  ``refine`` multiplies every panel count, so
    doubling it checks convergence.
    """
    from scipy.special import ndtr

    if refine < 1:
        raise ValueError("refine must be at least 1")
    p_f = float(ndtr(-_T1_S))
    eta1 = float(ndtr(_T1_S))
    ys, wy = _y_panels(_T1_S, _T1_Y_HI, int(refine))
    fy = _t1_fy(ys)
    mass = float(fy @ wy)
    if abs(mass - 1.0) > 5e-6:
        raise OracleError(
            f"conditional output density integrates to {mass:.8f}; "
            "quadrature did not converge")
    df1, df2 = (float(v @ wy) for v in _t1_delta_f(ys, fy))
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


def _c2_mix(fn, y, k=1, lo=0.0, hi=8.0):
    """``int_lo^hi 2 phi(s) fn(y - s^2) ds`` at each of the points ``y``;
    the limits may vary with ``y``.

    Over ``[0, 8]`` this is the output density or survival function for
    ``fn`` the normal one: substituting the square root of the
    chi-square part turns the convolution with the one-degree chi-square
    law into a smooth integral.
    """
    tau, w = _panels((0.0, 1.0), 16 * k, 16)
    y, lo, hi = (np.asarray(v, dtype=float)[..., None] for v in (y, lo, hi))
    s = lo + (hi - lo) * tau
    return (2.0 * _phi(s) * fn(y - s * s) * (hi - lo)) @ w


def _c2_fy(y, k=1):
    """Unconditional output density at the points ``y`` (vectorised)."""
    return _c2_mix(_phi, y, k)


def _c2_sf(y, k=1):
    """Unconditional output survival function at the points ``y``."""
    from scipy.special import ndtr

    return _c2_mix(lambda z: ndtr(-z), y, k)


def _c2_surv1(x):
    """Failure probability given the first input."""
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    gap = _C2_S - x
    return np.where(gap > 0.0,
                    2.0 * ndtr(-np.sqrt(np.maximum(gap, 1e-300))), 1.0)


def _c2_surv2(x2):
    """Failure probability given the second input."""
    from scipy.special import ndtr

    x2 = np.asarray(x2, dtype=float)
    return ndtr(x2 * x2 - _C2_S)


# Outer-axis split points.  The conditional failure probability given
# the second input swings from ~0 to ~1 across t in [3, 5] (failure
# needs t^2 near the threshold), so integrands are resolved separately
# there; the first-input axis is smooth enough for a single region.
_C2_T_EDGES = (0.0, 3.0, 3.6, 4.2, 5.0, _C2_X_HI)
_C2_X_EDGES = (-_C2_X_HI, 0.0, 1.8, 3.0, _C2_X_HI)


def _c2_delta(y, fy, k):
    """Unconditional output-dependence of both inputs, as integrands over
    the output at the points ``y``.

    As for the first example, half the L1 distance between the joint
    density and the product given ``Y = y`` is the mass of the positive
    part.  The joint density of the first input is ``phi(x) chi2(y - x)``
    with a decreasing one-degree chi-square density; it exceeds the
    product on ``y - u < x < y``, where ``chi2(u) = f_Y(y)`` solves to
    ``u = W(1 / (2 pi f_Y^2))`` with ``W`` the Lambert W function.  The second input's is
    ``2 phi(t) phi(y - t^2)`` on ``t >= 0``; it exceeds the product where
    ``|y - t^2| < r``, with ``phi(r) = f_Y(y)``.  The joint mass on
    either set is a partial form of the output density's own integral.
    """
    from scipy.special import lambertw, ndtr

    u = lambertw(1.0 / (2.0 * np.pi * fy * fy)).real
    d1 = _c2_mix(_phi, y, k, hi=np.sqrt(u)) - fy * (ndtr(y) - ndtr(y - u))
    r = np.sqrt(-2.0 * np.log(np.sqrt(2.0 * np.pi) * fy))
    lo = np.sqrt(np.maximum(y - r, 0.0))
    hi = np.sqrt(np.maximum(y + r, 0.0))
    d2 = _c2_mix(_phi, y, k, lo, hi) - 2.0 * fy * (ndtr(hi) - ndtr(lo))
    return d1, d2


def _c2_delta_f(joint, h, weights, fyc, wyc, p_f):
    """Conditional output-dependence of one input.

    ``joint[i, j]`` is the output density at the ``j``-th output node
    given the input's ``i``-th node, ``h`` the failure probability given
    that node and ``weights`` its weight times the input density.
    """
    mism = np.abs(joint - (h[:, None] / p_f) * fyc[None, :])
    return float(weights @ (0.5 * (mism @ wyc) / p_f))


def chi2_references(refine=1) -> list[ReferenceValue]:
    """Reference index values for the second example, all by quadrature
    against the closed-form conditional densities of the output.
    ``refine`` multiplies every panel count, so doubling it checks
    convergence."""
    from scipy.special import ndtri

    if refine < 1:
        raise ValueError("refine must be at least 1")
    k = int(refine)
    p_f = float(_c2_sf(_C2_S, k))

    ys, wy = _y_panels(_C2_Y_LO, _C2_Y_HI, k)
    fy = _c2_fy(ys, k)
    yc, wyc = _y_panels(_C2_S, _C2_Y_HI, k)
    fyc = _c2_fy(yc, k)
    mass = float(fy @ wy)
    cond_mass = float(fyc @ wyc)
    if abs(mass - 1.0) > 5e-6 or abs(cond_mass / p_f - 1.0) > 1e-4:
        raise OracleError(
            f"output density integrates to {mass:.8f} "
            f"(conditional mass ratio {cond_mass / p_f:.6f}); "
            "quadrature did not converge")
    delta1, delta2 = (float(v @ wy) for v in _c2_delta(ys, fy, k))

    # The failure probability given either input crosses p_f once on the
    # outer axis, where the marginal deviations have a kink; a panel
    # edge goes there.
    x_kink = _C2_S - ndtri(0.5 * p_f) ** 2
    t_kink = np.sqrt(_C2_S + ndtri(p_f))
    xs, wx = _panels(sorted(_C2_X_EDGES + (x_kink,)), 8 * k)
    ts, wt = _panels(sorted(_C2_T_EDGES + (t_kink,)), 8 * k)
    h1 = _c2_surv1(xs)
    h2 = _c2_surv2(ts)
    gap = yc[None, :] - xs[:, None]
    chi = np.exp(-0.5 * gap) / np.sqrt(2.0 * np.pi * gap)
    delta_f1 = _c2_delta_f(chi, h1, wx * _phi(xs), fyc, wyc, p_f)
    delta_f2 = _c2_delta_f(_phi(yc[None, :] - (ts * ts)[:, None]), h2,
                           2.0 * wt * _phi(ts), fyc, wyc, p_f)
    eta1 = float(wx @ (0.5 * np.abs(_phi(xs) * (1.0 - h1 / p_f))))
    eta2 = float(wt @ np.abs(_phi(ts) * (1.0 - h2 / p_f)))
    e_h1_sq = float(wx @ (_phi(xs) * h1 ** 2))
    e_h2_sq = float(wt @ (2.0 * _phi(ts) * h2 ** 2))
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
