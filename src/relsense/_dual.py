"""The damped Newton solver of the maximum-entropy dual, and the
weak-duality certificate that a rung of a BIC ladder loses.

Both work on a family of :mod:`relsense.maxent`: whitened features
``psi`` on a quadrature grid with weights ``weights``, and the map back
to the original features (``r``, ``scale``, ``center``).  A family
provides ``whitened_log_q(lam, out=None)``, the unnormalized log density
on the grid at whitened multipliers; ``log_partition(lam)`` at original
ones; and ``moments(p)``, the mean and covariance of ``psi`` under grid
probabilities ``p``.  :func:`_newton` and :func:`_certify` take the same
Newton step (:func:`_descent`, :func:`_line_search`), and each holds the
grid arrays it works on for the whole solve: one for :func:`_newton`, in
which every line-search candidate is formed, and one more for the
certificate's tilts.  No sample size, exponent count or BIC reaches
this module: the certificate's ``ceiling`` and ``slack`` are dual values
(nats per row).
"""

import math

import numpy as np
from numpy.linalg import LinAlgError, cholesky

# Newton limits of every solve, and the whitened multiplier norm past which
# the dual counts as diverging (so no solve returns a larger one).
_NEWTON_TOL, _NEWTON_MAX_ITER, _MAX_MULTIPLIER = 1e-6, 200, 1e10
# Tilts toward the moment targets per iterate of a certificate (see
# _feasible_entropy); in a toy1 campaign an iterate rarely needs over five.
_TILTS = 8


class MaxEntError(RuntimeError):
    """The dual solve failed to converge."""


class InfeasibleConstraintsError(MaxEntError):
    """The dual is diverging: no density on the support matches the moments."""


def _weighted_exp(logq, w):
    """``(m, w * exp(logq - m))`` with ``m = max(logq)``, formed in the
    buffer of ``logq``, which is overwritten."""
    m = np.max(logq)
    np.subtract(logq, m, out=logq)
    np.exp(logq, out=logq)
    np.multiply(w, logq, out=logq)
    return m, logq


def _norm(v):
    """Euclidean norm, as ``numpy.linalg.norm`` forms it for a vector."""
    return math.sqrt(v.dot(v))


def _solve_upper(r, b, trans):
    """Solve ``r x = b`` (``trans=0``) or ``r.T x = b`` (``trans=1``) for
    the upper triangular ``r`` of :func:`relsense.maxent._feature_map`.
    numpy has no triangular solve, so this is a general one; it runs twice
    per solve and twice per certificate."""
    return np.linalg.solve(r.T if trans else r, b)


def _descent(hess, grad):
    """The Newton step ``-(hess + ridge I)^{-1} grad`` of one iterate and
    its slope ``grad . step``; the ridge is zero unless the Hessian fails
    to factor, and then grows tenfold until it does.

    Each ridge attempt is one :func:`numpy.linalg.cholesky`, which
    raises :class:`numpy.linalg.LinAlgError` when the ridged Hessian is
    not positive definite; the step is then one
    :func:`numpy.linalg.solve` with that matrix, and the factor itself is
    not used."""
    eye = np.eye(grad.shape[0])
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
    return step, slope


def _line_search(family, mu_g, lam, obj, step, slope, buf):
    """Backtracking (Armijo) search along ``step`` from the whitened
    multipliers ``lam``, whose dual objective is ``obj``; each candidate's
    log density is formed in the grid array ``buf``, which is overwritten.

    Returns ``(lam, m, qw, z)`` of the accepted candidate, its weighted
    exponentials ``qw`` shifted by ``m`` (:func:`_weighted_exp`), in
    ``buf``, and their sum ``z``, or ``None`` when 60 halvings find no
    sufficient decrease."""
    t = 1.0
    for _ in range(60):
        cand = lam + t * step
        cand_m, cand_qw = _weighted_exp(family.whitened_log_q(cand, out=buf), family.weights)
        cand_z = float(np.sum(cand_qw))
        cand_obj = float(cand @ mu_g + (cand_m + math.log(cand_z)))
        if cand_obj <= obj + 1e-4 * t * slope:
            return cand, cand_m, cand_qw, cand_z
        t *= 0.5
    return None


def _newton(targets, family):
    """Damped Newton on the dual; returns (multipliers, log Z, iterations).

    ``family`` is a :class:`~relsense.maxent._TensorFamily` (copula) or a
    :class:`~relsense.maxent._DenseFamily` (1-D).  The steps are taken in
    its whitened basis; for a copula that works on the per-axis arrays of
    :func:`~relsense.maxent._whiten`: the log density is the bilinear form
    ``g.T @ Theta @ g`` over the grid ``P`` of probabilities, and the
    moments and the Hessian are read off its projection onto the span of
    the pairwise products, ``h P h.T`` (see
    :meth:`~relsense.maxent._TensorFamily.moments`).  Newton steps are
    affine invariant, so the iterates are those of the original features.
    Convergence is judged on the moments of the original features,
    ``r.T @ grad``, and the multipliers are returned in that basis.

    Each step is one :func:`_descent` and one :func:`_line_search`, which
    :func:`_certify` shares.  The line search forms its candidates in the
    iterate's own grid array, whose probabilities the step has already
    read, and the weighted exponentials of the accepted candidate are
    those of the next iterate, so they are carried over.

    Near the optimum of a badly scaled rung (``z**6`` on ``[3, 6.5]`` has
    a ``scale`` of 7e4) the scaled test can stay out of reach while the
    predicted decrease ``-slope`` falls below the roundoff of the
    objective, so no step can lower it.  An iterate whose whitened
    gradient ``grad`` and gradient ``r.T @ grad`` both meet
    ``_NEWTON_TOL`` and whose ``-slope`` is at most ``1e-13 * max(1,
    |obj|)`` has converged to rounding.  It is returned when the line
    search fails at it, and the last such iterate is returned when the
    ``_NEWTON_MAX_ITER`` steps run out; the iteration never stops at one
    earlier (rounding exit; Nocedal & Wright, *Numerical Optimization*,
    2006, on line-search termination at machine precision).
    """
    scale, center, r, w = family.scale, family.center, family.r, family.weights
    mu_s = targets / scale
    mu_g = _solve_upper(r, mu_s - center, trans=1)
    lam = np.zeros(targets.shape[0])
    mstar, qw = _weighted_exp(family.whitened_log_q(lam), w)
    z = float(np.sum(qw))

    def result(lam, it):
        lam_orig = _solve_upper(r, lam, trans=0) / scale
        return lam_orig, family.log_partition(lam_orig), it

    rounded = None  # (multipliers, iteration) of the last iterate converged to rounding
    for it in range(1, _NEWTON_MAX_ITER + 1):
        # a finite, positive z keeps the moments and so the Hessian finite
        if not np.isfinite(z) or z <= 0.0:
            raise InfeasibleConstraintsError("dual integrand degenerated; constraints "
                                             "are infeasible on this support")
        mom, hess = family.moments(np.divide(qw, z, out=qw))
        grad = mu_g - mom
        grad_s = r.T @ grad
        if _norm(grad_s * scale) <= _NEWTON_TOL and _norm(grad_s) <= _NEWTON_TOL:
            return result(lam, it)
        obj = float(lam @ mu_g + mstar + math.log(z))
        step, slope = _descent(hess, grad)
        at_rounding = (_norm(grad) <= _NEWTON_TOL and _norm(grad_s) <= _NEWTON_TOL
                       and -slope <= 1e-13 * max(1.0, abs(obj)))
        if at_rounding:
            rounded = lam, it
        moved = _line_search(family, mu_g, lam, obj, step, slope, qw)
        if moved is None:
            if at_rounding:
                return result(lam, it)
            raise MaxEntError("line search failed; the dual may be flat or the "
                              "constraints near the feasibility boundary")
        lam, mstar, qw, z = moved
        if _norm(lam) > _MAX_MULTIPLIER:
            raise InfeasibleConstraintsError("dual multipliers diverging; no density on "
                                             "the support matches the moment targets")
    if rounded is not None:
        return result(*rounded)
    raise MaxEntError(f"Newton did not reach gradient norm {_NEWTON_TOL} in "
                      f"{_NEWTON_MAX_ITER} iterations")


def _feasible_entropy(family, mu_g, q, mom, step, negligible):
    """Entropy ``H(q) = -sum q log(q / w)`` of grid probabilities ``q``
    after tilting them in place toward the whitened targets ``mu_g``, and
    the distance ``|mu_g - E_q psi|`` the tilts leave.

    ``mom`` is the mean of the whitened features ``psi`` under ``q``, and
    ``step`` is the Newton step ``-Cov_q(psi)^{-1} (mu_g - mom)``
    (:func:`_descent`).  A tilt replaces ``q`` by ``q (1 + t)_+``,
    normalized, with ``t = -(psi - mom) . step``: the moments are linear
    in ``q``, so without the clip at zero the tilted means are ``mu_g`` to
    rounding.  Where the clip bites they are not, and the tilt is repeated
    from the new ``q`` with its own Newton step, while the distance at
    least halves and is above ``negligible``, at most ``_TILTS`` times.
    ``1 + t``, and then ``log(q / w)``, take one more grid array, held
    through the tilts so that no grid-sized block is freed and formed
    again between them."""
    res = _norm(mu_g - mom)
    u = np.empty_like(q)
    for _ in range(_TILTS):
        family.whitened_log_q(step, out=u)  # -psi . step on the grid
        u += 1.0 + float(mom @ step)
        np.maximum(u, 0.0, out=u)
        np.multiply(q, u, out=q)
        q /= float(np.sum(q))
        mom, cov = family.moments(q)
        last, res = res, _norm(mu_g - mom)
        if res <= negligible or not res < 0.5 * last:
            break
        step, _ = _descent(cov, mu_g - mom)
    np.divide(q, family.weights, out=u)
    np.maximum(u, 1e-300, out=u)  # where q is 0, q log(q / w) stays 0
    return -float(np.vdot(q, np.log(u, out=u))), res


def _certify(family, targets, start, ceiling, slack):
    """Multipliers of a Newton iterate from ``start`` (original features)
    at which the dual of the moment ``targets`` on ``family`` provably has
    no value at or below ``ceiling`` that a solve can return, or ``None``
    when no iterate proves it.

    On the solver grid, with grid weights ``w`` and whitened features
    ``psi``, the dual is ``D(lam) = lam . mu + log sum w exp(-lam . psi)``.
    For any probabilities ``q`` on the grid, Jensen's inequality gives
    ``D(lam) >= H(q) + lam . (mu - E_q psi)`` with ``H(q) = -sum q log(q /
    w)`` (weak duality; Boyd & Vandenberghe, *Convex Optimization*, 5.2),
    and :func:`_newton` returns no whitened multipliers of norm above
    ``_MAX_MULTIPLIER``.  So every dual value a solve can return is at
    least ``H(q) - _MAX_MULTIPLIER |mu - E_q psi|``.  At each iterate
    ``q`` is its grid probabilities tilted toward the targets
    (:func:`_feasible_entropy`, which stops once the distance is below
    ``slack / _MAX_MULTIPLIER``), formed in their buffer; near the
    optimum the bound is ``D`` less about half the Newton decrement.

    The iteration gives up as soon as ``D`` at an iterate is at most
    ``ceiling``, since past there the solve may return less; also when
    the gradient meets the Newton tolerance or a step fails.  The steps
    are those of :func:`_newton` (:func:`_descent`, :func:`_line_search`).
    """
    negligible = slack / _MAX_MULTIPLIER
    r, scale = family.r, family.scale
    mu_g = _solve_upper(r, targets / scale - family.center, trans=1)
    lam = r @ (start * scale)
    mstar, qw = _weighted_exp(family.whitened_log_q(lam), family.weights)
    z = float(np.sum(qw))
    try:
        for _ in range(_NEWTON_MAX_ITER):
            obj = float(lam @ mu_g + mstar + math.log(z))
            if obj <= ceiling:
                return None
            mom, hess = family.moments(np.divide(qw, z, out=qw))
            grad = mu_g - mom
            step, slope = _descent(hess, grad)
            entropy, res = _feasible_entropy(family, mu_g, qw, mom, step, negligible)
            if entropy - _MAX_MULTIPLIER * res > ceiling:
                return _solve_upper(r, lam, trans=0) / scale
            if _norm(grad) <= _NEWTON_TOL:
                return None
            moved = _line_search(family, mu_g, lam, obj, step, slope, qw)
            if moved is None:
                return None
            lam, mstar, qw, z = moved
    except MaxEntError:
        return None
    return None
