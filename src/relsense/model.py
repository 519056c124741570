"""Input probability models, black-box wrappers and built-in benchmarks.

The package estimates ``P(Y > S)`` for a scalar output ``Y = M(X)`` of a
deterministic model ``M`` with random input vector ``X``.  This module
provides the three ingredients: the input law (:class:`Marginal`,
:class:`InputModel`), the model wrapper with exact call accounting
(:class:`BlackBox`, around one vectorised function) and the failure
event (:class:`FailureEvent`), plus the registry of built-in benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "EvaluationError",
    "Marginal",
    "InputModel",
    "FailureEvent",
    "BlackBox",
    "builtin_model",
    "BUILTIN_NAMES",
]

_MARGINAL_KINDS = ("normal", "lognormal", "uniform")


class EvaluationError(RuntimeError):
    """A black-box evaluation could not produce a finite scalar."""


# scipy's constants for the standard normal density, reused so that the
# closed forms below round exactly as scipy.stats does.
_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(2 * np.pi) / 2.0

# Cephes' rational approximations behind ndtr (Moshier; after Cody, Math.
# Comp. 1969), coefficients from the highest power down.  ``erf(x) =
# x T(x**2) / U(x**2)`` for ``|x| < 1``; ``erfc(x) = exp(-x**2) P(x) /
# Q(x)`` for ``1 <= x < 8`` and ``exp(-x**2) R(x) / S(x)`` from 8 on.
# The denominators are monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = math.sqrt(0.5)
# erfc(x) is taken as 0 where x**2 exceeds Cephes' MAXLOG, log of the largest double
_ERFC_ZERO = math.sqrt(7.09782712893383996843e2)


def _polevl(v, coefs):
    """``sum(coefs[k] * v**(n - k))`` by Horner's rule, in Cephes' order."""
    acc = v * coefs[0] + coefs[1]
    for c in coefs[2:]:
        acc *= v
        acc += c
    return acc


def ndtr(a) -> np.ndarray:
    """Standard normal cdf of each element, as an array of ``a``'s shape.

    Cephes' scheme, as in ``scipy.special.ndtr``: with ``x = a / sqrt(2)``,
    ``(1 + erf(x)) / 2`` for ``|x| < 1/sqrt(2)``, else ``erfc(|x|) / 2``,
    taken from 1 for ``x > 0``; ``erfc`` is ``1 - erf`` below 1.  The
    regions are gathered and computed separately, so each element costs
    one rational function.  NaN gives NaN.
    """
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    y = np.zeros_like(x)
    core = z < 1.0
    i = np.flatnonzero(core)
    if i.size:
        xi = x[i]
        v = xi * xi
        erf = xi * _polevl(v, _ERF_T) / _polevl(v, _ERF_U)
        y[i] = np.where(z[i] < _SQRT1_2, 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    # past _ERFC_ZERO y stays 0 (1 after the flip); NaN takes the last
    # region, whose mask is written to admit it, and stays NaN
    below_8 = z < 8.0
    for rows, num, den in ((~core & below_8, _ERFC_P, _ERFC_Q),
                           (~below_8 & ~(z > _ERFC_ZERO), _ERFC_R, _ERFC_S)):
        i = np.flatnonzero(rows)
        if i.size:
            zi = z[i]
            y[i] = 0.5 * (np.exp(-zi * zi) * _polevl(zi, num) / _polevl(zi, den))
    np.subtract(1.0, y, out=y, where=x >= _SQRT1_2)
    return y.reshape(a.shape)


def _lognormal_logpdf(y, s):
    """Log density of the standard lognormal of log-sd ``s`` at ``y > 0``."""
    return -np.log(y) ** 2 / (2 * (s * s)) - np.log(s * y * _SQRT_2PI)


def _nan_where(x, out):
    """NaN wherever ``x`` is NaN (the mask comparisons alone give 0 or -inf)."""
    return np.where(np.isnan(x), np.nan, out)


@dataclass(frozen=True)
class Marginal:
    """One-dimensional input distribution.

    Parameters are stored in natural units:

    ``normal``
        ``loc`` is the mean, ``scale`` the standard deviation.
    ``lognormal``
        ``loc`` and ``scale`` are the mean and standard deviation of the
        underlying normal, i.e. ``log X ~ N(loc, scale**2)``.
    ``uniform``
        ``loc`` is the lower edge, ``scale`` the width.

    The densities are closed forms on numpy arrays.  Each kind is a
    standard form in ``z = (x - a) / b``: ``a, b = loc, scale`` for the
    normal and the uniform, ``a, b = 0, exp(loc)`` for the lognormal.

    ``normal``
        ``log f = -z**2/2 - log(2 pi)/2 - log b``; ``F = ndtr(z)``;
        ``F^-1(u) = ndtri(u) b + a``.
    ``lognormal``
        ``log f = -log(z)**2 / (2 s**2) - log(s z sqrt(2 pi)) - log b``
        with ``s = scale``; ``F = ndtr(log(z) / s)``;
        ``F^-1(u) = exp(s ndtri(u)) b``.
    ``uniform``
        ``log f = -log b``; ``F = clip(z, 0, 1)``; ``F^-1(u) = u b + a``.

    ``ndtr`` is this module's numpy form of Cephes' normal cdf, within a
    few units in the last place of ``scipy.special.ndtr``; ``ndtri`` is
    scipy's, imported inside :meth:`quantile`.  Support and edge
    conventions are scipy.stats' to the last bit: the lognormal support
    is ``x > 0``, so ``logpdf`` is ``-inf`` at ``x <= 0``; the uniform
    support is the closed interval ``0 <= z <= 1``; ``quantile`` is
    ``nan`` outside ``[0, 1]`` and gives the support ends,
    ``-inf``/``inf`` (``0`` for the lognormal, ``loc``/``loc + scale``
    for the uniform), at ``u = 0, 1``; NaN in gives NaN out.
    """

    kind: str
    loc: float
    scale: float

    def __post_init__(self):
        if self.kind not in _MARGINAL_KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}, expected one of {_MARGINAL_KINDS}")
        if not (np.isfinite(self.loc) and np.isfinite(self.scale)):
            raise ValueError("marginal parameters must be finite")
        if self.scale <= 0:
            raise ValueError(f"marginal scale must be strictly positive, got {self.scale}")

    def _affine(self) -> tuple[float, float]:
        """``(a, b)`` with ``x = a + b * z`` for the standard form ``z``."""
        if self.kind == "lognormal":
            return 0.0, math.exp(self.loc)
        return self.loc, self.scale

    def _standard(self, x):
        a, b = self._affine()
        return (np.asarray(x, dtype=float) - a) / b, b

    # Each method ends in ``[()]``: a 0-d result becomes a numpy scalar,
    # as from scipy, and an array is returned as it is.

    def logpdf(self, x):
        z, b = self._standard(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "normal":
                out = -z ** 2 / 2.0 - _LOG_SQRT_2PI
            elif self.kind == "lognormal":
                out = np.where(z <= 0.0, -np.inf, _lognormal_logpdf(z, self.scale))
            else:
                out = _nan_where(z, np.where((z >= 0.0) & (z <= 1.0), 0.0, -np.inf))
            return (out - np.log(b))[()]

    def pdf(self, x):
        z, b = self._standard(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "normal":
                out = np.exp(-z ** 2 / 2.0) / _SQRT_2PI
            elif self.kind == "lognormal":
                out = np.where(z <= 0.0, 0.0, np.exp(_lognormal_logpdf(z, self.scale)))
            else:
                out = _nan_where(z, np.where((z >= 0.0) & (z <= 1.0), 1.0, 0.0))
            return (out / b)[()]

    def cdf(self, x):
        z, _ = self._standard(x)
        if self.kind == "normal":
            return ndtr(z)[()]
        if self.kind == "lognormal":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(z <= 0.0, 0.0, ndtr(np.log(z) / self.scale))[()]
        return np.clip(z, 0.0, 1.0)[()]

    def quantile(self, u):
        from scipy.special import ndtri

        u = np.asarray(u, dtype=float)
        a, b = self._affine()
        if self.kind == "normal":
            z = ndtri(u)
        elif self.kind == "lognormal":
            z = np.exp(self.scale * ndtri(u))
        else:
            z = np.where((u >= 0.0) & (u <= 1.0), u, np.nan)
        return (z * b + a)[()]


@dataclass(frozen=True)
class InputModel:
    """Joint law of the input vector, as a map from latent standard normals.

    ``dependence`` is either ``"independent"`` or ``"gaussian"``.  In the
    gaussian case the coupling is a Gaussian copula whose correlation is
    read off ``covariance`` (off-diagonal entries scaled by the diagonal);
    with all-normal marginals this is exactly the multivariate normal
    with that covariance.

    Every input vector is ``x = T(u)`` for a latent vector ``u`` of
    independent standard normals (:meth:`from_latent`).  ``T`` first
    applies the Cholesky factor of the copula correlation, ``z = L u``
    (``z = u`` for independent inputs), then maps each coordinate by its
    kind: ``loc + scale * z`` for a normal, ``exp(loc + scale * z)`` for
    a lognormal (directly, so nothing rounds through ``ndtr`` in the
    tail) and ``loc + scale * ndtr(z)`` for a uniform.  The splitting
    sampler moves ``u``; the model only ever sees ``x``.

    :meth:`sample` is ``T`` applied to standard normal draws.  For
    independent inputs the draws fill one column after the other: column
    ``i`` is ``T`` of the ``i``-th block of ``n`` standard normals from
    the generator.

    Two models are equal when their marginals, dependence and covariance
    entries are; the covariance is compared (and hashed) through a tuple
    of its rows, so no array comparison is ever asked for a truth value.
    """

    marginals: tuple[Marginal, ...]
    dependence: str = "independent"
    covariance: np.ndarray | None = field(default=None, compare=False)
    _covariance_rows: tuple[tuple[float, ...], ...] | None = field(
        default=None, init=False, repr=False)
    _correlation_chol: np.ndarray | None = field(default=None, repr=False, compare=False)
    # What ``T`` needs, built once: per-coordinate ``loc`` and ``scale``,
    # the lognormal column mask and the uniform column indices.
    _locs: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _scales: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _lognormal: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _uniform_cols: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        marginals = tuple(self.marginals)
        object.__setattr__(self, "marginals", marginals)
        if len(marginals) < 1:
            raise ValueError("input model needs at least one marginal")
        if self.dependence not in ("independent", "gaussian"):
            raise ValueError(f"unknown dependence kind {self.dependence!r}")
        if self.dependence == "gaussian":
            if self.covariance is None:
                raise ValueError("gaussian dependence requires a covariance matrix")
            cov = np.asarray(self.covariance, dtype=float)
            d = len(marginals)
            if cov.shape != (d, d):
                raise ValueError(f"covariance must be {d}x{d}, got {cov.shape}")
            if not np.all(np.isfinite(cov)):
                raise ValueError("covariance entries must be finite")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError("covariance must be symmetric")
            if np.any(np.diag(cov) <= 0):
                raise ValueError("covariance diagonal must be strictly positive")
            sd = np.sqrt(np.diag(cov))
            corr = cov / np.outer(sd, sd)
            try:
                chol = np.linalg.cholesky(corr)
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance must be positive definite") from exc
            object.__setattr__(self, "covariance", cov)
            object.__setattr__(self, "_covariance_rows", tuple(map(tuple, cov.tolist())))
            object.__setattr__(self, "_correlation_chol", chol)
        elif self.covariance is not None:
            raise ValueError("covariance is only meaningful with gaussian dependence")
        kinds = np.array([m.kind for m in marginals])
        object.__setattr__(self, "_locs", np.array([m.loc for m in marginals]))
        object.__setattr__(self, "_scales", np.array([m.scale for m in marginals]))
        object.__setattr__(self, "_lognormal", kinds == "lognormal")
        object.__setattr__(self, "_uniform_cols", np.flatnonzero(kinds == "uniform"))

    @property
    def dimension(self) -> int:
        return len(self.marginals)

    def from_latent(self, u: np.ndarray) -> np.ndarray:
        """``x = T(u)`` for each row of the ``(n, d)`` latent array ``u``."""
        z = u if self._correlation_chol is None else u @ self._correlation_chol.T
        x = self._locs + self._scales * z
        if self._lognormal.all():
            np.exp(x, out=x)
        elif self._lognormal.any():
            np.exp(x, out=x, where=self._lognormal)
        if self._uniform_cols.size:
            cols = self._uniform_cols
            x[:, cols] = self._locs[cols] + self._scales[cols] * ndtr(z[:, cols])
        return x

    def sample_latent(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` latent standard normal rows, in :meth:`sample`'s draw order."""
        if self.dependence == "independent":
            return rng.standard_normal((self.dimension, n)).T
        return rng.standard_normal((n, self.dimension))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.from_latent(self.sample_latent(n, rng))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Joint log density at each row of ``x`` (``-inf`` off-support)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.column_stack([m.logpdf(x[:, i]) for i, m in enumerate(self.marginals)])
            out = logs.sum(axis=1)
            if self.dependence == "gaussian":
                from scipy.linalg import solve_triangular
                from scipy.special import ndtri

                inside = np.isfinite(out)
                z = np.empty_like(x)
                for i, m in enumerate(self.marginals):
                    z[:, i] = ndtri(np.clip(m.cdf(x[:, i]), 1e-300, 1.0 - 1e-16))
                chol = self._correlation_chol
                zin = z[inside]
                y = solve_triangular(chol, zin.T, lower=True).T
                quad_form = 0.5 * (np.sum(zin * zin, axis=1) - np.sum(y * y, axis=1))
                logdet = np.sum(np.log(np.diag(chol)))
                out[inside] = out[inside] + quad_form - logdet
        return out


@dataclass(frozen=True)
class FailureEvent:
    """Failure event ``{Y > threshold}``; the orientation is fixed."""

    threshold: float

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    def indicator(self, y) -> np.ndarray:
        return np.asarray(y) > self.threshold


class BlackBox:
    """Deterministic scalar model with exact call accounting.

    ``fn`` is vectorised: it maps an ``(n, d)`` array to ``n`` outputs.
    ``evaluate_batch`` applies it once per batch and increments the call
    counter by ``n``; ``evaluate`` is a one-row batch, counted once.  A
    wrong output count and a non-finite output raise
    :class:`EvaluationError` instead of being passed on.  Every box has
    ``close``, which ``with`` calls; here it has nothing to release.
    """

    def __init__(self, fn: Callable, dimension: int, name: str = ""):
        self._fn = fn
        self.dimension = int(dimension)
        self.name = name
        self._count = 0

    @property
    def call_count(self) -> int:
        return self._count

    def evaluate(self, x) -> float:
        return float(self.evaluate_batch(np.reshape(np.asarray(x, dtype=float), (1, -1)))[0])

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        if x.shape[1] != self.dimension:
            raise ValueError(f"expected {self.dimension} inputs, got {x.shape[1]}")
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            y = np.asarray(self._fn(x), dtype=float).reshape(-1)
        self._count += n
        if y.shape[0] != n:
            raise EvaluationError(
                f"model {self.name!r} returned {y.shape[0]} outputs for {n} inputs")
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise EvaluationError(
                f"non-finite output {float(y[bad])!r} from model {self.name!r} "
                f"at input {x[bad].tolist()}")
        return y

    def close(self):
        """Release what the model holds; a plain function holds nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return f"BlackBox(name={self.name!r}, dimension={self.dimension}, calls={self._count})"


def _toy1_batch(x):
    return x[:, 0] + (x[:, 0] > 3.0) * np.abs(x[:, 1])


def _chi2_batch(x):
    return x[:, 0] + x[:, 1] ** 2


def _sdof_batch(x):
    c1, c2, r, m, t, f = (x[:, i] for i in range(6))
    k = c1 + c2
    return -3.0 * r + np.abs(2.0 * f / k * np.sin(np.sqrt(k / m) * t / 2.0))


# name -> (batch function, marginals, threshold)
_BUILTINS = {
    "toy1": (_toy1_batch,
             (Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, math.sqrt(5.0))), 3.0),
    "additive_chi2": (_chi2_batch,
                      (Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, 1.0)), 15.0),
    "sdof_oscillator": (_sdof_batch,
                        (Marginal("lognormal", 2.0, 0.2),    # first spring stiffness
                         Marginal("lognormal", 0.2, 0.02),   # second spring stiffness
                         Marginal("lognormal", 0.6, 0.05),   # displacement capacity
                         Marginal("lognormal", 1.0, 0.05),   # mass
                         Marginal("lognormal", 1.0, 0.2),    # observation time
                         Marginal("lognormal", 1.0, 0.2)),   # load amplitude
                        0.0),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_model(name: str) -> tuple[BlackBox, InputModel, FailureEvent]:
    """Return one of the built-in benchmarks as (black box, inputs, event).

    Available names: ``toy1`` (indicator-gated additive model, failure at 3),
    ``additive_chi2`` (normal plus squared normal, failure at 15) and
    ``sdof_oscillator`` (six lognormal inputs, failure at 0).
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin model {name!r}, expected one of {sorted(_BUILTINS)}")
    fn, marginals, threshold = _BUILTINS[name]
    return BlackBox(fn, len(marginals), name), InputModel(marginals), FailureEvent(threshold)
