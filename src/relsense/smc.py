"""Adaptive multilevel splitting for rare events, with a final sampling pass.

The sampler works in latent standard-normal coordinates: every particle
is a vector ``u`` of independent standard normals, and the black box is
evaluated at the input ``x = T(u)`` of :meth:`InputModel.from_latent`.
The input law is then the same standard normal whatever the marginals
and the copula, so both proposals need nothing of the input model but
``T``: the random walk proposes ``u + step z``, one latent ``step`` for
every coordinate, with density ratio ``exp((|u|**2 - |u'|**2) / 2)``,
and Crank-Nicolson proposes ``sqrt(1 - a) u + sqrt(a) z``.

The probability phase tracks a cloud of ``n_particles`` inputs through an
adaptive ladder of intermediate levels: at each level the lower
``rho``-quantile of the current outputs becomes the next threshold, the
particles strictly above it are duplicated back to full size, and every
particle is moved by ``mutation_steps`` Metropolis-Hastings transitions
that leave the input law restricted to the current level invariant.  The
failure probability estimate is the product of the observed per-level
survival fractions.  After each mutation phase the proposal is rescaled
from the acceptance rate it produced (:func:`adapt_kernel`), so the
kernel follows the shrinking level sets.  The sampling phase then
duplicates the final survivors into ``final_sample_size`` chains and
applies ``final_mh_steps`` more transitions of the last adapted kernel
targeting the failure region itself, producing an (approximately
independent) conditioned sample for the sensitivity estimators.  Every
level and the final phase select and move through one step,
:func:`_select_and_move`, the sampler's only resampling site.

The two phases' call counts are read off the black-box call counter.
Every latent candidate maps into the input support and costs one call:
``n_particles * (1 + n_levels * mutation_steps)`` in the probability
phase and ``final_sample_size * final_mh_steps`` in the sampling phase.
Only the tests and the benchmark check that identity; a run does not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import BlackBox, FailureEvent, InputModel
from .seeding import stream

__all__ = [
    "SmcError",
    "CrankNicolsonKernel",
    "GaussianRandomWalkKernel",
    "SmcParams",
    "SmcResult",
    "run_adaptive_smc",
    "adapt_kernel",
    "final_sampling",
]

# Stream ids under the run seed.
_INIT, _LEVEL, _FINAL = 0, 1, 2

# Acceptance rates a tuned kernel should produce, up to the binomial noise
# of a phase's proposals (:func:`_outside_band`).
ACCEPTANCE_BAND = (0.15, 0.40)

# Rate the per-level kernel adaptation steers toward: inside the band, near
# its top.  With a few final steps a higher rate leaves fewer duplicated
# chains unmoved, and duplicates read as spurious input/output dependence.
ACCEPTANCE_TARGET = 0.35

# Largest Crank-Nicolson mixing weight the adaptation may reach (a = 1
# would propose independent draws from the input law).
_CN_MAX_A = 0.99


class SmcError(RuntimeError):
    """The splitting run cannot continue (stagnation, dead chains, ...)."""


@dataclass(frozen=True)
class CrankNicolsonKernel:
    """Autoregressive Gaussian proposal in latent coordinates.

    A candidate is ``sqrt(1-a) * u + sqrt(a) * z`` with ``z`` standard
    normal, for any input model.  The proposal is reversible for the
    latent standard normal law, so the acceptance rule reduces to the
    level indicator.
    """

    a: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"mixing weight a must lie in (0, 1), got {self.a}")


@dataclass(frozen=True)
class GaussianRandomWalkKernel:
    """Symmetric random-walk proposal in latent coordinates.

    A candidate adds centered Gaussian noise of standard deviation
    ``step`` to every coordinate of ``u`` (latent units, so ``1`` is one
    standard deviation of every input); the acceptance rule uses the
    latent density ratio ``exp((|u|**2 - |u'|**2) / 2)`` times the level
    indicator.
    """

    step: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and strictly positive, got {self.step}")


Kernel = CrankNicolsonKernel | GaussianRandomWalkKernel


def adapt_kernel(kernel: Kernel, rate: float) -> Kernel:
    """Rescale a proposal from the acceptance rate it just produced.

    One step of the per-level adaptation of Papaioannou, Betz, Zwirglmaier
    & Straub (2015): the step size (``sqrt(a)`` for Crank-Nicolson,
    ``step`` for the random walk) is multiplied by
    ``exp(rate - ACCEPTANCE_TARGET)``, so too many acceptances lengthen
    the steps and too few shorten them.
    """
    factor = math.exp(rate - ACCEPTANCE_TARGET)
    if isinstance(kernel, CrankNicolsonKernel):
        return CrankNicolsonKernel(min(kernel.a * factor * factor, _CN_MAX_A))
    return GaussianRandomWalkKernel(kernel.step * factor)


@dataclass(frozen=True)
class SmcParams:
    """Tuning parameters of one splitting run.

    ``rho`` is the quantile level of the adaptive thresholds: at each
    selection the level is the ``rho``-quantile (from below) of the
    current outputs and the particles strictly above it survive, so a
    fraction of about ``1 - rho`` of the cloud is kept per level.
    """

    n_particles: int
    rho: float
    mutation_steps: int
    final_sample_size: int
    final_mh_steps: int
    kernel: Kernel
    max_levels: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.mutation_steps < 1:
            raise ValueError("mutation_steps must be at least 1")
        if self.final_sample_size < 1:
            raise ValueError("final_sample_size must be at least 1")
        if self.final_mh_steps < 0:
            raise ValueError("final_mh_steps must be non-negative")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        k = math.ceil(self.rho * self.n_particles)
        if not (1 <= k <= self.n_particles - 1):
            raise ValueError(
                f"rho={self.rho} with n_particles={self.n_particles} leaves no room "
                "for both discarded and surviving particles")
        if not isinstance(self.kernel, (CrankNicolsonKernel, GaussianRandomWalkKernel)):
            raise ValueError("kernel must be a CrankNicolsonKernel or GaussianRandomWalkKernel")


@dataclass(frozen=True)
class SmcResult:
    """Output of one splitting run.

    ``levels`` holds every adaptive threshold in order; the last one
    exceeds the failure threshold, and ``n_levels`` counts the mutation
    phases actually performed (``len(levels) - 1``).  ``n_survivors``
    counts the last cloud's particles above the failure threshold, the
    seeds that every chain of the conditioned sample grows from; it is
    the numerator of ``p_f_hat``'s last survival fraction.
    """

    conditioned_sample: np.ndarray
    conditioned_outputs: np.ndarray
    p_f_hat: float
    n_survivors: int
    levels: tuple[float, ...]
    n_levels: int
    calls_probability_phase: int
    calls_sampling_phase: int
    acceptance_rates: tuple[float, ...]
    final_acceptance_rate: float | None

    @property
    def calls_total(self) -> int:
        return self.calls_probability_phase + self.calls_sampling_phase

    def __post_init__(self):
        for name in ("conditioned_sample", "conditioned_outputs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _outside_band(rate, trials):
    """Whether an acceptance rate over ``trials`` proposals lies outside
    :data:`ACCEPTANCE_BAND` by more than two binomial standard errors of
    that many trials at the nearer edge."""
    lo, hi = ACCEPTANCE_BAND
    return (rate < lo - 2.0 * math.sqrt(lo * (1.0 - lo) / trials)
            or rate > hi + 2.0 * math.sqrt(hi * (1.0 - hi) / trials))


def _chain_sweep(u, y, gamma, steps, box, model, kernel, rng):
    """Advance every latent row of ``u`` by ``steps`` MH transitions
    targeting the standard normal law restricted to ``{M(T(u)) > gamma}``.
    Returns the moved rows, their outputs and the observed acceptance
    rate."""
    n, d = u.shape
    u, y = u.copy(), y.copy()
    accepted = 0
    cn = isinstance(kernel, CrankNicolsonKernel)
    if cn:
        keep, mix = math.sqrt(1.0 - kernel.a), math.sqrt(kernel.a)
        log_ratio = 0.0
    else:
        half_sq = 0.5 * np.einsum("ij,ij->i", u, u)
    for _ in range(steps):
        z = rng.standard_normal((n, d))
        r = rng.random(n)
        if cn:
            cand = keep * u + mix * z
        else:
            cand = u + z * kernel.step
            cand_half_sq = 0.5 * np.einsum("ij,ij->i", cand, cand)
            log_ratio = half_sq - cand_half_sq
        y_cand = box.evaluate_batch(model.from_latent(cand))
        accept = (y_cand > gamma) & (np.log(np.maximum(r, 1e-300)) <= log_ratio)
        np.copyto(u, cand, where=accept[:, None])
        np.copyto(y, y_cand, where=accept)
        if not cn:
            np.copyto(half_sq, cand_half_sq, where=accept)
        accepted += int(np.count_nonzero(accept))
    return u, y, accepted / float(n * steps)


def _select_and_move(u, y, gamma, n, steps, box, model, kernel, rng):
    """Draw ``n`` rows uniformly with replacement among the rows of ``u``
    whose outputs ``y`` lie strictly above ``gamma`` and move them by
    :func:`_chain_sweep`.  Returns the count above ``gamma``, the moved rows,
    their outputs and the acceptance rate (``None`` for zero steps)."""
    surv = np.flatnonzero(y > gamma)
    if surv.size == 0:
        raise SmcError(f"empty survivor set: no particles strictly above {gamma}")
    rows = surv[rng.integers(0, surv.size, size=n)]
    if steps == 0:
        return surv.size, u[rows], y[rows], None
    return surv.size, *_chain_sweep(u[rows], y[rows], gamma, steps, box, model, kernel, rng)


def final_sampling(survivors_u, survivors_y, blackbox, input_model, event,
                   n_sample, n_steps, kernel, rng):
    """Grow a conditioned sample of size ``n_sample`` from the survivors.

    ``survivors_u`` are latent rows (see :meth:`InputModel.from_latent`)
    and ``survivors_y`` their outputs.  The survivors are first
    restricted to ``{Y > threshold}``, duplicated uniformly with
    replacement, then moved by ``n_steps`` MH transitions targeting the
    failure region.  Returns the inputs ``x = T(u)``, their outputs and
    the acceptance rate; with ``n_steps = 0`` the duplicated rows are
    returned unmoved and the rate is ``None``.  ``T`` maps each row on its
    own, so every returned ``x`` is bit for bit the input its output was
    computed at.
    """
    survivors_u = np.atleast_2d(np.asarray(survivors_u, dtype=float))
    survivors_y = np.asarray(survivors_y, dtype=float).reshape(-1)
    _, u, y, rate = _select_and_move(survivors_u, survivors_y, event.threshold,
                                     int(n_sample), int(n_steps), blackbox, input_model,
                                     kernel, rng)
    return input_model.from_latent(u), y, rate


def run_adaptive_smc(blackbox: BlackBox, input_model: InputModel,
                     event: FailureEvent, params: SmcParams) -> SmcResult:
    """Run the full two-phase campaign and return an :class:`SmcResult`.

    Raises :class:`SmcError` on level stagnation, on exceeding
    ``max_levels``, or when a mutation phase accepts nothing (dead
    chains make the duplicated cloud degenerate).
    """
    if blackbox.dimension != input_model.dimension:
        raise ValueError("black box and input model disagree on the dimension")
    kernel = params.kernel
    n_x = params.n_particles
    s = event.threshold
    k_rank = math.ceil(params.rho * n_x)

    calls_before = blackbox.call_count
    u = input_model.sample_latent(n_x, stream(params.seed, _INIT))
    y = blackbox.evaluate_batch(input_model.from_latent(u))

    levels: list[float] = []
    fractions: list[float] = []
    acceptance: list[float] = []
    # phases the adaptation answers for: not the first, which runs the
    # configured kernel, nor one whose Crank-Nicolson step is already the
    # largest allowed while its rate is above the band (an easy level)
    tunable: list[bool] = []
    while True:
        gamma = float(np.sort(y)[k_rank - 1])
        levels.append(gamma)
        if gamma > s:
            break
        p = len(levels) - 1
        if p >= params.max_levels:
            raise SmcError(f"no level above the threshold {s} after {params.max_levels} "
                           f"levels (last level {gamma}); the event may be too rare for "
                           "these parameters")
        if p >= 1 and gamma <= levels[-2]:
            raise SmcError(f"level stagnation: level {p} at {gamma} does not improve on "
                           f"{levels[-2]}; outputs may be discrete or chains are stuck")
        n_surv, u, y, rate = _select_and_move(u, y, gamma, n_x, params.mutation_steps,
                                              blackbox, input_model, kernel,
                                              stream(params.seed, _LEVEL, p))
        fractions.append(n_surv / n_x)
        acceptance.append(rate)
        tunable.append(p > 0 and not (isinstance(kernel, CrankNicolsonKernel)
                                      and kernel.a >= _CN_MAX_A
                                      and rate > ACCEPTANCE_BAND[1]))
        if rate == 0.0:
            raise SmcError(f"Metropolis-Hastings acceptance collapsed to zero at level {p} "
                           f"(gamma={gamma}); the kernel step is too large or the region "
                           "is disconnected")
        kernel = adapt_kernel(kernel, rate)
    n_levels = len(levels) - 1
    calls_probability = blackbox.call_count - calls_before

    trials = n_x * params.mutation_steps
    out_band = [r for r, t in zip(acceptance, tunable) if t and _outside_band(r, trials)]
    if out_band:
        worst = max(out_band, key=lambda r: min(abs(r - b) for b in ACCEPTANCE_BAND))
        warnings.warn(
            f"{len(out_band)} of {len(acceptance)} mutation phases had acceptance rates "
            f"outside [{ACCEPTANCE_BAND[0]}, {ACCEPTANCE_BAND[1]}] after adaptation, "
            f"by more than two standard errors of {trials} proposals "
            f"(worst {worst:.3f}); consider retuning the kernel", stacklevel=2)

    n_survivors = int(np.count_nonzero(y > s))
    p_f_hat = float(np.prod(fractions) * (n_survivors / n_x))

    cs, co, final_rate = final_sampling(u, y, blackbox, input_model, event,
                                        params.final_sample_size, params.final_mh_steps,
                                        kernel, stream(params.seed, _FINAL))
    calls_sampling = blackbox.call_count - calls_before - calls_probability

    return SmcResult(conditioned_sample=cs, conditioned_outputs=co, p_f_hat=p_f_hat,
                     n_survivors=n_survivors,
                     levels=tuple(levels), n_levels=n_levels,
                     calls_probability_phase=int(calls_probability),
                     calls_sampling_phase=int(calls_sampling),
                     acceptance_rates=tuple(acceptance),
                     final_acceptance_rate=final_rate)
