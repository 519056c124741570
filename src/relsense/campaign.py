"""Campaign orchestration: config files, replications, and reports.

A campaign repeats the whole estimation pipeline (conditioned sampling,
density fits, index evaluation) ``replications`` times with
counter-derived seeds, then aggregates the per-replication tables into
means, standard deviations and ranks.  Everything a run needs is read
from a single JSON config document, so a report can be regenerated
bit-identically from the pair (config, master seed).

The JSON grammar, by section (sections marked "optional" fall back to
the defaults shown)::

    {
      "model":  {"builtin": "toy1"}
                or {"command": ["python3", "my_model.py"], "dimension": 6},
      "inputs": {                                  # optional for builtins
        "marginals": [
          {"kind": "normal",    "mean": 0.0, "sd": 1.0},
          {"kind": "lognormal", "log_mean": 2.0, "log_sd": 0.2},
          {"kind": "uniform",   "low": 0.0, "high": 1.0}
        ],
        "dependence": "independent"                # or {"type": "gaussian",
                                                   #     "covariance": [[...], ...]}
        "names": ["k_p", "zeta"]                   # optional labels
      },
      "event": {"threshold": 3.0},                 # optional for builtins
      "smc": {
        "n_particles": 1000, "rho": 0.25, "mutation_steps": 5,
        "final_sample_size": 3000, "final_mh_steps": 5,
        "kernel": {"type": "crank_nicolson", "a": 0.5}
                  or {"type": "random_walk", "step_sds": [...] or "match_input"},
                                                   # both act on the latent standard
                                                   # normals; step_sds are in latent
                                                   # units, and match_input means 1
        "max_levels": 100                          # optional
      },
      "density": {                                 # optional
        "marginal_exponents": [0.5, 1.0, 1.5],     # default: chosen per fit
        "copula_exponents":   [0.5, 1.0, 1.5]      #   by BIC from a ladder
      },
      "indices": {                                 # optional
        "divergence": "total_variation"            # or "kullback_leibler"
      },
      "replications": 100,
      "seed": 0
    }

Any key the grammar does not name is a finding, and so are the retired
``indices.n_draws`` and ``indices.eta_method``: every index is
integrated on the fitted densities' quadrature grids, so there are no
index draws to size and no second method to choose.  So is any number
that is not finite: ``json`` reads ``NaN`` and ``Infinity``, and an
integer beyond the float range counts as infinite.

Replication ``r`` draws its splitting seed from the stream keyed
``(REPLICATION, r)`` under the master seed; the indices are deterministic
functions of the conditioned sample.  The stream is counter-based, so
raising the replication count later leaves earlier replications bitwise
unchanged, and running with ``jobs > 1`` returns exactly the sequential
result.
"""

from __future__ import annotations

import concurrent.futures
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .external import external_blackbox
from .indices import (DivergenceSpec, IndexReport, aggregate_replications,
                      clip_unit, csiszar_marginal_index, delta_index,
                      rank_descending, scaled_target_index,
                      sobol_indicator_index)
from .maxent import fit_copula, fit_density
from .model import (BUILTIN_NAMES, BlackBox, FailureEvent, InputModel, Marginal,
                    builtin_model)
from .seeding import REPLICATION, seed_sequence
from .smc import (CrankNicolsonKernel, GaussianRandomWalkKernel, SmcParams,
                  run_adaptive_smc)

__all__ = [
    "CampaignConfig", "CampaignReport", "CampaignRuntimeError", "ConfigError",
    "FAMILY_ORDER", "load_config", "parse_config", "read_config", "run_campaign",
    "run_replication", "validate_config", "write_outputs",
]

# Families reported by every campaign, in table and CSV order.
FAMILY_ORDER = ("delta_f", "eta_bar", "eta", "sobol_indicator")


_DIVERGENCES = {
    "total_variation": DivergenceSpec.total_variation,
    "kullback_leibler": DivergenceSpec.kullback_leibler,
}

_RETIRED_INDEX_KEYS = {
    "n_draws": "indices.n_draws is retired: every index is integrated on the "
               "fitted densities' quadrature grids, so there are no Monte Carlo "
               "draws to size",
    "eta_method": "indices.eta_method is retired: eta_bar is integrated on the "
                  "fitted density's quadrature grid for every divergence",
}


class ConfigError(ValueError):
    """A config document failed validation; ``findings`` lists every problem."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))


class CampaignRuntimeError(RuntimeError):
    """A replication failed while running; the message names it and its seed."""


@dataclass(frozen=True)
class CampaignConfig:
    """Validated campaign description.

    ``builtin`` and ``command`` are mutually exclusive; ``smc.seed`` is a
    placeholder that gets replaced per replication.  Exponent sets of
    ``None`` let every fit choose its own by BIC (see
    :func:`~relsense.maxent.fit_density`).  ``raw`` keeps the source
    document, echoed into reports; nothing else reads it.
    :func:`parse_config` builds the config in one pass over that
    document; :func:`validate_config` runs the same pass and returns its
    findings.
    """

    builtin: str | None
    command: tuple[str, ...] | None
    input_model: InputModel
    input_names: tuple[str, ...]
    event: FailureEvent
    smc: SmcParams
    marginal_exponents: tuple[float, ...] | None
    copula_exponents: tuple[float, ...] | None
    divergence: str
    replications: int
    master_seed: int
    raw: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.input_model.dimension

    @property
    def model_label(self) -> str:
        return self.builtin if self.builtin else " ".join(self.command)


def _get_section(raw, name, findings, required=True):
    sec = raw.get(name)
    if sec is None:
        if required:
            findings.append(f"{name} section required")
        return None
    if not isinstance(sec, dict):
        findings.append(f"{name} must be an object")
        return None
    return sec


def _check_keys(sec, path, known, findings):
    """A finding for every key of ``sec`` that no parser reads."""
    findings.extend(f"unknown key {key!r} in {path}" for key in sec if key not in known)


def _is_number(value) -> bool:
    """Whether a JSON value is a number; ``true``/``false`` and strings are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether a JSON number is finite as a float; an integer beyond the
    float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _get_number(sec, path, findings, *, required=True, default=None,
                integer=False, minimum=None, maximum=None, strict_min=False):
    name = path.rsplit(".", 1)[-1]
    if sec is None:
        return default
    if name not in sec:
        if required:
            findings.append(f"{path} required")
        return default
    value = sec[name]
    if not _is_number(value):
        findings.append(f"{path} must be a number, got {value!r}")
        return default
    if not _finite(value):
        findings.append(f"{path} must be finite, got {value}")
        return default
    if integer and int(value) != value:
        findings.append(f"{path} must be an integer, got {value!r}")
        return default
    value = int(value) if integer else float(value)
    if minimum is not None and (value <= minimum if strict_min else value < minimum):
        op = ">" if strict_min else ">="
        findings.append(f"{path} must be {op} {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        findings.append(f"{path} must be <= {maximum}, got {value}")
        return default
    return value


def _parse_marginal(entry, path, findings):
    if not isinstance(entry, dict):
        findings.append(f"{path} must be an object")
        return None
    kind = entry.get("kind")
    if kind == "normal":
        _check_keys(entry, path, ("kind", "mean", "sd"), findings)
        loc = _get_number(entry, f"{path}.mean", findings)
        scale = _get_number(entry, f"{path}.sd", findings, minimum=0.0, strict_min=True)
    elif kind == "lognormal":
        _check_keys(entry, path, ("kind", "log_mean", "log_sd"), findings)
        loc = _get_number(entry, f"{path}.log_mean", findings)
        scale = _get_number(entry, f"{path}.log_sd", findings, minimum=0.0, strict_min=True)
    elif kind == "uniform":
        _check_keys(entry, path, ("kind", "low", "high"), findings)
        lo = _get_number(entry, f"{path}.low", findings)
        hi = _get_number(entry, f"{path}.high", findings)
        if lo is None or hi is None:
            return None
        if hi <= lo:
            findings.append(f"{path}.high must exceed {path}.low")
            return None
        loc, scale = lo, hi - lo
    else:
        findings.append(f"{path}.kind must be one of normal, lognormal, uniform, "
                        f"got {kind!r}")
        return None
    if loc is None or scale is None:
        return None
    try:
        return Marginal(kind, loc, scale)
    except ValueError as exc:
        findings.append(f"{path}: {exc}")
        return None


def _parse_inputs(raw, builtin_inputs, model_known, findings):
    sec = raw.get("inputs")
    if sec is None:
        if builtin_inputs is None and model_known:
            findings.append("inputs section required for external models")
            return None, None
        return builtin_inputs, None
    if not isinstance(sec, dict):
        findings.append("inputs must be an object")
        return None, None
    _check_keys(sec, "inputs", ("marginals", "dependence", "names"), findings)
    entries = sec.get("marginals")
    if not isinstance(entries, list) or not entries:
        findings.append("inputs.marginals must be a non-empty list")
        return None, None
    marginals = [_parse_marginal(e, f"inputs.marginals[{i}]", findings)
                 for i, e in enumerate(entries)]
    names = sec.get("names")
    if names is not None:
        if (not isinstance(names, list)
                or len(names) != len(entries)
                or not all(isinstance(n, str) and n for n in names)):
            findings.append("inputs.names must list one non-empty string per marginal")
            names = None
        elif len(set(names)) != len(names):
            findings.append("inputs.names must be unique")
            names = None
        else:
            names = tuple(names)
    if any(m is None for m in marginals):
        return None, names
    dep = sec.get("dependence", "independent")
    dependence, covariance = "independent", None
    if isinstance(dep, str):
        if dep != "independent":
            findings.append(f"inputs.dependence must be 'independent' or a gaussian "
                            f"object, got {dep!r}")
            return None, names
    elif isinstance(dep, dict):
        _check_keys(dep, "inputs.dependence", ("type", "covariance"), findings)
        if dep.get("type") != "gaussian":
            findings.append("inputs.dependence.type must be 'gaussian'")
            return None, names
        cov = dep.get("covariance")
        if cov is None:
            findings.append("inputs.dependence.covariance required")
            return None, names
        if not (isinstance(cov, list) and all(  # equally long rows of numbers
                isinstance(row, list) and len(row) == len(cov[0])
                and all(_is_number(v) for v in row) for row in cov)):
            findings.append(f"inputs.dependence.covariance must be a numeric matrix, "
                            f"got {cov!r}")
            return None, names
        if not all(_finite(v) for row in cov for v in row):
            findings.append(f"inputs.dependence.covariance must be finite, got {cov!r}")
            return None, names
        dependence, covariance = "gaussian", np.asarray(cov, dtype=float)
    else:
        findings.append("inputs.dependence must be a string or an object")
        return None, names
    try:
        return InputModel(tuple(marginals), dependence, covariance), names
    except (ValueError, np.linalg.LinAlgError) as exc:
        findings.append(f"inputs: {exc}")
        return None, names


def _parse_model(raw, findings):
    """``(builtin, command, dimension)``; ``dimension`` is a command's only."""
    sec = _get_section(raw, "model", findings)
    if sec is None:
        return None, None, None
    _check_keys(sec, "model", ("builtin", "command", "dimension"), findings)
    builtin, command = sec.get("builtin"), sec.get("command")
    if (builtin is None) == (command is None):
        findings.append("model must give exactly one of model.builtin or model.command")
        return None, None, None
    if builtin is not None:
        if builtin not in BUILTIN_NAMES:
            findings.append(f"model.builtin must be one of {', '.join(BUILTIN_NAMES)}, "
                            f"got {builtin!r}")
            return None, None, None
        return builtin, None, None
    if (not isinstance(command, list) or not command
            or not all(isinstance(c, str) and c for c in command)):
        findings.append("model.command must be a non-empty list of strings")
        return None, None, None
    dim = _get_number(sec, "model.dimension", findings, integer=True, minimum=1)
    return None, tuple(command), dim


def _parse_kernel(sec, input_model, findings):
    entry = sec.get("kernel")
    if not isinstance(entry, dict):
        findings.append("smc.kernel required (an object with a 'type' field)")
        return None
    kind = entry.get("type")
    if kind == "crank_nicolson":
        _check_keys(entry, "smc.kernel", ("type", "a"), findings)
        a = _get_number(entry, "smc.kernel.a", findings,
                        minimum=0.0, strict_min=True, maximum=1.0)
        if a is not None and a >= 1.0:
            findings.append(f"smc.kernel.a must be < 1, got {a}")
            return None
        if a is None:
            return None
        return CrankNicolsonKernel(a)
    if kind == "random_walk":
        _check_keys(entry, "smc.kernel", ("type", "step_sds"), findings)
        sds = entry.get("step_sds", "match_input")
        if sds == "match_input":
            if input_model is None:
                return None
            return GaussianRandomWalkKernel((1.0,) * input_model.dimension)
        if not isinstance(sds, list) or not sds:
            findings.append("smc.kernel.step_sds must be 'match_input' or a list")
            return None
        if input_model is not None and len(sds) != input_model.dimension:
            findings.append(f"smc.kernel.step_sds must list one value per input "
                            f"({input_model.dimension}), got {len(sds)}")
            return None
        if not all(_is_number(s) for s in sds):
            findings.append(f"smc.kernel.step_sds must be a list of numbers, got {sds!r}")
            return None
        if not all(_finite(s) for s in sds):
            findings.append(f"smc.kernel.step_sds must be finite, got {sds}")
            return None
        try:
            return GaussianRandomWalkKernel(tuple(float(s) for s in sds))
        except ValueError as exc:
            findings.append(f"smc.kernel.step_sds: {exc}")
            return None
    findings.append(f"smc.kernel.type must be 'crank_nicolson' or 'random_walk', "
                    f"got {kind!r}")
    return None


def _parse_smc(raw, input_model, findings):
    sec = _get_section(raw, "smc", findings)
    if sec is None:
        return None
    _check_keys(sec, "smc", ("n_particles", "rho", "mutation_steps", "final_sample_size",
                             "final_mh_steps", "kernel", "max_levels"), findings)
    n_particles = _get_number(sec, "smc.n_particles", findings, integer=True, minimum=2)
    rho = _get_number(sec, "smc.rho", findings)
    if rho is not None and not (0.0 < rho < 1.0):
        findings.append(f"smc.rho must lie in (0, 1), got {rho}")
        rho = None
    mutation_steps = _get_number(sec, "smc.mutation_steps", findings,
                                 integer=True, minimum=1)
    final_n = _get_number(sec, "smc.final_sample_size", findings,
                          integer=True, minimum=1)
    final_mh = _get_number(sec, "smc.final_mh_steps", findings,
                           integer=True, minimum=0)
    max_levels = _get_number(sec, "smc.max_levels", findings, required=False,
                             default=100, integer=True, minimum=1)
    kernel = _parse_kernel(sec, input_model, findings)
    if None in (n_particles, rho, mutation_steps, final_n, final_mh, kernel):
        return None
    try:
        return SmcParams(n_particles=n_particles, rho=rho,
                         mutation_steps=mutation_steps, final_sample_size=final_n,
                         final_mh_steps=final_mh, kernel=kernel,
                         max_levels=max_levels, seed=0)
    except ValueError as exc:
        findings.append(f"smc: {exc}")
        return None


def _parse_exponents(sec, path, findings):
    name = path.rsplit(".", 1)[-1]
    if sec is None or name not in sec:
        return None
    entry = sec[name]
    if (not isinstance(entry, list) or not entry
            or not all(_is_number(v) for v in entry)):
        findings.append(f"{path} must be a non-empty list of numbers")
        return None
    if not all(_finite(v) for v in entry):
        findings.append(f"{path} must be finite, got {entry}")
        return None
    exps = tuple(float(v) for v in entry)
    if any(e <= 0 for e in exps) or any(b <= a for a, b in zip(exps, exps[1:])):
        findings.append(f"{path} must be strictly increasing and positive")
        return None
    return exps


def _parse(raw) -> tuple[CampaignConfig | None, list[str]]:
    """One pass over a raw config document: ``(config, findings)``.

    Every section is read once, in a fixed order, and every problem is
    collected.  The config is built only when no problem was found;
    otherwise it is ``None``.
    """
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]
    findings: list[str] = []
    known = {"model", "inputs", "event", "smc", "density", "indices",
             "replications", "seed"}
    for key in raw:
        if key not in known:
            findings.append(f"unknown top-level section {key!r}")

    builtin, command, dimension = _parse_model(raw, findings)
    # neither a builtin nor a command: the model section is invalid, so
    # what the model needs from the other sections is unknown
    model_known = bool(builtin or command)
    builtin_inputs = event = None
    if builtin:
        _, builtin_inputs, event = builtin_model(builtin)
    input_model, names = _parse_inputs(raw, builtin_inputs, model_known, findings)
    if (command and input_model is not None and dimension is not None
            and input_model.dimension != dimension):
        findings.append(f"model.dimension is {dimension} but inputs.marginals "
                        f"lists {input_model.dimension}")
    if (builtin and input_model is not None
            and input_model.dimension != builtin_inputs.dimension):
        findings.append(f"model.builtin {builtin!r} takes "
                        f"{builtin_inputs.dimension} inputs but inputs.marginals "
                        f"lists {input_model.dimension}")

    event_sec = _get_section(raw, "event", findings, required=False)
    if event_sec is None:
        if event is None and model_known:
            findings.append("event.threshold required")
    else:
        _check_keys(event_sec, "event", ("threshold",), findings)
        threshold = _get_number(event_sec, "event.threshold", findings)
        event = None if threshold is None else FailureEvent(threshold)

    smc = _parse_smc(raw, input_model, findings)

    dens = _get_section(raw, "density", findings, required=False)
    _check_keys(dens or {}, "density", ("marginal_exponents", "copula_exponents"), findings)
    marginal_exponents = _parse_exponents(dens, "density.marginal_exponents", findings)
    copula_exponents = _parse_exponents(dens, "density.copula_exponents", findings)

    idx = _get_section(raw, "indices", findings, required=False) or {}
    findings.extend(_RETIRED_INDEX_KEYS[key] for key in idx if key in _RETIRED_INDEX_KEYS)
    _check_keys(idx, "indices", ("divergence", *_RETIRED_INDEX_KEYS), findings)
    divergence = idx.get("divergence", "total_variation")
    if not isinstance(divergence, str) or divergence not in _DIVERGENCES:
        findings.append(f"indices.divergence must be one of "
                        f"{', '.join(_DIVERGENCES)}, got {divergence!r}")

    replications = _get_number(raw, "replications", findings, integer=True, minimum=1)
    seed = _get_number(raw, "seed", findings, required=False, default=0,
                       integer=True, minimum=0, maximum=2**64 - 1)
    if findings:
        return None, findings
    return CampaignConfig(
        builtin=builtin,
        command=command,
        input_model=input_model,
        input_names=names or tuple(f"X{i + 1}" for i in range(input_model.dimension)),
        event=event,
        smc=smc,
        marginal_exponents=marginal_exponents,
        copula_exponents=copula_exponents,
        divergence=divergence,
        replications=replications,
        master_seed=seed,
        raw=raw,
    ), findings


def validate_config(raw: dict) -> list[str]:
    """Return every problem found in a raw config document (empty = valid)."""
    return _parse(raw)[1]


def parse_config(raw: dict) -> CampaignConfig:
    """Build a :class:`CampaignConfig`; raise :class:`ConfigError` if invalid."""
    config, findings = _parse(raw)
    if findings:
        raise ConfigError(findings)
    return config


def read_config(path) -> dict:
    """The raw JSON object of a config file; :class:`ConfigError` if unreadable."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc.strerror}"]) from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal too long for ``int``
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    return raw


def load_config(path) -> CampaignConfig:
    """Read and validate a JSON config file."""
    return parse_config(read_config(path))


def _make_blackbox(config: CampaignConfig) -> BlackBox:
    if config.builtin:
        box, _, _ = builtin_model(config.builtin)
        return box
    return external_blackbox(list(config.command), config.dimension)


def replication_seed(master_seed: int, rep: int) -> int:
    """Splitting seed for replication ``rep`` (counter-based, stable)."""
    return int(seed_sequence(master_seed, REPLICATION, rep)
               .generate_state(1, np.uint64)[0])


def run_replication(config: CampaignConfig, rep: int,
                    box: BlackBox | None = None) -> dict:
    """Run the full pipeline once and return the per-replication record.

    The record maps each family in :data:`FAMILY_ORDER` to a
    ``(values, clip_flags)`` pair plus scalars describing the splitting
    run (``p_f_hat``, level count, call split, acceptance rates).  Without
    a ``box`` it opens the config's model and closes it on return; a box
    passed in stays open.
    """
    if box is None:
        with _make_blackbox(config) as box:
            return run_replication(config, rep, box)
    calls_before = box.call_count
    params = replace(config.smc, seed=replication_seed(config.master_seed, rep))
    result = run_adaptive_smc(box, config.input_model, config.event, params)
    sample, outputs = result.conditioned_sample, result.conditioned_outputs

    divergence = _DIVERGENCES[config.divergence]()
    bounded = config.divergence == "total_variation"
    d = config.dimension
    values = {fam: np.empty(d) for fam in FAMILY_ORDER}
    flags = {fam: np.zeros(d, dtype=bool) for fam in FAMILY_ORDER}
    for i in range(d):
        marginal = config.input_model.marginals[i]
        pair = np.column_stack([sample[:, i], outputs])
        density = fit_density(sample[:, i], config.marginal_exponents)
        copula = fit_copula(pair, config.copula_exponents)

        delta_f = delta_index(copula, divergence)
        eta_bar = csiszar_marginal_index(density, marginal, divergence)
        sobol = sobol_indicator_index(density, marginal, result.p_f_hat)
        values["delta_f"][i], flags["delta_f"][i] = _clip(delta_f, bounded)
        values["eta_bar"][i], flags["eta_bar"][i] = _clip(eta_bar, bounded)
        values["eta"][i] = scaled_target_index(values["eta_bar"][i], result.p_f_hat)
        values["sobol_indicator"][i], flags["sobol_indicator"][i] = _clip(sobol, True)

    return {
        "families": {fam: (values[fam], flags[fam]) for fam in FAMILY_ORDER},
        "p_f_hat": result.p_f_hat,
        "n_levels": result.n_levels,
        "levels": result.levels,
        "acceptance_rates": result.acceptance_rates,
        "final_acceptance_rate": result.final_acceptance_rate,
        "calls_probability": result.calls_probability_phase,
        "calls_sampling": result.calls_sampling_phase,
        "calls_counter": box.call_count - calls_before,
    }


def _clip(value: float, bounded: bool) -> tuple[float, bool]:
    """Clip into [0, 1] for bounded generators, else only floor at zero."""
    if bounded:
        return clip_unit(value)
    if value >= 0.0:
        return float(value), False
    return 0.0, True


@dataclass(frozen=True)
class CampaignReport:
    """Everything a finished campaign produced.

    The aggregated table lives in ``indices`` (an
    :class:`~relsense.indices.IndexReport`); ``per_replication`` keeps the
    raw family tables so the CSV can list every replication.  The call
    split is cross-checked against the black box call counter:
    ``calls_probability + calls_sampling == calls_counter_total`` always
    holds.  ``wall_clock_seconds`` is the one field excluded from the
    deterministic report body.
    """

    config_echo: dict
    version: str
    indices: IndexReport
    references: dict[str, tuple[float, ...]] | None
    per_replication: tuple[dict, ...]
    p_f_per_replication: tuple[float, ...]
    n_levels_per_replication: tuple[int, ...]
    calls_probability: int
    calls_sampling: int
    calls_counter_total: int
    master_seed: int
    wall_clock_seconds: float

    @property
    def calls_total(self) -> int:
        return self.calls_probability + self.calls_sampling

    def deterministic_body(self) -> dict:
        """The report content that is a pure function of (config, seed)."""
        rep = self.indices
        return {
            "version": self.version,
            "config": self.config_echo,
            "master_seed": self.master_seed,
            "replications": rep.n_replications,
            "input_names": list(rep.input_names),
            "p_f_hat": rep.p_f_hat,
            "p_f_per_replication": list(self.p_f_per_replication),
            "n_levels_per_replication": list(self.n_levels_per_replication),
            "calls": {
                "probability_phase": self.calls_probability,
                "sampling_phase": self.calls_sampling,
                "total": self.calls_total,
                "counter_total": self.calls_counter_total,
            },
            "indices": {
                fam: {
                    "mean": rep.estimates[fam].tolist(),
                    "sd": rep.sds[fam].tolist(),
                    "rank": rep.ranks[fam].tolist(),
                    "clipped": rep.clipped[fam].tolist(),
                }
                for fam in FAMILY_ORDER
            },
            "references": (
                None if self.references is None
                else {k: list(v) for k, v in self.references.items()}
            ),
            "dependent_inputs": rep.dependent_inputs,
        }

    def to_json(self) -> str:
        body = {"report": self.deterministic_body(),
                "timing": {"wall_clock_seconds": self.wall_clock_seconds}}
        return json.dumps(body, indent=2) + "\n"

    def csv_text(self) -> str:
        """Per-replication estimates, one row per (replication, input, family).

        Ranks are recomputed within each replication and family.  The
        body is a pure function of (config, seed): no timestamps, fixed
        ordering, C-locale floats.
        """
        out = io.StringIO()
        out.write("replication,input_index,index_family,estimate,rank\n")
        for r, record in enumerate(self.per_replication):
            for fam in FAMILY_ORDER:
                vals = record["families"][fam][0]
                ranks = rank_descending(vals)
                for i, (v, k) in enumerate(zip(vals, ranks)):
                    out.write(f"{r},{i + 1},{fam},{v:.12g},{k}\n")
        return out.getvalue()

    def summary_table(self) -> str:
        """Aggregated table: reference (rank) | mean (rank) | sd | RD.

        RD is the relative deviation ``(reference - mean) / reference``,
        blank when no reference exists or the reference is zero.
        """
        rep = self.indices
        model = self.config_echo.get("model", {})
        label = model.get("builtin") or " ".join(model.get("command", ["?"]))
        rows = [f"model: {label}  replications: {rep.n_replications}  "
                f"p_f_hat: {rep.p_f_hat:.6g}  calls: {self.calls_total}"]
        header = (f"{'index':<16}{'input':<12}{'reference':>16}"
                  f"{'mean':>16}{'sd':>12}{'RD':>10}")
        rows += [header, "-" * len(header)]
        for fam in FAMILY_ORDER:
            refs = (self.references or {}).get(fam)
            ref_ranks = None
            if refs is not None:
                ref_ranks = rank_descending(np.asarray(refs))
            for i, name in enumerate(rep.input_names):
                mean, sd = rep.estimates[fam][i], rep.sds[fam][i]
                rank = rep.ranks[fam][i]
                if refs is None:
                    ref_txt, rd_txt = "-", "-"
                else:
                    ref_txt = f"{refs[i]:.4g} ({ref_ranks[i]})"
                    rd_txt = (f"{(refs[i] - mean) / refs[i]:.3f}"
                              if refs[i] != 0.0 else "-")
                clip_mark = "*" if rep.clipped[fam][i] else ""
                rows.append(f"{fam:<16}{name:<12}{ref_txt:>16}"
                            f"{f'{mean:.4g} ({rank}){clip_mark}':>16}"
                            f"{sd:>12.4g}{rd_txt:>10}")
        rows.append("(* at least one replication was clipped into range)")
        return "\n".join(rows)


# The values of oracle.toy1_references() and chi2_references(), written
# out so that a campaign neither computes them nor loads the oracle's
# scipy; a test recomputes them and asserts equality.
_REFERENCES = {
    "toy1": {
        "p_f": 0.0013498980316300933,
        "eta_bar_1": 0.9986501019683699,
        "eta_bar_2": 0.0,
        "delta_f_1": 0.0817168628441666,
        "delta_f_2": 0.7685728988704497,
        "sobol_indicator_1": 1.0,
        "sobol_indicator_2": 0.0,
    },
    "additive_chi2": {
        "p_f": 0.00012387018347977564,
        "delta_1": 0.49307871768273714,
        "delta_2": 0.30486846945151025,
        "delta_f_1": 0.0009746005218469029,
        "delta_f_2": 0.4196496142385456,
        "eta_bar_1": 0.2092729998155479,
        "eta_bar_2": 0.9991261404372821,
        "sobol_indicator_1": 4.045201020060731e-05,
        "sobol_indicator_2": 0.7074020943780216,
    },
}


def _reference_table(config: CampaignConfig) -> dict[str, tuple[float, ...]] | None:
    """Per-family reference values when the campaign targets a builtin
    with a table in :data:`_REFERENCES`.

    Only attached when the builtin's canonical inputs and threshold are
    unchanged; any override invalidates the tabulated values.
    """
    if config.builtin not in _REFERENCES:
        return None
    _, canon_inputs, canon_event = builtin_model(config.builtin)
    if (config.input_model != canon_inputs
            or config.event.threshold != canon_event.threshold
            or config.divergence != "total_variation"):
        return None
    by_name = _REFERENCES[config.builtin]
    p_f = by_name["p_f"]
    table = {"p_f": (p_f,)}
    for fam in FAMILY_ORDER:
        if fam == "eta":
            table[fam] = tuple(scaled_target_index(by_name[f"eta_bar_{i + 1}"], p_f)
                               for i in range(config.dimension))
        else:
            table[fam] = tuple(by_name[f"{fam}_{i + 1}"] for i in range(config.dimension))
    return table


def run_campaign(config: CampaignConfig, jobs: int = 1) -> CampaignReport:
    """Run every replication and aggregate.

    The report carries the tabulated reference values whenever the config
    targets ``toy1`` or ``additive_chi2`` with its own inputs, threshold
    and total-variation divergence; otherwise ``references`` is ``None``.

    ``jobs > 1`` hands each worker process the parsed ``config`` and a
    replication number.  The result is identical to the sequential one
    for any config, including one changed after parsing (say with
    :func:`dataclasses.replace`), because each replication only touches
    its own seed streams.  External models force ``jobs=1`` (a single
    child process holds the pipe).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if config.command is not None and jobs > 1:
        warnings.warn("external models run replications sequentially; "
                      "forcing jobs=1", stacklevel=2)
        jobs = 1
    start = time.perf_counter()
    records: list[dict] = []
    if jobs == 1:
        with _make_blackbox(config) as box:
            for r in range(config.replications):
                records.append(_guard(config, r, lambda: run_replication(config, r, box)))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_replication, config, r)
                       for r in range(config.replications)]
            for r, fut in enumerate(futures):
                records.append(_guard(config, r, fut.result))

    indices = aggregate_replications(
        [rec["families"] for rec in records],
        [rec["p_f_hat"] for rec in records],
        config.input_names,
        dependent_inputs=config.input_model.dependence != "independent")
    references = _reference_table(config)
    wall = time.perf_counter() - start
    return CampaignReport(
        config_echo=config.raw,
        version=__version__,
        indices=indices,
        references=references,
        per_replication=tuple(records),
        p_f_per_replication=tuple(rec["p_f_hat"] for rec in records),
        n_levels_per_replication=tuple(rec["n_levels"] for rec in records),
        calls_probability=sum(rec["calls_probability"] for rec in records),
        calls_sampling=sum(rec["calls_sampling"] for rec in records),
        calls_counter_total=sum(rec["calls_counter"] for rec in records),
        master_seed=config.master_seed,
        wall_clock_seconds=wall,
    )


def _guard(config, rep, call):
    """``call()``, with a failure re-raised naming replication ``rep``."""
    try:
        return call()
    except Exception as exc:
        raise CampaignRuntimeError(
            f"replication {rep} (seed {replication_seed(config.master_seed, rep)}) "
            f"failed: {exc}") from exc


def write_outputs(report: CampaignReport, out_dir) -> tuple[Path, Path]:
    """Write ``report.json`` and ``indices.csv``; return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    csv_path = out / "indices.csv"
    report_path.write_text(report.to_json())
    csv_path.write_text(report.csv_text())
    return report_path, csv_path
