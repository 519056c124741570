"""Campaign orchestration: config files, replications, and reports.

A campaign repeats the whole estimation pipeline (conditioned sampling,
density fits, index evaluation) ``replications`` times with
counter-derived seeds.  Each replication yields one record
(:func:`run_replication`), and the :class:`CampaignReport` keeps those
records as they are, folds them once into means, standard deviations
and ranks, and reads every other figure off the records or the parsed
config.  Everything a run needs is read from a single JSON config
document, so a report can be regenerated bit-identically from the pair
(config, master seed).

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
                  or {"type": "random_walk", "step_sds": "match_input"},
                                                   # both act on the latent standard
                                                   # normals; the random walk starts at
                                                   # one latent sd, step_sds is optional
        "max_levels": 100                          # optional
      },
      "replications": 100,
      "seed": 0
    }

Any key the grammar does not name is a finding.  So is any number that
is not finite: ``json`` reads ``NaN`` and ``Infinity``, and an integer
beyond the float range counts as infinite.

Replication ``r`` draws its splitting seed from the stream keyed
``(REPLICATION, r)`` under the master seed; the indices are deterministic
functions of the conditioned sample.  The stream is counter-based, so
raising the replication count later leaves earlier replications bitwise
unchanged, and running with ``jobs > 1`` returns exactly the sequential
result.
"""

from __future__ import annotations

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
from .indices import (DivergenceSpec, csiszar_marginal_index, delta_index,
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
    placeholder that gets replaced per replication.  Nothing here picks
    a fit or a divergence: every fit chooses its exponent set by BIC from
    its ladder, and ``delta_f`` and ``eta_bar`` are total-variation
    indices (see :func:`run_replication`).  ``raw`` keeps the source
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


def _parse_kernel(sec, findings):
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
        if sds != "match_input":
            findings.append(f"smc.kernel.step_sds must be 'match_input', got {sds!r}")
            return None
        return GaussianRandomWalkKernel()
    findings.append(f"smc.kernel.type must be 'crank_nicolson' or 'random_walk', "
                    f"got {kind!r}")
    return None


def _parse_smc(raw, findings):
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
    kernel = _parse_kernel(sec, findings)
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


def _parse(raw) -> tuple[CampaignConfig | None, list[str]]:
    """One pass over a raw config document: ``(config, findings)``.

    Every section is read once, in a fixed order, and every problem is
    collected.  The config is built only when no problem was found;
    otherwise it is ``None``.
    """
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]
    findings: list[str] = []
    known = {"model", "inputs", "event", "smc", "replications", "seed"}
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

    smc = _parse_smc(raw, findings)

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
    """The raw JSON object of a UTF-8 config file; :class:`ConfigError` if
    unreadable."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc.strerror}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config {path} is not UTF-8 text: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal too long for ``int``
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ConfigError(["config nests too deeply to parse"]) from exc
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
    run (``p_f_hat``, level count, call split, acceptance rates).  Each
    input's marginal and copula are chosen by BIC from their ladders,
    with the final survivors as BIC's sample size.  Without
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

    # built per call, not at import: its generator check loads numpy.random
    tv = DivergenceSpec.total_variation()
    d = config.dimension
    values = {fam: np.empty(d) for fam in FAMILY_ORDER}
    flags = {fam: np.zeros(d, dtype=bool) for fam in FAMILY_ORDER}
    for i in range(d):
        marginal = config.input_model.marginals[i]
        pair = np.column_stack([sample[:, i], outputs])
        density = fit_density(sample[:, i], sample_size=result.n_survivors)
        copula = fit_copula(pair, sample_size=result.n_survivors)

        delta_f = delta_index(copula, tv)
        eta_bar = csiszar_marginal_index(density, marginal, tv)
        sobol = sobol_indicator_index(density, marginal, result.p_f_hat)
        values["delta_f"][i], flags["delta_f"][i] = _clip(delta_f)
        values["eta_bar"][i], flags["eta_bar"][i] = _clip(eta_bar)
        values["eta"][i] = scaled_target_index(values["eta_bar"][i], result.p_f_hat)
        values["sobol_indicator"][i], flags["sobol_indicator"][i] = _clip(sobol)

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


def _clip(value: float) -> tuple[float, bool]:
    """Clip an estimate into [0, 1]; the flag records that clipping fired."""
    clipped = min(max(float(value), 0.0), 1.0)
    return clipped, clipped != value


@dataclass(frozen=True)
class CampaignReport:
    """Everything a finished campaign produced.

    ``per_replication`` holds the records exactly as
    :func:`run_replication` returned them.  Construction folds them once
    into per-family ``estimates`` (means over replications), ``sds``
    (ddof=1, zero for one replication), ``ranks`` of the means and
    ``clipped`` (true when any replication was clipped); every other
    figure is read off the records or the parsed ``config``.
    ``wall_clock_seconds`` is the one field excluded from the
    deterministic report body.
    """

    config: CampaignConfig
    per_replication: tuple[dict, ...]
    references: dict[str, tuple[float, ...]] | None
    wall_clock_seconds: float
    estimates: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    sds: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    ranks: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    clipped: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.per_replication:
            raise ValueError("no replications to aggregate")
        est, sds, ranks, clipped = {}, {}, {}, {}
        for fam in FAMILY_ORDER:
            values = np.vstack([rec["families"][fam][0] for rec in self.per_replication])
            flags = np.vstack([rec["families"][fam][1] for rec in self.per_replication])
            est[fam] = values.mean(axis=0)
            sds[fam] = (values.std(axis=0, ddof=1) if len(values) > 1
                        else np.zeros(values.shape[1]))
            ranks[fam] = rank_descending(est[fam])
            clipped[fam] = flags.any(axis=0)
        for name, table in (("estimates", est), ("sds", sds), ("ranks", ranks),
                            ("clipped", clipped)):
            object.__setattr__(self, name, table)

    @property
    def p_f_per_replication(self) -> tuple[float, ...]:
        return tuple(rec["p_f_hat"] for rec in self.per_replication)

    @property
    def p_f_hat(self) -> float:
        return float(np.mean(self.p_f_per_replication))

    @property
    def n_levels_per_replication(self) -> tuple[int, ...]:
        return tuple(rec["n_levels"] for rec in self.per_replication)

    def _calls(self, key: str) -> int:
        return sum(rec[key] for rec in self.per_replication)

    @property
    def calls_total(self) -> int:
        return self._calls("calls_probability") + self._calls("calls_sampling")

    @property
    def calls_counter_total(self) -> int:
        return self._calls("calls_counter")

    def deterministic_body(self) -> dict:
        """The report content that is a pure function of (config, seed)."""
        config = self.config
        return {
            "version": __version__,
            "config": config.raw,
            "master_seed": config.master_seed,
            "replications": len(self.per_replication),
            "input_names": list(config.input_names),
            "p_f_hat": self.p_f_hat,
            "p_f_per_replication": list(self.p_f_per_replication),
            "n_levels_per_replication": list(self.n_levels_per_replication),
            "calls": {
                "probability_phase": self._calls("calls_probability"),
                "sampling_phase": self._calls("calls_sampling"),
                "total": self.calls_total,
                "counter_total": self.calls_counter_total,
            },
            "indices": {
                fam: {
                    "mean": self.estimates[fam].tolist(),
                    "sd": self.sds[fam].tolist(),
                    "rank": self.ranks[fam].tolist(),
                    "clipped": self.clipped[fam].tolist(),
                }
                for fam in FAMILY_ORDER
            },
            "references": (
                None if self.references is None
                else {k: list(v) for k, v in self.references.items()}
            ),
            "dependent_inputs": config.input_model.dependence != "independent",
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
        rows = [f"model: {self.config.model_label}  "
                f"replications: {len(self.per_replication)}  "
                f"p_f_hat: {self.p_f_hat:.6g}  calls: {self.calls_total}"]
        header = (f"{'index':<16}{'input':<12}{'reference':>16}"
                  f"{'mean':>16}{'sd':>12}{'RD':>10}")
        rows += [header, "-" * len(header)]
        for fam in FAMILY_ORDER:
            refs = (self.references or {}).get(fam)
            ref_ranks = None
            if refs is not None:
                ref_ranks = rank_descending(np.asarray(refs))
            for i, name in enumerate(self.config.input_names):
                mean, sd = self.estimates[fam][i], self.sds[fam][i]
                rank = self.ranks[fam][i]
                if refs is None:
                    ref_txt, rd_txt = "-", "-"
                else:
                    ref_txt = f"{refs[i]:.4g} ({ref_ranks[i]})"
                    rd_txt = (f"{(refs[i] - mean) / refs[i]:.3f}"
                              if refs[i] != 0.0 else "-")
                clip_mark = "*" if self.clipped[fam][i] else ""
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
            or config.event.threshold != canon_event.threshold):
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
    """Run every replication and report their records.

    The report carries the tabulated reference values whenever the config
    targets ``toy1`` or ``additive_chi2`` with its own inputs and
    threshold; otherwise ``references`` is ``None``.

    ``jobs > 1`` hands each worker process the parsed ``config`` and a
    replication number.  The result is identical to the sequential one
    for any config, including one changed after parsing (say with
    :func:`dataclasses.replace`), because each replication only touches
    its own seed streams.  The first failing replication cancels those
    that have not started.  External models force ``jobs=1`` (a single
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
        import concurrent.futures  # only a pool run pays for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_replication, config, r)
                       for r in range(config.replications)]
            try:
                for r, fut in enumerate(futures):
                    records.append(_guard(config, r, fut.result))
            except BaseException:
                # cancel the queued replications, so the pool's exit waits
                # only for those already running
                pool.shutdown(cancel_futures=True)
                raise

    return CampaignReport(config=config, per_replication=tuple(records),
                          references=_reference_table(config),
                          wall_clock_seconds=time.perf_counter() - start)


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
