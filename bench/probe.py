"""Child process of the benchmark: one ``relsense estimate`` with probes.

Usage::

    python3 bench/probe.py OUT_DIR MODE -- estimate --config ... --out ...

MODE is one of

``plain``
    the untraced run.  Two once-per-replication hooks only: the monotonic
    time of the first replication's start (set-up is over by then: the
    config is parsed and the black box is ready) and a copy of each
    replication's conditioned sample for the output checks.
``setup``
    stops the process at that same point, so set-up can be timed
    several times per benchmark run at little cost.
``trace``
    the plain hooks plus timing wrappers around the public functions of
    ``campaign``, ``smc``, ``model``, ``external``, ``maxent``,
    ``indices`` and ``oracle``.  ``campaign`` imports most of them by
    name, so every module attribute bound to the original function is
    replaced, not only the one in the defining module.

The probe writes ``OUT_DIR/probe.json`` on exit: the set-up stamp, the
exit code of the CLI, the peak resident memory and, when traced, the
spans.  A span is
``[name, start, end, parent, count]``; ``parent`` indexes the enclosing
span (-1 at top level) and ``count`` is the work the call did (rows,
levels, features), or null.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

import relsense
import relsense.campaign as campaign
import relsense.cli as cli
import relsense.external as external
import relsense.indices as indices
import relsense.maxent as maxent
import relsense.model as model
import relsense.oracle as oracle
import relsense.smc as smc

_MODULES = (campaign, cli, external, indices, maxent, model, oracle, smc)


class _SetupDone(BaseException):
    """Unwinds a ``setup`` probe at the first replication.

    A ``BaseException`` passes the campaign's per-replication ``except
    Exception`` guard, while its ``finally`` still closes the black box
    (and with it an external model process)."""


class Probe:
    def __init__(self, out_dir: Path, mode: str):
        self.out_dir = out_dir
        self.mode = mode
        self.setup_t = None
        self.spans = []
        self._stack = []
        self._rep = 0

    # -- hooks present in every mode -------------------------------------
    def install_plain(self):
        run_replication = campaign.run_replication
        run_smc = campaign.run_adaptive_smc

        @functools.wraps(run_replication)
        def replication(*args, **kwargs):
            if self.setup_t is None:
                self.setup_t = time.monotonic()
                if self.mode == "setup":
                    raise _SetupDone
            return run_replication(*args, **kwargs)

        @functools.wraps(run_smc)
        def splitting(*args, **kwargs):
            result = run_smc(*args, **kwargs)
            np.save(self.out_dir / f"conditioned_{self._rep}.npy",
                    np.column_stack([result.conditioned_sample,
                                     result.conditioned_outputs]))
            self._rep += 1
            return result

        self._rebind(run_replication, replication)
        self._rebind(run_smc, splitting)

    # -- tracing ---------------------------------------------------------
    def _rebind(self, original, wrapper):
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _timed(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                spans[idx][4] = count(args, result)
            return result
        return wrapper

    def trace_function(self, mod, attr, name, count=None):
        original = getattr(mod, attr)
        self._rebind(original, self._timed(name, original, count))

    def trace_method(self, cls, attr, name, count=None):
        setattr(cls, attr, self._timed(name, getattr(cls, attr), count))

    def install_trace(self):
        rows = lambda args, result: int(len(result))  # noqa: E731
        f = self.trace_function
        f(campaign, "validate_config", "campaign.parse")
        f(campaign, "parse_config", "campaign.parse")
        f(campaign, "run_replication", "campaign.run_replication")
        f(oracle, "toy1_references", "oracle.references")
        f(oracle, "chi2_references", "oracle.references")
        f(external, "external_blackbox", "external.start")
        f(smc, "run_adaptive_smc", "smc.run_adaptive_smc", self._smc_stats)
        f(smc, "final_sampling", "smc.final_sampling")
        self.trace_method(model.InputModel, "log_density", "model.log_density", rows)
        self.trace_method(model.BlackBox, "evaluate_batch", "model.evaluate_batch", rows)
        f(maxent, "fit_density", "maxent.fit_density")
        f(maxent, "fit_copula", "maxent.fit_copula",
          lambda args, result: len(result.exponents))
        f(maxent, "fractional_moments_1d", "maxent.rung")
        f(maxent, "copula_fractional_moments", "maxent.rung")
        f(indices, "delta_index", "indices.delta")
        f(indices, "target_tv_index", "indices.eta_bar")
        f(indices, "csiszar_marginal_index", "indices.eta_bar")
        f(indices, "sobol_indicator_index", "indices.sobol")

    @staticmethod
    def _smc_stats(args, result):
        sample = result.conditioned_sample
        distinct = np.unique(sample, axis=0).shape[0] / sample.shape[0]
        return {"levels": result.n_levels, "calls": result.calls_total,
                "acceptance_min": min(result.acceptance_rates, default=1.0),
                "distinct_rows": distinct}

    def write(self, exit_code):
        record = {"setup_t": self.setup_t, "exit_code": exit_code,
                  "peak_rss_mb": peak_rss_mb(), "relsense": relsense.__file__,
                  "spans": self.spans}
        (self.out_dir / "probe.json").write_text(json.dumps(record))


def peak_rss_mb():
    """High-water resident set of this process's own memory, in MiB.

    Not ``getrusage``: its ``ru_maxrss`` keeps the high-water mark of the
    memory image replaced by ``exec``, which after a ``vfork`` is the
    parent's."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def main(argv):
    out_dir, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "setup", "trace"):
        raise SystemExit("usage: probe.py OUT_DIR plain|setup|trace -- ARGS...")
    probe = Probe(Path(out_dir), mode)
    if mode == "trace":
        probe.install_trace()
    probe.install_plain()
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    probe.write(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
