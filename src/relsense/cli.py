"""Command line front end.

Three subcommands::

    relsense estimate --config c.json --out results/ [--replications R]
                      [--seed U] [--jobs K]
    relsense references NAME         # toy1 or additive_chi2
    relsense validate --config c.json

``estimate`` runs a campaign and writes ``report.json`` and
``indices.csv`` into the output directory, printing the aggregated
summary table.  ``--replications`` and ``--seed`` are written into the
document before it is parsed, so they are validated and echoed like the
file's own values; ``--jobs`` workers receive the parsed config.
``references`` prints the independently computed reference values for a
built-in benchmark.  ``validate`` checks a config document statically,
without a single model evaluation, by the same parse ``estimate`` runs.
Both read the file with :func:`relsense.campaign.read_config`.

Exit codes: 0 on success, 1 when a run fails at runtime (the message
names the failing replication and its seed), 2 for config or usage
errors, an output directory that cannot be created among them, found
before any replication runs.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .campaign import (CampaignRuntimeError, ConfigError, load_config,
                       parse_config, read_config, run_campaign, write_outputs)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsense",
        description="Reliability-oriented sensitivity indices from a single "
                    "rare-event sample.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run a campaign from a config file")
    est.add_argument("--config", required=True, type=Path,
                     help="JSON campaign config")
    est.add_argument("--out", required=True, type=Path,
                     help="output directory for report.json and indices.csv")
    est.add_argument("--replications", type=int, default=None,
                     help="override the config's replication count")
    est.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")
    est.add_argument("--jobs", type=int, default=1,
                     help="worker processes for replications (default 1)")

    ref = sub.add_parser("references",
                         help="print reference values for a built-in model")
    ref.add_argument("name", help="toy1 or additive_chi2")

    val = sub.add_parser("validate", help="check a config file statically")
    val.add_argument("--config", required=True, type=Path,
                     help="JSON campaign config")
    return parser


def cmd_estimate(args) -> int:
    raw = read_config(args.config)
    if args.replications is not None:
        raw["replications"] = args.replications
    if args.seed is not None:
        raw["seed"] = args.seed
    config = parse_config(raw)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = run_campaign(config, jobs=args.jobs)
    report_path, csv_path = write_outputs(report, args.out)
    print(report.summary_table())
    print(f"wrote {report_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_references(args) -> int:
    if args.name == "sdof_oscillator":
        print("sdof_oscillator has no tabulated references: its output law has "
              "no closed form.  Its failure probability is checked against "
              "design-point importance sampling in the acceptance tests; its "
              "indices have no reference yet", file=sys.stderr)
        return EXIT_CONFIG
    if args.name not in ("toy1", "additive_chi2"):
        print(f"unknown model {args.name!r}; references exist for toy1 and "
              f"additive_chi2", file=sys.stderr)
        return EXIT_CONFIG
    from . import oracle  # a campaign never loads the oracle

    fn = oracle.toy1_references if args.name == "toy1" else oracle.chi2_references
    print(f"{'name':<20}{'value':>16}  {'method':<12}{'tolerance':>10}")
    for rv in fn():
        print(f"{rv.name:<20}{rv.value:>16.6e}  {rv.method:<12}{rv.tolerance:>10.1e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"config ok: model={config.model_label} dimension={config.dimension} "
          f"replications={config.replications} seed={config.master_seed}")
    return EXIT_OK


def main(argv=None) -> int:
    gc.freeze()  # imported modules live until exit; collections that skip them end fast
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate" and args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    handler = {"estimate": cmd_estimate, "references": cmd_references,
               "validate": cmd_validate}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        for line in exc.findings:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except CampaignRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # anything escaping the pipeline is a runtime fault
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
