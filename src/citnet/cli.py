"""Command-line entry points.

Subcommands: validate, run, synth, match, net, report. Every subcommand
takes ``--config``; ``--seed``, ``--threads`` and ``--out`` override the
corresponding config fields. Exit codes: 0 on success, 2 on validation
failure, 1 on any other error.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import load_corpus, validate_corpus
from .matching import binning_diagnostics
from .pipeline import (ConfigError, _load_checked, _run_loaded, config_hash,
                       emit_plot_data, load_config, run_synth, FIGURE_IDS)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2


def _add_common(parser):
    parser.add_argument("--config", required=True, help="run config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="override the configured number of worker "
                             "processes for the stages after matching")
    parser.add_argument("--out", default=None,
                        help="override the configured output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="citnet",
        description="Citation-network analytics over bibliographic corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check config and corpus invariants")
    _add_common(p)

    p = sub.add_parser("run", help="execute the configured pipeline stages")
    _add_common(p)

    p = sub.add_parser("synth", help="synthetic solidarity validation curves")
    _add_common(p)

    p = sub.add_parser("match", help="impact + control matching only")
    _add_common(p)
    p.add_argument("--diagnose", action="store_true",
                   help="also report mean gaps for the alternative size "
                        "binning schemes")

    p = sub.add_parser("net", help="journal networks and centralities only")
    _add_common(p)

    p = sub.add_parser("report", help="emit figure-ready tidy tables")
    _add_common(p)
    p.add_argument("--figure", required=True,
                   help=f"panel id, one of: {', '.join(FIGURE_IDS)}")
    return parser


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.resolved["seed"] = args.seed
    if args.threads is not None:
        config.resolved["threads"] = args.threads
    if args.out is not None:
        config.resolved["output"] = args.out
    return config


def _cmd_validate(args):
    config = _load(args)
    errors = config.validate()
    for err in errors:
        print(f"config: {err}", file=sys.stderr)
    if errors:
        return EXIT_VALIDATION
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    report = validate_corpus(corpus)
    summary = corpus.load_report.summary()
    print(f"papers={len(corpus.papers)} journals={len(corpus.journals)} "
          f"publishers={len(corpus.publishers)}")
    for key, count in summary.items():
        if count:
            print(f"load: {key}={count}")
    for v in report.violations:
        print(f"violation: {v.kind} {v.entity}: {v.detail}")
    if report.is_clean:
        print("corpus clean")
        return EXIT_OK
    print(f"{len(report.violations)} violations")
    return EXIT_VALIDATION


def _run_stages(args, stages=None):
    """Run the configured stages, or only ``stages``; one line per stage.

    Returns the exit code and the run context the stages ran on.
    """
    config = _load(args)
    if stages is not None:
        config.resolved["stages"] = stages
    results, ctx = _run_loaded(config, *_load_checked(config))
    return _print_results(config, results), ctx


def _print_results(config, results):
    print(f"config hash {config_hash(config)[:12]}")
    for r in results:
        line = f"{r.name}: {r.status} ({r.seconds:.2f}s)"
        if r.error:
            line += f" - {r.error}"
        print(line)
    return EXIT_ERROR if any(r.status != "ok" for r in results) else EXIT_OK


def _cmd_run(args):
    return _run_stages(args)[0]


def _cmd_synth(args):
    config = _load(args)
    curves = run_synth(config)
    print(f"wrote synth_psi_scenarios.csv and synth_psi_rewire.csv "
          f"({len(curves.rows)} trajectory rows)")
    return EXIT_OK


def _cmd_match(args):
    code, ctx = _run_stages(args, ["impact", "matching"])
    if code != EXIT_OK or not args.diagnose:
        return code
    year, registry = ctx.registry
    print(f"matching year {year}")
    for scheme, stats in binning_diagnostics(registry).items():
        print(f"{scheme}: matched={stats['matched']} "
              f"mean_impact_gap={stats['mean_impact_gap']} "
              f"mean_size_gap={stats['mean_size_gap']}")
    return EXIT_OK


def _cmd_net(args):
    return _run_stages(args, ["impact", "matching", "jnet"])[0]


def _cmd_report(args):
    config = _load(args)
    outdir = config["output"]
    path = emit_plot_data(config, outdir, args.figure)
    print(path)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "synth": _cmd_synth,
    "match": _cmd_match,
    "net": _cmd_net,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
