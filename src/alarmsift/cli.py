"""Command-line interface.

Subcommands: train, rate, evaluate, explain, gen-synthetic.
Exit codes: 0 ok, 2 config error, 3 data error or a file that cannot be
written (the log names the path and the reason), 4 search budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline, synthetic
from .config import RunConfig, load_config
from .errors import BudgetError, ConfigError, DataError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BUDGET = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--output-dir", type=Path, default=None)
    parser.add_argument("--corpus", type=Path, default=None, help="generated corpus directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--percentile", type=float, default=None)
    parser.add_argument("--components", type=int, default=None)
    parser.add_argument("--clusters", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--external-scores", type=Path, default=None)
    parser.add_argument("--external-threshold", type=float, default=None)


def _config_from(args: argparse.Namespace) -> RunConfig:
    # The option dests equal the RunConfig field names; load_config ignores
    # the other attributes.
    return load_config(args.config, vars(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alarmsift",
        description="Rate and explain anomaly-IDS alarms with process mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit the detector and mine the FP characterization")
    _add_common(p_train)

    p_rate = sub.add_parser("rate", help="classify flows and rate the positives")
    _add_common(p_rate)
    p_rate.add_argument("--bundle", type=Path, required=True)

    p_eval = sub.add_parser("evaluate", help="seeded multi-run train+rate with banded metrics")
    _add_common(p_eval)

    p_explain = sub.add_parser("explain", help="dump per-flow alignment explanations as JSON")
    _add_common(p_explain)
    p_explain.add_argument("--bundle", type=Path, required=True)
    p_explain.add_argument("--flow-id", action="append", default=None,
                           help="restrict to specific flow ids (repeatable)")
    p_explain.add_argument("--out", type=Path, default=None, help="write JSON here instead of stdout")

    p_gen = sub.add_parser("gen-synthetic", help="generate a synthetic flow corpus")
    p_gen.add_argument("--normal", type=int, default=0, help="number of normal flows")
    p_gen.add_argument("--slowloris", type=int, default=0, help="number of slowloris flows")
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", type=Path, required=True, help="corpus output directory")
    return parser


def _cmd_train(args) -> int:
    config = _config_from(args)
    bundle_dir = pipeline.cmd_train(config)
    print(f"bundle written to {bundle_dir}")
    return EXIT_OK


def _cmd_rate(args) -> int:
    config = _config_from(args)
    report = pipeline.cmd_rate(config, args.bundle)
    print(
        f"{len(report.scored)} flows classified, {len(report.alarms)} alarms rated; "
        f"reports in {config.output_dir / 'rating'}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    config = _config_from(args)
    report = pipeline.evaluate(config)
    recall4 = report.aggregate["recall"][4]["mean"]
    prec4 = report.aggregate["precision"][4]["mean"]
    print(
        f"{len(report.runs)} runs complete; Recall_4={recall4:.4f} "
        f"Precision_4={'absent' if prec4 is None else f'{prec4:.4f}'}; "
        f"reports in {config.output_dir}"
    )
    return EXIT_OK


def _cmd_explain(args) -> int:
    config = _config_from(args)
    explanations = pipeline.explain_flows(config, args.bundle, args.flow_id)
    text = json.dumps(explanations, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"explanations written to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.normal < 0 or args.slowloris < 0 or args.normal + args.slowloris < 1:
        raise ConfigError("request at least one flow via --normal / --slowloris")
    flows = []
    if args.normal:
        flows.extend(synthetic.generate_flows(synthetic.PROFILE_NORMAL, args.normal, args.seed))
    if args.slowloris:
        flows.extend(
            synthetic.generate_flows(synthetic.PROFILE_SLOWLORIS, args.slowloris, args.seed + 1)
        )
    flows_csv, events_path = synthetic.write_corpus(flows, args.out)
    print(f"corpus written: {flows_csv}, {events_path}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "rate": _cmd_rate,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "gen-synthetic": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return EXIT_CONFIG
    except BudgetError as exc:
        logger.error("budget exceeded: %s (best cost bound %s)", exc, exc.cost_lower_bound)
        return EXIT_BUDGET
    except DataError as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except OSError as exc:
        # Readers turn an unreadable input into ConfigError or DataError, so
        # this is a failed write.
        logger.error("cannot write %s: %s", exc.filename, exc.strerror or exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
