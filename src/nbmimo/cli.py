"""Command-line entry point.

    nbmimo <command> (--preset NAME | --config PATH) [--seed N] [--out PATH]

Commands: ber, uncoded, capacity, threshold, flops, ksdelta.  Presets are
listed by `nbmimo presets`.  Output is a CSV on stdout or --out, with
provenance metadata in '#'-prefixed comment lines.
"""

from __future__ import annotations

import argparse
import sys

from nbmimo.config import COMMANDS, ConfigError, ExperimentConfig
from nbmimo.presets import PRESETS, preset_text
from nbmimo.runner import run_command, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbmimo",
        description="Link-level simulator for non-binary LDPC coded large MIMO",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", help="bundled preset name")
        src.add_argument("--config", help="path to an INI config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument(
            "--quiet", action="store_true", help="suppress progress lines"
        )
    sub.add_parser("presets", help="list bundled presets")
    return parser


def load_config(args) -> ExperimentConfig:
    if args.preset:
        text = preset_text(args.preset)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    cfg = ExperimentConfig.from_ini(text)
    if cfg.command != args.command:
        raise ConfigError(
            [
                f"config declares command {cfg.command!r} but the "
                f"{args.command!r} subcommand was invoked"
            ]
        )
    if args.seed is not None:
        cfg.master_seed = args.seed
        errors = cfg.validate()
        if errors:
            raise ConfigError(errors)
    return cfg


def _sweep_line(summary) -> str:
    return (
        f"[{summary.detector} g={summary.gamma_db:+.2f} dB "
        f"se2={summary.est_error_var}] frames={summary.frames} "
        f"ber={summary.ber:.3e} fer={summary.fer:.3e} "
        f"({summary.stop_reason})"
    )


def _threshold_line(row) -> str:
    return (
        f"[threshold t={row['repeat_factor']} g={row['gamma_db']:+.2f} dB] "
        f"renewals={row['iterations']} entropy={row['entropy']:.3e} "
        f"decoded={int(row['decoded'])}"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        for name in sorted(PRESETS):
            print(name)
        return 0

    try:
        cfg = load_config(args)
    except (ConfigError, KeyError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2

    progress = None
    if not args.quiet:
        line = _threshold_line if cfg.command == "threshold" else _sweep_line

        def progress(point):
            print(line(point), file=sys.stderr)

    rows, meta = run_command(cfg, progress=progress)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, meta, fh)
    else:
        write_csv(rows, meta, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
