"""Command-line entry point.

Subcommands mirror the scenario kinds::

    uavsim relay trace   --preset fig3 --out results/
    uavsim relay sweep   --preset fig4
    uavsim disseminate   --preset dissem20 --seed 42
    uavsim coverage      --preset urban_coverage
    uavsim channel probe --preset channel_probe
    uavsim plot          --manifest results/manifest.json

Exit codes: 0 success, 1 run failure, 2 configuration error.  The
default output directory can be set via the UAVSIM_OUT environment
variable; an empty UAVSIM_OUT counts as unset, while an empty ``--out``
is a configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiment import (ConfigError, RunManifest, emit_plot_data,
                         load_config, preset_config, run)

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--preset", help="named scenario preset")
    parser.add_argument("--seed", type=int, help="master seed (u64)")
    parser.add_argument("--out", help="output directory "
                        "(default $UAVSIM_OUT or ./out)")
    parser.add_argument("--time-step", type=float, dest="time_step",
                        help="simulation time step in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavsim",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    relay = sub.add_parser("relay", help="relaying experiments")
    relay_sub = relay.add_subparsers(dest="subcommand", required=True)
    for name, default_preset in (("trace", "fig3"), ("sweep", "fig4")):
        p = relay_sub.add_parser(name)
        _add_common_flags(p)
        p.set_defaults(default_preset=default_preset,
                       scenario=f"relay_{name}")

    p = sub.add_parser("disseminate", help="D2D dissemination experiment")
    _add_common_flags(p)
    p.set_defaults(default_preset="dissem20", scenario="disseminate")

    p = sub.add_parser("coverage", help="altitude-coverage optimization")
    _add_common_flags(p)
    p.set_defaults(default_preset="urban_coverage", scenario="coverage")

    channel = sub.add_parser("channel", help="channel diagnostics")
    channel_sub = channel.add_subparsers(dest="subcommand", required=True)
    p = channel_sub.add_parser("probe")
    _add_common_flags(p)
    p.set_defaults(default_preset="channel_probe", scenario="channel_probe")

    p = sub.add_parser("plot", help="emit plot-ready long-format CSVs")
    p.add_argument("--manifest", type=Path, required=True)
    p.set_defaults(scenario=None)
    return parser


def _resolve_config(args):
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = preset_config(args.preset or args.default_preset)
    if config.scenario != args.scenario:
        raise ConfigError(f"config scenario {config.scenario!r} does not "
                          f"match the {args.scenario!r} subcommand")
    if args.seed is not None:
        config.master_seed = args.seed
    if args.time_step is not None:
        config.time_step = args.time_step
    if args.out is not None:  # validation rejects an empty --out
        config.output_directory = args.out
    elif os.environ.get("UAVSIM_OUT"):  # an empty UAVSIM_OUT counts as unset
        config.output_directory = os.environ["UAVSIM_OUT"]
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            manifest = RunManifest.load(args.manifest)
            for name in emit_plot_data(manifest):
                print(Path(manifest.output_directory) / name)
            return EXIT_OK
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        manifest = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # run failure, not a config problem
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    for name in manifest.output_files:
        print(Path(manifest.output_directory) / name)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
