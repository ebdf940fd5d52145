"""Command-line front end.

Usage:

    robustpr <command> [-c CONFIG] [key=value ...]

where command is a key of ``_RUNNERS`` (solve, landscape, certify, image,
probe), whose ``-h`` help is its runner's docstring summary.  Settings come
from an optional key=value config file, overridden by key=value arguments on
the command line; unknown keys are errors.  Exit codes: 0 success, 1 usage or
configuration error, 2 I/O error, 3 numerical failure (FloatingPointError).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import harness, netpbm
from .measure import CapacityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

# The one declaration of the subcommands.
_RUNNERS = {
    "solve": harness.run_solve_experiment,
    "landscape": harness.run_landscape_command,
    "certify": harness.run_certify,
    "image": harness.run_image_command,
    "probe": harness.run_probe,
}


class _Parser(argparse.ArgumentParser):
    # route argparse usage errors through the exit-code contract (1, not 2)
    def error(self, message):
        raise harness.ConfigError(message)


@functools.cache
def _parser():
    """The one parser of the process, built on first use.

    A build takes about 0.6 ms (2-core x86 box), which repeated in-process
    ``main`` calls would otherwise pay each time.
    """
    parser = _Parser(
        prog="robustpr",
        description="Robust phase retrieval: subgradient solver and landscape analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=(runner.__doc__ or "").partition("\n")[0])
        p.add_argument("-c", "--config", default=None,
                       help="key=value configuration file")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="configuration overrides")
    return parser


def _load_config(args):
    mapping = {}
    if args.config is not None:
        mapping.update(harness.parse_config_file(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise harness.ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return harness.build_config(args.command, mapping)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        cfg = _load_config(args)
        _RUNNERS[args.command](cfg)
    except (OSError, json.JSONDecodeError, netpbm.ImageFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (harness.ConfigError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
