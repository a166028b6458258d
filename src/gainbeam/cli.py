"""Command-line interface.

    gainbeam run <config.json>        run a scenario from a config file
    gainbeam run-builtin <name>       run a built-in scenario
    gainbeam list                     list built-in scenarios
    gainbeam filter <config.json>     run a width-filtering experiment

Exit codes: 0 success, 1 config error (a run too large for memory too),
2 numerical abort (width collapse or overflow), 3 I/O error.
"""

import argparse
import sys
import warnings

from .config import load_filter, load_scenario
from .errors import ConfigError, NumericalAbortError
from .harness import filter_experiment, run_scenario
from .scenarios import scenario_library

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _add_flags(parser, overrides: bool):
    """--out-dir and --quiet, and between them a scenario's ``overrides``."""
    parser.add_argument("--out-dir", default=None, help="output directory")
    if overrides:
        parser.add_argument("--dz", type=float, default=None,
                            help="override the step of every propagator")
        parser.add_argument("--grid-points", type=int, default=None,
                            help="override the grid point count (power of two)")
        parser.add_argument("--z-max", type=float, default=None,
                            help="override the propagation distance")
        parser.add_argument("--heatmap", action="store_true", default=None,
                            help="also write renormalized-intensity heatmaps")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainbeam",
        description="Gaussian beam propagation in waveguides with gain and loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config file")
    run.add_argument("config", help="path to a scenario JSON file")
    _add_flags(run, overrides=True)

    builtin = sub.add_parser("run-builtin", help="run a built-in scenario")
    builtin.add_argument("name", help="built-in scenario name (see `gainbeam list`)")
    _add_flags(builtin, overrides=True)

    sub.add_parser("list", help="list built-in scenarios")

    filt = sub.add_parser("filter", help="run a width-filtering experiment")
    filt.add_argument("config", help="path to a filter JSON file")
    _add_flags(filt, overrides=False)

    return parser


def _run_scenario_command(config, out_dir, args) -> int:
    config = config.with_overrides(
        z_max=args.z_max, dz=args.dz, grid_points=args.grid_points, heatmap=args.heatmap
    )
    result = run_scenario(config, out_dir=out_dir)
    if not args.quiet:
        print(f"scenario {config.name}: propagators {', '.join(config.propagators)}")
        for (a, b), report in result.reports.items():
            print(
                f"  {a} vs {b}: sup|q| error {report.sup_q_error:.3e}, "
                f"sup rel norm error {report.sup_norm_rel_error:.3e}"
            )
        for abort in result.aborts:
            print(f"  ABORT {abort.propagator}: {abort.reason}")
        for path in result.files:
            print(f"  wrote {path}")
    return EXIT_NUMERIC if result.aborts else EXIT_OK


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # one line per warning: the file and line that raised it are internal
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _command(args)


def _command(args) -> int:
    try:
        if args.command == "list":
            lib = scenario_library()
            for name in sorted(lib):
                cfg = lib[name]
                pot = cfg.potential
                desc = ", ".join(f"{k}={pot[k]}" for k in pot if k not in ("kind", "hermitian"))
                if pot["hermitian"]:
                    desc += ", hermitian"
                print(
                    f"{name}: {pot['kind']} ({desc}); q0={cfg.initial.q0}, "
                    f"p0={cfg.initial.p0}, b0={cfg.initial.b0}"
                )
            return EXIT_OK
        if args.command == "run-builtin":
            lib = scenario_library()
            if args.name not in lib:
                raise ConfigError(
                    f"unknown built-in scenario {args.name!r}; see `gainbeam list`"
                )
            config = lib[args.name]
        else:
            config = (load_filter if args.command == "filter" else load_scenario)(args.config)
        # the overrides leave the name, so a run's default directory is its config's
        out_dir = args.out_dir if args.out_dir is not None else f"runs/{config.name}"
        if args.command != "filter":
            return _run_scenario_command(config, out_dir, args)
        report = filter_experiment(config, out_dir=out_dir)
        if not args.quiet:
            for pair in report.pairs:
                rates = ", ".join(
                    f"{rate:.6g} at z={probe:g}"
                    for probe, rate in sorted(pair.measured_rates.items())
                )
                print(
                    f"beams {pair.index_a}/{pair.index_b}: predicted rate "
                    f"{pair.predicted_rate:.6g}, measured {rates}, "
                    f"resolvable at z={pair.resolvability_z}"
                )
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy's message names the allocation that failed; a bare MemoryError has none
        print(f"config error: the run does not fit in memory ({str(exc) or 'no detail'}); "
              "lower grid.n_points, z_max or the sample count", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
