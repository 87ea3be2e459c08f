"""Command-line interface: run, compare, validate.

Exit codes: 0 success, 1 usage error, 2 scenario (parse/validation) error.
"""

import argparse
import sys
from types import SimpleNamespace

from . import harness, metrics as metrics_mod
from .scenario import ScenarioError, parse_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _build_parser():
    parser = _Parser(prog="macsim",
                     description="Discrete-event 802.11b MAC simulator")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_run.add_argument("--trace", default=None, help="event trace output path")

    p_cmp = sub.add_parser("compare", help="run several variants on one scenario")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--variants", required=True,
                       help="comma-separated variant names")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="parse and validate a scenario")
    p_val.add_argument("scenario")
    return parser


def _load(path, seed=None):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        sys.exit(2)
    try:
        s = parse_scenario(text)
    except ScenarioError as e:
        sys.stderr.write("%s: %s\n" % (path, e))
        sys.exit(2)
    if seed is not None:
        s.seed = seed
    return s


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (run, compare, validate)")

    if args.command == "validate":
        s = _load(args.scenario)
        try:
            harness.build(s)  # checks that need the built nodes' parameters
        except ScenarioError as e:
            sys.stderr.write("%s: %s\n" % (args.scenario, e))
            sys.exit(2)
        print("ok")
        return 0

    if args.command == "run":
        s = _load(args.scenario, args.seed)
        try:
            sim, medium, _, recorder = harness.build(s)
        except ScenarioError as e:
            sys.stderr.write("%s: %s\n" % (args.scenario, e))
            sys.exit(2)
        if args.trace is None:
            sim.run_until(s.duration_us)
        else:
            # Each line goes to the file as it is traced; the bytes are
            # "\n".join(lines) + "\n", so an empty trace is one newline.
            with open(args.trace, "w") as fh:
                sim.enable_trace(SimpleNamespace(
                    append=lambda line: fh.write(line + "\n")))
                sim.run_until(s.duration_us)
                if fh.tell() == 0:
                    fh.write("\n")
        _emit(metrics_mod.format_csv(
            {s.variant: recorder.finalize(s.duration_us, medium.stats)}),
            args.out)
        return 0

    if args.command == "compare":
        s = _load(args.scenario, args.seed)
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not variants:
            parser.error("--variants must name at least one variant")
        try:
            table = harness.compare(variants, s)
        except ScenarioError as e:
            sys.stderr.write("error: %s\n" % e)
            sys.exit(2)
        _emit(metrics_mod.format_csv(table), args.out)
        return 0

    parser.error("unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
