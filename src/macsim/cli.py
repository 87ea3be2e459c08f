"""Command-line interface: run, compare, validate.

Exit codes: 0 success, 1 usage error (an output path that cannot be
written among them), 2 scenario (read/parse/validation) error.
"""

import argparse
import os
import sys

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


class _TraceFile:
    """The `run --trace` sink: keeps at most BLOCK lines and writes them
    with one write each, as "\n".join(lines) + "\n", so the file's bytes
    are those of the in-memory trace and memory holds one block."""

    BLOCK = 4096

    def __init__(self, fh):
        self.fh = fh
        self.lines = []

    def append(self, line):
        lines = self.lines
        lines.append(line)
        if len(lines) >= self.BLOCK:
            self.flush()

    def flush(self):
        if self.lines:
            self.fh.write("\n".join(self.lines) + "\n")
            self.lines = []


def _load(path, seed=None):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        sys.exit(2)
    try:
        # A leading byte-order mark, as some editors write, is dropped.
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        # Number lines as the parser does, up to and with the bad byte;
        # `e.object` is the data after any byte-order mark.
        data = e.object
        line = len((data[:e.start].decode("utf-8") + "x").splitlines())
        sys.stderr.write("%s: line %d: not UTF-8 text (byte 0x%02x)\n"
                         % (path, line, data[e.start]))
        sys.exit(2)
    try:
        s = parse_scenario(text)
    except ScenarioError as e:
        sys.stderr.write("%s: %s\n" % (path, e))
        sys.exit(2)
    if seed is not None:
        s.seed = seed
    return s


def _check_writable(option, path):
    """Exit 1 unless `path` can be opened for writing; a file that was not
    there is not left behind, and one that was is not truncated."""
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        sys.stderr.write("error: %s: %s\n" % (option, e))
        sys.exit(1)
    if not existed:
        os.remove(path)


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
        # Both output paths are checked before the run, and after the
        # scenario is accepted, so a rejected one leaves no file.
        _check_writable("--out", args.out)
        _check_writable("--trace", args.trace)
        if args.trace is None:
            sim.run_until(s.duration_us)
        else:
            with open(args.trace, "w") as fh:
                sink = _TraceFile(fh)
                sim.enable_trace(sink)
                sim.run_until(s.duration_us)
                sink.flush()
                if fh.tell() == 0:
                    fh.write("\n")  # an empty trace is one newline
        _emit(metrics_mod.format_csv(
            {s.variant: recorder.finalize(s.duration_us, medium.stats)}),
            args.out)
        return 0

    if args.command == "compare":
        s = _load(args.scenario, args.seed)
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not variants:
            parser.error("--variants must name at least one variant")
        _check_writable("--out", args.out)
        try:
            table = harness.compare(variants, s)
        except ScenarioError as e:
            sys.stderr.write("%s: %s\n" % (args.scenario, e))
            sys.exit(2)
        _emit(metrics_mod.format_csv(table), args.out)
        return 0


if __name__ == "__main__":
    sys.exit(main())
