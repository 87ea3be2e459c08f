"""Mutation sweep over the DCF model: which one-site changes to `mac.py`,
`medium.py`, `pcf.py` and `engine.py` no test tells apart from the source (mutation
analysis, after DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).

Each mutant changes one site of one file:
- a comparison flipped: `<` and `<=`, `>` and `>=`, `==` and `!=`, `is`
  and `is not`, `in` and `not in`, each into the other;
- a boolean operation's `and` into `or`, or `or` into `and`;
- an integer constant plus one, or minus one;
- one statement of a branch or loop body (`if`, `elif`, `else`, `for`,
  `while`) replaced by `pass`;
- one statement of a function body replaced by `pass`, but a docstring.

The edit is made on the source text, at the site the `ast` module finds, so
every other byte, comments and line numbers included, stays as it was.

`src/`, `tests/`, `scenarios/` and `perfbench/` (whose calibrate.py
`tests/setup_sweep.py` imports) are copied to one temporary directory per
worker; a worker writes each mutant into its copy, runs the tests
there and puts the file back, so the tree the script reads is never
written, and the copies are removed at the end.  Stage 1 runs
`tests/test_golden.py`; stage 2 runs all of tier-1 on each mutant stage 1
left alive, but `tests/test_mutation_sweep.py`: its check that each
EQUIVALENT entry names a mutant of the source would fail on any mutant of
a listed line.  Each run stops at its first failure.  A run that fails, or
that outlasts three times the unmutated tree's run plus 30 s, kills the
mutant.  At most two test processes run at once.

Survivors are printed by file, line, scope and operator.  A survivor that
EQUIVALENT lists (by file, scope, the stripped source line and the
operator) is printed with its one-line reason: no input can tell it
apart.  Any other
survivor is a gap in the tests, or code that can go.

    python tests/mutation_sweep.py            # the sweep: 101 min, 2 cores
    python tests/mutation_sweep.py --list     # the mutants; runs nothing

Either form ends with Markdown tables of mutants per file and per operator
family; the sweep's also says how many each stage killed.  The script
only reports: it fails only on an exception, or when the unmutated tree
fails a stage.
"""

import argparse
import ast
import io
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("src/macsim/mac.py", "src/macsim/medium.py", "src/macsim/pcf.py",
         "src/macsim/engine.py")
COPIED = ("src", "tests", "scenarios", "perfbench")
# Each stage's pytest arguments: the golden digests, then all of tier-1 but
# the sweep's own tests (see the module docstring).
STAGES = (("tests/test_golden.py",),
          ("tests", "--ignore=tests/test_mutation_sweep.py"))
WORKERS = 2

# A mutant of `path` at `line`, inside the def or class named `scope`
# ("" at module level): `edits` are (start, end, text) replacements of the
# source, with start and end as (line, column) pairs, column in characters.
Mutant = namedtuple("Mutant", "path line scope operator edits")

_FLIP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">",
         ast.Eq: "!=", ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is",
         ast.In: "not in", ast.NotIn: "in"}
_OP_WORDS = {"<", "<=", ">", ">=", "==", "!=", "is", "not", "in"}
_BRANCHES = (ast.If, ast.For, ast.While)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_MAC, _MEDIUM, _PCF, _ENGINE = FILES
# (file, scope, stripped source line, operator) -> why no input tells the
# mutant apart from the source.  Two mutants with one key share the entry.
EQUIVALENT = {
    (_MAC, "MacNode.set_nav",
     "was_idle = self.sense_count == 0 and not self.self_tx and nav <= now",
     "and -> or"):
        "a busy edge on a node already busy banks nothing and cancels no "
        "timer, and most calls come while the node is busy",
    (_MAC, "MacNode._arm_now", "if cat.ready_time > start:", "> -> >="):
        "at equality both sides set `start` to the same instant",
    (_MAC, "MacNode._arm_now", "if fire < now:", "< -> <="):
        "at equality both sides set `fire` to the same instant",
    (_MAC, "MacNode._on_busy_edge", "if elapsed > 0:", "> -> >="):
        "with elapsed 0 the subtraction takes off 0 slots",
    (_MAC, "MacNode._on_busy_edge", "if elapsed > 0:", "0 -> -1"):
        "with elapsed 0 the subtraction takes off 0 slots",
    (_MAC, "MacNode._on_busy_edge",
     "cat.backoff_slots = slots if slots > 0 else 0",
     "> -> >="):
        "with slots 0 both branches give 0",
    (_MAC, "MacNode._on_busy_edge",
     "cat.backoff_slots = slots if slots > 0 else 0",
     "0 -> -1"):
        "with slots 0 both branches give 0",
    (_MAC, "MacNode._on_access_fire",
     "for mac in near if mac.node_id < self.node_id",
     "< -> <="):
        "a node is not in its own sensing list, and node ids are unique",
    (_MAC, "MacNode._reassemble", "if end > pkt.received:", "> -> >="):
        "at equality the assignment writes the value already there",
    (_MAC, "MacNode.on_frame",
     "if frame.duration > 0 or xid == self.nav_xid:",
     "> -> >="):
        "a zero duration sets the NAV to now: an expired NAV stays "
        "expired and a pending one is not cut",
    (_MAC, "MacNode.on_frame",
     "if frame.duration > 0 or xid == self.nav_xid:",
     "0 -> -1"):
        "a zero duration sets the NAV to now: an expired NAV stays "
        "expired and a pending one is not cut",
    (_MAC, "MacNode.on_frame",
     "if frame.duration > 0 or xid == self.nav_xid:",
     "0 -> 1"):
        "no frame the model sends has a duration of 1 us: each non-zero "
        "one covers at least a SIFS and an ACK",
    (_MAC, "MacNode._on_ack",
     "elif frame.duration > 0 and self.dcfplus:",
     "0 -> 1"):
        "no frame the model sends has a duration of 1 us: each non-zero "
        "one covers at least a SIFS and an ACK",
    (_MAC, "MacNode._on_data", "if ack.duration > 0:", "0 -> 1"):
        "no frame the model sends has a duration of 1 us: each non-zero "
        "one covers at least a SIFS and an ACK",
    (_MAC, "MacNode._maybe_cts",
     "cts.duration = max(0, frame.duration - p.sifs_us - CTS_AIR)",
     "0 -> 1"):
        "an RTS the model sends reserves 3 SIFS, a CTS, DATA and an ACK, "
        "so the difference is above 1",
    (_MAC, "MacNode._maybe_cts",
     "cts.duration = max(0, frame.duration - p.sifs_us - CTS_AIR)",
     "0 -> -1"):
        "an RTS the model sends reserves 3 SIFS, a CTS, DATA and an ACK, "
        "so the difference is above 1",
    (_MAC, "MacNode._on_data",
     "ack.duration = max(0, frame.duration - p.sifs_us - ACK_AIR)",
     "0 -> -1"):
        "a DATA frame the model sends reserves at least a SIFS and an "
        "ACK, so the difference is never negative",
    (_MAC, "MacNode._dcfp_grant",
     "duration=max(0, ack.duration - p.sifs_us - CTS_AIR),",
     "0 -> 1"):
        "an offer reserves 3 SIFS, a CTS, the reverse DATA and an ACK, so "
        "the difference is above 1",
    (_MAC, "MacNode._dcfp_grant",
     "duration=max(0, ack.duration - p.sifs_us - CTS_AIR),",
     "0 -> -1"):
        "an offer reserves 3 SIFS, a CTS, the reverse DATA and an ACK, so "
        "the difference is above 1",
    (_MAC, "MacNode._dcfp_grant",
     "rev_air = max(0, ack.duration - 3 * p.sifs_us - CTS_AIR - ACK_AIR)",
     "0 -> 1"):
        "the difference is the reverse DATA's airtime, at least one "
        "preamble",
    (_MAC, "MacNode._dcfp_grant",
     "rev_air = max(0, ack.duration - 3 * p.sifs_us - CTS_AIR - ACK_AIR)",
     "0 -> -1"):
        "the difference is the reverse DATA's airtime, at least one "
        "preamble",
    (_MAC, "Packet", "remaining: int = 0", "0 -> 1"):
        "__post_init__ sets it to `size`",
    (_MAC, "Packet", "remaining: int = 0", "0 -> -1"):
        "__post_init__ sets it to `size`",
    (_MAC, "AccessCategory.__init__",
     "self.count_start = 0  # reference instant for consumed-slot arithmetic",
     "0 -> 1"):
        "`_arm_now` sets it before a timer exists, and only a pending "
        "timer reads it",
    (_MAC, "AccessCategory.__init__",
     "self.count_start = 0  # reference instant for consumed-slot arithmetic",
     "0 -> -1"):
        "`_arm_now` sets it before a timer exists, and only a pending "
        "timer reads it",
    (_MAC, "AccessCategory.__init__",
     "self.ready_time = 0  # when a packet last joined an empty queue",
     "0 -> 1"):
        "`enqueue` sets it when the queue was empty, and only a queued "
        "packet arms a timer",
    (_MAC, "AccessCategory.__init__",
     "self.ready_time = 0  # when a packet last joined an empty queue",
     "0 -> -1"):
        "`enqueue` sets it when the queue was empty, and only a queued "
        "packet arms a timer",
    (_MAC, "MacNode.__init__", "self.nav_until = 0", "0 -> -1"):
        "a NAV end of 0 or -1 has expired at every instant of a run",
    (_MAC, "MacNode.__init__", "self.idle_since = 0", "0 -> -1"):
        "the first arm counts from the category's ready time, which is "
        "never below 0",
    (_MAC, "MacNode.__init__", "self._chain_idx = 0", "0 -> 1"):
        "every exchange sets it before reading it",
    (_MAC, "MacNode.__init__", "self._chain_idx = 0", "0 -> -1"):
        "every exchange sets it before reading it",
    (_MAC, "MacNode.__init__", "self._xid = -1", "1 -> 2"):
        "`_start_exchange` sets it before any frame reads it",
    (_MAC, "MacNode.__init__", "self._xid = -1", "1 -> 0"):
        "`_start_exchange` sets it before any frame reads it",
    (_MAC, "MacNode.__init__",
     "self._ica_xid = -1  # exchange id of the overheard RTS",
     "1 -> 2"):
        "read only while the ICA timer that `_ica_watch` arms after "
        "setting it is pending",
    (_MAC, "MacNode.__init__",
     "self._ica_xid = -1  # exchange id of the overheard RTS",
     "1 -> 0"):
        "read only while the ICA timer that `_ica_watch` arms after "
        "setting it is pending",
    (_MAC, "MacNode.__init__",
     "self._ica_nav_end = 0  # its end plus its duration: the primary ACK end",
     "0 -> 1"):
        "read only after `_ica_watch` sets it",
    (_MAC, "MacNode.__init__",
     "self._ica_nav_end = 0  # its end plus its duration: the primary ACK end",
     "0 -> -1"):
        "read only after `_ica_watch` sets it",
    (_PCF, "PointCoordinator.__init__", "self.cfp_end = 0", "0 -> 1"):
        "each boundary sets it before its beacon and polls read it",
    (_PCF, "PointCoordinator.__init__", "self.cfp_end = 0", "0 -> -1"):
        "each boundary sets it before its beacon and polls read it",
    (_PCF, "PointCoordinator.__init__", "self._polled = 0", "0 -> 1"):
        "each boundary resets it before its polls read it",
    (_PCF, "PointCoordinator.__init__", "self._polled = 0", "0 -> -1"):
        "each boundary resets it before its polls read it",
    (_PCF, "PointCoordinator.__init__", "self._boundary = 0", "0 -> 1"):
        "`start` sets it before the first boundary",
    (_PCF, "PointCoordinator.__init__", "self._boundary = 0", "0 -> -1"):
        "`start` sets it before the first boundary",
    (_MAC, "MacNode.__init__", "self.nav_xid = -1", "1 -> 2"):
        "exchange ids are only compared for equality, and the frames that "
        "reach the NAV tail carry ids from `_new_xid`, all above 0",
    (_MAC, "MacNode.__init__", "self.nav_xid = -1", "1 -> 0"):
        "exchange ids are only compared for equality, and the frames that "
        "reach the NAV tail carry ids from `_new_xid`, all above 0",
    (_MAC, "MacNode._nav_reset", "self.nav_xid = -1", "1 -> 2"):
        "exchange ids are only compared for equality, and the frames that "
        "reach the NAV tail carry ids from `_new_xid`, all above 0",
    (_MAC, "MacNode._nav_reset", "self.nav_xid = -1", "1 -> 0"):
        "exchange ids are only compared for equality, and the frames that "
        "reach the NAV tail carry ids from `_new_xid`, all above 0",
    (_MAC, "MacNode.set_nav",
     "def set_nav(self, until, xid=-1, replace=False):",
     "1 -> 2"):
        "exchange ids are only compared for equality, and the frames that "
        "reach the NAV tail carry ids from `_new_xid`, all above 0",
    (_MAC, "MacNode.set_nav",
     "def set_nav(self, until, xid=-1, replace=False):",
     "1 -> 0"):
        "exchange ids are only compared for equality, and the frames that "
        "reach the NAV tail carry ids from `_new_xid`, all above 0",
    (_MAC, "MacNode.__init__",
     "self._next_xid = node_id * 1_000_000",
     "1000000 -> 1000001"):
        "the nodes' id ranges stay apart for any run of fewer than "
        "999,999 exchanges per node, as with 1,000,000",
    (_MAC, "MacNode.__init__",
     "self._next_xid = node_id * 1_000_000",
     "1000000 -> 999999"):
        "the nodes' id ranges stay apart for any run of fewer than "
        "999,999 exchanges per node, as with 1,000,000",
    (_MAC, "MacNode._new_xid", "self._next_xid += 1", "1 -> 2"):
        "ids stay unique",
    (_MAC, "MacNode._dcfp_send_reverse",
     "pkt = self._chain[0].packet",
     "0 -> -1"):
        "the chain holds one element",
    (_MAC, "MacNode._ica_cts_timeout", "self._chain_idx = 0", "0 -> -1"):
        "the chain holds one element",
    (_MAC, "MacNode._ica_send_frag", "elem = self._chain[0]", "0 -> -1"):
        "the chain holds one element",
    (_MAC, "MacNode._on_data",
     "and frame.src == self._chain[0].packet.dst):",
     "0 -> -1"):
        "a chain's fragments are of one packet, and an OAR burst takes "
        "packets of one destination",
    (_MAC, "MacNode.enqueue",
     "def enqueue(self, pkt, category=0):",
     "0 -> -1"):
        "the traffic source always passes the category; on a one-category "
        "node -1 is 0",
    (_MAC, "MacNode._dcfp_offer",
     "self._chain = [_ChainElem(pkt, pkt.size, 1)]",
     "1 -> 2"):
        "the reverse DATA sets its own flag, and the packet's remaining "
        "bytes reach 0 at its ACK",
    (_MAC, "MacNode._dcfp_offer",
     "self._chain = [_ChainElem(pkt, pkt.size, 1)]",
     "1 -> 0"):
        "the reverse DATA sets its own flag, and the packet's remaining "
        "bytes reach 0 at its ACK",
    (_MAC, "MacNode._dcfp_send_reverse", "standalone=1)", "1 -> 2"):
        "its receiver waits in DCFP_WAIT_REV and ends the exchange before "
        "the offer test reads the flag",
    (_MAC, "MacNode._dcfp_send_reverse", "standalone=1)", "1 -> 0"):
        "its receiver waits in DCFP_WAIT_REV and ends the exchange before "
        "the offer test reads the flag",
    (_MAC, "MacNode._on_poll",
     "frag_offset=pkt.offset, standalone=1)",
     "1 -> 2"):
        "a DATA_CF_ACK's receiver returns before the offer test reads the "
        "flag",
    (_MAC, "MacNode._on_poll",
     "frag_offset=pkt.offset, standalone=1)",
     "1 -> 0"):
        "a DATA_CF_ACK's receiver returns before the offer test reads the "
        "flag",
    (_MAC, "MacNode._cancel_timer", "self._timer = None", "delete statement"):
        "only `_cancel_timer` reads `_timer`, cancelling twice does "
        "nothing, and the next exchange replaces it",
    (_MEDIUM, "_later_neighbours",
     "side = sense * (1 + 1e-9) or 1.0",
     "1 -> 2"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "xs = [node[2] for node in nodes]",
     "2 -> 3"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "ys = [node[3] for node in nodes]",
     "3 -> 2"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "if (max(xs) // side - min(xs) // side <= 1",
     "<= -> <"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "if (max(xs) // side - min(xs) // side <= 1",
     "1 -> 2"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "if (max(xs) // side - min(xs) // side <= 1",
     "1 -> 0"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "and max(ys) // side - min(ys) // side <= 1):",
     "<= -> <"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "and max(ys) // side - min(ys) // side <= 1):",
     "and -> or"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "and max(ys) // side - min(ys) // side <= 1):",
     "1 -> 2"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "_later_neighbours",
     "and max(ys) // side - min(ys) // side <= 1):",
     "1 -> 0"):
        "the cells only choose candidate pairs, each map of them keeps "
        "every pair in range, and the distance test decides",
    (_MEDIUM, "Medium._end",
     "fer_free = rate <= self.clean_rate or (kind in CONTROL_KINDS",
     "<= -> <"):
        "at the clean rate every frame error rate is 0, so the general "
        "path draws nothing either",
    (_MAC, "AccessCategory.__init__",
     "self.count_start = 0  # reference instant for consumed-slot arithmetic",
     "delete def statement"):
        "`_arm_now` sets it before a timer exists, and only a pending "
        "timer reads it",
    (_MAC, "MacNode._finish_exchange", "self._timer = None",
     "delete def statement"):
        "only `_cancel_timer` reads `_timer`, cancelling a spent Event "
        "does nothing, and the next exchange replaces it",
    (_MAC, "MacNode._finish_exchange", "self._cur_cat = None",
     "delete def statement"):
        "each exchange sets it before reading it",
    (_MAC, "MacNode._nav_reset", "self.nav_xid = -1",
     "delete def statement"):
        "the reset NAV has expired, so a frame of the old exchange can "
        "only set it to now, or later as any frame can",
    (_MAC, "MacNode._ica_cts_timeout", "self._ica_timer = None",
     "delete def statement"):
        "both readers only cancel it, and cancelling a spent Event does "
        "nothing",
    (_MEDIUM, "_later_neighbours",
     "if (max(xs) // side - min(xs) // side <= 1",
     "delete def statement"):
        "the cells give the same pairs in range, in id order: the "
        "all-pairs branch only saves time",
    (_PCF, "PointCoordinator.__init__", "self.state = _CP",
     "delete def statement"):
        "the first boundary, at the run's first instant, sets it before "
        "any frame can start",
    (_PCF, "PointCoordinator.__init__", "self.cfp_end = 0",
     "delete def statement"):
        "each boundary sets it before its beacon and polls read it",
    (_PCF, "PointCoordinator.__init__", "self._polled = 0",
     "delete def statement"):
        "each boundary resets it before its polls read it",
    (_PCF, "PointCoordinator.__init__", "self._timer = None",
     "delete def statement"):
        "the first boundary finds the air idle at the run's first instant, "
        "so `_try_beacon` sets it before any reader runs",
    (_PCF, "PointCoordinator.__init__", "self._boundary = 0",
     "delete def statement"):
        "`start` sets it before the first boundary",
    (_PCF, "PointCoordinator.start", "self._boundary = self.sim.now",
     "delete def statement"):
        "`harness.build` starts the coordinator at 0, the value "
        "`__init__` gives",
    (_ENGINE, "Simulator.__init__", "self._seq = 0", "0 -> 1"):
        "seqs only order entries among themselves, and an offset keeps "
        "every order",
    (_ENGINE, "Simulator.__init__", "self._seq = 0", "0 -> -1"):
        "seqs only order entries among themselves, and an offset keeps "
        "every order",
    (_ENGINE, "Simulator.schedule", "self._seq = seq + 1", "1 -> 2"):
        "seqs stay unique and rising, so every order is kept",
    (_ENGINE, "Simulator.reschedule", "self._seq = seq + 1", "1 -> 2"):
        "seqs stay unique and rising, so every order is kept",
    (_ENGINE, "RandomStream.bernoulli", "return self.uniform() < p",
     "< -> <="):
        "a draw is a multiple of 2**-53, so it equals `p` at most once in "
        "2**53 draws",
}


def _char_col(lines, lineno, col):
    """The character column of the UTF-8 byte offset `col` on `lineno`."""
    return len(lines[lineno - 1].encode()[:col].decode())


def _start(lines, node):
    return node.lineno, _char_col(lines, node.lineno, node.col_offset)


def _end(lines, node):
    return node.end_lineno, _char_col(lines, node.end_lineno,
                                      node.end_col_offset)


def _between(tokens, start, end, words):
    """The tokens in `words` that lie between `start` and `end`."""
    return [t for t in tokens if t.start >= start and t.end <= end
            and t.type in (tokenize.OP, tokenize.NAME) and t.string in words]


def _sites(source):
    """Each mutant of `source` as (line, operator, edits), in the order the
    walk of its tree meets them."""
    tree = ast.parse(source)
    lines = source.splitlines(True)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                found = _between(tokens, _end(lines, left),
                                 _start(lines, right), _OP_WORDS)
                old = " ".join(t.string for t in found)
                yield (found[0].start[0], "%s -> %s" % (old, _FLIP[type(op)]),
                       [(found[0].start, found[-1].end, _FLIP[type(op)])])
                left = right
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) \
                else ("or", "and")
            found = [t for a, b in zip(node.values, node.values[1:])
                     for t in _between(tokens, _end(lines, a),
                                       _start(lines, b), {old})]
            yield (found[0].start[0], "%s -> %s" % (old, new),
                   [(t.start, t.end, new) for t in found])
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            span = (_start(lines, node), _end(lines, node))
            for delta in (1, -1):
                new = str(node.value + delta)
                yield (node.lineno, "%d -> %s" % (node.value, new),
                       [(*span, new)])
        if isinstance(node, _BRANCHES):
            for stmt in node.body + node.orelse:
                if not isinstance(stmt, ast.Pass):
                    yield (stmt.lineno, "delete statement",
                           [(_start(lines, stmt), _end(lines, stmt), "pass")])
        elif isinstance(node, _DEFS):
            for stmt in node.body:
                if not isinstance(stmt, ast.Pass) and not (
                        isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    yield (stmt.lineno, "delete def statement",
                           [(_start(lines, stmt), _end(lines, stmt), "pass")])


def apply(source, edits):
    """`source` with each (start, end, text) edit made; edits do not
    overlap."""
    lines = source.splitlines(True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))

    def at(pos):
        return offsets[pos[0] - 1] + pos[1]

    out = source
    for start, end, text in sorted(edits, key=lambda e: at(e[0]),
                                   reverse=True):
        out = out[:at(start)] + text + out[at(end):]
    return out


def _scopes(tree):
    """{line: qualified name of the innermost def or class holding it}."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    out[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def mutants(path, source):
    """Every mutant of `source`, the text of `path`, that compiles, in line
    order."""
    scopes = _scopes(ast.parse(source))
    for line, operator, edits in sorted(_sites(source),
                                        key=lambda site: site[0]):
        try:
            compile(apply(source, edits), path, "exec")
        except SyntaxError:
            continue
        yield Mutant(path, line, scopes.get(line, ""), operator, edits)


class _Workers:
    """WORKERS copies of the tree under test, handed to one run at a time."""

    def __init__(self, root, copied):
        self.dirs = []
        self.free = queue.Queue()
        for _ in range(WORKERS):
            d = tempfile.mkdtemp(prefix="mutation_sweep_")
            self.dirs.append(d)
            for name in copied:
                shutil.copytree(os.path.join(root, name),
                                os.path.join(d, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            self.free.put(d)

    def close(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def run(self, args, timeout, path=None, text=None):
        """(passed, seconds) of pytest `args` in a free copy, with `path`
        holding `text` for the run."""
        d = self.free.get()
        target = original = None
        try:
            if path is not None:
                target = os.path.join(d, path)
                with open(target) as fh:
                    original = fh.read()
                with open(target, "w") as fh:
                    fh.write(text)
            env = dict(os.environ, PYTHONPATH="src",
                       PYTHONDONTWRITEBYTECODE="1")
            t = time.perf_counter()
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", *args],
                    cwd=d, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=timeout)
                passed = done.returncode == 0
            except subprocess.TimeoutExpired:
                passed = False
            return passed, time.perf_counter() - t
        finally:
            if target is not None:
                with open(target, "w") as fh:
                    fh.write(original)
            shutil.rmtree(os.path.join(d, ".hypothesis"), ignore_errors=True)
            self.free.put(d)


def sweep(root, files, stages, copied=COPIED, log=None):
    """{file: mutant count}, the mutants each stage killed, and the
    survivors of every stage, from mutating `files` (paths relative to
    `root`)."""
    sources = {}
    for path in files:
        with open(os.path.join(root, path)) as fh:
            sources[path] = fh.read()
    alive = [m for path in files for m in mutants(path, sources[path])]
    counts = {path: sum(m.path == path for m in alive) for path in files}
    kills = []
    workers = _Workers(root, copied)
    pool = ThreadPoolExecutor(WORKERS)
    try:
        for stage in stages:
            passed, seconds = workers.run(stage, None)
            if not passed:
                raise RuntimeError("the unmutated tree fails %s"
                                   % " ".join(stage))
            timeout = 3 * seconds + 30
            results = pool.map(lambda m: workers.run(
                stage, timeout, m.path, apply(sources[m.path], m.edits))[0],
                alive)
            results = list(results)
            kills.append([m for m, passed in zip(alive, results)
                          if not passed])
            if log is not None:
                log("%s: %d of %d mutants killed" % (
                    " ".join(stage), len(kills[-1]), len(alive)))
            alive = [m for m, passed in zip(alive, results) if passed]
    finally:
        # On an interrupt, the runs already started end and no other starts.
        pool.shutdown(cancel_futures=True)
        workers.close()
    return counts, kills, alive, sources


def _count_table(counts):
    lines = ["| file | mutants |", "|---|---|"]
    lines += ["| %s | %d |" % (path, n) for path, n in counts.items()]
    lines.append("| all | %d |" % sum(counts.values()))
    return "\n".join(lines)


def _family(operator):
    """The operator family of a mutant's `operator` label."""
    if operator.startswith("delete"):
        return operator
    old = operator.split(" -> ")[0]
    if old in ("and", "or"):
        return "and/or"
    return "integer ±1" if old.lstrip("-").isdigit() else "comparison flip"


def _family_table(columns):
    """A Markdown table of mutants per operator family, with one column for
    each (title, mutants) of `columns`."""
    families = sorted({_family(m.operator) for _, found in columns
                       for m in found})
    lines = ["| operator | %s |" % " | ".join(t for t, _ in columns),
             "|---|" + "---|" * len(columns)]
    for family in families + ["all"]:
        cells = [sum(family in ("all", _family(m.operator)) for m in found)
                 for _, found in columns]
        lines.append("| %s | %s |" % (family, " | ".join(map(str, cells))))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and run nothing")
    args = parser.parse_args()
    if args.list:
        counts, every = {}, []
        for path in FILES:
            with open(os.path.join(ROOT, path)) as fh:
                found = list(mutants(path, fh.read()))
            counts[path] = len(found)
            every += found
            for m in found:
                print("%s:%d: %s: %s" % (m.path, m.line, m.scope, m.operator))
        print()
        print(_count_table(counts))
        print()
        print(_family_table([("mutants", every)]))
        return
    t = time.perf_counter()
    counts, kills, survivors, sources = sweep(
        ROOT, FILES, STAGES, log=lambda s: print(s, flush=True))
    print("%.0f s" % (time.perf_counter() - t))
    print()
    print(_count_table(counts))
    print()
    print(_family_table(
        [("mutants", [m for killed in kills for m in killed] + survivors)]
        + [("killed by %s" % " ".join(stage), killed)
           for stage, killed in zip(STAGES, kills)]
        + [("survived", survivors)]))
    for title, equivalent in (("Survivors", False),
                              ("Survivors listed as equivalent", True)):
        print()
        print("%s:" % title)
        for m in survivors:
            line = sources[m.path].splitlines()[m.line - 1].strip()
            reason = EQUIVALENT.get((m.path, m.scope, line, m.operator))
            if (reason is not None) == equivalent:
                print("- %s:%d: %s: %s: `%s`%s" % (
                    m.path, m.line, m.scope, m.operator, line,
                    " (%s)" % reason if equivalent else ""))


if __name__ == "__main__":
    main()
