"""Per-layer tracing of delcodes from outside the package.

Each layer boundary is a module-level function (or a ``Field`` method) of a
module in ``src/delcodes``.  ``Tracer.installed()`` replaces every such
function, in every delcodes module that holds it under a name (a
``from .x import f`` binds its own copy), by a timing wrapper, and puts the
originals back on exit.  No source file changes.

There are two kinds of layer:

- span layers (scheme, channel, rsouter, spec build, inner build/check)
  log one span (name, start, end, parent span, op id) per call.  Spans stay
  in memory and are written out by ``write``;
- leaf layers (``Field`` arithmetic, subsequence and LCS tests, inner
  decode) are called too often to log one record per call.  They only count
  calls and accumulate time.

Both kinds share one call stack, so a layer's self time is its own
duration minus the durations of the instrumented calls nested in it.  Each
op runs under a root span named ``op``; the root's self time is the part of
the op that no layer covers (the harness and uninstrumented code).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

from delcodes.errors import DeletionCodeError
from delcodes.gf import Field

# Spans beyond this many are counted but not kept, which bounds memory.
SPAN_CAP = 100_000

ROOT = "op"


def _hit_unique(stat, result, exc):
    stat.extra["hits"] = stat.extra.get("hits", 0) + (exc is None)


def _hit_list(stat, result, exc):
    stat.extra["hits"] = stat.extra.get("hits", 0) + bool(result)


def _failed(stat, result, exc):
    stat.extra["failures"] = (stat.extra.get("failures", 0)
                              + isinstance(exc, DeletionCodeError))


def _accepted(stat, result, exc):
    book = result if exc is None else getattr(exc, "codebook", None)
    stat.extra["accepted"] = (stat.extra.get("accepted", 0)
                              + (0 if book is None else len(book.codewords)))


def _units(stat, result, exc):
    stat.extra["units"] = stat.extra.get("units", 0) + len(result or ())


# (module, function, layer, logs a span, observer of each call's outcome)
LAYERS = (
    ("delcodes.seqkit", "_is_subseq_seq", "seqkit.subseq", False, None),
    ("delcodes.seqkit", "_lcs_seq", "seqkit.lcs", False, None),
    ("delcodes.seqkit", "_multi_lcs", "seqkit.multi_lcs", False, None),
    ("delcodes.innercode", "inner_decode_unique", "innercode.decode", False,
     _hit_unique),
    ("delcodes.innercode", "inner_decode_list", "innercode.decode", False,
     _hit_list),
    ("delcodes.innercode", "_build", "innercode.build", True, _accepted),
    ("delcodes.innercode", "check_codebook", "innercode.check", True, None),
    ("delcodes.rsouter", "rs_encode", "rsouter.encode", True, None),
    ("delcodes.rsouter", "rs_decode_ee", "rsouter.decode", True, _failed),
    ("delcodes.rsouter", "rs_list_recover_bruteforce", "rsouter.list_recover",
     True, None),
    ("delcodes.highnoise", "hn_encode", "highnoise.encode", True, None),
    ("delcodes.highnoise", "hn_decode", "highnoise.decode", True, None),
    ("delcodes.highnoise", "hn_partition_blocks", "highnoise.split", True,
     _units),
    ("delcodes.hirate", "br_encode", "hirate.encode", True, None),
    ("delcodes.hirate", "br_decode", "hirate.decode", True, None),
    ("delcodes.hirate", "br_windows", "hirate.split", True, _units),
    ("delcodes.listdec", "ld_encode", "listdec.encode", True, None),
    ("delcodes.listdec", "ld_decode", "listdec.decode", True, None),
    ("delcodes.listdec", "ld_windows", "listdec.split", True, _units),
    ("delcodes.channel", "attack", "channel.attack", True, None),
    ("delcodes.channel", "apply_deletions", "channel.apply", True, None),
    ("delcodes.channel", "run_trials", "channel.runner", True, None),
    ("delcodes.highnoise", "hn_make_spec", "presets.make_spec.highnoise", True,
     None),
    ("delcodes.hirate", "br_make_spec", "presets.make_spec.hirate", True,
     None),
    ("delcodes.listdec", "ld_make_spec", "presets.make_spec.listdec", True,
     None),
)

# Field arithmetic, traced as the leaf layer "gf".
GF_METHODS = ("add", "sub", "neg", "mul", "inv", "div", "pow")


class Stat:
    """Calls, inclusive and self seconds, and outcome counters of a layer."""

    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, int] = {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.dropped = 0
        self.stats: dict[str, Stat] = {}
        self.op_id = None
        # One frame per active call: [seconds spent in instrumented
        # children, index of the nearest enclosing logged span].
        self._stack: list[list] = [[0.0, -1]]
        self._root = self._wrap(lambda fn, *args: fn(*args), ROOT, True, None)

    def _stat(self, layer: str) -> Stat:
        return self.stats.setdefault(layer, Stat())

    def _wrap(self, fn, layer: str, span: bool, observe):
        # The parent is charged for the whole wrapper (t_in to the end), the
        # layer only for the call itself (t0 to t1), so the wrapper's own
        # cost lands in no layer's self time.
        stat = self._stat(layer)
        stack = self._stack
        spans = self.spans
        clock = self.clock
        tracer = self

        if not span and observe is None:
            def leaf(*args, **kwargs):
                t_in = clock()
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    stat.calls += 1
                    stat.total_s += t1 - t0
                    stat.self_s += t1 - t0 - frame[0]
                    parent[0] += clock() - t_in

            return leaf

        def traced(*args, **kwargs):
            t_in = clock()
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span:
                if len(spans) < SPAN_CAP:
                    frame[1] = len(spans)
                    spans.append([layer, 0.0, 0.0, parent[1], tracer.op_id])
                else:
                    tracer.dropped += 1
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat.calls += 1
                stat.total_s += t1 - t0
                stat.self_s += t1 - t0 - frame[0]
                if frame[1] != parent[1]:
                    record = spans[frame[1]]
                    record[1] = t0
                    record[2] = t1
                if observe is not None:
                    observe(stat, result, exc)
                parent[0] += clock() - t_in

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block.

        Raises LookupError, wrapping nothing, if a layer function is not
        there: its metrics would read 0, which looks like a gain.
        """
        missing = [f"{modname}.{attr}" for modname, attr, *_ in LAYERS
                   if not callable(getattr(importlib.import_module(modname),
                                           attr, None))]
        missing += [f"Field.{meth}" for meth in GF_METHODS
                    if meth not in Field.__dict__]
        if missing:
            raise LookupError(f"tracer: layer functions not found: {missing}")
        undo = []
        try:
            for modname, attr, layer, span, observe in LAYERS:
                orig = getattr(sys.modules[modname], attr)
                wrapped = self._wrap(orig, layer, span, observe)
                for name, mod in list(sys.modules.items()):
                    if name != "delcodes" and not name.startswith("delcodes."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, orig))
            for meth in GF_METHODS:
                orig = Field.__dict__[meth]
                setattr(Field, meth, self._wrap(orig, "gf", False, None))
                undo.append((Field, meth, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) under a root span; spans inside it carry op_id."""
        self.op_id = op_id
        try:
            return self._root(fn, *args)
        finally:
            self.op_id = None

    def take(self) -> dict[str, Stat]:
        """Return the stats of the layers called so far and zero them."""
        taken = {}
        for layer, live in self.stats.items():
            if live.calls:
                taken[layer] = copy = Stat()
                copy.calls, copy.total_s, copy.self_s = (
                    live.calls, live.total_s, live.self_s)
                copy.extra = live.extra
            live.calls, live.total_s, live.self_s, live.extra = 0, 0.0, 0.0, {}
        return taken

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def self_time_report(stats: dict[str, Stat], ops: int) -> list[str]:
    """Layers by descending self time, per op and as a share of op wall.

    The last line is the share of op wall time spent in the wrappers
    themselves, which no layer is charged for.
    """
    root = stats.get(ROOT)
    wall = root.total_s if root else 0.0
    lines = [f"{'layer':<28}{'calls/op':>12}{'self ms/op':>12}{'share':>8}"]
    for layer, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        share = st.self_s / wall if wall else 0.0
        lines.append(f"{layer:<28}{st.calls / ops:>12.3f}"
                     f"{st.self_s / ops * 1e3:>12.4f}{share:>8.1%}")
    unattributed = wall - sum(st.self_s for st in stats.values())
    share = unattributed / wall if wall else 0.0
    lines.append(f"{'(tracing wrappers)':<28}{'':>12}"
                 f"{unattributed / ops * 1e3:>12.4f}{share:>8.1%}")
    return lines
