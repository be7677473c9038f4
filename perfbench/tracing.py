"""Spans and counts around calls into the program's layers.

The tracer wraps public functions of ``codetuples`` from outside: a
function is replaced in every package module whose namespace holds it, so
calls between modules go through the wrapper too, and a method is replaced
on its class.  Each wrapped call records a span (name, start, end, parent
span); ``Bits`` construction is only counted, since it happens on every
slice.  Spans stay in memory, up to a cap, and are written out when the run
ends; per-operation totals (calls, time, self time) are kept for every
call, so the cap never affects a metric.

A span's self time is its duration minus the time of the wrapped calls made
inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "codetuples"

# (span name, module, attribute): calls recorded as spans
SPANNED = (
    ("prefix_sets.encode_from", "prefix_sets", "encode_from"),
    ("prefix_sets.PrefixSetTable.base", "prefix_sets", "PrefixSetTable.base"),
    ("codec.decode", "codec", "decode"),
    ("codec.roundtrip_check", "codec", "roundtrip_check"),
    ("codec.identification_delays", "codec", "identification_delays"),
    ("search.enumerate_min", "search", "enumerate_min"),
    ("search.compare_aifv_huffman", "search", "compare_aifv_huffman"),
    ("analysis.delay_decodability", "analysis", "delay_decodability"),
    ("analysis.reachable_tables", "analysis", "reachable_tables"),
    ("classes.classify", "classes", "classify"),
    ("classes.is_aifv", "classes", "is_aifv"),
    ("markov.stationary_distribution", "markov", "stationary_distribution"),
    ("transforms.chain_to_class", "transforms", "chain_to_class"),
    ("transforms.rotate", "transforms", "rotate"),
    ("core.parse_code_tuple", "core", "parse_code_tuple"),
    ("core.parse_dist", "core", "parse_dist"),
    ("core.serialize_code_tuple", "core", "serialize_code_tuple"),
)
# (count name, module, attribute): calls only counted
COUNTED = (("bits.Bits", "bits", "Bits.__init__"),)

CLI_VERBS = ("check", "classify", "psets", "stationary", "avglen",
             "transform", "decode", "goldens")

SPAN_CAP = 100_000


def _self_ms(name):
    return lambda agg: agg[name][2] / 1e6


def _total_ms(name):
    return lambda agg: agg[name][1] / 1e6


def _calls(name):
    return lambda agg: agg[name][0]


# per-layer metric: (unit, value from one operation's totals)
LAYER_METRICS = {
    "bits.Bits.calls": ("count", _calls("bits.Bits")),
    "prefix_sets.encode_from.self_ms":
        ("ms", _self_ms("prefix_sets.encode_from")),
    "prefix_sets.PrefixSetTable.base.self_ms":
        ("ms", _self_ms("prefix_sets.PrefixSetTable.base")),
    "prefix_sets.PrefixSetTable.base.calls":
        ("count", _calls("prefix_sets.PrefixSetTable.base")),
    "codec.decode.self_ms": ("ms", _self_ms("codec.decode")),
    "codec.decode.calls": ("count", _calls("codec.decode")),
    "codec.roundtrip_check.self_ms":
        ("ms", _self_ms("codec.roundtrip_check")),
    "codec.identification_delays.self_ms":
        ("ms", _self_ms("codec.identification_delays")),
    "search.enumerate_min.cold_ms":
        ("ms", _total_ms("search.enumerate_min.cold")),
    "search.enumerate_min.warm_ms":
        ("ms", _total_ms("search.enumerate_min.warm")),
    "search.compare_aifv_huffman.self_ms":
        ("ms", _self_ms("search.compare_aifv_huffman")),
    "analysis.delay_decodability.self_ms":
        ("ms", _self_ms("analysis.delay_decodability")),
    "analysis.reachable_tables.self_ms":
        ("ms", _self_ms("analysis.reachable_tables")),
    "classes.classify.self_ms": ("ms", _self_ms("classes.classify")),
    "classes.is_aifv.self_ms": ("ms", _self_ms("classes.is_aifv")),
    "markov.stationary_distribution.self_ms":
        ("ms", _self_ms("markov.stationary_distribution")),
    "transforms.chain_to_class.self_ms":
        ("ms", _self_ms("transforms.chain_to_class")),
    "transforms.rotate.calls": ("count", _calls("transforms.rotate")),
    "core.parse_code_tuple.self_ms": ("ms", _self_ms("core.parse_code_tuple")),
    "core.parse_dist.self_ms": ("ms", _self_ms("core.parse_dist")),
    "core.serialize_code_tuple.self_ms":
        ("ms", _self_ms("core.serialize_code_tuple")),
}
LAYER_METRICS.update(("cli.%s.ms" % verb, ("ms", _total_ms("cli." + verb)))
                     for verb in CLI_VERBS)


def _resolve(module, attr):
    """(owner, name, object) for 'func' or 'Class.method'; None if gone."""
    owner = importlib.import_module("%s.%s" % (PACKAGE, module))
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    obj = getattr(owner, name, None) if owner is not None else None
    return None if obj is None else (owner, name, obj)


class Tracer:
    """Wraps the program's layers while installed; keeps spans and totals."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = array("q")  # index, name id, start, end, parent
        self.recorded = 0
        self.dropped = 0
        self._next_index = 0
        self._stack = []  # frames of the open spans
        self._patches = []
        self._spaces = set()
        self.totals = defaultdict(lambda: [0, 0, 0])  # calls, ns, self ns

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [self._next_index, 0, parent, 0]  # index, child ns, parent
        self._next_index += 1
        stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def close(self, name, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        index, child, parent, start = frame
        spent = end - start
        if self._stack:
            self._stack[-1][1] += spent
        total = self.totals[name]
        total[0] += 1
        total[1] += spent
        total[2] += spent - child
        if self.recorded < SPAN_CAP:
            self.spans.extend((index, self._name_id(name), start, end, parent))
            self.recorded += 1
        else:
            self.dropped += 1

    def call(self, name, func, args, kwargs):
        frame = self.open()
        try:
            return func(*args, **kwargs)
        finally:
            self.close(name, frame)

    def begin_op(self):
        """Start a fresh set of per-operation totals; the program's caches
        were just emptied, so every search space is cold again."""
        self.totals.clear()
        self._spaces.clear()

    def op_values(self):
        return {name: value(self.totals)
                for name, (_, value) in LAYER_METRICS.items()}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, func):
        tracer = self
        if name == "search.enumerate_min":
            @functools.wraps(func)
            def wrapper(space, *args, **kwargs):
                cold = space not in tracer._spaces
                tracer._spaces.add(space)
                return tracer.call(name + (".cold" if cold else ".warm"),
                                   func, (space,) + args, kwargs)
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, args, kwargs)
        return wrapper

    def _wrap_count(self, name, func):
        total = self.totals

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            total[name][0] += 1
            return func(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for wrap, table in ((self._wrap, SPANNED),
                            (self._wrap_count, COUNTED)):
            for name, module, attr in table:
                found = _resolve(module, attr)
                if found is None:
                    continue  # the layer no longer has this function
                owner, attr_name, obj = found
                wrapper = wrap(name, obj)
                if isinstance(owner, type):
                    self._patch(owner, attr_name, obj, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, key, obj, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path):
        """Spans as tab-separated lines: index, name, start ns, end ns,
        parent index (-1 at the top)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# spans %d dropped %d\n" % (self.recorded,
                                                       self.dropped))
            spans = self.spans
            for n in range(0, len(spans), 5):
                index, name, start, end, parent = spans[n:n + 5]
                handle.write("%d\t%s\t%d\t%d\t%d\n" % (
                    index, self.names[name], start, end, parent))


@contextlib.contextmanager
def span(tracer, name):
    """A span the benchmark opens around its own call, when tracing."""
    if tracer is None:
        yield
        return
    frame = tracer.open()
    try:
        yield
    finally:
        tracer.close(name, frame)
