"""Spans around the public functions of each morsespec module, in-process.

``Tracer.install`` replaces every public function of the traced modules, in
every morsespec module that holds a reference to it (``from .morse import
build_gradient`` in ``spectral`` and ``continuation``, ``from .continuation
import sandwich_built`` in ``cli``, aliases such as ``full_is_cycle``), with a
wrapper that records a span: name, start, end and parent span.  A few methods
that carry named layer costs are wrapped on their class.  Spans stay in memory
until ``dump`` at the end of the process.

Self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("gf2", "complex", "fields", "morse", "homology", "spectral", "continuation", "cli")

# Per-vector and per-vertex helpers called inside inner loops.  Wrapping them
# would cost more than the work they do; their time stays in the caller.
SKIP = {
    "gf2.pivot",
    "gf2.reduce_vector",
    "gf2.from_bits",
    "complex.torus_vertex_id",
    "complex.torus_h_edge_id",
    "complex.torus_v_edge_id",
}

METHODS = {
    "morse.flow_down": ("DiscreteGradient", "flow_down"),
    "morse.expand": ("DiscreteGradient", "expand"),
    "morse.to_json_dict": ("MorseComplex", "to_json_dict"),
    "cli.emit": (None, "_emit"),
}


def now_ns() -> int:
    """CLOCK_MONOTONIC, shared by every process on the machine."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _count_to_bits(tracer, args, out):
    tracer.counts["gf2.to_bits.bits_scanned"] += args[0].bit_length()
    tracer.counts["gf2.to_bits.bits_returned"] += len(out)


def _count_expand(tracer, args, out):
    tracer.counts["morse.expand.cells_out"] += len(out)


def _count_grid(tracer, args, out):
    tracer.counts["complex.cells"] += len(out)


def _count_gradient(tracer, args, out):
    tracer.counts["morse.critical"] += len(out.critical)
    tracer.counts["morse.gradient_cells"] += len(out.complex)
    # Distinct input fields by value; float hashes are not salted, so one
    # field loaded by two processes hashes the same.
    tracer.fields.add(hash(out.field.vertex_values))


# Counts recorded at the same boundaries as the spans.
COUNTERS = {
    "gf2.to_bits": _count_to_bits,
    "morse.expand": _count_expand,
    "complex.build_torus_grid": _count_grid,
    "morse.build_gradient": _count_gradient,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counts = {k: 0 for k in (
            "gf2.to_bits.bits_scanned", "gf2.to_bits.bits_returned",
            "morse.expand.cells_out", "complex.cells", "morse.critical",
            "morse.gradient_cells")}
        self.fields: set[int] = set()

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def add_span(self, name: str, start: int, end: int) -> None:
        """A root span timed outside any wrapper, such as the CLI import."""
        self.spans.append((self._name_index(name), start, end, -1))

    def wrap(self, name: str, fn):
        ni = self._name_index(name)
        spans, stack = self.spans, self.stack
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = now_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                spans[sid] = (ni, start, end, parent)
            if count is not None:
                count(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        pkg = {k: m for k, m in sys.modules.items() if k.startswith("morsespec")}
        replace: dict[int, object] = {}
        for short in MODULES:
            mod = pkg[f"morsespec.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replace[id(obj)] = self.wrap(name, obj)
        for name, (cls, attr) in METHODS.items():
            mod = pkg[f"morsespec.{name.split('.')[0]}"]
            owner = getattr(mod, cls) if cls else mod
            wrapped = self.wrap(name, getattr(owner, attr))
            if cls:
                setattr(owner, attr, wrapped)
            else:
                replace[id(getattr(owner, attr))] = wrapped
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)].__wrapped__ is obj:
                    setattr(mod, attr, replace[id(obj)])

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "fields": sorted(self.fields),
        }


def self_times(names: list[str], spans: list) -> tuple[dict, dict, dict]:
    """Per name: summed self time (ns), summed duration (ns) and call count."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, (ni, start, end, _) in enumerate(spans):
        name = names[ni]
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child[i]
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return self_ns, total_ns, calls
