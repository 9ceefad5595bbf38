"""In-memory span tracer that wraps rigidlab's public functions from outside.

A function is replaced at every place it is bound: `from .relations import
enumerate_homs` copies the reference into `product`, `phi` and
`acceptance`, and class aliases such as `QScalar.__rmul__ = __mul__` copy it
again, so patching only the defining module would miss those calls.

Each wrapped call records a span (name, parent span, start, end).  Self
time is the span's duration minus the time covered by its child spans, kept
on a span stack as calls return.  Spans stay in memory and are written out
once, when the run ends.  Hot scalar methods are wrapped as counters only:
a span per field multiplication would cost more than the multiplication.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.names = []
        self._name_ids = {}
        self._starts = array("d")
        self._ends = array("d")
        self._name_of = array("i")
        self._parent = array("i")
        self._stack = []  # frames: [span index, child seconds, name, flags]
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, on_exit):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        calls_key = name + ".calls"
        stack = self._stack
        counts = self.counts
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            parent = stack[-1] if stack else None
            frame = [len(self._starts), 0.0, name, None]
            self._starts.append(0.0)
            self._ends.append(0.0)
            self._name_of.append(nid)
            self._parent.append(parent[0] if parent else -1)
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                counts[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                self._starts[frame[0]] = t0
                self._ends[frame[0]] = t1
                if on_exit is not None:
                    on_exit(counts, parent, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, spans, counters):
        """Wrap every binding of each target.

        spans: (name, owner, attribute, on_exit or None) tuples;
        counters: (counter key, owner, attribute) tuples.  The owner is the
        defining module or class; the function found there is then replaced
        wherever the same object is bound in rigidlab's modules and in the
        classes they define.
        """
        replacements = {}
        for name, owner, attr, on_exit in spans:
            fn = vars(owner)[attr]
            replacements[id(fn)] = (fn, self._span_wrapper(name, fn, on_exit))
        for key, owner, attr in counters:
            fn = vars(owner)[attr]
            replacements[id(fn)] = (fn, self._counter_wrapper(key, fn))

        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, value))

    @staticmethod
    def _namespaces():
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "rigidlab" or name.startswith("rigidlab.")):
                continue
            yield mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def write_spans(self, path: str) -> None:
        """Gzipped TSV: span id, parent id (-1 at the root), name, start, end."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._starts)):
                fh.write(f"{i}\t{self._parent[i]}\t{names[self._name_of[i]]}\t"
                         f"{self._starts[i]:.9f}\t{self._ends[i]:.9f}\n")
