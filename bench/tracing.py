"""Spans around every public function of the six library modules.

``Tracer.install`` wraps each public function of the layer modules and
rebinds the wrapper under every name any ``ramseybench`` module holds it
by, so calls from one library function to another are caught too.  Each
call becomes one span (call id, span id, parent span, layer, name,
start, end, self time); spans stay in memory until ``write``.

Self time is a span's duration minus the time its child spans cover, so
the self times of all spans add up to the root spans.  A generator is
one span whose busy time is the sum of its resumptions; each resumption
counts as child time of whoever resumed it.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("typecalc", "pointsets", "homogeneity", "randomgraph", "setalgebra", "omegatypes")
SCHEDULES = ("configuration_schedule", "color_schedule")


class Frame:
    __slots__ = ("span", "parent", "layer", "name", "start", "child", "args")

    def __init__(self, span, parent, layer, name, start, args):
        self.span, self.parent, self.layer, self.name = span, parent, layer, name
        self.start, self.child, self.args = start, 0.0, args


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[Frame] = []
        self.counters: Counter = Counter()
        self.call_id = ""
        self._next = 0
        self._bindings: list[tuple] = []

    # ------------------------------------------------------------ spans

    def enter(self, layer: str, name: str, args=()) -> Frame:
        self._next += 1
        parent = self.stack[-1].span if self.stack else None
        frame = Frame(self._next, parent, layer, name, perf_counter(), args)
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame):
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        if self.stack:
            self.stack[-1].child += duration
        self.spans.append((self.call_id, frame.span, frame.parent, frame.layer,
                           frame.name, frame.start, end, duration - frame.child))

    def _generator(self, layer: str, name: str, inner):
        self._next += 1
        span = self._next
        parent = self.stack[-1].span if self.stack else None
        call_id = self.call_id
        start = end = perf_counter()
        busy = child = 0.0
        items = 0
        try:
            while True:
                frame = Frame(span, parent, layer, name, perf_counter(), ())
                if not items:
                    start = frame.start
                self.stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    busy += end - frame.start
                    child += frame.child
                    if self.stack:
                        self.stack[-1].child += end - frame.start
                items += 1
                yield item
        finally:
            inner.close()
            self.counters[f"{layer}.{name}.items"] += items
            self.spans.append((call_id, span, parent, layer, name, start, end, busy - child))

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                return tracer._generator(layer, name, fn(*args, **kwargs))
            return generator_wrapper
        hook = getattr(self, f"_after_{name}", None)

        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer, name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def install(self):
        """Bind the wrappers of the layers' public functions wherever the
        functions are bound; ``uninstall`` puts the originals back."""
        if not self._bindings:
            wrapped = {}
            for layer in LAYERS:
                module = sys.modules[f"ramseybench.{layer}"]
                for name, fn in vars(module).items():
                    if (not name.startswith("_") and callable(fn)
                            and not isinstance(fn, type)
                            and getattr(fn, "__module__", None) == module.__name__):
                        wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
            for module_name, module in list(sys.modules.items()):
                if module_name != "ramseybench" and not module_name.startswith("ramseybench."):
                    continue
                for attr, value in vars(module).items():
                    if id(value) in wrapped and wrapped[id(value)][0] is value:
                        self._bindings.append((module, attr, value, wrapped[id(value)][1]))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # ------------------------------------------------------------ work counters

    def _parent_name(self) -> str:
        return self.stack[-1].name if self.stack else ""

    def _after_enumerate_ntypes(self, args, result):
        self.counters["typecalc.types_enumerated"] += len(result)

    def _after_classify_subsets(self, args, result):
        self.counters["pointsets.subsets_classified"] += sum(map(len, result.values()))

    def _after_extend_with_realizers(self, args, result):
        self.counters["pointsets.points_added"] += len(result) - len(args[0])

    def _after_search_homogeneous(self, args, result):
        self.counters["homogeneity.subsets_checked"] += result.stats.get("subsets_checked", 0)

    def _after_check_tau_homogeneous(self, args, result):
        self.counters["homogeneity.realizers_seen"] += result.realizers

    def _after_realized_type(self, args, result):
        # A realizer table entry: a subset's pattern read for the searched tau.
        if self.stack and self.stack[-1].name == "search_homogeneous":
            self.counters["homogeneity.realizers_seen"] += result == self.stack[-1].args[1]

    def _after_realize_configuration(self, args, result):
        if self._parent_name().startswith("build_"):
            self.counters["randomgraph.configs_processed"] += 1

    _after_realize_color_configuration = _after_realize_configuration

    def _after_build_graph_covering(self, args, result):
        self.counters["randomgraph.vertices_built"] += result.vertex_count

    _after_build_random_graph = _after_build_graph_covering
    _after_build_random_coloring = _after_build_graph_covering
    _after_build_coloring_covering = _after_build_graph_covering

    # ------------------------------------------------------------ reports

    def layer_totals(self) -> dict:
        """Self seconds and span count per layer, cli included."""
        out = {}
        for span in self.spans:
            entry = out.setdefault(span[3], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += span[7]
            entry["calls"] += 1
        return out

    def write(self, path: str):
        origin = min((s[5] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["call", "span", "parent", "layer", "name",
                                 "start_s", "end_s", "self_s"]) + "\n")
            for call, span, parent, layer, name, start, end, own in self.spans:
                fh.write(json.dumps([call, span, parent, layer, name, start - origin,
                                     end - origin, own]) + "\n")
