"""Outside-in tracer for the agemon package.

Every public function of every ``agemon.*`` module, and every public
method or classmethod of the classes those modules define, is replaced by
a timing wrapper in *each* module that binds it. Several modules import
names directly (``from .sim import simulate``), so patching only the
defining module would miss those calls.

A wrapper records one span per call: name, start, end and the index of the
enclosing span. Spans stay in memory; self time is computed from them after
the operation (a span's duration minus its direct children's durations).
Per-layer counts are computed from wrapper arguments and return values by
hooks that run inside a ``bench.count`` span, so their cost is not charged
to the calling layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "agemon"
COUNT_SPAN = "bench.count"


class Tracer:
    """Owns the patched bindings, the span buffer and the per-op counts."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rules: set[float] = set()
        self.hook_errors: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "sim.simulate": self._count_timeline,
            "aoi.interval_age_areas": self._count_intervals,
            "detector.empirical_error_rate": self._count_rule,
            "detector.mismatch_time_by_period": self._count_rule,
            "summary.summarize": self._count_resamples,
            "report.write_csv": self._count_bytes,
            "report.render_svg": self._count_bytes,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.names = []
        root = importlib.import_module(PACKAGE)
        modules = [root] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        prefix = PACKAGE + "."
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith(prefix):
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, self._span_name(obj))
                    self._patch(module, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(obj)

    def _install_methods(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                self._patch(cls, attr, type(member)(self._wrap(fn, self._span_name(fn))))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, self._span_name(member)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span_name(self, fn) -> str:
        module = fn.__module__.removeprefix(PACKAGE + ".")
        name = f"{module}.{fn.__qualname__}"
        self.names.append(name)
        return name

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self.stack
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                self._run_hook(hook, parent, signature, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, hook, parent: int, signature, args, kwargs, result) -> None:
        index = len(self.spans)
        self.spans.append(None)
        start = perf_counter()
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)
        except (AttributeError, KeyError) as exc:
            # the output or argument this count reads is gone: the count is absent
            self.hook_errors.add(f"{hook.__name__}: {exc!r}")
        finally:
            self.spans[index] = (COUNT_SPAN, start, perf_counter(), parent)

    # -- counts -----------------------------------------------------------

    def _count_timeline(self, arguments, timeline) -> None:
        deliveries = int(timeline.arrival_times.size)
        generations = sum(int(p.generations.size) for p in timeline.periods)
        self.counts["sim.periods"] += int(timeline.start_times.size)
        self.counts["sim.deliveries"] += deliveries
        self.counts["sim.generations"] += generations
        self.counts["sim.discarded"] += sum(int(p.discarded_count) for p in timeline.periods)
        self.counts["sim.timeline_mb"] += _array_bytes(timeline) / 2**20

    def _count_intervals(self, arguments, result) -> None:
        self.counts["aoi.intervals"] += int(np.size(result))

    def _count_rule(self, arguments, result) -> None:
        self.rules.add(float(arguments["rule"].tau))

    def _count_resamples(self, arguments, result) -> None:
        periods = int(arguments["timeline"].start_times.size)
        self.counts["summary.resample_draws"] += int(arguments["resamples"]) * periods

    def _count_bytes(self, arguments, path) -> None:
        self.counts["report.bytes_out"] += path.stat().st_size

    # -- per-operation results ------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.rules.clear()
        self.hook_errors.clear()

    def finish(self) -> tuple[dict[str, float], dict[str, float]]:
        """(counts, self seconds by span name) for the spans recorded since reset.

        Counts include `<name>.calls` for every traced name, so two runs of
        the same operation can be compared for identical counts.
        """
        if any(span is None for span in self.spans):
            raise RuntimeError("finish() called while a traced call is still open")
        counts = dict(self.counts)
        if self.rules:
            counts["detector.rules"] = len(self.rules)
        if counts.get("sim.generations"):
            counts["sim.delivered_share"] = counts["sim.deliveries"] / counts["sim.generations"]
        self_s: dict[str, float] = defaultdict(float)
        if self.spans:
            names, starts, ends, parents = zip(*self.spans)
            duration = np.subtract(ends, starts)
            parents = np.asarray(parents)
            has_parent = parents >= 0
            covered = np.zeros(duration.size)
            np.add.at(covered, parents[has_parent], duration[has_parent])
            own = duration - covered
            for name, value in zip(names, own.tolist()):
                self_s[name] += value
                if name != COUNT_SPAN:
                    counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        return counts, dict(self_s)

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _array_bytes(obj, _seen=None) -> int:
    """Bytes of the numpy arrays reachable from a dataclass instance through
    its fields and tuples of dataclass instances (computed from array sizes,
    not measured)."""
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item, _seen) for item in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is None:
        return 0
    return sum(_array_bytes(getattr(obj, name), _seen) for name in fields)
