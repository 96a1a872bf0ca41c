"""Outside-in span tracer.

The tracer records spans around functions of an already imported package
without editing its source. `patch_function` replaces the function in
every module of the package that holds a reference to it, because a
module that did `from .measure import convolve_many_fft` keeps its own
name for the function and patching only the defining module would miss
those calls. `patch_method` replaces a method on its class. Spans stay in
memory as `[name, parent, start, end, counts]` lists until the caller
writes them out; `restore` puts every original back.

The tracer's own cost is the number of spans times `span_cost`, plus
`count_s`, the time spent in counters after the wrapped call returned.

Self time is a span's duration minus the durations of its direct
children. The traced program is single-threaded, so children of one span
never overlap and their sum is the time they cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections.abc import Callable
from types import ModuleType

# (arguments bound by name, return value) -> named counts added to the span
Counter = Callable[[dict, object], dict]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.count_s = 0.0
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, self.clock(), 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                self._open.pop()
            if count is not None:
                tick = self.clock()
                span[4] = count(signature.bind(*args, **kwargs).arguments, result)
                self.count_s += self.clock() - tick
            return result

        return traced

    def patch_function(
        self, module: ModuleType, attr: str, name: str, count: Counter | None = None
    ) -> Callable:
        """Wrap `module.attr` under every name the package binds it to."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, count)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._originals.append((mod, key, original))
                    setattr(mod, key, traced)
        return traced

    def patch_method(
        self, cls: type, attr: str, name: str, count: Counter | None = None
    ) -> Callable:
        original = cls.__dict__[attr]
        traced = self.wrap(name, original, count)
        self._originals.append((cls, attr, original))
        setattr(cls, attr, traced)
        return traced

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def span_cost(clock: Callable[[], float], calls: int = 50_000) -> float:
    """CPU seconds that wrapping adds to one call, measured on a no-op."""

    def noop() -> None:
        return None

    spent = []
    for fn in (noop, Tracer(clock).wrap("noop", noop)):
        start = time.process_time()
        for _ in range(calls):
            fn()
        spent.append(time.process_time() - start)
    return max(0.0, (spent[1] - spent[0]) / calls)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s and every count, summed."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, _, start, end, counts), covered in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out
