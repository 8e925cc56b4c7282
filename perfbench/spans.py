"""In-memory spans recorded around calls into the package's public functions.

Spans are recorded only from the benchmark's own code: either by calling a
function through ``Tracer.call`` or by temporarily replacing a module or
class attribute with a recording wrapper (``Tracer.patch``, and
``Tracer.patch_iter`` for generator functions).  A span's self time is
its duration minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # One entry per span: [request id, name, parent index, start, end].
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = len(self.spans)
        span = [self.request, name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def patch(self, module, attr: str, name: str) -> None:
        """Record a span named ``name`` for every call of ``module.attr``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def patch_iter(self, module, attr: str, name: str) -> None:
        """Record a span named ``name`` for every item ``module.attr(...)`` yields."""
        original = getattr(module, attr)
        end = object()

        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            while (item := self.call(name, next, items, end)) is not end:
                yield item

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, total duration and self time (s)."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for (_, name, _, start, end), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)
