"""Spans around calls into the w52 layers, recorded from outside the package.

A span has a name, a start, an end and a parent.  The tracer replaces the
public functions listed in ``LAYER_CALLS`` with timing wrappers wherever a
w52 module binds them, so calls made inside the program (for example the
derivations that ``classify_census`` makes) are caught as child spans.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import re
import sys
import time

#: (span name, module, attribute).  A missing attribute is skipped, so a
#: layer that no longer makes a call reports no time for it.
LAYER_CALLS = (
    ("pentads.enumerate", "w52.pentads", "enumerate_pentads"),
    ("pentads.pentagram", "w52.pentads", "pentad_to_pentagram"),
    ("pentads.config", "w52.pentads", "pentad_to_config"),
    ("taxonomy.classify", "w52.taxonomy", "classify_census"),
    ("taxonomy.signature", "w52.taxonomy", "config_signature"),
    ("export.records", "w52.export", "pentad_records"),
    ("export.render_json", "w52.export", "render_json"),
    ("export.render_csv", "w52.export", "render_csv"),
    ("export.census_csv", "w52.export", "census_csv"),
)

#: Spans whose peak memory is recorded, as the process's peak RSS after the
#: call minus its RSS before it.  Both spans hold the first allocation peak
#: of their processes, so the difference is the call's own peak.
MEMORY_SPANS = ("pentads.enumerate", "export.records")

#: Spans whose last result is kept for the probe's own checks; other
#: results are dropped so that tracing holds no extra memory.
KEPT_RESULTS = ("pentads.enumerate", "taxonomy.classify")


def status_mb(status: str, field: str) -> float:
    """A memory field of /proc/<pid>/status text (VmRSS, VmHWM, ...) in MB."""
    return int(re.search(rf"^{field}:\s+(\d+) kB", status, re.M).group(1)) / 1024


def _own_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        return status_mb(f.read(), field)


class Tracer:
    """Records nested spans in memory; ``spans`` holds [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.peak_mb: dict[str, float] = {}
        self.results: dict[str, object] = {}
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rss = _own_mb("VmRSS") if name in MEMORY_SPANS else None
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if rss is not None:
                self.peak_mb[name] = _own_mb("VmHWM") - rss
            if name in KEPT_RESULTS:
                self.results[name] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of the layer calls and ``Space.__init__``."""
        from w52.geometry import Space

        Space.__init__ = self.wrap("geometry.space", Space.__init__)
        modules = [m for n, m in list(sys.modules.items()) if n == "w52" or n.startswith("w52.")]
        for name, module_name, attr in LAYER_CALLS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of spans, total duration and total self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[i]
    return out


def top_level(spans: list[list]) -> list[tuple[str, float, float]]:
    return [(name, start, end) for name, start, end, parent in spans if parent < 0]
