"""The metrics registry: counters, gauges, histograms, providers.

One process-wide :class:`MetricsRegistry` (module-level ``REGISTRY``)
holds every metric under a dotted namespace, get-or-create style::

    from repro.obs import counter

    counter("campaign.compile_cache.hits").inc()

``snapshot()`` exports everything as one plain dict — counters and
gauges as numbers, histograms as small stat dicts — plus the output of
registered **providers**: callables contributing structured sections
for state that lives elsewhere (the linalg normal-form caches, the
compile LRU).  Providers are how the formerly bespoke stats surfaces
report through one namespace without obs owning their storage.

This is also the export the future ``python -m repro serve`` daemon
will put behind its ``/metrics`` endpoint: everything JSON-serializable,
no third-party client library.

Metric updates are plain attribute arithmetic (GIL-coalesced, not
strictly atomic across free-running threads) — the campaign paths that
feed them are single-threaded per process, and worker-process metrics
travel back through task results, not shared memory.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Union


class Counter:
    """A monotonically increasing count (resettable for tests)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0


class Gauge:
    """A point-in-time value (queue depths, cache sizes)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0.0

    def set(self, v: float) -> None:
        self._value = v

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Streaming summary stats of observed values (count/sum/min/max).

    Deliberately bucket-free: the consumers here want totals and
    extremes, and a plain dict export, not quantile sketches.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        self.reset()

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name → metric map with get-or-create accessors and providers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}
        self._providers: Dict[str, Callable[[], Dict]] = {}

    def _get(self, name: str, cls) -> Metric:
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = cls(name)
                self._metrics[name] = m
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(m).__name__}, "
                    f"not a {cls.__name__}"
                )
            return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def register_provider(self, name: str, fn: Callable[[], Dict]) -> None:
        """Register (or replace) a snapshot section computed on demand —
        for stats whose storage lives outside the registry."""
        with self._lock:
            self._providers[name] = fn

    def provider_names(self) -> List[str]:
        with self._lock:
            return sorted(self._providers)

    def snapshot(self, providers: bool = True) -> Dict:
        """Everything as one plain (JSON-serializable) dict: counters
        and gauges by value, histograms as stat dicts, provider
        sections under their registered names.  A provider that raises
        contributes an ``{"error": ...}`` stub rather than sinking the
        whole export."""
        with self._lock:
            metrics = dict(self._metrics)
            provs = dict(self._providers) if providers else {}
        out: Dict = {}
        for name in sorted(metrics):
            m = metrics[name]
            out[name] = m.snapshot() if isinstance(m, Histogram) else m.value
        for name in sorted(provs):
            try:
                out[name] = provs[name]()
            except Exception as exc:  # pragma: no cover - defensive
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def clear(self) -> None:
        """Reset every registered metric (registrations and providers
        survive; only the values go back to zero)."""
        with self._lock:
            for m in self._metrics.values():
                m.reset()


#: the process-wide default registry
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def register_provider(name: str, fn: Callable[[], Dict]) -> None:
    REGISTRY.register_provider(name, fn)


def snapshot(providers: bool = True) -> Dict:
    return REGISTRY.snapshot(providers=providers)


def clear_metrics() -> None:
    REGISTRY.clear()
