"""Unified observability layer: metrics, span tracing, profiling.

One module-level recorder state backs the whole engine.  It starts
**disabled**: every handle the instrumented subsystems bind
(:func:`counter`, :func:`gauge`, :func:`timer`, :func:`span`) is then
the shared :data:`~repro.obs.metrics.NULL_HANDLE` singleton whose
operations are empty methods — no allocation, no RNG access, no control
-flow change, so a metrics-off run is byte-identical to the
uninstrumented engine.

``repro campaign/sweep/serve-bench/montecarlo --metrics PATH --trace
PATH`` call :func:`enable` before building any instrumented object and
:func:`write_metrics`/:func:`write_trace` on the way out.  Worker
processes (sweep pool jobs) record into their own lane via
:func:`begin_worker` and ship a :func:`worker_payload` snapshot back for
:func:`merge_worker_payload`, which is how one Chrome trace file ends up
with per-worker ``tid`` swim-lanes.

Determinism contract: counters and gauges only ever receive values that
are themselves deterministic for a given command line, so the
``structural`` section of the metrics artifact is byte-stable across
runs; wall-clock observations live only in span/timer histograms and
the segregated ``timings`` section.
"""

from __future__ import annotations

import json
from typing import Any

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    NULL_HANDLE,
    CounterHandle,
    GaugeHandle,
    MetricsRegistry,
    NullHandle,
    TimerHandle,
)
from repro.obs.trace import SpanHandle, SpanTracer

__all__ = [
    "MetricsRegistry",
    "NullHandle",
    "SpanTracer",
    "active",
    "begin_worker",
    "counter",
    "disable",
    "enable",
    "gauge",
    "inc",
    "merge_worker_payload",
    "metrics_on",
    "metrics_registry",
    "observe",
    "profile_to",
    "set_gauge",
    "span",
    "summarize_metrics",
    "timer",
    "traced",
    "tracer",
    "tracing_on",
    "worker_payload",
    "write_metrics",
    "write_trace",
]

#: The profiler and the artifact renderer load on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.profile": ("profile_to",),
        "repro.obs.summarize": ("summarize_metrics",),
    },
)

#: Live recorder state (module-level; None == disabled).
_metrics: MetricsRegistry | None = None
_tracer: SpanTracer | None = None


# ----------------------------------------------------------- lifecycle
def enable(*, metrics: bool = True, trace: bool = False) -> None:
    """Install a fresh registry and/or tracer as the live recorders."""
    global _metrics, _tracer
    _metrics = MetricsRegistry() if metrics else None
    _tracer = SpanTracer() if trace else None


def disable() -> None:
    """Drop the live recorders; all new handles are null again."""
    global _metrics, _tracer
    _metrics = None
    _tracer = None


def active() -> bool:
    """True when either metrics or tracing is live."""
    return _metrics is not None or _tracer is not None


def metrics_on() -> bool:
    return _metrics is not None


def tracing_on() -> bool:
    return _tracer is not None


def metrics_registry() -> MetricsRegistry | None:
    """The live registry (None when metrics are off)."""
    return _metrics


def tracer() -> SpanTracer | None:
    """The live span tracer (None when tracing is off)."""
    return _tracer


# ------------------------------------------------------------- handles
def counter(name: str) -> CounterHandle | NullHandle:
    """A pre-bound counter handle (null singleton when metrics are off)."""
    if _metrics is None:
        return NULL_HANDLE
    return _metrics.counter(name)


def gauge(name: str) -> GaugeHandle | NullHandle:
    """A pre-bound gauge handle (null singleton when metrics are off)."""
    if _metrics is None:
        return NULL_HANDLE
    return _metrics.gauge(name)


def timer(name: str) -> TimerHandle | NullHandle:
    """A pre-bound metrics-only timer (null singleton when metrics are off)."""
    if _metrics is None:
        return NULL_HANDLE
    return _metrics.timer(name)


def span(name: str) -> SpanHandle | NullHandle:
    """A span handle: trace event + timing histogram under one name.

    Bind once near construction (hot paths) or call inline around a
    cold region; returns the null singleton when obs is fully off.
    """
    if _metrics is None and _tracer is None:
        return NULL_HANDLE
    return SpanHandle(name, _metrics, _tracer)


def traced(name: str):
    """Decorator form of :func:`span`, resolving state per call.

    Unlike binding ``span(name)`` at definition time, a ``@traced``
    function picks up recorders enabled after the module was imported.
    """

    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -------------------------------------------------------- direct writes
def inc(name: str, n: int = 1) -> None:
    """Increment a counter by name (no-op when metrics are off)."""
    if _metrics is not None:
        _metrics.inc(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge by name (no-op when metrics are off)."""
    if _metrics is not None:
        _metrics.set_gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record one timing observation by name (no-op when metrics are off)."""
    if _metrics is not None:
        _metrics.observe(name, seconds)


# ------------------------------------------------------ worker plumbing
def begin_worker(lane: int, lane_name: str | None = None) -> None:
    """Start fresh recorders for a worker process on its own trace lane.

    Keeps the current on/off modes but replaces any (fork-inherited)
    state, so a worker never re-ships the driver's pre-fork events.
    No-op when obs is fully off (e.g. spawn-started workers).
    """
    global _metrics, _tracer
    if _metrics is not None:
        _metrics = MetricsRegistry()
    if _tracer is not None:
        _tracer = SpanTracer(lane=lane, lane_name=lane_name or f"worker-{lane}")


def worker_payload(reset: bool = True) -> dict[str, Any] | None:
    """Snapshot this process's recorders for shipping to the driver.

    With ``reset`` (default) the recorders are emptied afterwards so a
    long-lived worker answering repeated collections never double-ships.
    Returns None when obs is off.
    """
    global _metrics, _tracer
    if _metrics is None and _tracer is None:
        return None
    payload: dict[str, Any] = {
        "metrics": _metrics.to_payload() if _metrics is not None else None,
        "trace": _tracer.to_payload() if _tracer is not None else None,
        "lane": _tracer.lane if _tracer is not None else None,
    }
    if reset:
        if _metrics is not None:
            _metrics = MetricsRegistry()
        if _tracer is not None:
            _tracer = SpanTracer(lane=_tracer.lane, lane_name=_tracer.lane_name)
    return payload


def merge_worker_payload(payload: dict[str, Any] | None) -> None:
    """Fold one :func:`worker_payload` snapshot into the live recorders."""
    if payload is None:
        return
    if _metrics is not None and payload.get("metrics") is not None:
        _metrics.merge_payload(payload["metrics"])
    if _tracer is not None and payload.get("trace") is not None:
        _tracer.merge_payload(payload["trace"])


# -------------------------------------------------------------- export
def write_metrics(path: str) -> None:
    """Write the live registry's artifact (empty artifact when off)."""
    registry = _metrics if _metrics is not None else MetricsRegistry()
    registry.write(path)


def write_trace(path: str) -> None:
    """Write the live tracer's Chrome trace file (empty trace when off)."""
    live = _tracer if _tracer is not None else SpanTracer()
    live.write(path)


def load_artifact(path: str) -> dict[str, Any]:
    """Read a metrics artifact back (for ``repro metrics summarize``)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
