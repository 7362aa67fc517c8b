"""Fault-injected dynamic worlds: the event timeline subsystem.

A :class:`TimelineConfig` is a declarative, world-independent fault
schedule — relay outages and recoveries, probe churn, link-degradation
windows, traffic shifts.  :func:`compile_timeline` resolves it against a
world into per-round effects the measurement campaign applies between
rounds, and :mod:`repro.timeline.chaos` replays load against a serving
layer while the faults unfold, measuring availability and stale-answer
rates.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ChaosConfig",
    "CompiledTimeline",
    "LinkDegradation",
    "LinkWindow",
    "OUTAGE_POOLS",
    "ProbeChurn",
    "RelayOutage",
    "RoundEffects",
    "TimelineConfig",
    "TimelineEvent",
    "TrafficShift",
    "TrafficWindow",
    "chaos_replay",
    "compile_timeline",
    "rolling_outages",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.timeline.events": (
            "OUTAGE_POOLS",
            "LinkDegradation",
            "ProbeChurn",
            "RelayOutage",
            "TimelineConfig",
            "TimelineEvent",
            "TrafficShift",
            "rolling_outages",
        ),
        "repro.timeline.schedule": (
            "CompiledTimeline",
            "LinkWindow",
            "RoundEffects",
            "TrafficWindow",
            "compile_timeline",
        ),
        "repro.timeline.chaos": ("ChaosConfig", "chaos_replay"),
    },
)
