"""Human-readable rendering of a ``--metrics`` artifact.

Backs ``repro metrics summarize ARTIFACT``: a phase-time table (timer
histograms sorted by total time) followed by the structural counter and
gauge tables.
"""

from __future__ import annotations

from typing import Any

__all__ = ["summarize_metrics"]


def summarize_metrics(artifact: dict[str, Any]) -> str:
    """Render a metrics artifact as an aligned phase-time/counter table."""
    schema = artifact.get("schema") if isinstance(artifact, dict) else None
    if schema != "repro.obs.metrics/1":
        raise ValueError(f"not a repro.obs metrics artifact (schema={schema!r})")
    structural = artifact.get("structural", {})
    counters: dict[str, int] = structural.get("counters", {})
    gauges: dict[str, float] = structural.get("gauges", {})
    timings: dict[str, dict[str, Any]] = artifact.get("timings", {})

    lines: list[str] = []
    if timings:
        width = max(len(name) for name in timings)
        lines.append("phase timings (quantized):")
        lines.append(
            f"  {'phase':<{width}}  {'count':>7}  {'total_ms':>10}  "
            f"{'mean_ms':>9}  {'min_ms':>9}  {'max_ms':>9}"
        )
        by_total = sorted(
            timings.items(), key=lambda item: (-item[1]["total_ms"], item[0])
        )
        for name, row in by_total:
            lines.append(
                f"  {name:<{width}}  {row['count']:>7}  {row['total_ms']:>10.3f}  "
                f"{row['mean_ms']:>9.3f}  {row['min_ms']:>9.3f}  "
                f"{row['max_ms']:>9.3f}"
            )
    if counters:
        width = max(len(name) for name in counters)
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:>12}")
    if gauges:
        width = max(len(name) for name in gauges)
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:>12}")
    if not lines:
        lines.append("(empty metrics artifact)")
    return "\n".join(lines)
