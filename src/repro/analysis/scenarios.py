"""Cross-regime paper-shape reductions.

Answers, per scenario (a named world/latency/workload regime from
:mod:`repro.scenarios`), whether the paper's headline shapes hold:
colo relays improving the majority of pairs, leading the other relay
types, reducing medians by tens of milliseconds, and pulling paths back
under the VoIP threshold.  Everything reduces straight over
:class:`~repro.core.table.ObservationTable` columns — the pooled
cross-world table a sweep assembles per scenario — so evaluating a regime
costs a handful of NumPy passes regardless of case count.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.voip import VOIP_RTT_THRESHOLD_MS
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType

#: Median COR reduction (ms) above which the "tens of milliseconds" claim
#: is considered to hold for a regime.
TENS_OF_MS_THRESHOLD = 10.0

#: Metric keys :func:`scenario_metrics` emits for every relay type.
_RAR_TYPES = (RelayType.RAR_OTHER, RelayType.RAR_EYE)


def _voip_poor_fractions(table: ObservationTable) -> tuple[float, float]:
    """(direct, best-COR-relayed) fractions of paths above the threshold."""
    if table.num_cases == 0:
        return 0.0, 0.0
    direct = table.direct_rtt_ms
    poor_direct = int(np.count_nonzero(direct > VOIP_RTT_THRESHOLD_MS))
    code = RELAY_TYPE_ORDER.index(RelayType.COR)
    stitched = table.best_stitched[code]
    # NaN (no usable relay) fails the comparison, keeping the direct RTT
    effective = np.where(stitched < direct, stitched, direct)
    poor_relayed = int(np.count_nonzero(effective > VOIP_RTT_THRESHOLD_MS))
    return poor_direct / table.num_cases, poor_relayed / table.num_cases


def relay_type_metrics(analysis: ImprovementAnalysis | None) -> dict:
    """Win rate and median reduction per relay type, artifact-formatted.

    The one place the sweep's metric keys and rounding are defined: both
    the per-seed sections and the pooled scenario sections go through
    this helper.  ``None`` (an empty table) yields zero win rates.
    """
    metrics: dict = {}
    for relay_type in RELAY_TYPE_ORDER:
        name = relay_type.value
        metrics[f"win_rate_{name}"] = (
            round(analysis.improved_fraction(relay_type), 4) if analysis else 0.0
        )
        median = analysis.median_improvement(relay_type) if analysis else None
        metrics[f"median_rtt_reduction_ms_{name}"] = (
            round(median, 3) if median is not None else None
        )
    return metrics


def scenario_report(table: ObservationTable) -> tuple[dict, dict[str, bool]]:
    """``(metrics, shapes)`` of one scenario's pooled table, in one pass.

    Metrics are identity-free fractions/gains, so they are meaningful on
    cross-seed pooled tables whether or not relay identities were
    unified first (the sweep unifies; see
    :func:`repro.core.results.pool_worlds`).  Nothing is left attached
    to ``table``.  Shape keys (each a plain boolean):

    * ``cases_observed`` — the campaign produced observations at all;
    * ``cor_wins_majority`` — colo relays improve more than half of all
      cases (the paper's headline);
    * ``cor_leads_relay_types`` — no other relay type improves a larger
      fraction of cases than COR;
    * ``cor_reduction_tens_of_ms`` — the median improvement of
      COR-improved cases is at least :data:`TENS_OF_MS_THRESHOLD`;
    * ``voip_no_worse_with_cor`` — routing each pair through its best
      colo relay does not increase the fraction of VoIP-poor paths;
    * ``rar_relays_observed`` — at least one case had a usable
      probe-hosted (RAR) relay (False under a COR/PLR-only relay mix).
    """
    analysis = ImprovementAnalysis.from_table(table) if table.num_cases else None
    poor_direct, poor_relayed = _voip_poor_fractions(table)

    metrics: dict = {"total_cases": table.num_cases}
    metrics.update(relay_type_metrics(analysis))
    metrics["voip_poor_fraction_direct"] = round(poor_direct, 4)
    metrics["voip_poor_fraction_cor"] = round(poor_relayed, 4)

    if analysis is None:
        shapes = {
            "cases_observed": False,
            "cor_wins_majority": False,
            "cor_leads_relay_types": False,
            "cor_reduction_tens_of_ms": False,
            "voip_no_worse_with_cor": True,
            "rar_relays_observed": False,
        }
        return metrics, shapes

    wr = {t: analysis.improved_fraction(t) for t in RELAY_TYPE_ORDER}
    median_cor = analysis.median_improvement(RelayType.COR)
    rar_usable = any(
        bool(np.any(~np.isnan(table.best_stitched[RELAY_TYPE_ORDER.index(t)])))
        for t in _RAR_TYPES
    )
    shapes = {
        "cases_observed": True,
        "cor_wins_majority": wr[RelayType.COR] > 0.5,
        "cor_leads_relay_types": all(
            wr[RelayType.COR] >= wr[t] for t in RELAY_TYPE_ORDER
        ),
        "cor_reduction_tens_of_ms": (
            median_cor is not None and median_cor >= TENS_OF_MS_THRESHOLD
        ),
        "voip_no_worse_with_cor": poor_relayed <= poor_direct,
        "rar_relays_observed": rar_usable,
    }
    return metrics, shapes


def scenario_metrics(table: ObservationTable) -> dict:
    """The metrics half of :func:`scenario_report`."""
    return scenario_report(table)[0]


def paper_shapes(table: ObservationTable) -> dict[str, bool]:
    """The shapes half of :func:`scenario_report`."""
    return scenario_report(table)[1]


def check_expectations(
    shapes: Mapping[str, bool], expect: Mapping[str, bool]
) -> dict:
    """Compare observed shapes against a scenario's expectations.

    Returns ``{"ok": bool, "failed": [...]}`` where each failure names the
    shape, the expected and the observed value.  Expectation keys missing
    from ``shapes`` fail loudly instead of passing silently.
    """
    failed = [
        {"shape": key, "expected": want, "observed": shapes.get(key)}
        for key, want in expect.items()
        if shapes.get(key) is not want
    ]
    return {"ok": not failed, "failed": failed}


def compare_scenarios(sections: Mapping[str, Mapping]) -> dict:
    """Pivot per-scenario metric sections into metric -> scenario rows.

    ``sections`` maps scenario name to the dict :func:`scenario_metrics`
    produced (the sweep artifact's per-scenario ``pooled`` sections).  The
    result makes regime effects readable side by side::

        {"win_rate_COR": {"baseline": 0.87, "lossy": 0.81, ...}, ...}
    """
    keys: list[str] = []
    for metrics in sections.values():
        for key in metrics:
            if key not in keys:
                keys.append(key)
    return {
        key: {name: metrics.get(key) for name, metrics in sections.items()}
        for key in keys
    }
