"""One-shot campaign report: every analysis in a single text document.

``full_report(result, world)`` stitches the individual analyses into the
kind of summary the paper's Section 3 is — improvement fractions, top-relay
concentration, Table 1, country effects, VoIP, stability — ready to print
or write to disk.  Used by the CLI and handy in notebooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.countries import CountryChangeAnalysis
from repro.analysis.facilities import FacilityTable
from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.ranking import TopRelayAnalysis
from repro.analysis.stability import StabilityAnalysis
from repro.analysis.voip import VoipAnalysis
from repro.core.results import CampaignResult
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.world import World


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def full_report(result: CampaignResult, world: World | None = None) -> str:
    """Render the complete Section-3-style report for a campaign result.

    ``world`` enables the facility table (Table 1); without it that section
    is skipped (a stored result file does not carry PeeringDB state).

    Raises:
        AnalysisError: if the result has no observations.
    """
    if result.total_cases == 0:
        raise AnalysisError("campaign result has no observations")
    table = result.table
    lines: list[str] = []
    lines.append("Shortcuts through Colocation Facilities — campaign report")
    lines.append("=" * 58)
    lines.append(
        f"rounds: {len(result.rounds)}   total cases: {table.num_cases}   "
        f"pings: {result.total_pings}   relays: {len(result.registry)}   "
        f"improving entries: {int(table.imp_indptr[-1])}"
    )
    lines.append(
        "colo filter funnel: " + " -> ".join(str(v) for v in result.colo_filter_funnel)
    )

    lines += _section("Latency improvements per relay type (Fig. 2)")
    improvements = ImprovementAnalysis(result)
    lines.append(f"{'type':>10} {'improved':>9} {'median':>8} {'>100ms':>7} {'n_imp':>6}")
    for relay_type in RELAY_TYPE_ORDER:
        frac = improvements.improved_fraction(relay_type)
        med = improvements.median_improvement(relay_type)
        gt100 = improvements.fraction_above(relay_type, 100.0)
        n_imp = improvements.median_num_improving(relay_type)
        med_text = "n/a" if med is None else f"{med:.1f}"
        n_imp_text = "n/a" if n_imp is None else f"{n_imp:.1f}"
        lines.append(
            f"{relay_type.value:>10} {100 * frac:>8.1f}% "
            f"{med_text:>8} {100 * gt100:>6.1f}% {n_imp_text:>6}"
        )

    lines += _section("How many relays are enough? (Fig. 3)")
    ranking = TopRelayAnalysis(result)
    for n in (1, 10, 50):
        row = " ".join(
            f"{t.value}={100 * ranking.coverage_of_top(t, n):.1f}%"
            for t in RELAY_TYPE_ORDER
        )
        lines.append(f"top-{n:<3} {row}")
    lines.append(
        f"top-10 COR facilities: {sorted(ranking.facilities_of_top(10))}"
    )

    if world is not None:
        lines += _section("Facilities of the top Colo relays (Table 1)")
        lines.append(FacilityTable(result, world).render(top_relays=20))

    lines += _section("Changing countries and paths")
    countries = CountryChangeAnalysis(result)
    for relay_type in RELAY_TYPE_ORDER:
        rates = countries.group_rates(relay_type)
        diff = "n/a" if rates.different_rate is None else f"{100 * rates.different_rate:.1f}%"
        same = "n/a" if rates.same_rate is None else f"{100 * rates.same_rate:.1f}%"
        lines.append(f"{relay_type.value:>10}: third-country {diff} vs same-country {same}")
    lines.append(
        f"intercontinental pairs: {100 * countries.intercontinental_fraction():.1f}%"
    )

    lines += _section("VoIP quality (320 ms)")
    voip = VoipAnalysis(result)
    lines.append(
        f"direct > 320 ms: {100 * voip.direct_poor_fraction():.1f}%   "
        f"with best COR: {100 * voip.relayed_poor_fraction(RelayType.COR):.1f}%"
    )

    if len(result.rounds) >= 2:
        lines += _section("Stability over time")
        stability = StabilityAnalysis(result, min_occurrences=2)
        for key, value in stability.summary().items():
            lines.append(f"{key:>28}: {value}")

    return "\n".join(lines)
