"""TXT-MED — in-text medians and redundancy.

Paper: median improvements 12-14 ms across types; COR/RAR_other exceed
100 ms in ~6% of improved cases; the median number of improving relays
per pair is 8 COR / 3 PLR / 2 RAR_other / 2 RAR_eye (high COR
redundancy); on cases where both improve, COR's best path is within
5-10 ms of RAR_other's.
"""

from __future__ import annotations

from repro.analysis.improvements import ImprovementAnalysis
from repro.core.types import RELAY_TYPE_ORDER, RelayType

PAPER_NUM_IMPROVING = {
    RelayType.COR: 8,
    RelayType.PLR: 3,
    RelayType.RAR_OTHER: 2,
    RelayType.RAR_EYE: 2,
}


def test_medians_and_redundancy(benchmark, result, report_sink):
    analysis = benchmark(ImprovementAnalysis, result)

    lines = [
        f"{'type':>10} {'median_ms':>10} {'>100ms%':>8} {'n_improving':>12} {'paper_n':>8}"
    ]
    for relay_type in RELAY_TYPE_ORDER:
        med = analysis.median_improvement(relay_type)
        gt100 = analysis.fraction_above(relay_type, 100.0)
        n_imp = analysis.median_num_improving(relay_type)
        lines.append(
            f"{relay_type.value:>10} {med:>10.1f} {100 * gt100:>7.1f}% "
            f"{n_imp:>12.1f} {PAPER_NUM_IMPROVING[relay_type]:>8}"
        )
    gap = analysis.best_type_gap_ms(RelayType.COR, RelayType.RAR_OTHER)
    lines.append(
        f"\nmedian stitched-RTT gap COR vs RAR_other on jointly-improved "
        f"cases: {gap:.1f} ms (paper: 5-10 ms)"
    )
    report_sink("text_medians", "\n".join(lines))

    # same order of magnitude as the paper's 12-14 ms
    for relay_type in (RelayType.COR, RelayType.RAR_OTHER):
        med = analysis.median_improvement(relay_type)
        assert 5.0 <= med <= 80.0
    # COR redundancy dominates
    cor_n = analysis.median_num_improving(RelayType.COR)
    for other in (RelayType.RAR_OTHER, RelayType.RAR_EYE):
        assert cor_n >= analysis.median_num_improving(other)


def test_high_responsiveness(benchmark, result, report_sink):
    """Paper: ~84% of node-pair destinations answered >=3 pings/round."""

    def responsiveness():
        # observed pairs vs scheduled pairs per round
        fracs = []
        for rnd in result.rounds:
            n = len(rnd.endpoint_ids)
            scheduled = n * (n - 1) // 2
            fracs.append(rnd.table.num_cases / scheduled)
        return fracs

    fracs = benchmark(responsiveness)
    text = "\n".join(
        f"round {i}: {100 * f:.1f}% of endpoint pairs yielded valid medians"
        for i, f in enumerate(fracs)
    ) + "\n(paper: ~84% of destinations responsive)"
    report_sink("text_responsiveness", text)
    assert all(f > 0.7 for f in fracs)
