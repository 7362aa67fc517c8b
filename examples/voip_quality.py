#!/usr/bin/env python
"""VoIP through a Colo shortcut: the paper's 320 ms analysis.

A VoIP call is considered poor above a 320 ms RTT (ITU G.114).  The paper
finds 19% of direct inter-eyeball paths exceed that, and the best Colo
relay rescues roughly half of them.  This example reproduces that view and
prints the worst rescued pairs.

Run:  python examples/voip_quality.py
"""

from __future__ import annotations

import numpy as np

from _shared import example_campaign_result, example_countries, example_rounds
from repro.analysis.voip import VOIP_RTT_THRESHOLD_MS, VoipAnalysis
from repro.core.types import RELAY_TYPE_ORDER, RelayType


def main() -> None:
    countries = example_countries(None)
    rounds = example_rounds(2)
    print(f"building world and running {rounds} rounds...")
    result = example_campaign_result(rounds, countries)

    voip = VoipAnalysis(result)
    direct = voip.direct_poor_fraction()
    relayed = voip.relayed_poor_fraction(RelayType.COR)
    print(f"\nRTT threshold for poor VoIP: {VOIP_RTT_THRESHOLD_MS:.0f} ms")
    print(f"direct paths above it:          {100 * direct:>5.1f}%  (paper: 19%)")
    print(f"with each pair's best Colo relay: {100 * relayed:>5.1f}%  (paper: 11%)")

    table = result.table
    cor = RELAY_TYPE_ORDER.index(RelayType.COR)
    direct_ms, relayed_ms = table.direct_rtt_ms, table.best_stitched[cor]
    # a case without a usable Colo relay stitches to NaN, which fails <=
    rescued = np.flatnonzero(
        (direct_ms > VOIP_RTT_THRESHOLD_MS) & (relayed_ms <= VOIP_RTT_THRESHOLD_MS)
    )
    saved_ms = direct_ms[rescued] - relayed_ms[rescued]
    rescued = rescued[np.argsort(saved_ms, kind="stable")]
    ccs = table.pools.countries
    print(f"\ncalls rescued by a Colo relay: {len(rescued)}")
    print(f"{'pair':<24} {'direct':>8} {'relayed':>8} {'saved':>7}")
    for case in rescued[-8:][::-1]:
        before, after = float(direct_ms[case]), float(relayed_ms[case])
        print(
            f"{ccs[table.e1_cc[case]] + ' <-> ' + ccs[table.e2_cc[case]]:<24} "
            f"{before:>7.0f}ms {after:>7.0f}ms "
            f"{before - after:>6.0f}ms"
        )


if __name__ == "__main__":
    main()
