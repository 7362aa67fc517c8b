"""ABLATION — the Sec 2.4 speed-of-light feasibility pre-filter.

Without the filter, every (endpoint, relay) leg must be measured; with it,
geometrically hopeless relays are pruned per pair before any overlay
measurement.  The filter is sound by construction (a lower bound can never
exclude an actual winner) — this bench quantifies the measurement savings
and re-verifies soundness against base RTTs.
"""

from __future__ import annotations

from repro.core.colo import ColoRelayPipeline
from repro.core.config import CampaignConfig
from repro.core.eyeballs import EyeballSelector
from repro.core.feasibility import is_feasible


def test_feasibility_filter_savings(benchmark, world, report_sink):
    cfg = CampaignConfig(max_countries=40)
    rng = world.seeds.rng("bench.feasibility")
    endpoints = [p.node.endpoint for p in EyeballSelector(world, cfg).sample_endpoints(rng)]
    relays = [r.node.endpoint for r in ColoRelayPipeline(world, cfg).sample_relays(rng)]
    model = world.latency
    delay_matrix = world.delay_matrix

    def study():
        # base RTTs from two pair grids; NaN marks an unrouted pair, and a
        # NaN leg sum compares False, so it never wins
        direct_ms = model.pair_grid(endpoints, endpoints).base.tolist()
        leg_ms = model.pair_grid(endpoints, relays).base.tolist()
        total = kept = winners = missed = 0
        for i, e1 in enumerate(endpoints):
            for j in range(i + 1, len(endpoints)):
                e2, direct = endpoints[j], direct_ms[i][j]
                if direct != direct:
                    continue
                for k, relay in enumerate(relays):
                    total += 1
                    feasible = is_feasible(relay, e1, e2, direct, matrix=delay_matrix)
                    kept += int(feasible)
                    if leg_ms[i][k] + leg_ms[j][k] < direct:
                        winners += 1
                        if not feasible:
                            missed += 1
        return total, kept, winners, missed

    total, kept, winners, missed = benchmark.pedantic(study, rounds=1, iterations=1)
    pruned_frac = 1.0 - kept / total
    report_sink(
        "ablation_feasibility",
        f"(pair, relay) combinations: {total}\n"
        f"kept by the speed-of-light bound: {kept} ({100 * (1 - pruned_frac):.1f}%)\n"
        f"pruned (measurements saved): {100 * pruned_frac:.1f}%\n"
        f"actual winning relays: {winners}; winners wrongly pruned: {missed}",
    )
    assert missed == 0, "the feasibility bound must never prune a winner"
    assert pruned_frac > 0.1, "the filter should save real measurement work"
