"""ABLATION — facility-diversity sampling (1-3 IPs per facility).

The paper samples 1-3 IPs from *every* verified facility per round "to
both cover all available facilities and account for variance within
facilities".  The ablation compares that strategy with spending the same
relay budget on IPs drawn from the few largest facilities only: diverse
sampling should improve more endpoint pairs because coverage of the
geodesics matters more than redundancy inside one metro.
"""

from __future__ import annotations

import numpy as np

from repro.core.colo import ColoRelayPipeline
from repro.core.config import CampaignConfig
from repro.core.eyeballs import EyeballSelector
from repro.core.feasibility import feasibility_mask


def _improved_pairs(world, endpoints, relays) -> int:
    """Endpoint pairs that some relay of the set improves: feasible under
    the Sec 2.4 bound and a stitched base RTT under the direct one.

    Base RTTs come from two pair grids and feasibility from one mask per
    relay set.  An unrouted (NaN) direct RTT finds no relay feasible, and
    a NaN leg sum compares False, so neither ever counts.
    """
    model = world.latency
    matrix = world.delay_matrix
    direct_ms = model.pair_grid(endpoints, endpoints).base
    leg_ms = model.pair_grid(endpoints, relays).base
    rows, cols = np.triu_indices(len(endpoints), 1)
    direct = direct_ms[rows, cols]
    one_way = matrix.one_way_ms_matrix(
        matrix.indices(e.city_key for e in endpoints),
        matrix.indices(r.city_key for r in relays),
    )
    wins = feasibility_mask(one_way, direct) & (
        leg_ms[rows] + leg_ms[cols] < direct[:, np.newaxis]
    )
    return int(np.count_nonzero(wins.any(axis=1)))


def test_facility_diversity_sampling(benchmark, world, report_sink):
    cfg = CampaignConfig(max_countries=30)
    rng = world.seeds.rng("bench.sampling")
    endpoints = [p.node.endpoint for p in EyeballSelector(world, cfg).sample_endpoints(rng)]
    pipeline = ColoRelayPipeline(world, cfg)
    diverse = [r.node.endpoint for r in pipeline.sample_relays(rng)]
    budget = len(diverse)

    # same budget, but concentrated in the largest facilities
    by_facility: dict[int, list] = {}
    for relay in pipeline.verified_relays():
        by_facility.setdefault(relay.facility_id, []).append(relay)
    concentrated = []
    for fac_id in sorted(by_facility, key=lambda f: -len(by_facility[f])):
        for relay in by_facility[fac_id]:
            if len(concentrated) == budget:
                break
            concentrated.append(relay.node.endpoint)
        if len(concentrated) == budget:
            break

    def study():
        return (
            _improved_pairs(world, endpoints, diverse),
            _improved_pairs(world, endpoints, concentrated),
        )

    diverse_improved, concentrated_improved = benchmark.pedantic(
        study, rounds=1, iterations=1
    )
    n_pairs = len(endpoints) * (len(endpoints) - 1) // 2
    fac_div = len({r.facility_id for r in pipeline.sample_relays(rng)})
    fac_conc = len(
        {f for f in sorted(by_facility, key=lambda f: -len(by_facility[f]))[:5]}
    )
    report_sink(
        "ablation_sampling",
        f"relay budget: {budget} IPs; endpoint pairs: {n_pairs}\n"
        f"diverse (all {fac_div} facilities):    {diverse_improved} pairs improved\n"
        f"concentrated (largest facilities): {concentrated_improved} pairs improved",
    )
    assert diverse_improved >= concentrated_improved
