#!/usr/bin/env python
"""Operating an overlay service on top of the measured shortcuts.

Puts the pieces together the way a real latency-optimisation service (a
Skype/Hola-style overlay, the paper's motivating application) would,
using the online serving layer (:mod:`repro.service`):

1. run a few measurement rounds and compile them into a relay directory;
2. score the VIA-style history prediction on the held-out last round;
3. answer live routing queries through the pair -> country -> direct
   fallback tiers, then ingest the new round incrementally;
4. snapshot the service to ``.npz`` and restore it (operator restart);
5. replay Zipf-shaped synthetic traffic to measure serving throughput.

Run:  python examples/overlay_service.py
"""

from __future__ import annotations

import io

from _shared import example_campaign_result, example_countries, example_rounds
from repro.core.oracle import evaluate_prediction
from repro.core.types import RelayType
from repro.service import LoadgenConfig, ShortcutService, replay


def main() -> None:
    countries = example_countries(None)
    # train on all but the last round, evaluate on the last: needs >= 2
    rounds = max(2, example_rounds(4))
    print(f"measuring: {'full' if countries is None else f'{countries}-country'} "
          f"world, {rounds} rounds...")
    result = example_campaign_result(rounds, countries)

    # compile the serving directory from every round except the one we
    # pretend is "next round's traffic"
    service = ShortcutService.from_campaign(result, rounds=result.rounds[:-1])
    stats = service.stats()
    print(f"compiled directory: {stats['endpoints']} endpoints, "
          f"{stats['countries']} countries, "
          f"{stats['lanes_pair_COR']} exact-pair / "
          f"{stats['lanes_country_COR']} country COR lanes")

    score = evaluate_prediction(result, RelayType.COR, k=3)
    print(f"\ntrained on rounds 0-{rounds - 2}, evaluated on round {rounds - 1}:")
    print(f"  country pairs with history and a live shortcut: {score.evaluated}")
    print(f"  oracle-best relay inside our top-3 predictions: {100 * score.hit_rate:.1f}%")
    print(f"  improvement captured vs the oracle:             {100 * score.captured_gain_frac:.1f}%")

    print(f"\nsample routing decisions for round {rounds - 1} traffic:")
    table = result.rounds[-1].table
    ids, ccs = table.pools.endpoint_ids, table.pools.countries
    shown = 0
    for e1, e2, cc1, cc2 in zip(table.e1_id, table.e2_id, table.e1_cc, table.e2_cc):
        decision = service.route(ids[e1], ids[e2], RelayType.COR, k=1)
        if decision.relay_id is None:
            continue
        relay = result.registry.get(decision.relay_id)
        print(
            f"  {ccs[cc1]} <-> {ccs[cc2]}: relay via {relay.city_key:<18} "
            f"[{decision.tier:>7} tier] expect -{decision.expected_reduction_ms:.0f} ms"
        )
        shown += 1
        if shown == 8:
            break

    # the round completes: fold it into the directory incrementally
    ingest = service.ingest_round(result.rounds[-1])
    print(f"\ningested round {ingest['round_id']}: "
          f"{ingest['touched_lanes']} lanes touched, "
          f"{ingest['retained_rounds']} rounds retained")

    # operator restart: snapshot to .npz, restore, verify nothing moved
    snapshot = io.BytesIO()
    service.save(snapshot)
    snapshot.seek(0)
    restored = ShortcutService.from_snapshot(snapshot)
    same = restored.directory.block_signature() == service.directory.block_signature()
    print(f"snapshot round-trip: {len(snapshot.getvalue())} bytes, "
          f"restored {'identical' if same else 'MISMATCH'}")

    # replay synthetic user traffic (Zipf-weighted country pairs)
    config = LoadgenConfig(num_queries=20_000, batch_size=1024)
    load = replay(restored, config)
    tiers = load.tier_counts
    print(f"\ntraffic replay: {load.queries} queries -> "
          f"{load.queries_per_s:,} queries/s "
          f"(pair {tiers['pair']}, country {tiers['country']}, "
          f"direct {tiers['direct']})")


if __name__ == "__main__":
    main()
