"""EXTENSION — VIA-style history-based relay prediction.

VIA (cited by the paper) observed that even when history-based prediction
misses the optimal relay, the optimum is usually among the top few
predictions.  We train on all campaign rounds but the last and evaluate on
the last: hit-rate of the oracle-best relay within the top-k predictions,
and fraction of the oracle improvement captured.
"""

from __future__ import annotations

from repro.core.oracle import evaluate_prediction
from repro.core.types import RelayType


def test_history_based_prediction(benchmark, result, report_sink):
    def run():
        return {k: evaluate_prediction(result, RelayType.COR, k) for k in (1, 3, 5)}

    scores = benchmark(run)
    lines = [f"{'k':>3} {'evaluated':>10} {'hit-rate':>9} {'captured gain':>14}"]
    for k, score in scores.items():
        lines.append(
            f"{k:>3} {score.evaluated:>10} {100 * score.hit_rate:>8.1f}% "
            f"{100 * score.captured_gain_frac:>13.1f}%"
        )
    lines.append(
        "\n(VIA's observation: the optimal relay is likely within the top "
        "few predicted relays)"
    )
    report_sink("ext_prediction", "\n".join(lines))

    assert scores[5].hit_rate >= scores[1].hit_rate
    if scores[3].evaluated >= 10:
        assert scores[3].captured_gain_frac > 0.3


def test_prediction_beats_random(benchmark, result, report_sink):
    """The learned ranking must outperform picking k random improving-pool
    relays, otherwise history carries no signal."""
    import numpy as np

    from repro.core.oracle import LaneHistory
    from repro.core.types import RELAY_TYPE_ORDER

    table = result.table
    train = np.isin(table.round_idx, [r.round_index for r in result.rounds[:-1]])
    history = LaneHistory.from_table(table, RelayType.COR, case_mask=train)
    cases, relays, _ = table.type_entries(RELAY_TYPE_ORDER.index(RelayType.COR))
    pool = sorted(set(relays[train[cases]].tolist()))
    rng = np.random.default_rng(5)
    # the held-out round's cases, each with its set of improving COR relays
    held_out = np.flatnonzero(~train)
    improving = {case: set() for case in held_out.tolist()}
    for case, relay in zip(cases.tolist(), relays.tolist()):
        if case in improving:
            improving[case].add(relay)
    ccs = table.pools.countries

    def run():
        predicted_hits = random_hits = evaluated = 0
        for case, entries in improving.items():
            predicted = history.predict_ccs(
                ccs[table.e1_cc[case]], ccs[table.e2_cc[case]], 3
            )
            if not entries or not predicted:
                continue
            evaluated += 1
            if set(predicted) & entries:
                predicted_hits += 1
            random_pick = rng.choice(pool, size=min(3, len(pool)), replace=False)
            if set(int(x) for x in random_pick) & entries:
                random_hits += 1
        return evaluated, predicted_hits, random_hits

    evaluated, predicted_hits, random_hits = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report_sink(
        "ext_prediction_vs_random",
        f"evaluated pairs: {evaluated}\n"
        f"top-3 prediction finds an improving relay: {predicted_hits}\n"
        f"3 random pool relays find an improving relay: {random_hits}",
    )
    if evaluated >= 20:
        assert predicted_hits >= random_hits
