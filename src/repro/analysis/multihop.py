"""Multi-relay paths: is one relay enough?

Han et al. (INFOCOM 2005) and Le et al. (CAN 2016) — both cited by the
paper to justify measuring only 1-relay paths — find that a single relay
captures almost all of the latency benefit of multi-relay overlays.  This
study verifies that claim *inside the simulation*: for a sample of endpoint
pairs it compares the direct path, the best 1-relay path and the best
2-relay path over base RTTs (an oracle comparison, no measurement noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.latency.model import Endpoint, LatencyModel


@dataclass(frozen=True, slots=True)
class MultiHopStudy:
    """Aggregate outcome of the 1-relay vs 2-relay comparison.

    Attributes:
        pairs: Endpoint pairs compared.
        one_relay_improved: Pairs where the best 1-relay path beats direct.
        two_relay_improved: Pairs where the best 2-relay path beats direct.
        extra_gain_ms_median: Median additional improvement of the best
            2-relay path over the best 1-relay path (0 when a second relay
            never helps).
        one_relay_captures_frac: Among pairs any overlay improves, the
            fraction where the 1-relay path achieves >= 90% of the 2-relay
            improvement (the paper's "one relay is adequate" claim).
    """

    pairs: int
    one_relay_improved: int
    two_relay_improved: int
    extra_gain_ms_median: float
    one_relay_captures_frac: float


def two_relay_study(
    model: LatencyModel,
    endpoints: list[Endpoint],
    relays: list[Endpoint],
    rng: np.random.Generator,
    max_pairs: int = 60,
    max_relays: int = 25,
) -> MultiHopStudy:
    """Compare best 1-relay and 2-relay overlay paths on sampled pairs.

    A 2-relay path ``e1 -> r1 -> r2 -> e2`` stitches three measured legs;
    its RTT is ``rtt(e1, r1) + rtt(r1, r2) + rtt(r2, e2)``.

    Raises:
        AnalysisError: with fewer than 2 endpoints or relays.
    """
    if len(endpoints) < 2:
        raise AnalysisError("need at least 2 endpoints")
    if len(relays) < 2:
        raise AnalysisError("need at least 2 relays")
    if len(relays) > max_relays:
        idx = rng.choice(len(relays), size=max_relays, replace=False)
        relays = [relays[i] for i in sorted(idx)]

    pair_indices = [
        (i, j)
        for i in range(len(endpoints))
        for j in range(i + 1, len(endpoints))
    ]
    if len(pair_indices) > max_pairs:
        chosen = rng.choice(len(pair_indices), size=max_pairs, replace=False)
        pair_indices = [pair_indices[i] for i in sorted(chosen)]

    # direct, leg and inter-relay base RTTs come from three pair grids over
    # the endpoints the sampled pairs use; the O(pairs x relays^2)
    # two-relay search is then a masked min-reduction.  An unrouted leg
    # (NaN) and a relay paired with itself cost +inf, so no minimum picks them
    used = sorted({i for pair in pair_indices for i in pair})
    row = {i: k for k, i in enumerate(used)}
    sub = [endpoints[i] for i in used]
    direct_ms = model.pair_grid(sub, sub).base.tolist()
    leg_ms = np.nan_to_num(model.pair_grid(sub, relays).base, nan=np.inf)
    mid_ms = np.nan_to_num(model.pair_grid(relays, relays).base, nan=np.inf)
    ids = np.array([r.node_id for r in relays])
    mid_ms[ids[:, np.newaxis] == ids[np.newaxis, :]] = np.inf

    pairs = one_improved = two_improved = 0
    extra_gains: list[float] = []
    captured = candidates = 0
    for i, j in pair_indices:
        direct = direct_ms[row[i]][row[j]]
        if direct != direct:
            continue
        a, b = leg_ms[row[i]], leg_ms[row[j]]
        one = float(np.min(a + b))
        # (e1 -> r1) + (r1 -> r2) + (r2 -> e2) over the full (r1, r2) grid,
        # summed left-to-right like the scalar code so floats are identical
        two = float(np.min((a[:, np.newaxis] + mid_ms) + b[np.newaxis, :]))
        if one == np.inf or two == np.inf:
            continue
        best_one, best_two = one, two
        pairs += 1
        if best_one < direct:
            one_improved += 1
        if best_two < direct:
            two_improved += 1
        best_overlay = min(best_one, best_two)
        if best_overlay < direct:
            candidates += 1
            gain_one = max(0.0, direct - best_one)
            gain_best = direct - best_overlay
            if gain_one >= 0.9 * gain_best:
                captured += 1
            extra_gains.append(max(0.0, best_one - best_two))
    if pairs == 0:
        raise AnalysisError("no comparable pairs (routing disconnected?)")
    extra_gains.sort()
    median_extra = extra_gains[len(extra_gains) // 2] if extra_gains else 0.0
    return MultiHopStudy(
        pairs=pairs,
        one_relay_improved=one_improved,
        two_relay_improved=two_improved,
        extra_gain_ms_median=median_extra,
        one_relay_captures_frac=captured / candidates if candidates else 1.0,
    )
