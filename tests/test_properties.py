"""Cross-cutting property-based tests on core invariants.

These complement the per-module suites with randomized checks of the
relationships the whole methodology rests on: geometry bounds latency,
stitching can only violate *routed* triangle inequalities, funnels only
shrink, the feasibility bound is sound by construction, and the shared
lane-ranking kernel ranks exactly as the two-key lexsort it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.feasibility import is_feasible
from repro.core.oracle import rank_lane_entries
from repro.core.stitching import improvement_ms, is_tiv, stitch_rtt
from repro.geo.cities import all_cities
from repro.geo.distance import min_rtt_ms, propagation_delay_ms
from repro.latency.model import Endpoint

_CITIES = all_cities()
_city_index = st.integers(0, len(_CITIES) - 1)
_rtt = st.floats(0.5, 2000.0)


class TestGeometryProperties:
    @given(_city_index, _city_index, _city_index)
    def test_feasibility_bound_is_geometric_triangle(self, i, j, k):
        """A relay exactly on the segment's cities is feasible whenever the
        direct RTT budget covers the idealised detour."""
        e1 = Endpoint("e1", 1, _CITIES[i].key, 0.0)
        e2 = Endpoint("e2", 1, _CITIES[j].key, 0.0)
        relay = Endpoint("r", 1, _CITIES[k].key, 0.0)
        detour = propagation_delay_ms(
            _CITIES[i].location, _CITIES[k].location
        ) + propagation_delay_ms(_CITIES[k].location, _CITIES[j].location)
        assert is_feasible(relay, e1, e2, 2.0 * detour + 1e-9)
        if detour > 1e-9:
            assert not is_feasible(relay, e1, e2, 2.0 * detour * 0.99)

    @given(_city_index, _city_index)
    def test_min_rtt_symmetric(self, i, j):
        a, b = _CITIES[i].location, _CITIES[j].location
        assert min_rtt_ms(a, b) == pytest.approx(min_rtt_ms(b, a))

    @given(_city_index, _city_index, _city_index)
    def test_ideal_world_has_no_tivs(self, i, j, k):
        """In the idealised speed-of-light world, stitching two geodesic
        legs can never beat the direct geodesic — TIVs exist only because
        routed paths are inflated."""
        direct = min_rtt_ms(_CITIES[i].location, _CITIES[j].location)
        leg1 = min_rtt_ms(_CITIES[i].location, _CITIES[k].location)
        leg2 = min_rtt_ms(_CITIES[k].location, _CITIES[j].location)
        if leg1 > 0 and leg2 > 0:
            assert not is_tiv(direct, stitch_rtt(leg1, leg2) - 1e-9)


class TestStitchingProperties:
    @given(_rtt, _rtt)
    def test_improvement_antisymmetry(self, direct, stitched):
        assert improvement_ms(direct, stitched) == pytest.approx(
            -improvement_ms(stitched, direct)
        )

    @given(_rtt, _rtt, _rtt)
    def test_stitch_monotone(self, a, b, c):
        assert stitch_rtt(a + c, b) > stitch_rtt(a, b)

    @given(_rtt, _rtt)
    def test_tiv_iff_positive_improvement(self, direct, stitched):
        assert is_tiv(direct, stitched) == (improvement_ms(direct, stitched) > 0)


class TestModelProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_base_rtt_respects_light_speed(self, small_world, pick):
        """No pair of real nodes can beat the idealised geodesic bound."""
        probes = small_world.atlas.all_probes()
        i = pick % len(probes)
        j = (pick * 7 + 13) % len(probes)
        if i == j:
            return
        e1, e2 = probes[i].node.endpoint, probes[j].node.endpoint
        rtt = small_world.latency.base_rtt_ms(e1, e2)
        if rtt is None:
            return
        from repro.geo.cities import city as city_of

        bound = min_rtt_ms(city_of(e1.city_key).location, city_of(e2.city_key).location)
        max_skew = small_world.latency.config.asymmetry_frac
        assert rtt >= bound * (1.0 - max_skew) - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1_000))
    def test_sampled_rtts_exceed_zero(self, small_world, pick):
        probes = small_world.atlas.all_probes()
        e1 = probes[pick % len(probes)].node.endpoint
        e2 = probes[(pick + 41) % len(probes)].node.endpoint
        if e1.node_id == e2.node_id:
            return
        rng = np.random.default_rng(pick)
        sample = small_world.latency.sample_rtt_ms(e1, e2, rng)
        if sample is not None:
            assert sample > 0


class TestCampaignInvariants:
    def test_funnel_monotone(self, small_campaign_result):
        funnel = small_campaign_result.colo_filter_funnel
        assert all(a >= b for a, b in zip(funnel, funnel[1:]))

    def test_best_relay_is_min_over_improving(self, small_campaign_result):
        from repro.core.types import RELAY_TYPE_ORDER

        for obs in small_campaign_result.observations():
            for relay_type in RELAY_TYPE_ORDER:
                entries = obs.improving_by_type.get(relay_type, ())
                if not entries:
                    continue
                best = obs.best_by_type[relay_type]
                assert best[1] <= min(
                    obs.direct_rtt_ms - gain for _, gain in entries
                ) + 1e-9

    def test_group_flags_consistent_with_improving(self, small_campaign_result):
        from repro.core.types import RELAY_TYPE_ORDER

        registry = small_campaign_result.registry
        for obs in small_campaign_result.observations():
            for relay_type in RELAY_TYPE_ORDER:
                flags = obs.country_groups_by_type.get(relay_type)
                if flags is None:
                    continue
                usable_same, improving_same, usable_diff, improving_diff = flags
                # an improving group must also be usable
                assert not (improving_same and not usable_same)
                assert not (improving_diff and not usable_diff)
                # any improving relay implies its group's improving flag
                for idx, _ in obs.improving_by_type.get(relay_type, ()):
                    cc = registry.get(idx).cc
                    if cc in (obs.e1_cc, obs.e2_cc):
                        assert improving_same
                    else:
                        assert improving_diff


def _rank_lexsort(lanes, relays, counts=None, gains=None):
    """The lexsort ranking :func:`rank_lane_entries` replaced, kept as its
    reference: group on ``(lane, relay)``, rank on ``(lane, -count, relay)``."""
    order = np.lexsort((relays, lanes))  # stable: preserves row order
    lane_s, relay_s = lanes[order], relays[order]
    boundary = np.flatnonzero((np.diff(lane_s) != 0) | (np.diff(relay_s) != 0))
    starts = np.concatenate(([0], boundary + 1))
    uniq_lane = lane_s[starts]
    uniq_relay = relay_s[starts]
    if counts is None:
        total_count = np.diff(np.append(starts, lane_s.size)).astype(np.int64)
    else:
        total_count = np.add.reduceat(counts[order], starts)
    rank = np.lexsort((uniq_relay, -total_count, uniq_lane))
    ranked_lane = uniq_lane[rank]
    lane_starts = np.flatnonzero(np.diff(ranked_lane, prepend=-1))
    out = (
        ranked_lane[lane_starts],
        np.append(lane_starts, ranked_lane.size).astype(np.int64),
        uniq_relay[rank].astype(np.int32),
        total_count[rank].astype(np.int32),
    )
    if gains is None:
        return out
    return out + (np.add.reduceat(gains[order], starts)[rank],)


@st.composite
def _lane_rows(draw):
    """Rows over a few lane keys up to 2**62 and relay ids up to 2**31 - 1,
    with and without per-row counts and gains."""
    n = draw(st.integers(1, 80))
    lane_pool = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=6))
    relay_pool = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
    rows = st.lists(st.sampled_from(lane_pool), min_size=n, max_size=n)
    lanes = np.asarray(draw(rows), np.int64)
    relays = np.asarray(
        draw(st.lists(st.sampled_from(relay_pool), min_size=n, max_size=n)), np.int32
    )
    counts = draw(st.none() | st.lists(st.integers(1, 1_000), min_size=n, max_size=n))
    gains = draw(
        st.none() | st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)
    )
    return (
        lanes,
        relays,
        None if counts is None else np.asarray(counts, np.int32),
        None if gains is None else np.asarray(gains),
    )


class TestRankingKernel:
    @settings(max_examples=200, deadline=None)
    @given(_lane_rows())
    def test_equals_lexsort_reference(self, rows):
        got = rank_lane_entries(*rows)
        want = _rank_lexsort(*rows)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()  # bit for bit, gains included
