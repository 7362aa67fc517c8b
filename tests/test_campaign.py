"""Tests for the measurement campaign workflow and result containers."""

import tracemalloc

import numpy as np
import pytest

from repro.core.campaign import MeasurementCampaign
from repro.core.config import CampaignConfig
from repro.core.results import RelayRegistry
from repro.core.table import NUM_RELAY_TYPES
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError, ConfigError
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig, build_world


class TestCampaignConfigValidation:
    def test_defaults_valid(self):
        CampaignConfig()

    def test_min_valid_bounds(self):
        with pytest.raises(ConfigError):
            CampaignConfig(pings_per_pair=4, min_valid_rtts=5)

    def test_round_floor(self):
        with pytest.raises(ConfigError):
            CampaignConfig(num_rounds=0)

    def test_max_countries_floor(self):
        with pytest.raises(ConfigError):
            CampaignConfig(max_countries=1)


class TestRelayRegistry:
    def test_idempotent_registration(self):
        reg = RelayRegistry()
        a = reg.register("n1", RelayType.COR, 1, "GB", "London/GB", facility_id=3)
        b = reg.register("n1", RelayType.COR, 1, "GB", "London/GB", facility_id=3)
        assert a == b
        assert len(reg) == 1

    def test_type_conflict_rejected(self):
        reg = RelayRegistry()
        reg.register("n1", RelayType.COR, 1, "GB", "London/GB")
        with pytest.raises(AnalysisError):
            reg.register("n1", RelayType.PLR, 1, "GB", "London/GB")

    def test_lookup_roundtrip(self):
        reg = RelayRegistry()
        idx = reg.register("n1", RelayType.PLR, 1, "DE", "Berlin/DE", site_id="s1")
        record = reg.get(idx)
        assert record.node_id == "n1"
        assert record.site_id == "s1"
        assert reg.by_node_id("n1").index == idx

    def test_of_type(self):
        reg = RelayRegistry()
        reg.register("a", RelayType.COR, 1, "GB", "London/GB")
        reg.register("b", RelayType.PLR, 2, "DE", "Berlin/DE")
        assert [r.node_id for r in reg.of_type(RelayType.COR)] == ["a"]


class TestCampaignRun:
    def test_round_count(self, small_campaign_result):
        assert len(small_campaign_result.rounds) == 3

    def test_pairs_have_distinct_countries(self, small_campaign_result):
        table = small_campaign_result.table
        assert table.num_cases > 0
        # both columns code into one country pool
        assert (table.e1_cc != table.e2_cc).all()

    def test_direct_rtts_positive(self, small_campaign_result):
        assert (small_campaign_result.table.direct_rtt_ms > 0).all()

    def test_best_is_min_of_improving(self, small_campaign_result):
        table = small_campaign_result.table
        for code, (cases, best_gains) in enumerate(table.best_gain_per_improved_case()):
            assert (table.best_relay[code, cases] >= 0).all()
            stitched = table.best_stitched[code, cases]
            assert table.direct_rtt_ms[cases] - stitched == pytest.approx(best_gains)

    def test_improving_entries_positive(self, small_campaign_result):
        assert (small_campaign_result.table.imp_gain > 0).all()

    def test_improving_relays_are_feasible_subset(self, small_campaign_result):
        table = small_campaign_result.table
        assert (table.improving_counts() <= table.feasible).all()

    def test_registry_types_consistent(self, small_campaign_result):
        table = small_campaign_result.table
        registry_types = np.array(
            [RELAY_TYPE_ORDER.index(r.relay_type) for r in small_campaign_result.registry]
        )
        # CSR group i * T + c holds type c's entries
        groups = np.arange(table.num_cases * NUM_RELAY_TYPES) % NUM_RELAY_TYPES
        entry_types = np.repeat(groups, np.diff(table.imp_indptr))
        assert entry_types.size > 0
        assert (registry_types[table.imp_relay] == entry_types).all()

    def test_endpoints_never_relay_for_themselves(self, small_campaign_result):
        registry = small_campaign_result.registry
        for rnd in small_campaign_result.rounds:
            endpoint_ids = set(rnd.endpoint_ids)
            for relay_type in (RelayType.RAR_EYE, RelayType.RAR_OTHER):
                _, relays, _ = rnd.table.type_entries(RELAY_TYPE_ORDER.index(relay_type))
                for idx in relays.tolist():
                    assert registry.get(idx).node_id not in endpoint_ids

    def test_all_relay_types_used(self, small_campaign_result):
        registry = small_campaign_result.registry
        for relay_type in RELAY_TYPE_ORDER:
            assert registry.of_type(relay_type), f"no {relay_type} relays registered"

    def test_direct_medians_match_observations(self, small_campaign_result):
        for rnd in small_campaign_result.rounds:
            table, medians = rnd.table, rnd.direct_medians
            ids = table.pools.endpoint_ids.values
            assert len(medians) == table.num_cases
            for e1, e2, direct, a, b, ms in zip(
                table.e1_id.tolist(),
                table.e2_id.tolist(),
                table.direct_rtt_ms.tolist(),
                medians.a.tolist(),
                medians.b.tolist(),
                medians.ms.tolist(),
            ):
                assert (ids[a], ids[b]) == tuple(sorted((ids[e1], ids[e2])))
                assert ms == direct

    def test_relay_medians_recorded(self, small_campaign_result):
        for rnd in small_campaign_result.rounds:
            assert rnd.relay_medians is not None
            assert rnd.relay_medians

    def test_pings_accounted(self, small_campaign_result):
        for rnd in small_campaign_result.rounds:
            assert rnd.pings_sent > 0
        assert small_campaign_result.total_pings == sum(
            r.pings_sent for r in small_campaign_result.rounds
        )

    def test_summary_keys(self, small_campaign_result):
        summary = small_campaign_result.summary()
        assert summary["rounds"] == 3
        for relay_type in RELAY_TYPE_ORDER:
            assert f"improved_frac_{relay_type.value}" in summary

    def test_timestamps_spaced_by_interval(self, small_campaign_result):
        hours = [r.timestamp_hours for r in small_campaign_result.rounds]
        assert hours == [0.0, 12.0, 24.0]


class TestCampaignDeterminism:
    def test_same_world_same_result(self, small_world):
        cfg = CampaignConfig(num_rounds=1, max_countries=6)
        a = MeasurementCampaign(small_world, cfg).run()
        b = MeasurementCampaign(small_world, cfg).run()
        assert a.total_cases == b.total_cases
        assert a.table.columns_equal(b.table)

    def test_progress_callback(self, small_world):
        seen = []
        cfg = CampaignConfig(num_rounds=2, max_countries=5)
        MeasurementCampaign(small_world, cfg).run(
            progress=lambda i, rnd: seen.append((i, rnd.num_pairs()))
        )
        assert [i for i, _ in seen] == [0, 1]

    def test_no_relay_medians_when_disabled(self, small_world):
        cfg = CampaignConfig(num_rounds=1, max_countries=5, record_relay_medians=False)
        result = MeasurementCampaign(small_world, cfg).run()
        assert result.rounds[0].relay_medians is None


class TestSymmetryMeasurement:
    def test_bidirectional_pairs(self, small_world):
        campaign = MeasurementCampaign(
            small_world, CampaignConfig(num_rounds=1, max_countries=6)
        )
        pairs = campaign.measure_direction_symmetry()
        assert len(pairs) > 5
        for fwd, rev in pairs:
            assert fwd > 0 and rev > 0


class TestRoundFootprint:
    def test_round_peak_within_pair_relay_matrices(self, small_world):
        """A round's working memory stays within a small multiple of one
        float64 (pairs × relays) matrix.  The endpoint blocks build no
        pair-sized gather or scatter; the pair-gather round they replaced
        peaked at 11.6 such matrices on this round, the blocks at 8.1."""
        campaign = MeasurementCampaign(small_world, CampaignConfig(num_rounds=3))
        for round_index in range(3):
            campaign.run_round(round_index)
        # the same round again: the latency model's caches are warm, so the
        # peak is the round's own working memory
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            floor = tracemalloc.get_traced_memory()[0]
            result = campaign.run_round(2)
            peak = tracemalloc.get_traced_memory()[1] - floor
        finally:
            if started:
                tracemalloc.stop()
        endpoints = len(result.endpoint_ids)
        relays = sum(map(len, result.relay_indices_by_type.values()))
        matrix_bytes = endpoints * (endpoints - 1) // 2 * relays * 8
        assert matrix_bytes > 0
        assert peak <= 10 * matrix_bytes, peak / matrix_bytes

    def test_skew_memo_spans_endpoints_by_grid_columns(self):
        """The pair-skew memo holds the rounds' endpoints (its rows) by the
        endpoints and relays they were paired with (its columns), each axis
        at most doubled: 12 × 314 cells here, where one square code space
        over every id took 256 × 256."""
        config = WorldConfig(topology=TopologyConfig(country_limit=8))
        world = build_world(seed=5, config=config, use_world_cache=False)
        result = MeasurementCampaign(world, CampaignConfig(num_rounds=2)).run()
        endpoints = set().union(*(r.endpoint_ids for r in result.rounds))
        relays = {result.registry.get(i).node_id for i in range(len(result.registry))}
        model = world.latency
        assert set(model._skew_rows) == endpoints
        assert set(model._skew_cols) == endpoints | relays
        rows, cols = model._skew_memo.shape
        assert len(endpoints) <= rows <= 2 * len(endpoints)
        assert len(model._skew_cols) <= cols <= 2 * len(model._skew_cols)
        assert model._skew_memo.nbytes == 12 * 314 * 8
