"""Tests for the measurement campaign workflow and result containers."""

import pytest

from repro.core.campaign import MeasurementCampaign
from repro.core.config import CampaignConfig
from repro.core.results import RelayRegistry
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError, ConfigError


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
        for obs in small_campaign_result.observations():
            assert obs.e1_cc != obs.e2_cc

    def test_direct_rtts_positive(self, small_campaign_result):
        for obs in small_campaign_result.observations():
            assert obs.direct_rtt_ms > 0

    def test_best_is_min_of_improving(self, small_campaign_result):
        for obs in small_campaign_result.observations():
            for relay_type in RELAY_TYPE_ORDER:
                entries = obs.improving_by_type.get(relay_type, ())
                best = obs.best_by_type.get(relay_type)
                if entries:
                    assert best is not None
                    best_gain = max(gain for _, gain in entries)
                    assert obs.direct_rtt_ms - best[1] == pytest.approx(best_gain)

    def test_improving_entries_positive(self, small_campaign_result):
        for obs in small_campaign_result.observations():
            for relay_type in RELAY_TYPE_ORDER:
                for _, gain in obs.improving_by_type.get(relay_type, ()):
                    assert gain > 0

    def test_improving_relays_are_feasible_subset(self, small_campaign_result):
        for obs in small_campaign_result.observations():
            for relay_type in RELAY_TYPE_ORDER:
                assert obs.num_improving(relay_type) <= obs.feasible_by_type.get(
                    relay_type, 0
                )

    def test_registry_types_consistent(self, small_campaign_result):
        registry = small_campaign_result.registry
        for obs in small_campaign_result.observations():
            for relay_type in RELAY_TYPE_ORDER:
                for idx, _ in obs.improving_by_type.get(relay_type, ()):
                    assert registry.get(idx).relay_type is relay_type

    def test_endpoints_never_relay_for_themselves(self, small_campaign_result):
        registry = small_campaign_result.registry
        for rnd in small_campaign_result.rounds:
            endpoint_ids = set(rnd.endpoint_ids)
            for obs in rnd.observations:
                for relay_type in (RelayType.RAR_EYE, RelayType.RAR_OTHER):
                    for idx, _ in obs.improving_by_type.get(relay_type, ()):
                        assert registry.get(idx).node_id not in endpoint_ids

    def test_all_relay_types_used(self, small_campaign_result):
        registry = small_campaign_result.registry
        for relay_type in RELAY_TYPE_ORDER:
            assert registry.of_type(relay_type), f"no {relay_type} relays registered"

    def test_direct_medians_match_observations(self, small_campaign_result):
        ids = small_campaign_result.table.pools.endpoint_ids.values
        for rnd in small_campaign_result.rounds:
            medians = rnd.direct_medians
            assert len(medians) == len(rnd.observations)
            for obs, a, b, ms in zip(
                rnd.observations, medians.a.tolist(), medians.b.tolist(), medians.ms.tolist()
            ):
                key = (min(obs.e1_id, obs.e2_id), max(obs.e1_id, obs.e2_id))
                assert (ids[a], ids[b]) == key
                assert ms == obs.direct_rtt_ms

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
        obs_a = [(o.e1_id, o.e2_id, o.direct_rtt_ms) for o in a.observations()]
        obs_b = [(o.e1_id, o.e2_id, o.direct_rtt_ms) for o in b.observations()]
        assert obs_a == obs_b

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
