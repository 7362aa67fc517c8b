"""Tests for the Sec 2.2 five-filter Colo relay pipeline."""

import numpy as np
import pytest

from repro.core.colo import ColoRelayPipeline
from repro.core.config import CampaignConfig


@pytest.fixture(scope="module")
def pipeline(small_world):
    return ColoRelayPipeline(small_world, CampaignConfig())


class TestFunnel:
    def test_monotone_decreasing(self, pipeline):
        funnel = pipeline.report().funnel()
        assert funnel == sorted(funnel, reverse=True)

    def test_every_stage_filters_something(self, pipeline):
        report = pipeline.report()
        funnel = report.funnel()
        drops = [a - b for a, b in zip(funnel, funnel[1:])]
        # stage 4 (active facility presence) may legitimately drop little,
        # as in the paper (725 -> 725); all others must bite
        assert drops[0] > 0, "single-facility filter dropped nothing"
        assert drops[1] > 0, "pingability filter dropped nothing"
        assert drops[2] > 0, "ownership filter dropped nothing"
        assert drops[4] > 0, "geolocation filter dropped nothing"

    def test_survivor_pool_usable(self, pipeline):
        relays = pipeline.verified_relays()
        assert len(relays) >= 20
        assert len(pipeline.facilities_covered()) >= 5

    def test_stage_names(self, pipeline):
        report = pipeline.report()
        assert [name for name, _ in report.stages] == list(
            ColoRelayPipeline.STAGE_NAMES
        )
        assert "initial=" in str(report)

    def test_cached_run(self, pipeline):
        a, report_a = pipeline.run()
        b, report_b = pipeline.run()
        assert [r.node.node_id for r in a] == [r.node.node_id for r in b]
        assert report_a is report_b


class TestFilterCorrectness:
    def test_survivors_single_facility(self, pipeline):
        for relay in pipeline.verified_relays():
            assert relay.record.is_single_facility

    def test_survivors_in_open_facilities(self, pipeline, small_world):
        for relay in pipeline.verified_relays():
            assert small_world.peeringdb.has_facility(relay.facility_id)

    def test_survivors_alive(self, pipeline, small_world):
        for relay in pipeline.verified_relays():
            interface = small_world.colo_pool.by_node_id(relay.node.node_id)
            assert not interface.is_dead

    def test_survivors_ownership_consistent(self, pipeline, small_world):
        for relay in pipeline.verified_relays():
            origins = set(small_world.prefix2as.origins(relay.record.ip))
            assert origins == {relay.record.recorded_asn}

    def test_survivors_still_members(self, pipeline, small_world):
        for relay in pipeline.verified_relays():
            assert small_world.peeringdb.is_present(
                relay.record.recorded_asn, relay.facility_id
            )

    def test_survivors_not_relocated(self, pipeline, small_world):
        """RTT geolocation must catch every relocated interface."""
        for relay in pipeline.verified_relays():
            interface = small_world.colo_pool.by_node_id(relay.node.node_id)
            assert not interface.relocated

    def test_survivor_cities_have_lgs(self, pipeline, small_world):
        covered = set(small_world.periscope.covered_cities())
        for relay in pipeline.verified_relays():
            assert small_world.peeringdb.city_of(relay.facility_id) in covered


class TestSampling:
    def test_per_facility_bounds(self, pipeline):
        rng = np.random.default_rng(0)
        sample = pipeline.sample_relays(rng)
        per_facility: dict[int, int] = {}
        for relay in sample:
            per_facility[relay.facility_id] = per_facility.get(relay.facility_id, 0) + 1
        low, high = CampaignConfig().colo_ips_per_facility
        for count in per_facility.values():
            assert low <= count <= high

    def test_covers_all_facilities(self, pipeline):
        rng = np.random.default_rng(1)
        sample = pipeline.sample_relays(rng)
        assert {r.facility_id for r in sample} == pipeline.facilities_covered()

    def test_samples_vary(self, pipeline):
        a = [r.node.node_id for r in pipeline.sample_relays(np.random.default_rng(2))]
        b = [r.node.node_id for r in pipeline.sample_relays(np.random.default_rng(3))]
        assert a != b
