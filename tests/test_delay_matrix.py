"""Tests for the vectorized measurement engine.

Covers the three legs of the vectorization: `CityDelayMatrix` lookups must
match the scalar geometry helpers, the broadcast feasibility mask must match
the scalar Sec 2.4 bound relay for relay, and batched pings must be drawn
from the same model as scalar pings — plus determinism of the whole
campaign under the new engine.
"""

import numpy as np
import pytest

from repro import CampaignConfig, MeasurementCampaign, build_world
from repro.core.colo import ColoRelayPipeline
from repro.core.eyeballs import EyeballSelector
from repro.core.feasibility import feasibility_mask, feasible_relays, is_feasible
from repro.errors import GeoError
from repro.geo.cities import all_cities, city as city_of
from repro.geo.distance import great_circle_km, propagation_delay_ms
from repro.geo.matrix import CityDelayMatrix
from repro.latency.model import Endpoint, LatencyConfig, LatencyModel
from repro.latency.ping import PingEngine, PingResult
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig


class TestCityDelayMatrixEquivalence:
    def test_distances_match_scalar_haversine(self):
        matrix = CityDelayMatrix()
        cities = all_cities()
        for i in range(0, len(cities), 7):
            for j in range(0, len(cities), 11):
                expected = great_circle_km(cities[i].location, cities[j].location)
                got = matrix.distance_km(i, j)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_delays_match_scalar_propagation(self):
        matrix = CityDelayMatrix()
        cities = all_cities()
        for i in range(0, len(cities), 13):
            for j in range(1, len(cities), 17):
                expected = propagation_delay_ms(
                    cities[i].location, cities[j].location
                )
                got = matrix.one_way_ms(i, j)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_submatrix_matches_rows(self):
        matrix = CityDelayMatrix()
        rows = np.array([3, 1, 10])
        cols = np.array([0, 5, 2, 8])
        sub = matrix.one_way_ms_matrix(rows, cols)
        assert sub.shape == (3, 4)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                assert sub[a, b] == matrix.one_way_ms(int(i), int(j))

    def test_diagonal_zero_and_symmetric(self):
        matrix = CityDelayMatrix()
        n = matrix.size
        idx = np.arange(0, n, 5)
        full = matrix.distance_km_matrix(idx, idx)
        assert np.allclose(np.diag(full), 0.0)
        assert np.allclose(full, full.T)

    def test_index_roundtrip_and_unknown_key(self):
        matrix = CityDelayMatrix()
        key = all_cities()[17].key
        assert matrix.key_of(matrix.index(key)) == key
        with pytest.raises(GeoError):
            matrix.index("Atlantis/XX")
        with pytest.raises(GeoError):
            matrix.indices(["London/GB", "Atlantis/XX"])

    def test_by_key_wrappers(self):
        matrix = CityDelayMatrix()
        a, b = "London/GB", "Tokyo/JP"
        expected = propagation_delay_ms(city_of(a).location, city_of(b).location)
        assert matrix.one_way_ms_between(a, b) == pytest.approx(expected, rel=1e-9)

    def test_instances_are_independent(self):
        # per-instance caches: filling one matrix must not touch another
        m1 = CityDelayMatrix()
        m2 = CityDelayMatrix()
        m1.distance_row(0)
        assert not m2._filled[0]
        assert m2.distance_km(0, 1) == m1.distance_km(0, 1)


class TestFeasibilityMaskEquivalence:
    def test_mask_matches_scalar_bound_on_sampled_round(self, small_world):
        """The broadcast mask must agree with `is_feasible` relay-for-relay."""
        cfg = CampaignConfig(num_rounds=1, max_countries=8)
        rng = small_world.seeds.rng("test.matrix.feasibility")
        endpoints = [
            p.node.endpoint
            for p in EyeballSelector(small_world, cfg).sample_endpoints(rng)
        ]
        relays = [
            c.node.endpoint
            for c in ColoRelayPipeline(small_world, cfg).sample_relays(rng)
        ]
        assert len(endpoints) >= 4 and len(relays) >= 4
        matrix = small_world.delay_matrix
        model = small_world.latency
        ep_cities = matrix.indices(e.city_key for e in endpoints)
        relay_cities = matrix.indices(r.city_key for r in relays)
        one_way = matrix.one_way_ms_matrix(ep_cities, relay_cities)

        pairs = [
            (i, j, model.base_rtt_ms(endpoints[i], endpoints[j]))
            for i in range(len(endpoints))
            for j in range(i + 1, len(endpoints))
        ]
        assert any(rtt is not None for _, _, rtt in pairs)
        # every pair in np.triu_indices order; an unrouted pair (NaN
        # median) finds no relay feasible
        mask = feasibility_mask(
            one_way, np.array([np.nan if rtt is None else rtt for _, _, rtt in pairs])
        )
        checked = 0
        for k, (i, j, rtt) in enumerate(pairs):
            for r, relay in enumerate(relays):
                scalar = rtt is not None and is_feasible(relay, endpoints[i], endpoints[j], rtt)
                assert bool(mask[k, r]) == scalar
                checked += 1
        assert checked == len(pairs) * len(relays)

    def test_mask_rejects_a_median_count_off_the_pair_count(self):
        with pytest.raises(ValueError, match="2 direct medians for 3 endpoints"):
            feasibility_mask(np.zeros((3, 2)), np.zeros(2))

    def test_scalar_wrapper_accepts_matrix(self, small_world):
        e1 = Endpoint("t1", 1, "London/GB", access_ms=1.0)
        e2 = Endpoint("t2", 1, "New York/US", access_ms=1.0)
        relay = Endpoint("t3", 1, "Dublin/IE", access_ms=1.0)
        direct = 2.0 * propagation_delay_ms(
            city_of("London/GB").location, city_of("New York/US").location
        )
        for rtt in (direct * 1.5, direct * 0.5):
            assert is_feasible(
                relay, e1, e2, rtt, matrix=small_world.delay_matrix
            ) == is_feasible(relay, e1, e2, rtt)
        kept = feasible_relays(
            [relay], e1, e2, direct * 1.5, matrix=small_world.delay_matrix
        )
        assert [r.node_id for r in kept] == ["t3"]


def _endpoint(world, i):
    return world.atlas.all_probes()[i].node.endpoint


class TestBatchPingEquivalence:
    def test_noiseless_batch_equals_base(self, small_world):
        """With all stochastic terms off, every batched packet is the base RTT."""
        model = LatencyModel(
            LatencyConfig(
                jitter_sigma=0.0,
                queueing_scale_ms=0.0,
                spike_prob=0.0,
                base_loss_prob=0.0,
            ),
        )
        small_world.ensure_routing_fabric()
        model.set_attachment_grid(*small_world.latency.attachment_grid())
        # strip the probes' own packet loss so every packet is delivered
        src, dst = _endpoint(small_world, 0), _endpoint(small_world, 50)
        e1 = Endpoint("clean1", src.asn, src.city_key, access_ms=src.access_ms)
        e2 = Endpoint("clean2", dst.asn, dst.city_key, access_ms=dst.access_ms)
        base = model.base_rtt_ms(e1, e2)
        batch = model.sample_rtt_batch(e1, e2, np.random.default_rng(0), count=8)
        assert batch.shape == (8,)
        assert np.allclose(batch, base)

    def test_batch_statistics_match_scalar_model(self, small_world):
        """Batched draws follow the same distribution as scalar sampling."""
        model = small_world.latency
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        base = model.base_rtt_ms(e1, e2)
        scalar = [
            s
            for s in (
                model.sample_rtt_ms(e1, e2, np.random.default_rng(1))
                for _ in range(400)
            )
            if s is not None
        ]
        batch = model.sample_rtt_batch(e1, e2, np.random.default_rng(2), count=400)
        batch = batch[~np.isnan(batch)]
        assert len(batch) > 300 and len(scalar) > 300
        # medians are robust to the rare spikes; they must sit on the base
        assert np.median(batch) == pytest.approx(np.median(scalar), rel=0.02)
        assert np.median(batch) == pytest.approx(base, rel=0.05)

    def test_batch_marks_losses_and_unrouted(self, small_world):
        model = small_world.latency
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        lossy = Endpoint(
            "lossy", e2.asn, e2.city_key, access_ms=e2.access_ms, loss_prob=0.9
        )
        batch = model.sample_rtt_batch(e1, lossy, np.random.default_rng(3), 200)
        loss_frac = float(np.mean(np.isnan(batch)))
        assert 0.75 <= loss_frac <= 0.99

    def test_batch_marks_unrouted_rows(self, small_world):
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        # a grid whose every cell is unrouted
        model = LatencyModel()
        model.set_attachment_grid(
            np.full((2, 2), np.nan),
            {(e1.asn, e1.city_key): 0, (e2.asn, e2.city_key): 1},
        )
        matrix = model.sample_rtt_matrix(
            [(e1, e2), (e2, e1)], np.random.default_rng(4), 5
        )
        assert matrix.shape == (2, 5)
        assert np.all(np.isnan(matrix))
        # the scalar samplers return None for an unrouted leg and draw
        # nothing: the geolocation filter's RNG order rests on this
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert model.sample_rtt_ms(e1, e2, rng) is None
        base, loss = model.leg_entries([(e2, e1)])
        assert model.sample_rtt_entry(float(base[0]), float(loss[0]), rng) is None
        assert rng.bit_generator.state == state

    def test_ping_batch_semantics(self, small_world):
        engine = PingEngine(small_world.latency)
        e1, e2, e3 = (
            _endpoint(small_world, 0),
            _endpoint(small_world, 40),
            _endpoint(small_world, 50),
        )
        rng = np.random.default_rng(5)
        for src, dst in ((e1, e2), (e1, e3), (e2, e3)):
            result = engine.ping(src, dst, rng, count=6)
            assert (result.src_id, result.dst_id) == (src.node_id, dst.node_id)
            assert result.num_sent == 6
            for rtt in result.valid_rtts:
                assert rtt > 0

    def test_median_from_entries_matches_ping_median(self, small_world):
        """median_from_entries must produce exactly a PingResult median for
        the same draws (same rng stream consumed the same way)."""
        model = small_world.latency
        engine = PingEngine(model)
        srcs = [_endpoint(small_world, 0), _endpoint(small_world, 10)]
        dsts = [_endpoint(small_world, 50), _endpoint(small_world, 60)]
        grid = model.pair_grid(srcs, dsts)
        base, loss = np.diagonal(grid.base), np.diagonal(grid.loss)
        meds = engine.median_from_entries(
            base, loss, np.random.default_rng(6), count=6, min_valid=3
        )
        packets = model.sample_rtt_entries(base, loss, np.random.default_rng(6), 6)
        for med, src, dst, row in zip(meds, srcs, dsts, packets):
            rtts = tuple(float(v) if v == v else None for v in row)
            expected = PingResult(src.node_id, dst.node_id, rtts).median_rtt(3)
            if expected is None:
                assert med != med
            else:
                assert med == expected


class TestCampaignDeterminismVectorized:
    def test_same_seed_worlds_bitwise_identical_campaigns(self):
        """Two worlds built from one seed must yield identical campaigns —
        every observation field, every median — under the new engine."""
        config = WorldConfig(topology=TopologyConfig(country_limit=8))
        cfg = CampaignConfig(num_rounds=2, max_countries=6)
        results = []
        for _ in range(2):
            world = build_world(seed=23, config=config)
            results.append(MeasurementCampaign(world, cfg).run())
        a, b = results
        assert a.total_pings == b.total_pings
        for rnd_a, rnd_b in zip(a.rounds, b.rounds):
            assert rnd_a.endpoint_ids == rnd_b.endpoint_ids
            assert rnd_a.direct_medians == rnd_b.direct_medians
            assert rnd_a.relay_medians == rnd_b.relay_medians
            assert rnd_a.relay_indices_by_type == rnd_b.relay_indices_by_type
            assert rnd_a.table.columns_equal(rnd_b.table)
