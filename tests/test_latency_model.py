"""Tests for the RTT model, ping engine and backbone stretch."""

import numpy as np
import pytest
from repro.errors import ConfigError, MeasurementError
from repro.latency.backbone import STRETCH_RANGES, BackboneStretch
from repro.latency.model import Endpoint, LatencyConfig
from repro.latency.ping import PingEngine, PingResult
from repro.measurement.config import InfrastructureConfig
from repro.topology.types import ASType


def _endpoint(world, index: int = 0, access: float = 2.0) -> Endpoint:
    asys = world.graph.get_as(world.graph.asns()[index])
    return Endpoint(
        node_id=f"test-ep-{index}",
        asn=asys.asn,
        city_key=asys.primary_city,
        access_ms=access,
        loss_prob=0.0,
    )


class TestEndpointValidation:
    def test_negative_access_rejected(self):
        with pytest.raises(ConfigError):
            Endpoint("x", 1, "London/GB", access_ms=-1.0)

    def test_loss_prob_range(self):
        with pytest.raises(ConfigError):
            Endpoint("x", 1, "London/GB", access_ms=0.0, loss_prob=1.0)

    @pytest.mark.parametrize("access_ms", [float("nan"), float("inf")])
    def test_non_finite_access_rejected(self, access_ms):
        with pytest.raises(ConfigError, match="access_ms"):
            Endpoint("x", 1, "London/GB", access_ms=access_ms)

    @pytest.mark.parametrize(
        "field", ["probe_access_ms", "planetlab_access_ms", "colo_access_ms", "lg_access_ms"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_access_range_rejected(self, field, bad):
        # the range every endpoint of that kind draws its access_ms from
        with pytest.raises(ConfigError, match=field):
            InfrastructureConfig(**{field: (0.5, bad)})


class TestLatencyConfigValidation:
    def test_defaults_valid(self):
        LatencyConfig()

    def test_bad_spike_range(self):
        with pytest.raises(ConfigError):
            LatencyConfig(spike_range_ms=(100.0, 10.0))

    def test_bad_asymmetry(self):
        with pytest.raises(ConfigError):
            LatencyConfig(asymmetry_frac=0.6)

    @pytest.mark.parametrize(
        "fields",
        [
            {"jitter_sigma": -0.1},
            {"spike_prob": 0.5, "spike_range_ms": (-400.0, -300.0)},
            {"spike_range_ms": (-10.0, 300.0)},
            {"spike_range_ms": (float("nan"), 300.0)},
            {"spike_range_ms": (30.0, float("inf"))},
            {"per_hop_ms": float("nan")},
            {"per_hop_ms": float("inf")},
            {"jitter_sigma": float("nan")},
            {"queueing_scale_ms": float("nan")},
        ],
        ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()).replace(" ", ""),
    )
    def test_unsamplable_values_rejected(self, fields):
        with pytest.raises(ConfigError):
            LatencyConfig(**fields)


class TestBaseRtt:
    def test_deterministic(self, small_world):
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        a = small_world.latency.base_rtt_ms(e1, e2)
        b = small_world.latency.base_rtt_ms(e1, e2)
        assert a == b
        assert a is not None and a > 0

    def test_includes_access_delay(self, small_world):
        # same node_id on both endpoints keeps the pair skew identical, so
        # the difference isolates the access term exactly
        base = _endpoint(small_world, 0, access=0.0)
        slow = Endpoint(base.node_id, base.asn, base.city_key, access_ms=10.0)
        other = _endpoint(small_world, 50)
        rtt_slow = small_world.latency.base_rtt_ms(slow, other)
        rtt_fast = small_world.latency.base_rtt_ms(base, other)
        # 10 ms one-way access appears twice in the RTT (modulo skew scaling)
        assert rtt_slow - rtt_fast == pytest.approx(20.0, rel=0.05)

    def test_asymmetry_is_small(self, small_world):
        # the wire RTT is direction-independent; only the per-direction
        # measurement skew (max 4.5% each way) differs
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        fwd = small_world.latency.base_rtt_ms(e1, e2)
        rev = small_world.latency.base_rtt_ms(e2, e1)
        assert fwd != rev  # direction-specific skew exists
        max_skew = small_world.latency.config.asymmetry_frac
        assert abs(fwd - rev) / min(fwd, rev) < 2.5 * max_skew

    def test_symmetry_distribution_matches_paper(self, small_world):
        # ~80% of pairs should agree within 5% across many endpoint pairs,
        # drawn from the attachments the world's nodes occupy
        model = small_world.latency
        small_world.ensure_routing_fabric()
        attachments = sorted(model.attachment_grid()[1])
        step = len(attachments) // 60
        endpoints = [
            Endpoint(f"test-ep-{k}", asn, city, access_ms=2.0)
            for k, (asn, city) in enumerate(attachments[::step][:60])
        ]
        agree = total = 0
        for i in range(0, 60, 3):
            for j in range(1, 60, 7):
                if i == j:
                    continue
                e1, e2 = endpoints[i], endpoints[j]
                fwd = model.base_rtt_ms(e1, e2)
                rev = model.base_rtt_ms(e2, e1)
                if fwd is None or rev is None:
                    continue
                total += 1
                if abs(fwd - rev) / min(fwd, rev) <= 0.05:
                    agree += 1
        assert total > 50
        assert 0.6 < agree / total <= 1.0

    def test_geography_lower_bound(self, small_world):
        from repro.geo.cities import city as city_of
        from repro.geo.distance import min_rtt_ms

        e1, e2 = _endpoint(small_world, 10), _endpoint(small_world, 60)
        rtt = small_world.latency.base_rtt_ms(e1, e2)
        bound = min_rtt_ms(city_of(e1.city_key).location, city_of(e2.city_key).location)
        assert rtt >= bound * 0.98  # asymmetry can shave up to 2%


class TestSampledRtt:
    def test_jitter_varies(self, small_world):
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        rng = np.random.default_rng(1)
        samples = [small_world.latency.sample_rtt_ms(e1, e2, rng) for _ in range(20)]
        valid = [s for s in samples if s is not None]
        assert len(set(valid)) > 1

    def test_samples_near_base(self, small_world):
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        base = small_world.latency.base_rtt_ms(e1, e2)
        rng = np.random.default_rng(2)
        valid = [
            s
            for s in (small_world.latency.sample_rtt_ms(e1, e2, rng) for _ in range(50))
            if s is not None
        ]
        med = sorted(valid)[len(valid) // 2]
        assert med == pytest.approx(base, rel=0.15)

    def test_lossy_endpoint_drops_packets(self, small_world):
        e1 = _endpoint(small_world, 0)
        e2 = _endpoint(small_world, 50)
        lossy = Endpoint("lossy", e2.asn, e2.city_key, access_ms=1.0, loss_prob=0.95)
        rng = np.random.default_rng(3)
        samples = [small_world.latency.sample_rtt_ms(e1, lossy, rng) for _ in range(40)]
        assert samples.count(None) > 20

    def test_loss_probability_composes(self, small_world):
        e1 = Endpoint("a", 1000, "London/GB", 0.0, loss_prob=0.1)
        e2 = Endpoint("b", 1000, "London/GB", 0.0, loss_prob=0.2)
        p = small_world.latency.loss_probability(e1, e2)
        base = small_world.latency.config.base_loss_prob
        assert p == pytest.approx(1 - (1 - base) * 0.9 * 0.8)


class TestPingEngine:
    def test_batch_size(self, small_world):
        engine = PingEngine(small_world.latency)
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        result = engine.ping(e1, e2, np.random.default_rng(4), count=6)
        assert result.num_sent == 6
        assert result.num_received <= 6

    def test_median_requires_min_valid(self, small_world):
        engine = PingEngine(small_world.latency)
        e1 = _endpoint(small_world, 0)
        dead = Endpoint("dead", e1.asn, e1.city_key, access_ms=0.1, loss_prob=0.9999)
        result = engine.ping(e1, dead, np.random.default_rng(5), count=6)
        assert result.median_rtt(min_valid=3) is None

    def test_zero_count_rejected(self, small_world):
        engine = PingEngine(small_world.latency)
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        with pytest.raises(MeasurementError):
            engine.ping(e1, e2, np.random.default_rng(6), count=0)

    def test_is_responsive(self, small_world):
        engine = PingEngine(small_world.latency)
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        assert engine.is_responsive(e1, e2, np.random.default_rng(7))

    def test_median_robust_to_spikes(self, small_world):
        # force frequent spikes; the median of 6 should stay near base
        from repro.latency.model import LatencyModel

        spiky = LatencyModel(LatencyConfig(spike_prob=0.3, spike_range_ms=(200.0, 400.0)))
        small_world.ensure_routing_fabric()
        spiky.set_attachment_grid(*small_world.latency.attachment_grid())
        engine = PingEngine(spiky)
        e1, e2 = _endpoint(small_world, 0), _endpoint(small_world, 50)
        base = spiky.base_rtt_ms(e1, e2)
        rng = np.random.default_rng(8)
        medians = []
        # with spike_prob 0.3 the expected fraction of 6-packet batches whose
        # median stays under 1.5x base is ~0.74 (>= 3 spiked packets drag the
        # median up); sample enough batches to assert well clear of noise
        for _ in range(60):
            med = engine.ping(e1, e2, rng, count=6).median_rtt()
            if med is not None:
                medians.append(med)
        within = sum(1 for m in medians if m < base * 1.5)
        assert within / len(medians) > 0.6


class TestBackboneStretch:
    def test_within_role_range(self, small_world):
        stretch = BackboneStretch(small_world.graph)
        for asys in small_world.graph:
            low, high = STRETCH_RANGES[asys.as_type]
            assert low <= stretch.factor(asys.asn) <= high

    def test_deterministic(self, small_world):
        a = BackboneStretch(small_world.graph)
        b = BackboneStretch(small_world.graph)
        asns = small_world.graph.asns()[:20]
        assert [a.factor(x) for x in asns] == [b.factor(x) for x in asns]

    def test_content_beats_eyeball_on_average(self, small_world):
        stretch = BackboneStretch(small_world.graph)
        topo = small_world.topology
        content = [stretch.factor(a) for a in topo.asns_of_type(ASType.CONTENT)]
        eyeball = [stretch.factor(a) for a in topo.asns_of_type(ASType.EYEBALL)]
        assert sum(content) / len(content) < sum(eyeball) / len(eyeball)


class TestPairGrid:
    """The grid resolver and the uncached per-leg resolver must give the
    same bits for every ordered pair."""

    @pytest.fixture(scope="class")
    def grid_endpoints(self, small_world):
        probes = small_world.atlas.all_probes()[:12]
        return [p.node.endpoint for p in probes]

    def test_leg_entries_match_grid(self, small_world, grid_endpoints):
        """Every ``leg_entries`` entry is the grid cell of its ordered pair,
        also for repeated legs, both directions of a leg and an endpoint
        that reuses a grid endpoint's node id with other host terms."""
        model = small_world.latency
        first = grid_endpoints[0]
        reuse = Endpoint(
            first.node_id, first.asn, first.city_key, first.access_ms + 10.0, 0.25
        )
        endpoints = grid_endpoints + [reuse]
        last = len(endpoints) - 1
        grid = model.pair_grid(endpoints, endpoints)
        legs = [(i, j) for i in range(6) for j in range(6, 12)]
        legs += [(j, i) for i, j in legs[:5]] + legs[:7]
        legs += [(last, 6), (6, last), (last, 0), (0, last), (last, last)]
        base, loss = model.leg_entries([(endpoints[i], endpoints[j]) for i, j in legs])
        rows, cols = np.array(legs).T
        assert base.tobytes() == grid.base[rows, cols].tobytes()
        assert loss.tobytes() == grid.loss[rows, cols].tobytes()
        # the reused node id resolves with its own host terms
        assert grid.base[last, 6] != grid.base[0, 6]
        assert grid.loss[last, 6] != grid.loss[0, 6]

    def test_entries_match_with_attachment_grid(self, grid_endpoints, small_world):
        small_world.ensure_routing_fabric()
        model = small_world.latency
        rows, cols = grid_endpoints[:6], grid_endpoints[6:]
        grid = model.pair_grid(rows, cols)
        for i, s in enumerate(rows):
            for j, d in enumerate(cols):
                scalar = model.base_rtt_ms(s, d)
                cell = grid.base[i, j]
                if scalar is None:
                    assert cell != cell
                else:
                    assert cell == scalar
                assert grid.loss[i, j] == model.loss_probability(s, d)

    def test_skew_memo_warm_gather(self, small_world, grid_endpoints):
        model = small_world.latency
        rows, cols = grid_endpoints[:6], grid_endpoints[6:]
        first = model.pair_grid(rows, cols)
        again = model.pair_grid(rows, cols)
        assert np.array_equal(first.base, again.base, equal_nan=True)
        assert np.array_equal(first.loss, again.loss)

    def test_sample_rtt_entries_matches_matrix(self, small_world, grid_endpoints):
        model = small_world.latency
        rows, cols = grid_endpoints[:6], grid_endpoints[6:]
        pairs = [(s, d) for s in rows for d in cols]
        grid = model.pair_grid(rows, cols)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        via_pairs = model.sample_rtt_matrix(pairs, rng_a, count=4)
        via_entries = model.sample_rtt_entries(
            grid.base.reshape(-1), grid.loss.reshape(-1), rng_b, count=4
        )
        assert np.array_equal(via_pairs, via_entries, equal_nan=True)

    def test_median_from_entries_matches_ping_results(
        self, small_world, grid_endpoints
    ):
        """Grid medians equal PingResult medians of the same legs' packets
        sampled through the per-leg resolver."""
        model = small_world.latency
        engine = PingEngine(model)
        rows, cols = grid_endpoints[:6], grid_endpoints[6:]
        pairs = [(s, d) for s in rows for d in cols]
        grid = model.pair_grid(rows, cols)
        via_entries = engine.median_from_entries(
            grid.base.reshape(-1), grid.loss.reshape(-1), np.random.default_rng(7)
        )
        packets = model.sample_rtt_matrix(pairs, np.random.default_rng(7), 6)
        for (src, dst), row, med in zip(pairs, packets, via_entries.tolist()):
            rtts = tuple(float(v) if v == v else None for v in row)
            expected = PingResult(src.node_id, dst.node_id, rtts).median_rtt(3)
            if expected is None:
                assert med != med
            else:
                assert med == expected

    def test_empty_grid(self, small_world):
        grid = small_world.latency.pair_grid([], [])
        assert grid.shape == (0, 0)
        out = small_world.latency.sample_rtt_entries(
            grid.base.reshape(-1), grid.loss.reshape(-1),
            np.random.default_rng(0), count=3,
        )
        assert out.shape == (0, 3)
