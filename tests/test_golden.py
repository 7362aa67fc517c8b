"""Frozen digests of the measurement engine's and the serving layer's outputs.

Every measurement value here was recorded from the reference
implementations the engine used to carry next to its vectorized paths:
the per-leg pair-cache campaign engine, the scalar base-RTT resolver, the
unbatched geolocation filter and the per-observation prediction loops.
Those engines existed only so parity tests could diff against them; the
digests now pin the same behaviour without the second implementation.
The serving values (:class:`TestService`) were recorded from the
directory that spliced recompiled lanes into its blocks and answered each
batch through per-tier key searches.  The sweep values (:class:`TestSweep`)
were recorded from the sweep that rebuilt every seed's analysis in the
parent process and pooled remapped copies of the seeds' tables through a
separate concat.  The code must reproduce every value bit for bit.  A
change that moves one on purpose updates it here and says why in its
commit message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import CampaignConfig, MeasurementCampaign, build_world
from repro.analysis.multihop import two_relay_study
from repro.analysis.stability import StabilityAnalysis
from repro.core.colo import ColoRelayPipeline
from repro.core.io import load_result, save_result
from repro.core.oracle import LaneHistory, evaluate_prediction
from repro.core.sweep import SweepRequest, run_sweep
from repro.core.types import RelayType
from repro.core.worldcache import capture_arrays
from repro.latency.model import Endpoint, LatencyModel
from repro.scenarios.registry import get_scenario, scenario_with
from repro.service import (
    LoadgenConfig,
    QueryStream,
    ShortcutService,
    country_rank_order,
    replay,
)
from repro.timeline.events import (
    LinkDegradation,
    ProbeChurn,
    RelayOutage,
    TimelineConfig,
)
from repro.topology.config import TopologyConfig
from repro.topology.types import ASType
from repro.world import WorldConfig

#: (table-payload blake2b, pings sent) of conftest's ``small_campaign_result``
#: (seed 11, 16 countries, 3 rounds).
SMALL_CAMPAIGN = (
    "88d958cbf7ba959e2ddab3fb7fd66bb87f00aea8422e3ba1dc1ce0d28105e4e6"
    "36d0fd23b655a6069e808007f8875706f3c326c0cd0ba5f36950466b80b7f7fa",
    41916,
)
#: The same for a seed-5, 8-country, 2-round campaign on a fresh world.
SEED5_CAMPAIGN = (
    "85cfbe9fd4ecc14c371304f65c1551d5d5820652b0927be26130aeb2b6d5f42f"
    "655a742f2b31c155472d09cb80c5bc0f549f611fb77ce460d382c3a18c059bd4",
    11130,
)
#: The small world's Sec 2.2 funnel and (count, digest) of its verified
#: ``node_id@facility_id`` pool, in pipeline order.
COLO_FUNNEL = [1176, 672, 522, 463, 443, 165]
COLO_VERIFIED = (165, "94b0b0618bb652229536b3d06de17956")
#: (pairs, digest) of ``measure_direction_symmetry(0)`` as ``fwd rev`` hex.
SYMMETRY = (91, "632be54ed7d365c45b6eae09bb954494")
#: (ordered pairs, unrouted, digest) of ``base_rtt_ms`` as ``float.hex``.
BASE_RTT = (240, 0, "147150b758eba9d7d7719fc827738b0a")
#: ``two_relay_study`` over 16 small-world probes and 30 live colo
#: interfaces with ``default_rng(1)`` (both the pair and the relay samples
#: draw): (pairs, one_relay_improved, two_relay_improved,
#: extra_gain_ms_median.hex(), one_relay_captures_frac.hex()).  Recorded
#: from the study's nested per-pair ``base_rtt_ms`` loops.
MULTIHOP = (60, 15, 15, "0x0.0p+0", "0x1.a000000000000p-1")
#: ``evaluate_prediction`` on the small campaign:
#: (evaluated, hit_at_k, captured_gain_frac.hex()).
PREDICTION_SCORES = {
    (RelayType.COR, 1): (75, 7, "0x1.cbc91fc0a477ep-3"),
    (RelayType.COR, 3): (75, 21, "0x1.1e0cf7e8a43c1p-1"),
    (RelayType.COR, 5): (75, 25, "0x1.4f0d7ef720736p-1"),
    (RelayType.PLR, 1): (21, 2, "0x1.7797b507df7dbp-3"),
    (RelayType.PLR, 3): (21, 3, "0x1.529b23b8dd006p-2"),
    (RelayType.PLR, 5): (21, 4, "0x1.c0b02b0dfe405p-2"),
    (RelayType.RAR_OTHER, 1): (59, 13, "0x1.f8c2ae56bbd4bp-2"),
    (RelayType.RAR_OTHER, 3): (59, 28, "0x1.905fa39b0a729p-1"),
    (RelayType.RAR_OTHER, 5): (59, 36, "0x1.b990d412bf59cp-1"),
    (RelayType.RAR_EYE, 1): (6, 2, "0x1.5555555555555p-2"),
    (RelayType.RAR_EYE, 3): (6, 2, "0x1.5555555555555p-2"),
    (RelayType.RAR_EYE, 5): (6, 2, "0x1.5555555555555p-2"),
}
#: Per relay type: (country-pair lanes, lanes with a prediction, digest) of
#: ``predict_ccs(cc1, cc2, 4)`` over every lane of the small campaign.
LANE_PREDICTIONS = {
    RelayType.COR: (91, 89, "16966e756dff1312ab6d1018b90b3387"),
    RelayType.RAR_OTHER: (91, 74, "2e7e04dd3e51a993b506b35b0cba7231"),
}
#: ``block_signature`` of the small campaign's directory, keyed by
#: ``max_rounds``: every round compiled at once (None), and the rounds
#: ingested one by one through a two-round window (2).
SERVICE_SIGNATURES = {
    None: "c4dc0e4c91ed61dbd1c949a2883d5da3",
    2: "f5f6e53a6fed387a243c6edc8d3e5632",
}
#: ``replay`` answers digest of the small campaign's service over
#: ``SERVICE_QUERIES`` seed-3 queries, per (relay type, k).
REPLAY_DIGESTS = {
    (RelayType.COR, 1): "ad341ce13d9c1577301ae8a9a6d5b7fd",
    (RelayType.COR, 3): "b4ae9f9f60aa1a2f4401091393ab011d",
    (RelayType.COR, 5): "0270c8b5de4f2a791aa69f24e519e47d",
    (RelayType.PLR, 1): "3090cbfd7fe82e17d243a5c8365bbfa7",
    (RelayType.PLR, 3): "c7774d553d69179025f48b7d28841b57",
    (RelayType.PLR, 5): "5cb94218aac6c821b5b26cd926f48aba",
    (RelayType.RAR_OTHER, 1): "ea3403927fc75e3d179666e20f4d47b8",
    (RelayType.RAR_OTHER, 3): "537ab339016d7d1ecfa258941ff14271",
    (RelayType.RAR_OTHER, 5): "7aa89f70df9e525916b610e368493bd5",
    (RelayType.RAR_EYE, 1): "b1ed43bc31da4fb63fdcaaea0a499892",
    (RelayType.RAR_EYE, 3): "feeb6bdf5fbb489c5db3aae48dd6f783",
    (RelayType.RAR_EYE, 5): "6a7586d6b8365624c7412774b17c2737",
}
#: Per relay type: blake2b of the k=5 answers' ``reduction_ms`` over the
#: same stream (the replay digest covers relay ids and tiers only).
REDUCTION_DIGESTS = {
    RelayType.COR: "ba265b732e70e84322675fff4b8dc20e",
    RelayType.PLR: "4e16660a3a1a40a3443642c9c27a385b",
    RelayType.RAR_OTHER: "9cb5969b7aede152d827642fb88ecb22",
    RelayType.RAR_EYE: "924e077af2afaead76e1f2d449cb7533",
}
#: (answers digest, degradation counters) of the same replay through a
#: service with ``liveness_rounds=1``.
LIVENESS_REPLAY = (
    "3a38d6bf9f9ed14686ed5c0c5b1e05f2",
    {
        "queries": 20000,
        "stale_top_answers": 5579,
        "candidates_evicted": 20979,
        "unanswerable": 192,
        "fallback_country": 5977,
        "direct": 271,
    },
)
#: blake2b of ``QueryStream.generate`` (src then dst bytes): seeds 3 and 8,
#: and seed 3 with the most populous country silenced and the second one
#: weighted x4.
QUERY_STREAMS = {
    "seed3": "7833f4c8b7a2df32d61ecf8a49bf2da1",
    "seed8": "35bcd8c6c9e96e6cde0ae011d52f45be",
    "reweighted": "e753c1110673fc9c5c3e48a9fa809906",
}
SERVICE_QUERIES = 20_000
#: blake2b of every ``capture_arrays`` member (name, dtype, shape, bytes)
#: of a cold seed-11 world after ``ensure_routing_fabric``: topology, fabric
#: tables and attachment grid, but not ``meta``, whose snapshot version is
#: not world state.  Recorded from the dense-array fabric, the one-wavefront
#: grid walk and the pair-by-pair IXP peering draws that the sparse
#: relaxations, hop-sorted walk and batched draws replaced.
WORLD_STATE = {
    "small": "196c1aa9f4d820317a3c264a975fd100",
    "full": "2b1a19e559058d77912c72115da4f955",
}

#: Per round of ``small_campaign_result``: the (count, digest) of its direct
#: medians, then of its relay medians; see :func:`medians_digest`.  Recorded
#: from the dict-keyed medians that the three code columns replaced, through
#: the result file's ``round<k>.{direct,relay}.*`` members.
SMALL_MEDIANS = [
    ((91, "cf0a2c827a36e123c96bb232c1374aa2"), (2142, "bfa5928adaf6ee0b6b47bd23514159a6")),
    ((91, "33dccf303abb732902385a3489e5402b"), (2170, "66019ad0f874d43cf8c415305bcb3bee")),
    ((91, "d8b386584df56d9a599b096f31aec492"), (2128, "3324bd044548009287f7974c3e6bd758")),
]
#: (count, blake2b of the float64 bytes) of ``StabilityAnalysis.all_cvs()``
#: on the small campaign, keyed by ``min_occurrences``.
SMALL_CVS = {
    2: (1784, "192c22488ee86179bc26f700a0976591"),
    3: (518, "112e9553700816f0764999a97d527864"),
}
#: (table digest, pings sent, per-round medians as in ``SMALL_MEDIANS``) of
#: the ``lossy`` preset at 16 countries with ``base_loss_prob=0.15``, seed 11,
#: 3 rounds.  Its rounds have pairs whose direct median is valid only in
#: step 2 (1/6/3 per round) and only in step 4 (7/3/3): the branches that
#: baseline worlds never reach.
LOSSY_CAMPAIGN = (
    "9efac1b3d65221e6848023c861c9a243b9879035c4eb2362cfc4b5865126600e"
    "a8be3d81ac1396414c63aca2ff3469ecf2a05118d79bce249a71080f8686f763",
    41832,
    [
        ((90, "c2b2c5e5aa101f784968d6e937baa93e"), (2088, "c9afa8c2a1170562b17362490d334c5c")),
        ((85, "87a3514c00c62a2bac693236c9a42e92"), (2113, "a191b610fb4280a85eb345307f59e475")),
        ((88, "6d29ca95d949b6312714e96596d2887f"), (2064, "7112afad05ca71da690f176335002d0b")),
    ],
)
#: The same for a 3-round campaign on the small world under
#: ``TIMELINE_EVENTS``: dark relays, absent probes and degraded lanes.
TIMELINE_CAMPAIGN = (
    "35d864a26611a356f838d3ab4fb9a5218c71517ae761173985ebab2c25d78a51"
    "357cdf0ff03e339980dbb13e9506bdb9537fb6b382a5274ea244048556f19f42",
    26640,
    [
        ((91, "f186a4bf48cb183e04ef958765934fc1"), (2136, "b08e5306f38e36eb1027b83baf3b37d2")),
        ((28, "f2b2df640b548608db703773f5e33f19"), (655, "a6354dcf458ae5c88bd8b5581ee4f472")),
        ((36, "119b28fba0ed539b9bd1c2222ae64a4b"), (1332, "c21970a632a587c238cf06d446a5eef9")),
    ],
)
TIMELINE_EVENTS = (
    RelayOutage(start_round=1, end_round=2, fraction=0.5),
    ProbeChurn(start_round=1, end_round=3, fraction=0.3),
    LinkDegradation(start_round=0, end_round=2, num_pairs=3, loss_add=0.3, rtt_mult=1.5),
)
#: ``run_sweep`` of the baseline preset over seeds 3 and 4, one round, 8
#: countries: blake2b of the artifact without ``timing`` as canonical JSON;
#: (cases, improving entries, :func:`columns_digest`) of the pooled table
#: ``tables["baseline"]``; (relays, blake2b of the identity columns as
#: canonical JSON) of the unified registry ``registries["baseline"]``.
SWEEP = (
    "693b524c2a90bc9f7e4ef2cfbd15133a",
    (76, 700, "87395b847ab0a5fe6ca95ab94592f5cb"),
    (235, "3d55538c728239c1a0d7abf4fea9c82f"),
)

SMALL_CONFIG = WorldConfig(topology=TopologyConfig(country_limit=16))


def table_digest(table) -> str:
    """blake2b over a table payload's keys and buffers, in key order."""
    digest = hashlib.blake2b()
    payload = table.to_payload()
    for key in sorted(payload):
        value = payload[key]
        digest.update(key.encode())
        digest.update(
            value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
        )
    return digest.hexdigest()


def json_digest(value) -> str:
    return hashlib.blake2b(
        json.dumps(value, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


def columns_digest(table) -> str:
    """blake2b over a table's pool values and every column's name, dtype,
    shape and bytes."""
    payload = table.to_payload()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(payload["pools"], sort_keys=True).encode())
    for name, column in payload["columns"].items():
        digest.update(name.encode())
        digest.update(column.dtype.str.encode())
        digest.update(repr(column.shape).encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def medians_digest(medians) -> tuple[int, str]:
    """(count, blake2b over the ``a``, ``b`` and ``ms`` dtypes and bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    for column in (medians.a, medians.b, medians.ms):
        digest.update(column.dtype.str.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return len(medians), digest.hexdigest()


def round_medians(result) -> list:
    return [
        (medians_digest(rnd.direct_medians), medians_digest(rnd.relay_medians))
        for rnd in result.rounds
    ]


def lines_digest(lines) -> str:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def _fresh_small_world(fabric: bool):
    world = build_world(seed=11, config=SMALL_CONFIG, use_world_cache=False)
    if fabric:
        world.ensure_routing_fabric()
    return world


class TestCampaignDigests:
    def test_small_campaign(self, small_campaign_result):
        result = small_campaign_result
        assert (table_digest(result.table), result.total_pings) == SMALL_CAMPAIGN

    def test_small_campaign_through_result_file(self, small_campaign_result, tmp_path):
        path = tmp_path / "result.npz"
        save_result(small_campaign_result, path)
        loaded = load_result(path)
        assert (table_digest(loaded.table), loaded.total_pings) == SMALL_CAMPAIGN

    def test_seed5_campaign(self):
        config = WorldConfig(topology=TopologyConfig(country_limit=8))
        world = build_world(seed=5, config=config, use_world_cache=False)
        result = MeasurementCampaign(world, CampaignConfig(num_rounds=2)).run()
        assert (table_digest(result.table), result.total_pings) == SEED5_CAMPAIGN

    def test_small_campaign_medians(self, small_campaign_result, tmp_path):
        assert round_medians(small_campaign_result) == SMALL_MEDIANS
        path = tmp_path / "result.npz"
        save_result(small_campaign_result, path)
        assert round_medians(load_result(path)) == SMALL_MEDIANS

    @pytest.mark.parametrize("min_occurrences", [2, 3])
    def test_small_campaign_cvs(self, small_campaign_result, min_occurrences):
        cvs = StabilityAnalysis(small_campaign_result, min_occurrences).all_cvs()
        digest = hashlib.blake2b(np.asarray(cvs, np.float64).tobytes(), digest_size=16)
        assert (len(cvs), digest.hexdigest()) == SMALL_CVS[min_occurrences]

    def test_lossy_campaign(self):
        lossy = scenario_with(get_scenario("lossy"), countries=16, rounds=3)
        latency = dataclasses.replace(lossy.world.latency, base_loss_prob=0.15)
        world = build_world(
            seed=11,
            config=dataclasses.replace(lossy.world, latency=latency),
            use_world_cache=False,
        )
        result = MeasurementCampaign(world, lossy.campaign).run()
        got = (table_digest(result.table), result.total_pings, round_medians(result))
        assert got == LOSSY_CAMPAIGN

    def test_timeline_campaign(self, small_world):
        config = CampaignConfig(num_rounds=3, timeline=TimelineConfig(TIMELINE_EVENTS))
        result = MeasurementCampaign(small_world, config).run()
        got = (table_digest(result.table), result.total_pings, round_medians(result))
        assert got == TIMELINE_CAMPAIGN

    @pytest.mark.parametrize("fabric", [False, True], ids=["no-fabric", "fabric"])
    def test_direction_symmetry(self, fabric):
        campaign = MeasurementCampaign(_fresh_small_world(fabric), CampaignConfig())
        pairs = campaign.measure_direction_symmetry(0)
        lines = [f"{fwd.hex()} {rev.hex()}" for fwd, rev in pairs]
        assert (len(pairs), lines_digest(lines)) == SYMMETRY


class TestColoPipeline:
    def test_funnel_and_verified_pool(self, small_world):
        verified, report = ColoRelayPipeline(small_world, CampaignConfig()).run()
        assert report.funnel() == COLO_FUNNEL
        lines = [f"{relay.node.node_id}@{relay.facility_id}" for relay in verified]
        assert (len(lines), lines_digest(lines)) == COLO_VERIFIED


class TestBaseRtt:
    @staticmethod
    def _pairs(world) -> list[tuple[Endpoint, Endpoint]]:
        """Every ordered pair over probes, colo interfaces, the pipeline
        monitor and an ad-hoc endpoint reusing a probe's node id."""
        probes = [p.node.endpoint for p in world.atlas.all_probes()[:8]]
        colos = [i.node.endpoint for i in world.colo_pool.live_interfaces()[:6]]
        tier1 = world.graph.get_as(
            world.topology.asns_of_type(ASType.TRANSIT_GLOBAL)[0]
        )
        monitor = Endpoint("pipeline-monitor", tier1.asn, tier1.primary_city, 1.0, 0.001)
        first = probes[0]
        reuse = Endpoint(first.node_id, first.asn, first.city_key, 10.0, 0.0)
        endpoints = probes + colos + [monitor, reuse]
        return [(s, d) for s in endpoints for d in endpoints if s is not d]

    @pytest.mark.parametrize("fabric", [False, True], ids=["no-fabric", "fabric"])
    def test_base_rtt_bits(self, small_world, fabric):
        if fabric:
            world = small_world
            world.ensure_routing_fabric()
            model = LatencyModel(world.latency.config)
            model.set_attachment_grid(*world.latency.attachment_grid())
        else:
            # a fresh world's first query builds its fabric and grid
            world = _fresh_small_world(fabric=False)
            model = world.latency
        values = [model.base_rtt_ms(s, d) for s, d in self._pairs(world)]
        lines = ["None" if v is None else v.hex() for v in values]
        assert (len(lines), lines.count("None"), lines_digest(lines)) == BASE_RTT


class TestMultiHop:
    def test_two_relay_study(self, small_world):
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:16]]
        relays = [i.node.endpoint for i in small_world.colo_pool.live_interfaces()[:30]]
        study = two_relay_study(
            small_world.latency, probes, relays, np.random.default_rng(1)
        )
        got = (
            study.pairs,
            study.one_relay_improved,
            study.two_relay_improved,
            study.extra_gain_ms_median.hex(),
            study.one_relay_captures_frac.hex(),
        )
        assert got == MULTIHOP


class TestPrediction:
    def test_evaluate_prediction_scores(self, small_campaign_result):
        for (relay_type, k), expected in PREDICTION_SCORES.items():
            score = evaluate_prediction(small_campaign_result, relay_type, k)
            got = (score.evaluated, score.hit_at_k, score.captured_gain_frac.hex())
            assert got == expected, (relay_type, k)

    def test_lane_predictions(self, small_campaign_result):
        table = small_campaign_result.table
        names = table.pools.countries
        lanes = sorted(
            {
                tuple(sorted((names[a], names[b])))
                for a, b in zip(table.e1_cc.tolist(), table.e2_cc.tolist())
            }
        )
        for relay_type, expected in LANE_PREDICTIONS.items():
            history = LaneHistory.from_table(table, relay_type)
            lines = [
                f"{cc1}-{cc2}:{','.join(map(str, history.predict_ccs(cc1, cc2, 4)))}"
                for cc1, cc2 in lanes
            ]
            predicted = sum(1 for line in lines if not line.endswith(":"))
            assert (len(lines), predicted, lines_digest(lines)) == expected, relay_type


def world_state_digest(config) -> str:
    """blake2b over a cold world's snapshot arrays, not the ``.npz`` file
    (zip headers differ across Python versions)."""
    world = build_world(seed=11, config=config, use_world_cache=False)
    world.ensure_routing_fabric()
    digest = hashlib.blake2b(digest_size=16)
    for name, arr in capture_arrays(world).items():
        if name == "meta":
            continue
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class TestWorldState:
    @pytest.mark.parametrize(
        "name,config", [("small", SMALL_CONFIG), ("full", WorldConfig())]
    )
    def test_cold_world_arrays(self, name, config):
        assert world_state_digest(config) == WORLD_STATE[name]


def stream_digest(service, config) -> str:
    src, dst = QueryStream(service.directory, config).generate()
    return hashlib.blake2b(src.tobytes() + dst.tobytes(), digest_size=16).hexdigest()


def reduction_digest(service, relay_type) -> str:
    config = LoadgenConfig(num_queries=SERVICE_QUERIES, seed=3)
    src, dst = QueryStream(service.directory, config).generate()
    batch = service.route_many(src, dst, relay_type, 5)
    return hashlib.blake2b(batch.reduction_ms.tobytes(), digest_size=16).hexdigest()


def windowed_service(result, max_rounds):
    service = ShortcutService.empty(max_rounds=max_rounds)
    for rnd in result.rounds:
        service.ingest_round(rnd)
    return service


class TestService:
    @pytest.fixture(scope="class")
    def service(self, small_campaign_result):
        return ShortcutService.from_campaign(small_campaign_result)

    def test_block_signatures(self, small_campaign_result, service):
        windowed = windowed_service(small_campaign_result, 2)
        got = {
            None: service.directory.block_signature(),
            2: windowed.directory.block_signature(),
        }
        assert got == SERVICE_SIGNATURES

    def test_replay_digests(self, service):
        for (relay_type, k), expected in REPLAY_DIGESTS.items():
            config = LoadgenConfig(
                num_queries=SERVICE_QUERIES, seed=3, k=k, relay_type=relay_type
            )
            assert replay(service, config).answers_digest == expected, (relay_type, k)

    def test_reduction_digests(self, service):
        got = {relay_type: reduction_digest(service, relay_type) for relay_type in RelayType}
        assert got == REDUCTION_DIGESTS

    def test_liveness_replay(self, small_campaign_result):
        service = ShortcutService.from_campaign(small_campaign_result, liveness_rounds=1)
        stats = replay(service, LoadgenConfig(num_queries=SERVICE_QUERIES, seed=3))
        assert (stats.answers_digest, stats.degradation) == LIVENESS_REPLAY

    def test_query_streams(self, service):
        ranked = country_rank_order(service.directory)
        weights = {ranked[0]: 0.0, ranked[1]: 4.0}
        got = {
            "seed3": stream_digest(service, LoadgenConfig(num_queries=SERVICE_QUERIES, seed=3)),
            "seed8": stream_digest(service, LoadgenConfig(num_queries=SERVICE_QUERIES, seed=8)),
            "reweighted": stream_digest(
                service,
                LoadgenConfig(num_queries=SERVICE_QUERIES, seed=3, country_weights=weights),
            ),
        }
        assert got == QUERY_STREAMS


class TestSweep:
    def test_artifact_and_pooled_table(self):
        result = run_sweep(
            SweepRequest.from_scenario("baseline", seeds=(3, 4), rounds=1, countries=8)
        )
        table = result.tables["baseline"]
        registry = result.registries["baseline"]
        got = (
            json_digest(result.as_dict(include_timing=False)),
            (table.num_cases, table.imp_relay.size, columns_digest(table)),
            (len(registry), json_digest(registry.to_payload())),
        )
        assert got == SWEEP
