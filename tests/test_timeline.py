"""Tests for the fault-timeline engine and churn-aware serving.

The load-bearing guarantee is byte-identity: a campaign run under an
empty (or out-of-horizon) schedule must produce exactly the same result
as a run with no timeline at all — same tables, same medians, same
compiled serving directory.  The rest of the suite covers event
validation, compile determinism, the per-event mechanics (outage windows,
probe churn, link degradation, traffic shifts), relay-health routing with
bounded spill, mid-churn snapshot round-trips, the loadgen's degenerate
workloads, and the typed service errors.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.campaign import MeasurementCampaign
from repro.core.config import CampaignConfig
from repro.core.types import RelayType
from repro.errors import (
    ConfigError,
    EmptyDirectoryError,
    ReproError,
    ServiceError,
    TimelineError,
    UnknownCountryError,
    UnknownEndpointError,
)
from repro.latency.model import PairGrid
from repro.service import (
    LoadgenConfig,
    QueryStream,
    RelayDirectory,
    ShortcutService,
    country_rank_order,
    replay,
)
from repro.timeline import (
    ChaosConfig,
    CompiledTimeline,
    LinkDegradation,
    ProbeChurn,
    RelayOutage,
    TimelineConfig,
    TrafficShift,
    chaos_replay,
    compile_timeline,
    rolling_outages,
)

ROUNDS = 3


def _run(world, timeline: TimelineConfig | None, **kwargs):
    campaign = MeasurementCampaign(
        world, CampaignConfig(num_rounds=ROUNDS, timeline=timeline, **kwargs)
    )
    return campaign, campaign.run()


@pytest.fixture(scope="module")
def outage_run(small_world):
    """A 3-round campaign with half the relay pools dark in round 1."""
    timeline = TimelineConfig(
        events=(RelayOutage(start_round=1, end_round=2, fraction=0.5),)
    )
    return _run(small_world, timeline)


# --------------------------------------------------------------- validation


class TestEventValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(TimelineError):
            RelayOutage(start_round=2, end_round=2, fraction=0.5)

    def test_negative_start_rejected(self):
        with pytest.raises(TimelineError):
            RelayOutage(start_round=-1, end_round=2, fraction=0.5)

    def test_fraction_bounds(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(TimelineError):
                RelayOutage(start_round=0, end_round=1, fraction=bad)

    def test_unknown_pool_rejected(self):
        with pytest.raises(TimelineError):
            RelayOutage(start_round=0, end_round=1, fraction=0.5, pools=("cloud",))

    def test_churn_mode_rejected(self):
        with pytest.raises(TimelineError):
            ProbeChurn(start_round=0, end_round=1, fraction=0.5, mode="sideways")

    def test_link_pair_must_be_distinct(self):
        with pytest.raises(TimelineError):
            LinkDegradation(start_round=0, end_round=1, countries=("DE", "DE"))

    def test_link_rtt_mult_floor(self):
        with pytest.raises(TimelineError):
            LinkDegradation(start_round=0, end_round=1, rtt_mult=0.5)

    def test_traffic_weight_floor(self):
        with pytest.raises(TimelineError):
            TrafficShift(start_round=0, end_round=1, weight_mult=-1.0)

    def test_rolling_outages_validation(self):
        with pytest.raises(TimelineError):
            rolling_outages(start_round=0, num_waves=0, fraction=0.5)
        waves = rolling_outages(start_round=1, num_waves=3, fraction=0.25)
        assert [w.start_round for w in waves] == [1, 2, 3]
        assert all(w.end_round == w.start_round + 1 for w in waves)

    def test_config_rejects_non_events(self):
        with pytest.raises(TimelineError):
            TimelineConfig(events=("outage",))

    def test_timeline_error_is_repro_error(self):
        assert issubclass(TimelineError, ReproError)

    def test_campaign_config_rejects_non_timeline(self):
        with pytest.raises(ConfigError):
            CampaignConfig(timeline="relay-outage")


# ------------------------------------------------------------------ compile


class TestCompile:
    def test_compile_is_deterministic(self, small_world):
        config = TimelineConfig(
            events=(
                RelayOutage(start_round=0, end_round=2, fraction=0.3),
                ProbeChurn(start_round=1, end_round=2, fraction=0.2),
                LinkDegradation(start_round=0, end_round=1, num_pairs=2),
                TrafficShift(start_round=0, end_round=3, weight_mult=2.0),
            )
        )
        a = compile_timeline(small_world, config, ROUNDS)
        b = compile_timeline(small_world, config, ROUNDS)
        for r in range(ROUNDS):
            assert a.absent_ids(r) == b.absent_ids(r)
            assert a.effects(r).links == b.effects(r).links
            assert a.effects(r).traffic == b.effects(r).traffic

    def test_window_is_half_open(self, small_world):
        config = TimelineConfig(
            events=(RelayOutage(start_round=1, end_round=2, fraction=0.5),)
        )
        timeline = compile_timeline(small_world, config, ROUNDS)
        assert not timeline.absent_ids(0)
        assert timeline.absent_ids(1)
        assert not timeline.absent_ids(2)

    def test_out_of_horizon_rounds_are_empty(self, small_world):
        config = TimelineConfig(
            events=(RelayOutage(start_round=0, end_round=3, fraction=0.5),)
        )
        timeline = compile_timeline(small_world, config, ROUNDS)
        assert not timeline.absent_ids(-1)
        assert not timeline.absent_ids(ROUNDS)
        assert not timeline.absent_ids(10_000)

    def test_cohort_fraction(self, small_world):
        pool = sorted(
            i.node.node_id for i in small_world.colo_pool.interfaces()
        )
        config = TimelineConfig(
            events=(
                RelayOutage(
                    start_round=0, end_round=1, fraction=0.5, pools=("colo",)
                ),
            )
        )
        timeline = compile_timeline(small_world, config, ROUNDS)
        cohort = timeline.absent_ids(0)
        assert len(cohort) == round(0.5 * len(pool))
        assert cohort <= set(pool)

    def test_rolling_waves_draw_fresh_cohorts(self, small_world):
        config = TimelineConfig(
            events=rolling_outages(start_round=0, num_waves=3, fraction=0.25)
        )
        timeline = compile_timeline(small_world, config, ROUNDS)
        cohorts = [timeline.absent_ids(r) for r in range(3)]
        assert all(cohorts)
        # independent draws per wave: the failing set shifts
        assert len(set(cohorts)) > 1

    def test_arrival_churn_absent_before_window(self, small_world):
        config = TimelineConfig(
            events=(
                ProbeChurn(
                    start_round=2, end_round=3, fraction=0.3, mode="arrival"
                ),
            )
        )
        timeline = compile_timeline(small_world, config, ROUNDS)
        assert timeline.absent_ids(0)
        assert timeline.absent_ids(0) == timeline.absent_ids(1)
        assert not timeline.absent_ids(2)

    def test_num_rounds_floor(self, small_world):
        with pytest.raises(TimelineError):
            compile_timeline(small_world, TimelineConfig(), 0)

    def test_has_events_reflects_horizon(self, small_world):
        fired = compile_timeline(
            small_world,
            TimelineConfig(
                events=(RelayOutage(start_round=0, end_round=1, fraction=0.5),)
            ),
            ROUNDS,
        )
        beyond = compile_timeline(
            small_world,
            TimelineConfig(
                events=(RelayOutage(start_round=50, end_round=51, fraction=0.5),)
            ),
            ROUNDS,
        )
        assert fired.has_events
        assert not beyond.has_events
        assert not compile_timeline(small_world, TimelineConfig(), ROUNDS).has_events

    def test_traffic_multipliers_resolve_rank_and_multiply(self, small_world):
        config = TimelineConfig(
            events=(
                TrafficShift(start_round=0, end_round=1, weight_mult=4.0, rank=0),
                TrafficShift(
                    start_round=0, end_round=1, weight_mult=0.5, country="ZZ"
                ),
            )
        )
        timeline = compile_timeline(small_world, config, ROUNDS)
        mult = timeline.traffic_multipliers(0, ["US", "DE"])
        assert mult == {"US": 4.0, "ZZ": 0.5}
        # rank past the end of the order resolves to nothing
        assert timeline.traffic_multipliers(0, []) == {"ZZ": 0.5}
        # multipliers hitting the same country compose multiplicatively
        stacked = TimelineConfig(
            events=(
                TrafficShift(start_round=0, end_round=1, weight_mult=4.0, rank=0),
                TrafficShift(start_round=0, end_round=1, weight_mult=0.5, rank=0),
            )
        )
        compiled = compile_timeline(small_world, stacked, ROUNDS)
        assert compiled.traffic_multipliers(0, ["US"]) == {"US": 2.0}


class TestLinkOverrides:
    def _timeline(self, windows_by_round):
        num_rounds = len(windows_by_round)
        return CompiledTimeline(
            TimelineConfig(),
            num_rounds,
            [frozenset() for _ in range(num_rounds)],
            windows_by_round,
            [() for _ in range(num_rounds)],
        )

    def test_matching_entries_degrade_both_directions(self, small_world):
        config = TimelineConfig(
            events=(
                LinkDegradation(
                    start_round=0,
                    end_round=1,
                    countries=("DE", "US"),
                    rtt_mult=2.0,
                    loss_add=0.5,
                ),
            )
        )
        timeline = compile_timeline(small_world, config, 1)
        grid = PairGrid(
            base=np.array([[10.0, 20.0], [30.0, 40.0]]),
            loss=np.array([[0.0, 0.2], [0.0, 0.0]]),
        )
        rows = np.array(["DE", "US"], dtype="U3")
        cols = np.array(["US", "DE"], dtype="U3")
        out = timeline.apply_link_overrides(grid, rows, cols, 0)
        assert out is not grid  # copy-on-write
        # (DE, US) and (US, DE) entries hit; (DE, DE) / (US, US) do not
        assert out.base[0, 0] == 20.0 and out.base[1, 1] == 80.0
        assert out.base[0, 1] == 20.0 and out.base[1, 0] == 30.0
        assert out.loss[0, 0] == pytest.approx(0.5)
        assert out.loss[1, 1] == pytest.approx(0.5)
        assert out.loss[0, 1] == pytest.approx(0.2)

    def test_no_match_returns_same_object(self, small_world):
        config = TimelineConfig(
            events=(
                LinkDegradation(
                    start_round=0, end_round=1, countries=("DE", "US")
                ),
            )
        )
        timeline = compile_timeline(small_world, config, 1)
        grid = PairGrid(base=np.ones((2, 2)), loss=np.zeros((2, 2)))
        ccs = np.array(["FR", "JP"], dtype="U3")
        assert timeline.apply_link_overrides(grid, ccs, ccs, 0) is grid
        # outside the window the grid is untouched too
        assert timeline.apply_link_overrides(grid, ccs, ccs, 5) is grid


# ----------------------------------------------------- zero-event identity


class TestZeroEventByteIdentity:
    """An event-free schedule must be invisible, byte for byte."""

    @pytest.fixture(scope="class")
    def static_result(self, small_campaign_result):
        return small_campaign_result

    @pytest.fixture(
        scope="class",
        params=["empty-schedule", "beyond-horizon"],
    )
    def silent_result(self, request, small_world):
        if request.param == "empty-schedule":
            timeline = TimelineConfig()
        else:
            # events exist but every window lies past the campaign horizon
            timeline = TimelineConfig(
                events=(
                    RelayOutage(start_round=50, end_round=60, fraction=0.9),
                    TrafficShift(start_round=50, end_round=60, weight_mult=9.0),
                )
            )
        return _run(small_world, timeline)[1]

    def test_tables_identical(self, static_result, silent_result):
        assert len(static_result.rounds) == len(silent_result.rounds)
        for a, b in zip(static_result.rounds, silent_result.rounds):
            assert a.table.columns_equal(b.table)
            assert a.endpoint_ids == b.endpoint_ids
            assert a.relay_indices_by_type == b.relay_indices_by_type
            assert a.pings_sent == b.pings_sent
            assert a.direct_medians == b.direct_medians
            assert a.relay_medians == b.relay_medians

    def test_registry_identical(self, static_result, silent_result):
        assert [r.node_id for r in static_result.registry] == [
            r.node_id for r in silent_result.registry
        ]

    def test_compiled_service_byte_identical(self, static_result, silent_result):
        static_sig = ShortcutService.from_campaign(
            static_result
        ).directory.block_signature()
        silent_sig = ShortcutService.from_campaign(
            silent_result
        ).directory.block_signature()
        assert static_sig == silent_sig


# ----------------------------------------------------------- fault effects


class TestFaultedCampaign:
    def test_pre_window_rounds_match_static_run(
        self, outage_run, small_campaign_result
    ):
        # round 0 precedes the outage window: the static code path runs on
        # the same RNG sequence, so it must be byte-identical
        _, faulted = outage_run
        assert faulted.rounds[0].table.columns_equal(
            small_campaign_result.rounds[0].table
        )
        assert (
            faulted.rounds[0].direct_medians
            == small_campaign_result.rounds[0].direct_medians
        )

    def test_dark_relays_sit_out_the_window(self, outage_run):
        campaign, faulted = outage_run
        cohort = campaign.timeline.absent_ids(1)
        assert cohort
        for round_index in range(ROUNDS):
            round_nodes = {
                faulted.registry.get(idx).node_id
                for indices in faulted.rounds[
                    round_index
                ].relay_indices_by_type.values()
                for idx in indices
            }
            if round_index == 1:
                assert not round_nodes & cohort
            # recovery: dark nodes are eligible again outside the window
        recovered = {
            faulted.registry.get(idx).node_id
            for indices in faulted.rounds[2].relay_indices_by_type.values()
            for idx in indices
        }
        assert recovered & cohort

    def test_probe_departure_shrinks_endpoints(self, small_world):
        timeline = TimelineConfig(
            events=(
                ProbeChurn(start_round=1, end_round=2, fraction=0.4),
            )
        )
        campaign, faulted = _run(small_world, timeline)
        cohort = campaign.timeline.absent_ids(1)
        sampled = set(faulted.rounds[1].endpoint_ids)
        assert not sampled & cohort
        # endpoints return once the window closes
        assert len(faulted.rounds[2].endpoint_ids) >= len(
            faulted.rounds[1].endpoint_ids
        )

    def test_link_degradation_bends_measurements(
        self, small_world, small_campaign_result
    ):
        covered = MeasurementCampaign(
            small_world, CampaignConfig(num_rounds=ROUNDS)
        ).eyeball_selector.covered_countries()
        a, b = sorted(covered)[:2]
        timeline = TimelineConfig(
            events=(
                LinkDegradation(
                    start_round=1,
                    end_round=2,
                    countries=(a, b),
                    rtt_mult=4.0,
                    loss_add=0.0,
                ),
            )
        )
        _, faulted = _run(small_world, timeline)
        static = small_campaign_result
        # rounds outside the window are untouched...
        assert faulted.rounds[0].table.columns_equal(static.rounds[0].table)
        assert faulted.rounds[2].table.columns_equal(static.rounds[2].table)
        # ...and inside it the degraded lane's medians move
        assert (
            faulted.rounds[1].direct_medians != static.rounds[1].direct_medians
        )


# ------------------------------------------------------- health & routing


class TestRelayHealth:
    def test_last_seen_covers_registry(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        seen = directory.relay_last_seen()
        assert seen
        last_round = small_campaign_result.rounds[-1].round_index
        assert all(0 <= r <= last_round for r in seen.values())

    def test_stale_mask_window(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        # a window covering every retained round marks nothing stale
        full = directory.stale_relay_mask(len(small_campaign_result.rounds))
        assert not full.any()
        # a one-round window marks exactly the relays absent from the
        # newest round's aggregate
        newest = max(directory.relay_last_seen().values())
        tight = directory.stale_relay_mask(1)
        stale_ids = {
            rid for rid, rnd in directory.relay_last_seen().items() if rnd < newest
        }
        assert {int(i) for i in np.nonzero(tight)[0]} == stale_ids

    def test_stale_mask_validation(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        with pytest.raises(ServiceError):
            directory.stale_relay_mask(0)
        assert RelayDirectory().stale_relay_mask(1).shape == (0,)

    def test_health_off_matches_legacy_when_nothing_is_stale(
        self, small_campaign_result
    ):
        legacy = ShortcutService.from_campaign(small_campaign_result)
        guarded = ShortcutService.from_campaign(
            small_campaign_result,
            liveness_rounds=len(small_campaign_result.rounds),
        )
        assert guarded.dead_relay_count() == 0
        src, dst = QueryStream(
            legacy.directory, LoadgenConfig(num_queries=2048)
        ).generate()
        a = legacy.route_many(src, dst, RelayType.COR, 3)
        b = guarded.route_many(src, dst, RelayType.COR, 3)
        assert np.array_equal(a.relay_ids, b.relay_ids)
        assert np.array_equal(a.tier, b.tier)
        assert np.array_equal(a.reduction_ms, b.reduction_ms, equal_nan=True)

    def test_dead_relays_never_answer(self, outage_run):
        _, faulted = outage_run
        # retain only the outage round: everything absent from it is stale
        service = ShortcutService.from_campaign(
            faulted, rounds=faulted.rounds[:2], liveness_rounds=1
        )
        dead = service.directory.stale_relay_mask(1)
        assert dead.any()
        src, dst = QueryStream(
            service.directory, LoadgenConfig(num_queries=4096)
        ).generate()
        batch = service.route_many(src, dst, RelayType.COR, 3)
        answered = batch.relay_ids[batch.relay_ids >= 0]
        assert not dead[answered].any()
        counters = service.counters.as_dict()
        assert counters["queries"] == 4096
        assert counters["candidates_evicted"] > 0

    def test_service_validation(self, small_campaign_result):
        with pytest.raises(ServiceError):
            ShortcutService.from_campaign(small_campaign_result, liveness_rounds=0)
        with pytest.raises(ServiceError):
            ShortcutService.from_campaign(small_campaign_result, spill=-1)

    def test_stats_report_health(self, small_campaign_result):
        service = ShortcutService.from_campaign(
            small_campaign_result, liveness_rounds=1, spill=3
        )
        stats = service.stats()
        assert stats["liveness_rounds"] == 1
        assert stats["spill"] == 3
        assert stats["dead_relays"] == service.dead_relay_count()
        assert set(stats["degradation"]) == set(service.counters.as_dict())


class TestSnapshotMidChurn:
    def test_restore_and_continue_is_byte_identical(self, outage_run):
        _, faulted = outage_run
        live = ShortcutService.from_campaign(
            faulted, rounds=faulted.rounds[:2], liveness_rounds=1
        )
        buffer = io.BytesIO()
        live.save(buffer)
        buffer.seek(0)
        restored = ShortcutService.load(buffer, liveness_rounds=1)
        assert (
            restored.directory.relay_last_seen()
            == live.directory.relay_last_seen()
        )
        assert restored.dead_relay_count() == live.dead_relay_count()
        # continued ingestion after the restore tracks the live service
        for service in (live, restored):
            service.ingest_round(faulted.rounds[2])
        assert (
            restored.directory.block_signature()
            == live.directory.block_signature()
        )
        assert (
            restored.directory.relay_last_seen()
            == live.directory.relay_last_seen()
        )
        src, dst = QueryStream(
            live.directory, LoadgenConfig(num_queries=1024)
        ).generate()
        a = live.route_many(src, dst, RelayType.COR, 3)
        b = restored.route_many(src, dst, RelayType.COR, 3)
        assert np.array_equal(a.relay_ids, b.relay_ids)
        assert np.array_equal(a.tier, b.tier)


# ----------------------------------------------------------------- loadgen


class TestLoadgenDegenerateWorkloads:
    def test_zero_weights_silence_everything(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        weights = {cc: 0.0 for cc in directory.countries()}
        stream = QueryStream(
            directory, LoadgenConfig(num_queries=512, country_weights=weights)
        )
        assert stream.is_empty
        assert stream.num_blocks == 0
        src, dst = stream.generate()
        assert src.shape == (0,) and dst.shape == (0,)
        assert src.dtype == np.int64

    def test_empty_replay_reports_none_rates(self, small_campaign_result):
        service = ShortcutService.from_campaign(small_campaign_result)
        weights = {cc: 0.0 for cc in service.directory.countries()}
        stats = replay(
            service, LoadgenConfig(num_queries=512, country_weights=weights)
        )
        assert stats["queries"] == 0
        assert stats["queries_per_s"] is None
        assert stats["relay_answer_frac"] is None

    def test_partial_silencing_excludes_country(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        silenced = country_rank_order(directory)[0]
        stream = QueryStream(
            directory,
            LoadgenConfig(num_queries=2048, country_weights={silenced: 0.0}),
        )
        src, dst = stream.generate()
        assert len(src) == 2048
        banned = directory.country_code(silenced)
        ccs = directory.endpoint_country_codes()
        assert not (ccs[src] == banned).any()
        assert not (ccs[dst] == banned).any()

    def test_negative_weight_rejected(self):
        with pytest.raises(ServiceError):
            LoadgenConfig(country_weights={"US": -1.0})

    def test_unknown_weight_country_rejected(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        with pytest.raises(UnknownCountryError):
            QueryStream(
                directory, LoadgenConfig(country_weights={"ZZ": 2.0})
            )

    def test_empty_directory_rejected(self):
        with pytest.raises(EmptyDirectoryError):
            QueryStream(RelayDirectory(), LoadgenConfig())
        with pytest.raises(EmptyDirectoryError):
            country_rank_order(RelayDirectory())


# ------------------------------------------------------------ typed errors


class TestTypedServiceErrors:
    def test_hierarchy(self):
        for exc in (EmptyDirectoryError, UnknownEndpointError, UnknownCountryError):
            assert issubclass(exc, ServiceError)

    def test_empty_directory_lookup(self):
        with pytest.raises(EmptyDirectoryError):
            RelayDirectory().lookup_many(
                np.zeros(1, np.int64), np.zeros(1, np.int64), RelayType.COR, 1
            )

    def test_out_of_range_codes(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        known = len(directory.endpoint_ids())
        bad = np.array([known + 7], dtype=np.int64)
        good = np.zeros(1, dtype=np.int64)
        with pytest.raises(UnknownEndpointError):
            directory.lookup_many(bad, good, RelayType.COR, 1)
        with pytest.raises(UnknownEndpointError):
            directory.lookup_many(good, np.array([-2], np.int64), RelayType.COR, 1)
        with pytest.raises(UnknownEndpointError):
            directory.country_of_code(known + 7)

    def test_unseen_endpoint_code_stays_structural(self, small_campaign_result):
        # -1 is the loadgen's "unknown id" sentinel: a routable miss, not
        # an error — it must keep resolving to the direct tier
        service = ShortcutService.from_campaign(small_campaign_result)
        codes = service.encode_endpoints(["no-such-probe"])
        assert codes[0] == -1
        decision = service.route("no-such-probe", "also-missing", RelayType.COR)
        assert decision.tier == "direct"

    def test_unknown_country_name(self, small_campaign_result):
        directory = RelayDirectory.from_result(small_campaign_result)
        with pytest.raises(UnknownCountryError):
            directory.country_code("ZZ")


# ------------------------------------------------------------ chaos replay


class TestChaosReplay:
    def test_config_validation(self):
        for bad in (
            dict(max_rounds=0),
            dict(liveness_rounds=0),
            dict(spill=-1),
            dict(warmup_rounds=0),
            dict(queries_per_round=0),
        ):
            with pytest.raises(ServiceError):
                ChaosConfig(**bad)

    def test_replay_scores_against_timeline(self, outage_run):
        campaign, faulted = outage_run
        config = ChaosConfig(queries_per_round=512, max_rounds=2)
        report = chaos_replay(faulted, campaign.timeline, config)
        summary = report["summary"]
        assert summary["replayed_rounds"] == ROUNDS - config.warmup_rounds + 1
        assert summary["total_queries"] == 512 * summary["replayed_rounds"]
        assert 0.0 <= summary["min_availability"] <= 1.0
        assert summary["min_availability"] >= 0.99
        assert summary["degradation"]["queries"] == summary["total_queries"]

    def test_unguarded_baseline_serves_stale(self, outage_run):
        campaign, faulted = outage_run
        config = ChaosConfig(
            queries_per_round=512, max_rounds=None, liveness_rounds=None
        )
        report = chaos_replay(faulted, campaign.timeline, config)
        outage_round = next(
            r for r in report["rounds"] if r["round"] == 1
        )
        assert outage_round["dark_nodes"] > 0
        assert outage_round["stale_answer_rate"] > 0.0
        assert (
            report["summary"]["min_availability"]
            < 1.0
        )

    def test_replay_is_deterministic(self, outage_run):
        campaign, faulted = outage_run
        config = ChaosConfig(queries_per_round=256)

        def strip(report):
            for rnd in report["rounds"]:
                rnd.pop("queries_per_s")
            return report

        a = strip(chaos_replay(faulted, campaign.timeline, config))
        b = strip(chaos_replay(faulted, campaign.timeline, config))
        assert a == b

    def test_timeline_free_replay_is_fully_available(self, small_campaign_result):
        report = chaos_replay(
            small_campaign_result, None, ChaosConfig(queries_per_round=256)
        )
        assert report["summary"]["min_availability"] == 1.0
        assert report["summary"]["overall_stale_answer_rate"] == 0.0
