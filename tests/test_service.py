"""Tests for the serving layer (:mod:`repro.service`).

The contract under test: directory compilation is deterministic (same
input, byte-identical snapshot), batched and scalar queries agree,
incremental ingestion is byte-identical to a full recompile, cached answer
rows follow every ingest and restore, snapshots round-trip exactly (and
defective ones raise a typed error naming the file), and the load
generator's query stream is invariant in the worker count and draws
exactly what ``Generator.choice`` would.
"""

from __future__ import annotations

import errno
import io
import os
import re

import numpy as np
import pytest

from repro.core.oracle import LaneHistory
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import ServiceError, StoreError
from repro.service import (
    TIER_COUNTRY,
    TIER_DIRECT,
    TIER_NAMES,
    TIER_PAIR,
    LoadgenConfig,
    QueryStream,
    RelayDirectory,
    ShortcutService,
    cross_world_service,
    replay,
)
from repro.service import loadgen


@pytest.fixture(scope="module")
def service(small_campaign_result):
    return ShortcutService.from_campaign(small_campaign_result)


def _snapshot_bytes(svc: ShortcutService) -> bytes:
    buffer = io.BytesIO()
    svc.save(buffer)
    return buffer.getvalue()


def _unpack(key: int) -> tuple[int, int]:
    return int(key) >> 32, int(key) & 0xFFFFFFFF


class TestDirectoryCompile:
    def test_snapshot_deterministic(self, small_campaign_result):
        a = ShortcutService.from_campaign(small_campaign_result)
        b = ShortcutService.from_campaign(small_campaign_result)
        assert _snapshot_bytes(a) == _snapshot_bytes(b)
        assert a.directory.block_signature() == b.directory.block_signature()

    def test_from_table_equals_from_result(self, small_campaign_result, service):
        from_table = ShortcutService.from_table(small_campaign_result.table)
        assert (
            from_table.directory.block_signature()
            == service.directory.block_signature()
        )
        assert _snapshot_bytes(from_table) == _snapshot_bytes(service)

    def test_lanes_are_sorted_and_ranked(self, service):
        checked = 0
        for tier in (TIER_PAIR, TIER_COUNTRY):
            for relay_type in RELAY_TYPE_ORDER:
                block = service.directory.block(tier, relay_type)
                if block.num_lanes == 0:
                    continue
                checked += 1
                assert np.all(np.diff(block.keys) > 0), "lane keys not sorted"
                assert block.indptr[0] == 0
                assert block.indptr[-1] == block.relays.size
                lengths = np.diff(block.indptr)
                assert np.all(lengths > 0), "empty lane compiled"
                for lane in range(block.num_lanes):
                    lo, hi = int(block.indptr[lane]), int(block.indptr[lane + 1])
                    order = [
                        (-int(c), int(r))
                        for c, r in zip(block.counts[lo:hi], block.relays[lo:hi])
                    ]
                    assert order == sorted(order), "lane not (-count, relay) ranked"
        assert checked > 0

    def test_country_ranking_matches_lane_history(
        self, small_campaign_result, service
    ):
        """The country tier is the VIA predictor: same ranking as
        :class:`LaneHistory` for every lane."""
        history = LaneHistory.from_table(small_campaign_result.table, RelayType.COR)
        directory = service.directory
        block = directory.block(TIER_COUNTRY, RelayType.COR)
        names = directory.countries()
        assert block.num_lanes > 0
        relays, _ = block.top_k(np.arange(block.num_lanes), 5)
        for lane in range(block.num_lanes):
            lo, hi = _unpack(block.keys[lane])
            expected = history.predict_ccs(names[lo], names[hi], 5)
            assert [int(r) for r in relays[lane] if r >= 0] == expected

    def test_expected_reduction_is_mean_gain(self, small_campaign_result, service):
        """Reductions equal the mean observed improvement per (lane, relay)."""
        directory = service.directory
        block = directory.block(TIER_COUNTRY, RelayType.COR)
        table = small_campaign_result.table
        ccs = table.pools.countries.values
        cases, relays, gains = table.type_entries(RELAY_TYPE_ORDER.index(RelayType.COR))
        observed: dict[tuple[str, str, int], list[float]] = {}
        for case, relay, gain in zip(cases.tolist(), relays.tolist(), gains.tolist()):
            cc = tuple(sorted((ccs[table.e1_cc[case]], ccs[table.e2_cc[case]])))
            observed.setdefault((*cc, relay), []).append(gain)
        names = directory.countries()
        for lane in range(block.num_lanes):
            lo, hi = _unpack(block.keys[lane])
            cc = tuple(sorted((names[lo], names[hi])))
            for pos in range(int(block.indptr[lane]), int(block.indptr[lane + 1])):
                gains = observed[(*cc, int(block.relays[pos]))]
                assert len(gains) == int(block.counts[pos])
                assert block.reduction_ms[pos] == pytest.approx(
                    sum(gains) / len(gains), rel=1e-12
                )

    def test_stats_shape(self, service):
        stats = service.stats()
        assert stats["endpoints"] > 0
        assert stats["countries"] > 1
        assert stats["retained_rounds"] == [0, 1, 2]
        assert stats["lanes_pair_COR"] > 0


class TestQueries:
    def test_batched_matches_scalar(self, service):
        ids = service.directory.endpoint_ids()
        codes = service.encode_endpoints(ids)
        rng = np.random.default_rng(7)
        src = rng.choice(codes, 100)
        dst = rng.choice(codes, 100)
        for relay_type in RELAY_TYPE_ORDER:
            batch = service.route_many(src, dst, relay_type, k=3)
            for i in range(100):
                decision = service.route(
                    ids[src[i]], ids[dst[i]], relay_type, k=3
                )
                valid = batch.relay_ids[i] >= 0
                assert decision.relay_ids == tuple(
                    int(r) for r in batch.relay_ids[i][valid]
                )
                assert decision.reduction_ms == tuple(
                    float(g) for g in batch.reduction_ms[i][valid]
                )
                assert decision.tier == TIER_NAMES[int(batch.tier[i])]

    def test_exact_pair_tier(self, small_campaign_result, service):
        table = small_campaign_result.table
        improved = np.flatnonzero(table.improved_mask(RELAY_TYPE_ORDER.index(RelayType.COR)))
        if improved.size == 0:
            pytest.skip("no COR-improved case in the fixture")
        ids = table.pools.endpoint_ids.values
        case = improved[0]
        decision = service.route(ids[table.e1_id[case]], ids[table.e2_id[case]], RelayType.COR)
        assert decision.tier == "pair"
        assert decision.relay_id is not None
        assert decision.expected_reduction_ms > 0

    def test_country_fallback_tier(self, small_campaign_result, service):
        """A pair never measured together falls back to its country lane."""
        directory = service.directory
        block = directory.block(TIER_PAIR, RelayType.COR)
        measured = set(int(k) for k in block.keys)
        ids = directory.endpoint_ids()
        codes = directory.encode_endpoints(ids)
        cc = directory.endpoint_country_codes()
        cc_block = directory.block(TIER_COUNTRY, RelayType.COR)
        cc_lanes = set(int(k) for k in cc_block.keys)
        for i in range(len(ids)):
            for j in range(len(ids)):
                a, b = int(codes[i]), int(codes[j])
                if a == b:
                    continue
                pair_key = (min(a, b) << 32) | max(a, b)
                cc_key = (
                    min(int(cc[a]), int(cc[b])) << 32
                ) | max(int(cc[a]), int(cc[b]))
                if pair_key not in measured and cc_key in cc_lanes:
                    decision = service.route(ids[i], ids[j], RelayType.COR)
                    assert decision.tier == "country"
                    assert decision.relay_id is not None
                    return
        pytest.skip("every endpoint pair has exact history in the fixture")

    def test_unknown_endpoint_is_direct(self, service):
        known = service.directory.endpoint_ids()[0]
        decision = service.route("no-such-probe", known, RelayType.COR)
        assert decision.tier == "direct"
        assert decision.relay_id is None
        assert decision.expected_reduction_ms is None

    def test_same_endpoint_is_direct(self, service):
        ep = service.directory.endpoint_ids()[0]
        assert service.route(ep, ep, RelayType.COR).tier == "direct"

    def test_large_k_pads(self, service):
        ids = service.directory.endpoint_ids()
        codes = service.encode_endpoints(ids[:4])
        batch = service.route_many(codes[:2], codes[2:], RelayType.COR, k=64)
        assert batch.relay_ids.shape == (2, 64)
        padding = batch.relay_ids == -1
        assert np.isnan(batch.reduction_ms[padding]).all()

    def test_k_validation(self, service):
        with pytest.raises(ServiceError):
            service.route_many(np.zeros(1, np.int64), np.ones(1, np.int64),
                               RelayType.COR, k=0)

    def test_shape_validation(self, service):
        with pytest.raises(ServiceError):
            service.route_many(np.zeros(2, np.int64), np.zeros(3, np.int64),
                               RelayType.COR, k=1)

    def test_route_batch_helpers(self, service):
        ids = service.directory.endpoint_ids()
        codes = service.encode_endpoints(ids)
        batch = service.route_many(
            codes[:-1], codes[1:], RelayType.COR, k=2
        )
        counts = batch.tier_counts()
        assert sum(counts.values()) == len(batch)
        assert 0.0 <= batch.relay_answer_fraction() <= 1.0
        assert batch.best_relay.shape == (len(batch),)


class TestIngest:
    def test_incremental_equals_full_recompile(self, small_campaign_result):
        svc = ShortcutService.empty(max_rounds=2)
        for rnd in small_campaign_result.rounds:
            svc.ingest_round(rnd)
        incremental = svc.directory.block_signature()
        incremental_bytes = _snapshot_bytes(svc)
        svc.directory.recompile()
        assert svc.directory.block_signature() == incremental
        assert _snapshot_bytes(svc) == incremental_bytes

    def test_window_answers_match_scratch_build(self, small_campaign_result):
        incremental = ShortcutService.empty(max_rounds=2)
        for rnd in small_campaign_result.rounds:
            incremental.ingest_round(rnd)
        scratch = ShortcutService.from_campaign(
            small_campaign_result,
            rounds=small_campaign_result.rounds[1:],
            max_rounds=2,
        )
        # compare over endpoints observed inside the window by both builds
        # (identity metadata persists across eviction by design; lanes decay)
        ids = sorted(
            e
            for e in set(incremental.directory.endpoint_ids())
            & set(scratch.directory.endpoint_ids())
            if scratch.directory.country_of_code(
                scratch.directory.endpoint_code(e)
            )
            is not None
        )
        ci = incremental.encode_endpoints(ids)
        cs = scratch.encode_endpoints(ids)
        rng = np.random.default_rng(3)
        ii = rng.integers(len(ids), size=400)
        jj = rng.integers(len(ids), size=400)
        for relay_type in RELAY_TYPE_ORDER:
            a = incremental.route_many(ci[ii], ci[jj], relay_type, 3)
            b = scratch.route_many(cs[ii], cs[jj], relay_type, 3)
            assert np.array_equal(a.relay_ids, b.relay_ids)
            assert np.array_equal(a.tier, b.tier)
            assert np.array_equal(a.reduction_ms, b.reduction_ms, equal_nan=True)

    def test_eviction_drops_emptied_blocks(self, small_campaign_result):
        """A round that evicts every row of some blocks leaves the
        directory as a recompile, and so a snapshot load, builds it."""
        svc = ShortcutService.empty(max_rounds=1)
        svc.ingest_round(small_campaign_result.rounds[0])
        stats = svc.ingest_round(ObservationTable.empty(), round_id=1)
        assert stats["evicted_rounds"] == 1
        assert svc.directory.stats()["lanes_pair_COR"] == 0
        restored = ShortcutService.load(io.BytesIO(_snapshot_bytes(svc)))
        incremental = svc.directory.block_signature()
        assert restored.directory.block_signature() == incremental
        svc.directory.recompile()
        assert svc.directory.block_signature() == incremental

    def test_ttl_evicts_oldest(self, small_campaign_result):
        svc = ShortcutService.empty(max_rounds=2)
        for rnd in small_campaign_result.rounds:
            stats = svc.ingest_round(rnd)
        assert svc.directory.retained_rounds() == [1, 2]
        assert stats["evicted_rounds"] == 1

    def test_round_order_enforced(self, small_campaign_result):
        svc = ShortcutService.empty()
        svc.ingest_round(small_campaign_result.rounds[1])
        with pytest.raises(ServiceError):
            svc.ingest_round(small_campaign_result.rounds[0])
        with pytest.raises(ServiceError):
            svc.ingest_round(small_campaign_result.rounds[1])

    def test_multi_round_table_needs_round_id(self, small_campaign_result):
        directory = RelayDirectory()
        with pytest.raises(ServiceError):
            directory.ingest_round(small_campaign_result.table)
        directory.ingest_round(small_campaign_result.table, round_id=0)
        assert directory.retained_rounds() == [0]

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            RelayDirectory(max_rounds=0)
        with pytest.raises(ServiceError):
            ShortcutService.empty(k=0)
        with pytest.raises(ServiceError):
            ShortcutService.empty(liveness_rounds=0)
        with pytest.raises(ServiceError):
            ShortcutService.empty(spill=-1)


class TestAnswerCache:
    """Answer rows are cached per directory state; every ingest and every
    restore must drop them, and no caller may write into them."""

    @staticmethod
    def _answers(service, ids):
        codes = service.encode_endpoints(ids)
        src, dst = np.repeat(codes, len(ids)), np.tile(codes, len(ids))
        return [service.route_many(src, dst, t, 3) for t in RELAY_TYPE_ORDER]

    def _assert_matches_scratch(self, service, result, liveness):
        retained = service.directory.retained_rounds()
        scratch = ShortcutService.from_campaign(
            result,
            rounds=[r for r in result.rounds if r.round_index in retained],
            liveness_rounds=liveness,
        )
        # endpoints the scratch build knows with a country: identities of
        # evicted rounds persist in the live directory by design
        ids = [
            e
            for e in scratch.directory.endpoint_ids()
            if scratch.directory.country_of_code(scratch.directory.endpoint_code(e))
        ]
        for got, want in zip(self._answers(service, ids), self._answers(scratch, ids)):
            assert np.array_equal(got.relay_ids, want.relay_ids)
            assert np.array_equal(got.reduction_ms, want.reduction_ms, equal_nan=True)
            assert np.array_equal(got.tier, want.tier)

    @pytest.mark.parametrize("liveness", [None, 1], ids=["plain", "liveness"])
    def test_route_ingest_route_matches_scratch(self, small_campaign_result, liveness):
        service = ShortcutService.empty(max_rounds=2, liveness_rounds=liveness)
        for index, rnd in enumerate(small_campaign_result.rounds):
            if index:  # builds the cache the next ingest must drop
                self._assert_matches_scratch(service, small_campaign_result, liveness)
            service.ingest_round(rnd)
            self._assert_matches_scratch(service, small_campaign_result, liveness)

    def test_liveness_writes_stay_out_of_the_cache(self, small_campaign_result):
        service = ShortcutService.from_campaign(small_campaign_result, liveness_rounds=1)
        ids = service.directory.endpoint_ids()
        first = self._answers(service, ids)
        assert service.counters.candidates_evicted > 0  # dead relays were demoted
        for got, want in zip(self._answers(service, ids), first):
            assert np.array_equal(got.relay_ids, want.relay_ids)
            assert np.array_equal(got.reduction_ms, want.reduction_ms, equal_nan=True)
            assert np.array_equal(got.tier, want.tier)


class TestSnapshot:
    def test_roundtrip_identical(self, service):
        data = _snapshot_bytes(service)
        restored = ShortcutService.load(io.BytesIO(data))
        assert (
            restored.directory.block_signature()
            == service.directory.block_signature()
        )
        assert _snapshot_bytes(restored) == data

    def test_roundtrip_answers(self, service):
        restored = ShortcutService.load(io.BytesIO(_snapshot_bytes(service)))
        codes = service.encode_endpoints(service.directory.endpoint_ids())
        assert np.array_equal(
            codes, restored.encode_endpoints(restored.directory.endpoint_ids())
        )
        for relay_type in RELAY_TYPE_ORDER:
            batch_a = service.route_many(codes[:-1], codes[1:], relay_type, 3)
            batch_b = restored.route_many(codes[:-1], codes[1:], relay_type, 3)
            assert np.array_equal(batch_a.relay_ids, batch_b.relay_ids)
            assert np.array_equal(
                batch_a.reduction_ms, batch_b.reduction_ms, equal_nan=True
            )
            assert np.array_equal(batch_a.tier, batch_b.tier)

    def test_roundtrip_keeps_ingesting(self, small_campaign_result):
        """A restored service continues incremental ingestion seamlessly."""
        svc = ShortcutService.from_campaign(
            small_campaign_result, rounds=small_campaign_result.rounds[:-1]
        )
        restored = ShortcutService.load(io.BytesIO(_snapshot_bytes(svc)))
        restored.ingest_round(small_campaign_result.rounds[-1])
        reference = ShortcutService.from_campaign(small_campaign_result)
        assert (
            restored.directory.block_signature()
            == reference.directory.block_signature()
        )

    def test_unknown_version_rejected(self, service):
        data = np.load(io.BytesIO(_snapshot_bytes(service)))
        arrays = {name: data[name] for name in data.files}
        arrays["meta"] = np.asarray([99, -1], np.int64)
        bad = io.BytesIO()
        np.savez(bad, **arrays)
        bad.seek(0)
        with pytest.raises(ServiceError):
            ShortcutService.load(bad)

    @staticmethod
    def _without_member(data: bytes) -> bytes:
        arrays = dict(np.load(io.BytesIO(data)))
        del arrays["endpoints"]
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()

    @pytest.mark.parametrize(
        "defect",
        [
            pytest.param(None, id="missing"),
            pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
            pytest.param(lambda data: b"\x00not a snapshot" * 64, id="garbage"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(_without_member, id="missing-member"),
        ],
    )
    def test_defective_file_raises_store_error(self, service, tmp_path, defect):
        path = tmp_path / "snapshot.npz"
        if defect is not None:
            path.write_bytes(defect(_snapshot_bytes(service)))
        with pytest.raises(StoreError) as info:
            ShortcutService.load(str(path))
        assert info.value.path == str(path)
        assert str(path) in str(info.value)

    def test_failed_write_keeps_previous_snapshot(self, service, tmp_path, monkeypatch):
        path = tmp_path / "snapshot.npz"
        service.save(str(path))
        before = path.read_bytes()
        assert before == _snapshot_bytes(service)
        savez = np.savez

        def disk_full(file, **arrays):
            """Write half the archive, then fail like a full disk."""
            buffer = io.BytesIO()
            savez(buffer, **arrays)
            half = buffer.getvalue()[: len(buffer.getvalue()) // 2]
            if isinstance(file, (str, os.PathLike)):
                with open(file, "wb") as fh:
                    fh.write(half)
            else:
                file.write(half)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(StoreError, match=re.escape(str(path))) as info:
            service.save(str(path))
        assert info.value.path == path
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.npz"]

    def test_store_error_names_the_stream(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with path.open("rb") as stream:
            with pytest.raises(StoreError) as info:
                RelayDirectory.load(stream)
        assert info.value.path == str(path)
        with pytest.raises(StoreError) as info:
            RelayDirectory.load(io.BytesIO(b"\x00" * 16))
        assert info.value.path == "<stream>"


class TestLoadgen:
    def test_full_block_depends_only_on_seed_and_index(self, service):
        """Block ``b`` is synthesised from ``(seed, b)`` alone: a full block
        is the same whatever the stream's length, and a block from
        another seed is not."""
        size = loadgen.BLOCK_SIZE
        short_src, short_dst = QueryStream(
            service.directory, LoadgenConfig(num_queries=2 * size + 100, seed=5)
        ).generate()
        long_src, long_dst = QueryStream(
            service.directory, LoadgenConfig(num_queries=4 * size, seed=5)
        ).generate()
        assert np.array_equal(short_src[: 2 * size], long_src[: 2 * size])
        assert np.array_equal(short_dst[: 2 * size], long_dst[: 2 * size])
        other = QueryStream(service.directory, LoadgenConfig(num_queries=4 * size, seed=6))
        assert not np.array_equal(other.block(1)[0], long_src[size : 2 * size])

    def test_replay_digest_depends_on_seed(self, service):
        a = replay(service, LoadgenConfig(num_queries=4_000, seed=1))
        b = replay(service, LoadgenConfig(num_queries=4_000, seed=2))
        assert a["answers_digest"] != b["answers_digest"]

    def test_zipf_skews_toward_populous_countries(self, service):
        directory = service.directory
        stream = QueryStream(
            directory, LoadgenConfig(num_queries=20_000, zipf_exponent=1.4)
        )
        src, dst = stream.generate()
        cc = directory.endpoint_country_codes()
        counts = np.bincount(
            np.concatenate([cc[src], cc[dst]]), minlength=len(directory.countries())
        )
        population = np.bincount(cc[cc >= 0], minlength=len(directory.countries()))
        active = np.flatnonzero(population > 0)
        head = active[np.argmax(population[active])]
        assert counts[head] >= counts[active].mean()

    def test_queries_target_known_endpoints(self, service):
        src, dst = QueryStream(
            service.directory, LoadgenConfig(num_queries=2_000)
        ).generate()
        n = len(service.directory.endpoint_ids())
        for arr in (src, dst):
            assert arr.min() >= 0
            assert arr.max() < n
        # countries differ, so endpoints always differ
        assert np.all(src != dst)

    def test_replay_stats_shape(self, service):
        stats = replay(service, LoadgenConfig(num_queries=3_000, batch_size=256))
        assert stats["queries"] == 3_000
        assert stats["batches"] == 12
        assert sum(stats["tier_counts"].values()) == 3_000
        assert 0.0 <= stats["relay_answer_frac"] <= 1.0
        assert stats["queries_per_s"] is None or stats["queries_per_s"] > 0

    def test_config_validation(self):
        for bad in (
            {"num_queries": 0},
            {"batch_size": 0},
            {"zipf_exponent": 0.0},
            {"k": 0},
        ):
            with pytest.raises(ServiceError):
                LoadgenConfig(**bad)

    def test_empty_directory_rejected(self):
        with pytest.raises(ServiceError):
            QueryStream(RelayDirectory(), LoadgenConfig(num_queries=10))

    @staticmethod
    def _cdf(rng, n):
        p = rng.random(n) * (rng.random(n) < 0.8)  # some zero-probability pairs
        p[0] = 1.0
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        return p / p.sum(), cdf

    def test_guide_table_equals_search(self):
        rng = np.random.default_rng(17)
        for n in (2, 7, 4_830):
            _, cdf = self._cdf(rng, n)
            edges = np.arange(loadgen._GUIDE) / loadgen._GUIDE
            u = np.concatenate([
                rng.random(20_000),
                edges,  # exactly on every bucket edge
                np.nextafter(edges[1:], 0.0),  # just below one
                cdf[cdf < 1.0],  # exactly on CDF values
                np.nextafter(cdf[cdf < 1.0], 0.0),
                [0.0, np.nextafter(1.0, 0.0)],
            ])
            got = loadgen._GuideTable(cdf).lookup(u)
            assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_guide_table_draws_what_choice_draws(self):
        rng = np.random.default_rng(4)
        p, cdf = self._cdf(rng, 300)
        guide = loadgen._GuideTable(cdf)
        for seed in range(5):
            want = np.random.default_rng(seed).choice(p.size, size=4_096, p=p)
            draws = np.random.default_rng(seed)
            assert np.array_equal(guide.lookup(draws.random(4_096)), want)


class TestTierConstants:
    def test_tier_order(self):
        assert TIER_NAMES[TIER_PAIR] == "pair"
        assert TIER_NAMES[TIER_COUNTRY] == "country"
        assert TIER_NAMES[TIER_DIRECT] == "direct"


class TestCrossWorld:
    def test_unifies_identities_and_stays_deterministic(
        self, small_campaign_result
    ):
        results = [small_campaign_result, small_campaign_result]
        service, registry, info = cross_world_service(results)
        assert info["worlds"] == 2
        # the two worlds are byte-identical, so every relay identity
        # collapses onto its twin: the unified census equals one world's
        assert info["relays"] == info["relays_before"] // 2
        assert info["attribute_conflicts"] == 0
        again, _, _ = cross_world_service(results)
        assert (
            again.directory.block_signature()
            == service.directory.block_signature()
        )

    def test_single_world_matches_plain_compile(self, small_campaign_result):
        unified, _, info = cross_world_service([small_campaign_result])
        plain = ShortcutService.from_campaign(small_campaign_result)
        assert info["worlds"] == 1
        ids = sorted(plain.directory.endpoint_ids())
        cp = plain.encode_endpoints(ids)
        cu = unified.encode_endpoints(ids)
        rng = np.random.default_rng(5)
        ii = rng.integers(len(ids), size=256)
        jj = rng.integers(len(ids), size=256)
        want = plain.route_many(cp[ii], cp[jj], RelayType.COR, 3)
        got = unified.route_many(cu[ii], cu[jj], RelayType.COR, 3)
        assert np.array_equal(got.tier, want.tier)
        assert np.array_equal(
            got.reduction_ms, want.reduction_ms, equal_nan=True
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ServiceError):
            cross_world_service([])
