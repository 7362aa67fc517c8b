"""Tests for the world-snapshot cache (repro.core.worldcache).

The contract under test: a world restored from a snapshot is byte-for-byte
indistinguishable from a freshly built one (same campaign table payloads),
snapshots are deterministic at the byte level, any defective cache file is
a miss (never an error), and the cache key tracks every config field plus
the seed and the snapshot version.
"""

import dataclasses
import hashlib
import json
import os
import re
import zipfile

import numpy as np
import pytest

import repro.core.worldcache as worldcache
from repro import obs
from repro.core.campaign import MeasurementCampaign
from repro.core.config import CampaignConfig
from repro.core.store import read_arrays
from repro.core.worldcache import (
    WorldCache,
    capture_arrays,
    config_digest,
    resolve_cache,
    snapshot_key,
)
from repro.errors import RoutingError, StoreError, WorldCacheError
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig, build_world

SEED = 3
CONFIG = WorldConfig(topology=TopologyConfig(country_limit=8))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("world-cache")


@pytest.fixture(scope="module")
def warm_cache(cache_dir):
    """A cache holding the (CONFIG, SEED) snapshot, plus the builder world."""
    world = build_world(seed=SEED, config=CONFIG, world_cache=str(cache_dir))
    world.ensure_routing_fabric()
    return WorldCache(cache_dir), world


def _campaign_fingerprint(world) -> str:
    result = MeasurementCampaign(
        world, CampaignConfig(num_rounds=2, max_countries=5)
    ).run()
    digest = hashlib.blake2b()
    payload = result.table.to_payload()
    for key in sorted(payload):
        value = payload[key]
        digest.update(key.encode())
        digest.update(
            value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
        )
    return digest.hexdigest()


class TestSnapshotBytes:
    def test_store_is_byte_deterministic(self, warm_cache, tmp_path):
        cache, world = warm_cache
        recorded = cache.path_for(SEED, CONFIG).read_bytes()
        again = WorldCache(tmp_path / "second").store(world)
        assert again.read_bytes() == recorded

    def test_capture_roundtrips_through_restore(self, warm_cache):
        """Restoring a snapshot and re-capturing yields identical arrays."""
        cache, _ = warm_cache
        restored = build_world(seed=SEED, config=CONFIG, world_cache=str(cache.root))
        restored.ensure_routing_fabric()
        fresh = build_world(seed=SEED, config=CONFIG)
        fresh.ensure_routing_fabric()
        first = capture_arrays(fresh)
        second = capture_arrays(restored)
        assert list(first) == list(second)
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_capture_before_fabric_raises(self):
        world = build_world(seed=SEED, config=CONFIG)
        with pytest.raises(WorldCacheError):
            capture_arrays(world)


class TestByteParity:
    def test_cached_campaign_matches_fresh(self, warm_cache):
        cache, _ = warm_cache
        fresh = build_world(seed=SEED, config=CONFIG, use_world_cache=False)
        restored = build_world(seed=SEED, config=CONFIG, world_cache=str(cache.root))
        assert _campaign_fingerprint(restored) == _campaign_fingerprint(fresh)

    def test_restored_world_summary_matches(self, warm_cache):
        cache, builder = warm_cache
        restored = build_world(seed=SEED, config=CONFIG, world_cache=str(cache.root))
        assert restored.summary() == builder.summary()
        assert (
            restored.peeringdb.closed_facility_ids()
            == builder.peeringdb.closed_facility_ids()
        )


class TestCacheKeying:
    def test_config_field_changes_key(self):
        other = WorldConfig(topology=TopologyConfig(country_limit=9))
        assert config_digest(other) != config_digest(CONFIG)
        assert snapshot_key(SEED, other) != snapshot_key(SEED, CONFIG)

    def test_every_top_level_section_is_keyed(self):
        # perturb one field per config section; each must change the digest
        base = config_digest(WorldConfig())
        variants = [
            WorldConfig(topology=TopologyConfig(country_limit=5)),
            dataclasses.replace(
                WorldConfig(),
                latency=dataclasses.replace(
                    WorldConfig().latency, per_hop_ms=WorldConfig().latency.per_hop_ms + 0.1
                ),
            ),
        ]
        digests = {config_digest(v) for v in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_seed_changes_key(self):
        assert snapshot_key(SEED, CONFIG) != snapshot_key(SEED + 1, CONFIG)

    def test_changed_config_misses(self, warm_cache):
        cache, _ = warm_cache
        other = WorldConfig(topology=TopologyConfig(country_limit=9))
        assert cache.load(SEED, other) is None

    def test_version_bump_misses(self, warm_cache, monkeypatch):
        cache, _ = warm_cache
        current = cache.path_for(SEED, CONFIG)
        assert cache.load(SEED, CONFIG) is not None
        monkeypatch.setattr(
            worldcache, "SNAPSHOT_VERSION", worldcache.SNAPSHOT_VERSION + 1
        )
        # key now names a next-version file that does not exist
        assert cache.load(SEED, CONFIG) is None
        # the current file copied to the next version's key still misses
        # on its meta version
        bumped = cache.path_for(SEED, CONFIG)
        assert bumped != current
        bumped.write_bytes(current.read_bytes())
        try:
            assert cache.load(SEED, CONFIG) is None
        finally:
            bumped.unlink()


class TestDefectiveFiles:
    def test_corrupted_snapshot_rebuilds_cleanly(self, warm_cache, tmp_path):
        cache, _ = warm_cache
        broken_dir = tmp_path / "broken"
        broken_dir.mkdir()
        broken = WorldCache(broken_dir)
        path = broken.path_for(SEED, CONFIG)
        path.write_bytes(cache.path_for(SEED, CONFIG).read_bytes()[:4096])
        assert broken.load(SEED, CONFIG) is None
        # build_world treats the defect as a miss and rebuilds + overwrites
        world = build_world(seed=SEED, config=CONFIG, world_cache=str(broken_dir))
        world.ensure_routing_fabric()
        assert broken.load(SEED, CONFIG) is not None

    def test_garbage_file_is_a_miss(self, tmp_path):
        cache = WorldCache(tmp_path)
        cache.path_for(SEED, CONFIG).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(SEED, CONFIG).write_bytes(b"not a zip archive")
        assert cache.load(SEED, CONFIG) is None

    def test_compressed_members_are_a_miss(self, warm_cache, tmp_path):
        """A recompressed archive defeats mmap; load must miss, not crash."""
        cache, _ = warm_cache
        target = WorldCache(tmp_path / "compressed")
        target.root.mkdir()
        src = cache.path_for(SEED, CONFIG)
        dst = target.path_for(SEED, CONFIG)
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(
            dst, "w", compression=zipfile.ZIP_DEFLATED
        ) as zout:
            for info in zin.infolist():
                zout.writestr(info.filename, zin.read(info.filename))
        assert target.load(SEED, CONFIG) is None


    def test_defects_are_typed_and_counted_as_misses(self, warm_cache, tmp_path):
        """The shared store reader raises its typed error for each defect;
        the cache counts it and misses.  An absent file is a plain miss."""
        cache, _ = warm_cache
        good = cache.path_for(SEED, CONFIG).read_bytes()
        target = WorldCache(tmp_path)
        path = target.path_for(SEED, CONFIG)
        obs.enable(metrics=True)
        try:
            for data in (good[:4096], good[:-64], b"not a zip archive"):
                path.write_bytes(data)
                with pytest.raises(StoreError, match=re.escape(str(path))):
                    read_arrays(path)
                assert target.load(SEED, CONFIG) is None
            path.unlink()
            assert target.load(SEED, CONFIG) is None
            counters = obs.metrics_registry().to_payload()["counters"]
        finally:
            obs.disable()
        assert counters["world.cache.defects"] == 3


class TestAtomicWrites:
    def test_store_leaves_no_temp_files(self, warm_cache, tmp_path):
        _, world = warm_cache
        cache = WorldCache(tmp_path / "atomic")
        cache.store(world)
        leftovers = [p for p in cache.root.iterdir() if p.suffix != ".npz"]
        assert leftovers == []

    def test_concurrent_writers_last_replace_wins(self, warm_cache, tmp_path):
        """Racing stores both go through tmp + os.replace; the final file is
        always one writer's complete snapshot, never interleaved bytes."""
        _, world = warm_cache
        cache = WorldCache(tmp_path / "race")
        first = cache.store(world).read_bytes()
        second = cache.store(world).read_bytes()
        assert first == second
        assert cache.load(SEED, CONFIG) is not None


class TestEnsureIdempotency:
    def test_second_ensure_recomputes_nothing(self):
        world = build_world(seed=SEED, config=CONFIG)
        world.ensure_routing_fabric()
        batches = len(world.fabric._batches)
        grid, _ = world.latency.attachment_grid()
        world._fabric_ready = False  # force a full re-entry, not the fast path
        world.ensure_routing_fabric()
        assert len(world.fabric._batches) == batches
        assert world.latency.attachment_grid()[0] is grid

    def test_fabric_ensure_subset_is_noop(self):
        world = build_world(seed=SEED, config=CONFIG)
        fabric = world.ensure_routing_fabric()
        batches = len(fabric._batches)
        covered = sorted(fabric._slot)
        fabric.ensure(covered[: len(covered) // 2])
        fabric.ensure(covered)
        assert len(fabric._batches) == batches

    def test_restored_world_ensure_recomputes_nothing(self, warm_cache):
        cache, _ = warm_cache
        world = build_world(seed=SEED, config=CONFIG, world_cache=str(cache.root))
        grid, _ = world.latency.attachment_grid()
        batches = len(world.fabric._batches)
        world.ensure_routing_fabric()
        assert len(world.fabric._batches) == batches
        assert world.latency.attachment_grid()[0] is grid

    def test_restore_into_nonempty_fabric_rejected(self, warm_cache):
        cache, _ = warm_cache
        snapshot = cache.load(SEED, CONFIG)
        world = build_world(seed=SEED, config=CONFIG)
        world.ensure_routing_fabric()
        with pytest.raises(RoutingError):
            snapshot.attach_routing(world)


class TestResolution:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(worldcache.CACHE_ENV_VAR, str(tmp_path / "env"))
        cache = resolve_cache(str(tmp_path / "explicit"))
        assert cache.root == tmp_path / "explicit"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(worldcache.CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache().root == tmp_path / "env"

    def test_no_cache_by_default(self, monkeypatch):
        monkeypatch.delenv(worldcache.CACHE_ENV_VAR, raising=False)
        assert resolve_cache() is None

    def test_use_world_cache_false_ignores_env(self, warm_cache, monkeypatch):
        cache, _ = warm_cache
        monkeypatch.setenv(worldcache.CACHE_ENV_VAR, str(cache.root))
        world = build_world(seed=SEED, config=CONFIG, use_world_cache=False)
        # a restored world arrives with its grid installed; a reference
        # build must not (it has not run ensure_routing_fabric yet)
        assert world.latency.attachment_grid() is None

    def test_env_cache_restores(self, warm_cache, monkeypatch):
        cache, _ = warm_cache
        monkeypatch.setenv(worldcache.CACHE_ENV_VAR, str(cache.root))
        world = build_world(seed=SEED, config=CONFIG)
        assert world.latency.attachment_grid() is not None


class TestSnapshotMeta:
    def test_meta_identifies_the_snapshot(self, warm_cache):
        cache, _ = warm_cache
        with np.load(cache.path_for(SEED, CONFIG)) as archive:
            meta = json.loads(str(archive["meta"][0]))
        assert meta["seed"] == SEED
        assert meta["snapshot_version"] == worldcache.SNAPSHOT_VERSION
        assert meta["config_digest"] == config_digest(CONFIG)

    def test_snapshot_members_are_uncompressed(self, warm_cache):
        cache, _ = warm_cache
        with zipfile.ZipFile(cache.path_for(SEED, CONFIG)) as archive:
            assert all(
                info.compress_type == zipfile.ZIP_STORED
                for info in archive.infolist()
            )

    def test_miss_arms_capture_on_first_ensure(self, tmp_path):
        cache_root = tmp_path / "armed"
        world = build_world(seed=SEED, config=CONFIG, world_cache=str(cache_root))
        assert not os.path.exists(cache_root)  # nothing stored yet
        world.ensure_routing_fabric()
        assert WorldCache(cache_root).load(SEED, CONFIG) is not None

    def test_miss_captures_on_first_latency_query(self, tmp_path):
        """A world whose caller never builds the fabric (``repro funnel``)
        builds and captures it on its first base-RTT query."""
        cache_root = tmp_path / "armed"
        world = build_world(seed=SEED, config=CONFIG, world_cache=str(cache_root))
        probes = [p.node.endpoint for p in world.atlas.all_probes()[:2]]
        assert world.latency.base_rtt_ms(*probes) is not None
        assert WorldCache(cache_root).load(SEED, CONFIG) is not None
