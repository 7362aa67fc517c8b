"""Tests for campaign result files (format 2) and the array store beneath."""

import dataclasses
import errno
import json
import mmap
import os
import pickle
import re
import zipfile

import numpy as np
import pytest

from repro.core import store
from repro.core.campaign import MeasurementCampaign
from repro.core.config import CampaignConfig
from repro.core.io import FORMAT_VERSION, load_result, save_result
from repro.core.results import CampaignResult, MedianColumns
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import StoreError

TABLE_FIELDS = (
    "round_idx", "e1_id", "e2_id", "e1_cc", "e2_cc", "e1_city", "e2_city",
    "direct_rtt_ms", "best_relay", "best_stitched", "feasible",
    "country_flags", "imp_indptr", "imp_relay", "imp_gain",
)


NO_MEDIANS = MedianColumns(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))


@pytest.fixture(scope="module")
def saved(small_campaign_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "result.json"
    save_result(small_campaign_result, path)
    return path


@pytest.fixture(scope="module")
def no_relay_medians(small_world):
    """A one-round campaign that records no relay medians."""
    config = CampaignConfig(num_rounds=1, record_relay_medians=False)
    return MeasurementCampaign(small_world, config).run()


def _assert_same_result(restored: CampaignResult, original: CampaignResult) -> None:
    assert restored.colo_filter_funnel == original.colo_filter_funnel
    assert restored.verified_eyeball_tuples == original.verified_eyeball_tuples
    assert list(restored.registry) == list(original.registry)
    assert len(restored.rounds) == len(original.rounds)
    for got, want in zip(restored.rounds, original.rounds):
        assert got.round_index == want.round_index
        assert got.timestamp_hours == want.timestamp_hours
        assert got.endpoint_ids == want.endpoint_ids
        assert got.relay_indices_by_type == want.relay_indices_by_type
        assert got.pings_sent == want.pings_sent
        # measurement order included, not only the keys
        assert got.direct_medians == want.direct_medians
        if want.relay_medians is None:
            assert got.relay_medians is None
        else:
            assert got.relay_medians == want.relay_medians
        for name in TABLE_FIELDS:
            a, b = getattr(got.table, name), getattr(want.table, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        assert got.table.columns_equal(want.table)
    pools, want_pools = restored.table.pools, original.table.pools
    for pool in ("endpoint_ids", "countries", "cities"):
        assert getattr(pools, pool).values == getattr(want_pools, pool).values
    assert all(rnd.table.pools is pools for rnd in restored.rounds)


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, small_campaign_result, saved):
        loaded = load_result(saved)
        _assert_same_result(loaded, small_campaign_result)
        assert loaded.total_cases == small_campaign_result.total_cases
        assert loaded.total_pings == small_campaign_result.total_pings
        assert loaded.table.columns_equal(small_campaign_result.table)

    def test_roundtrip_preserves_medians(self, small_campaign_result, saved):
        loaded = load_result(saved)
        for original, restored in zip(small_campaign_result.rounds, loaded.rounds):
            for want, got in (
                (original.direct_medians, restored.direct_medians),
                (original.relay_medians, restored.relay_medians),
            ):
                assert len(got) == len(want) > 0
                assert got == want
                for name in ("a", "b", "ms"):
                    column = getattr(got, name)
                    assert column.dtype == getattr(want, name).dtype
                    assert isinstance(column.base, mmap.mmap)

    def test_registry_roundtrip(self, small_campaign_result, saved):
        loaded = load_result(saved)
        for relay_type in RELAY_TYPE_ORDER:
            originals = small_campaign_result.registry.of_type(relay_type)
            restored = loaded.registry.of_type(relay_type)
            assert restored == originals

    def test_analyses_agree_on_loaded_result(self, small_campaign_result, saved):
        from repro.analysis.report import full_report

        loaded = load_result(saved)
        assert full_report(loaded) == full_report(small_campaign_result)

    def test_without_relay_medians(self, no_relay_medians, tmp_path):
        path = tmp_path / "r.npz"
        save_result(no_relay_medians, path)
        loaded = load_result(path)
        assert loaded.rounds[0].relay_medians is None
        _assert_same_result(loaded, no_relay_medians)

    def test_zero_case_round(self, small_campaign_result, tmp_path):
        first = small_campaign_result.rounds[0]
        empty = dataclasses.replace(
            first,
            round_index=1,
            timestamp_hours=1.5,
            table=ObservationTable.empty(first.table.pools),
            direct_medians=NO_MEDIANS,
            relay_medians=NO_MEDIANS,
            pings_sent=0,
        )
        result = CampaignResult(
            rounds=[first, empty],
            registry=small_campaign_result.registry,
            colo_filter_funnel=small_campaign_result.colo_filter_funnel,
        )
        path = tmp_path / "r.npz"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.rounds[1].table.num_cases == 0
        _assert_same_result(loaded, result)

    def test_loaded_columns_are_read_only_maps(self, saved):
        loaded = load_result(saved)
        column = loaded.rounds[0].table.direct_rtt_ms
        assert isinstance(column.base, mmap.mmap)
        with pytest.raises(ValueError):
            column[0] = 0.0


class TestBytes:
    def test_two_saves_are_identical(self, small_campaign_result, saved, tmp_path):
        again = tmp_path / "again.json"
        save_result(small_campaign_result, again)
        assert again.read_bytes() == saved.read_bytes()

    def test_save_load_save_is_identical(self, saved, tmp_path):
        again = tmp_path / "again.json"
        save_result(load_result(saved), again)
        assert again.read_bytes() == saved.read_bytes()

    def test_written_exactly_at_path_uncompressed(self, saved):
        # no ".npz" appended to the name, no temp file left beside it
        assert sorted(p.name for p in saved.parent.iterdir()) == ["result.json"]
        with zipfile.ZipFile(saved) as archive:
            infos = archive.infolist()
        assert infos[0].filename == "meta.npy"
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)

    def test_failed_replace_keeps_previous_file(
        self, saved, no_relay_medians, tmp_path, monkeypatch
    ):
        path = tmp_path / "result.json"
        path.write_bytes(saved.read_bytes())

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(store.os, "replace", disk_full)
        with pytest.raises(StoreError, match=re.escape(str(path))):
            save_result(no_relay_medians, path)
        assert path.read_bytes() == saved.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]

    def test_missing_directory_is_typed(self, saved, tmp_path):
        path = tmp_path / "no" / "such" / "r.npz"
        with pytest.raises(StoreError, match=re.escape(str(path))):
            save_result(load_result(saved), path)


def _first_set_to(column: np.ndarray, value: int) -> np.ndarray:
    column = column.copy()
    column[0] = value
    return column


def _repeat_first(pool: np.ndarray, _) -> np.ndarray:
    """Entry 0 again at index 1, the string it displaced moved to the end."""
    return np.concatenate((pool[:1], pool[:1], pool[2:], pool[1:2]))


def _repeat_under_other_type(node_ids: np.ndarray, arrays) -> np.ndarray:
    """The first relay's node id again for the first relay of another type."""
    types = arrays["relay.relay_types"]
    node_ids = node_ids.copy()
    node_ids[np.flatnonzero(types != types[0])[0]] = node_ids[0]
    return node_ids


def _rewrite_meta(src, dst, **changes) -> None:
    arrays = {name: np.array(a) for name, a in store.read_arrays(src).items()}
    meta = json.loads(str(arrays["meta"][0]))
    meta.update(changes)
    arrays["meta"] = np.asarray([json.dumps(meta)])
    store.write_arrays(dst, arrays)


def _assert_refused(saved, tmp_path, member, defect) -> StoreError:
    """``load_result`` refuses ``saved`` with ``defect`` applied to ``member``."""
    arrays = {name: np.array(a) for name, a in store.read_arrays(saved).items()}
    arrays[member] = defect(arrays[member], arrays)
    path = tmp_path / "result.json"
    store.write_arrays(path, arrays)
    with pytest.raises(StoreError, match=re.escape(str(path))) as info:
        load_result(path)
    assert info.value.path == path
    assert member.rsplit(".", 1)[0] in str(info.value)
    return info.value


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(StoreError, match="no such file") as info:
            load_result(path)
        assert info.value.path == path

    def test_error_survives_pickling(self, tmp_path):
        """Sweep workers hand their errors to the parent pickled."""
        with pytest.raises(StoreError) as info:
            load_result(tmp_path / "nope.json")
        again = pickle.loads(pickle.dumps(info.value))
        assert str(again) == str(info.value)
        assert again.path == info.value.path

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StoreError, match=re.escape(str(path))):
            load_result(path)

    @pytest.mark.parametrize(
        "content", [b"[1,2]", b"not an archive", b""], ids=["json-list", "garbage", "empty"]
    )
    def test_non_archive_files(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(StoreError, match=re.escape(str(path))):
            load_result(path)

    def test_version_1_json_is_refused(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"format_version": 1, "rounds": [], "relays": []}))
        with pytest.raises(StoreError, match=re.escape(str(path))):
            load_result(path)

    def test_truncated(self, saved, tmp_path):
        data = saved.read_bytes()
        for cut in (len(data) // 2, len(data) - 100):
            path = tmp_path / f"cut{cut}.json"
            path.write_bytes(data[:cut])
            with pytest.raises(StoreError, match=re.escape(str(path))):
                load_result(path)

    def test_wrong_version(self, saved, tmp_path):
        path = tmp_path / "result.json"
        _rewrite_meta(saved, path, format_version=FORMAT_VERSION + 1)
        with pytest.raises(StoreError, match="format version"):
            load_result(path)

    def test_other_archive_is_not_a_result(self, tmp_path):
        path = tmp_path / "other.npz"
        store.write_arrays(path, {"x": np.arange(3)})
        with pytest.raises(StoreError, match="not a campaign result"):
            load_result(path)

    @pytest.mark.parametrize(
        "member, defect",
        [
            pytest.param("round1.direct.b", lambda b, _: b[:-1], id="direct-lengths-differ"),
            pytest.param("round0.relay.ms", lambda ms, _: ms[1:], id="relay-lengths-differ"),
            pytest.param(
                "round2.direct.a",
                lambda a, arrays: _first_set_to(a, arrays["pool.endpoint_ids"].size),
                id="endpoint-code-past-pool",
            ),
            pytest.param(
                "round0.relay.a",
                lambda a, _: _first_set_to(a, -1),
                id="negative-endpoint-code",
            ),
            pytest.param(
                "round1.relay.b",
                lambda b, arrays: _first_set_to(b, arrays["relay.node_ids"].size),
                id="relay-index-past-registry",
            ),
        ],
    )
    def test_defective_median_columns(self, saved, tmp_path, member, defect):
        _assert_refused(saved, tmp_path, member, defect)

    @pytest.mark.parametrize(
        "member, defect",
        [
            pytest.param("round0.e2_id", lambda a, _: a[:-1], id="case-column-short"),
            pytest.param(
                "round1.country_flags", lambda f, _: f[:, :3], id="flags-one-short"
            ),
            pytest.param("round2.imp_gain", lambda g, _: g[1:], id="gain-column-short"),
            pytest.param("round0.imp_indptr", lambda p, _: p[:-1], id="indptr-one-short"),
            pytest.param(
                "round1.imp_indptr",
                lambda p, _: _first_set_to(p, 1),
                id="indptr-not-from-zero",
            ),
            pytest.param(
                "round2.imp_indptr",
                lambda p, _: np.concatenate(([0], p[-1:], p[2:])),
                id="indptr-decreasing",
            ),
            pytest.param(
                "round1.e1_cc",
                lambda a, arrays: _first_set_to(a, arrays["pool.countries"].size),
                id="country-code-past-pool",
            ),
            pytest.param(
                "round2.e2_city", lambda a, _: _first_set_to(a, -1), id="negative-city-code"
            ),
            pytest.param(
                "round0.imp_relay",
                lambda r, arrays: _first_set_to(r, arrays["relay.node_ids"].size),
                id="improving-relay-past-registry",
            ),
            pytest.param(
                "round1.best_relay",
                lambda b, arrays: _first_set_to(b, arrays["relay.node_ids"].size),
                id="best-relay-past-registry",
            ),
            pytest.param(
                "round2.best_relay", lambda b, _: _first_set_to(b, -2), id="best-relay-below-none"
            ),
        ],
    )
    def test_defective_table_columns(self, saved, tmp_path, member, defect):
        error = _assert_refused(saved, tmp_path, member, defect)
        assert member in str(error)

    @pytest.mark.parametrize(
        "member, defect",
        [
            pytest.param("pool.endpoint_ids", _repeat_first, id="endpoint-pool-repeats"),
            pytest.param("pool.countries", _repeat_first, id="country-pool-repeats"),
            pytest.param("pool.cities", _repeat_first, id="city-pool-repeats"),
            pytest.param(
                "relay.node_ids", _repeat_under_other_type, id="relay-id-under-two-types"
            ),
        ],
    )
    def test_defective_pools_and_registry(self, saved, tmp_path, member, defect):
        error = _assert_refused(saved, tmp_path, member, defect)
        assert member in str(error)

    def test_missing_member(self, saved, tmp_path):
        arrays = dict(store.read_arrays(saved))
        del arrays["round1.imp_gain"]
        path = tmp_path / "result.json"
        store.write_arrays(path, arrays)
        with pytest.raises(StoreError, match="round1.imp_gain"):
            load_result(path)


class TestStore:
    def test_compressed_member_is_refused(self, tmp_path):
        path = tmp_path / "c.npz"
        np.savez_compressed(path, x=np.arange(10))
        with pytest.raises(StoreError, match="compressed"):
            store.read_arrays(path)

    def test_members_round_trip_in_order(self, tmp_path):
        arrays = {
            "b": np.arange(6, dtype=np.int32).reshape(2, 3),
            "a": np.asfortranarray(np.linspace(0, 1, 6).reshape(2, 3)),
            "s": store.str_array(["x", "yz"]),
            "empty": store.str_array([]),
        }
        path = store.write_arrays(tmp_path / "f.bin", arrays)
        loaded = store.read_arrays(path)
        assert list(loaded) == list(arrays)
        for name, values in arrays.items():
            assert loaded[name].dtype == values.dtype
            assert np.array_equal(loaded[name], values)
