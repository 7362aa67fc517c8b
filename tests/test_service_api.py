"""The redesigned service API surface.

Covers the contract the redesign promises: the direct constructor and
the classmethods build the same service without warnings, the legacy
spellings forward exactly, answers and replay summaries are typed, the
CLI exposes one unified flag vocabulary across subcommands, and the
documented surface equals the exported one (the CI check runs as a
tier-1 test here too).
"""

from __future__ import annotations

import dataclasses
import io
import pathlib
import subprocess
import sys
import warnings

import numpy as np

import pytest

from repro.cli import build_parser, main
from repro.core.types import RelayType
from repro.service import (
    TIER_NAMES,
    LoadgenConfig,
    RelayDirectory,
    RouteAnswer,
    ServiceStats,
    ShortcutService,
    replay,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def service(small_campaign_result):
    return ShortcutService.from_campaign(small_campaign_result)


def _snapshot_bytes(svc: ShortcutService) -> bytes:
    buffer = io.BytesIO()
    svc.save(buffer)
    return buffer.getvalue()


class TestDirectConstructor:
    def test_wraps_directory_like_from_campaign(self, small_campaign_result):
        modern = ShortcutService.from_campaign(small_campaign_result)
        directory = RelayDirectory.from_result(small_campaign_result)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = ShortcutService(directory)
        assert (
            direct.directory.block_signature()
            == modern.directory.block_signature()
        )
        codes = modern.encode_endpoints(sorted(modern.directory.endpoint_ids()))
        rng = np.random.default_rng(3)
        src = codes[rng.integers(codes.size, size=512)]
        dst = codes[rng.integers(codes.size, size=512)]
        want = modern.route_many(src, dst, RelayType.COR, 3)
        got = direct.route_many(src, dst, RelayType.COR, 3)
        assert np.array_equal(got.relay_ids, want.relay_ids)
        assert np.array_equal(got.reduction_ms, want.reduction_ms, equal_nan=True)
        assert np.array_equal(got.tier, want.tier)

    def test_classmethods_do_not_warn(self, small_campaign_result, recwarn):
        ShortcutService.empty(max_rounds=2)
        ShortcutService.from_campaign(small_campaign_result)
        deprecations = [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
        assert not deprecations


class TestConstructorEquivalence:
    def test_load_forwards_to_from_snapshot(self, service):
        data = _snapshot_bytes(service)
        legacy = ShortcutService.load(io.BytesIO(data))
        modern = ShortcutService.from_snapshot(io.BytesIO(data))
        assert _snapshot_bytes(legacy) == _snapshot_bytes(modern)

    def test_default_k_flows_into_answers(self, small_campaign_result):
        svc = ShortcutService.from_campaign(small_campaign_result, k=5)
        assert svc.default_k == 5
        codes = svc.encode_endpoints(
            sorted(svc.directory.endpoint_ids())[:4]
        )
        batch = svc.route_many(codes[:2], codes[2:])
        assert batch.relay_ids.shape == (2, 5)


class TestTypedResults:
    def test_route_returns_frozen_route_answer(self, service):
        ids = sorted(service.directory.endpoint_ids())[:2]
        answer = service.route(ids[0], ids[1])
        assert isinstance(answer, RouteAnswer)
        assert answer.src_id == ids[0] and answer.dst_id == ids[1]
        assert answer.relay_type is RelayType.COR
        assert isinstance(answer.relay_ids, tuple)
        assert isinstance(answer.reduction_ms, tuple)
        assert len(answer.relay_ids) == len(answer.reduction_ms)
        assert answer.tier in TIER_NAMES
        with pytest.raises(dataclasses.FrozenInstanceError):
            answer.tier = "direct"

    def test_replay_returns_typed_stats(self, service):
        config = LoadgenConfig(num_queries=2048, batch_size=512)
        stats = replay(service, config)
        assert isinstance(stats, ServiceStats)
        assert stats.queries == 2048
        assert stats.batch_size == 512
        assert stats.queries_per_s > 0
        assert sum(stats.tier_counts.values()) == stats.queries
        assert 0.0 <= stats.relay_answer_frac <= 1.0
        assert isinstance(stats.answers_digest, str)

    def test_stats_mapping_bridge_and_as_dict(self, service):
        config = LoadgenConfig(num_queries=1024, batch_size=512)
        stats = replay(service, config)
        # legacy dict-style consumers keep working through the bridge
        assert stats["queries"] == stats.queries
        as_dict = stats.as_dict()
        assert as_dict["queries"] == stats.queries
        assert as_dict["tier_counts"] == stats.tier_counts


class TestUnifiedCliFlags:
    #: flags every history-building subcommand must share, with the
    #: parse-time defaults (None resolves per-command at run time)
    SHARED = {"seed": 11, "countries": None, "scenario": None, "rounds": None}

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--out", "x.json"],
            ["sweep"],
            ["serve-bench"],
        ],
        ids=["campaign", "sweep", "serve-bench"],
    )
    def test_shared_flag_defaults_identical(self, argv):
        args = build_parser().parse_args(argv)
        for flag, default in self.SHARED.items():
            assert getattr(args, flag) == default, flag

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--out", "x.json"],
            ["sweep"],
            ["serve-bench"],
        ],
        ids=["campaign", "sweep", "serve-bench"],
    )
    def test_shared_flags_parse_identically(self, argv):
        args = build_parser().parse_args(
            argv + ["--seed", "23", "--rounds", "2", "--countries", "12",
                    "--scenario", "lossy"]
        )
        assert args.seed == 23
        assert args.rounds == 2
        assert args.countries == 12
        assert args.scenario == ["lossy"]

    def test_serve_bench_rejects_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_alias_absence_keeps_new_default(self, capsys):
        args = build_parser().parse_args(["serve-bench"])
        assert args.zipf_exponent == 1.1
        assert "deprecated" not in capsys.readouterr().err


class TestApiSurfaceScript:
    def test_documented_surface_matches_exports(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "check_api_surface.py")],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert "api-surface: ok" in proc.stdout
