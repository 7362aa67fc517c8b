"""Tests for the multi-seed sweep runner and its CLI subcommand."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.analysis.scenarios import scenario_report
from repro.cli import build_parser, main
from repro.core.config import CampaignConfig
from repro.core.sweep import (
    SweepEntry,
    SweepRequest,
    SweepResult,
    run_sweep,
)
from repro.core.results import RelayRegistry, pool_worlds
from repro.core.table import NUM_RELAY_TYPES, ObservationTable
from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import ConfigError, UnknownScenarioError
from repro.scenarios import get_scenario


class TestSweepRequest:
    def test_rejects_empty_entries(self):
        with pytest.raises(ConfigError):
            SweepRequest(entries=())

    def test_rejects_duplicate_labels(self):
        entry = SweepEntry(
            label="baseline", scenario=get_scenario("baseline"), seeds=(1,)
        )
        with pytest.raises(ConfigError):
            SweepRequest(entries=(entry, entry))

    def test_entry_rejects_empty_or_duplicate_seeds(self):
        scenario = get_scenario("baseline")
        with pytest.raises(ConfigError):
            SweepEntry(label="x", scenario=scenario, seeds=())
        with pytest.raises(ConfigError):
            SweepEntry(label="x", scenario=scenario, seeds=(3, 3))

    def test_from_scenario_rejects_unknown_names(self):
        with pytest.raises(UnknownScenarioError):
            SweepRequest.from_scenario("no-such-regime", seeds=(1,))

    @pytest.mark.parametrize(
        "names, kwargs",
        [
            (("baseline",), {"seeds": ()}),
            (("baseline",), {"seeds": (3, 3)}),
            (("baseline",), {"seeds": (1,), "rounds": 0}),
            (("baseline",), {"seeds": (1,), "workers": 0}),
            ((), {"seeds": (1,)}),
            (("baseline", "baseline"), {"seeds": (1,)}),
            (("no-such-regime",), {"seeds": (1,)}),
        ],
        ids=[
            "empty-seeds",
            "duplicate-seeds",
            "rounds-0",
            "workers-0",
            "empty-scenarios",
            "duplicate-scenarios",
            "unknown-scenario",
        ],
    )
    def test_from_scenario_rejects_bad_input(self, names, kwargs):
        with pytest.raises(ConfigError):
            SweepRequest.from_scenario(names, **kwargs)

    def test_from_configs_runs_without_registry(self):
        request = SweepRequest.from_configs(
            campaign=CampaignConfig(relay_mix=("COR", "PLR")),
            seeds=(3,), label="ad-hoc", rounds=1, countries=8,
            expect={"cases_observed": True, "rar_relays_observed": False},
        )
        result = run_sweep(request)
        assert result["config"]["scenarios"] == ["ad-hoc"]
        assert result.scenarios["ad-hoc"]["expectations"]["ok"] is True
        assert result.per_seed[0]["win_rate_RAR_OTHER"] == 0.0

    def test_shared_seeds_none_for_per_entry_lists(self):
        scenario = get_scenario("baseline")
        request = SweepRequest(
            entries=(
                SweepEntry(label="a", scenario=scenario, seeds=(1,)),
                SweepEntry(label="b", scenario=scenario, seeds=(2,)),
            ),
            rounds=1,
        )
        assert request.shared_seeds is None


class TestRunSweep:
    @pytest.fixture(scope="class")
    def artifact(self):
        return run_sweep(
            SweepRequest.from_scenario("baseline", seeds=(3, 4), rounds=1, countries=8)
        )

    def test_artifact_shape(self, artifact):
        assert artifact["config"]["seeds"] == [3, 4]
        assert artifact["config"]["rounds"] == 1
        assert artifact["config"]["scenarios"] == ["baseline"]
        assert [m["seed"] for m in artifact["per_seed"]] == [3, 4]
        for metrics in artifact["per_seed"]:
            assert metrics["scenario"] == "baseline"
            assert metrics["total_cases"] > 0
            assert metrics["total_pings"] > 0
            for relay_type in RELAY_TYPE_ORDER:
                assert f"win_rate_{relay_type.value}" in metrics
                assert f"median_rtt_reduction_ms_{relay_type.value}" in metrics
        assert "timing" in artifact and artifact["timing"]["workers"] == 1

    def test_scenario_sections(self, artifact):
        section = artifact["scenarios"]["baseline"]
        assert section["pooled"]["total_cases"] == sum(
            m["total_cases"] for m in artifact["per_seed"]
        )
        assert set(section["shapes"]) >= {"cases_observed", "cor_wins_majority"}
        assert isinstance(section["expectations"]["ok"], bool)
        assert isinstance(artifact["shapes_ok"], bool)
        assert artifact["comparison"]["total_cases"]["baseline"] == (
            section["pooled"]["total_cases"]
        )
        # single-scenario sweeps keep the legacy top-level aliases
        assert artifact["pooled"] == section["pooled"]
        assert artifact["aggregate"] == section["aggregate"]

    def test_aggregate_bounds(self, artifact):
        aggregate = artifact["aggregate"]
        for relay_type in RELAY_TYPE_ORDER:
            entry = aggregate[f"win_rate_{relay_type.value}"]
            if entry is None:
                continue
            assert 0.0 <= entry["min"] <= entry["mean"] <= entry["max"] <= 1.0
        cases = aggregate["total_cases"]
        assert cases["min"] <= cases["mean"] <= cases["max"]

    def test_deterministic_across_worker_counts(self, artifact):
        parallel = run_sweep(
            SweepRequest.from_scenario(
                "baseline", seeds=(3, 4), rounds=1, countries=8, workers=2
            )
        )
        assert artifact.as_dict(include_timing=False) == (
            parallel.as_dict(include_timing=False)
        )

    def test_result_is_typed_and_bridges_mapping_access(self, artifact):
        assert isinstance(artifact, SweepResult)
        assert artifact.shapes_ok == artifact["shapes_ok"]
        assert set(artifact.keys()) == set(artifact.as_dict())
        assert dict(artifact.items()) == artifact.as_dict()
        assert artifact.get("no-such-key") is None
        assert "workload" in artifact and "no-such-key" not in artifact
        table = artifact.tables["baseline"]
        assert isinstance(table, ObservationTable)
        assert table.num_cases == artifact.pooled["total_cases"]
        assert "tables" not in artifact.as_dict()

    def test_aggregate_none_when_metric_missing_everywhere(self):
        artifact = run_sweep(
            SweepRequest.from_scenario("baseline", seeds=(3,), rounds=1, countries=8)
        )
        aggregate = artifact["aggregate"]
        for key, entry in aggregate.items():
            per_seed_values = [m[key] for m in artifact["per_seed"]]
            if all(v is None for v in per_seed_values):
                assert entry is None
            else:
                assert entry is not None


def _seed_payload(seed: int, cases: int = 4_000, relays: int = 48) -> dict:
    """A synthetic seed's table payload shaped like a sweep worker's: ~16
    improving entries per case, over small string pools."""
    rng = np.random.default_rng(seed)
    per_type = (NUM_RELAY_TYPES, cases)
    counts = rng.integers(0, 9, size=cases * NUM_RELAY_TYPES)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    best = rng.integers(-1, relays, size=per_type).astype(np.int32)
    stitched = np.where(best >= 0, rng.uniform(20.0, 300.0, per_type), np.nan)

    def codes(size: int) -> np.ndarray:
        return rng.integers(0, size, cases).astype(np.int32)

    return {
        "pools": {
            "endpoint_ids": [f"p{seed}-{i}" for i in range(200)],
            "countries": ["DE", "JP", "US", "BR", "ZA", "AU"],
            "cities": [f"c{i}/XX" for i in range(seed, seed + 30)],
        },
        "columns": {
            "round_idx": rng.integers(0, 4, cases).astype(np.int32),
            "e1_id": codes(200),
            "e2_id": codes(200),
            "e1_cc": codes(6),
            "e2_cc": codes(6),
            "e1_city": codes(30),
            "e2_city": codes(30),
            "direct_rtt_ms": rng.uniform(20.0, 400.0, cases),
            "best_relay": best,
            "best_stitched": stitched,
            "feasible": rng.integers(0, 40, per_type).astype(np.int32),
            "country_flags": rng.random((NUM_RELAY_TYPES, 4, cases)) < 0.5,
            "imp_indptr": indptr,
            "imp_relay": rng.integers(0, relays, int(indptr[-1])).astype(np.int32),
            "imp_gain": rng.uniform(0.1, 150.0, int(indptr[-1])),
        },
    }


def _seed_registry(seed: int, relays: int = 48) -> RelayRegistry:
    registry = RelayRegistry()
    for i in range(relays):
        # overlapping node ids across seeds, so pooling unifies some
        node = (seed * relays // 2 + i) % (2 * relays)
        relay_type = RELAY_TYPE_ORDER[node % NUM_RELAY_TYPES]
        registry.register(f"n{node}", relay_type, 64500 + node, "NL", "Amsterdam/NL")
    return registry


def _column_bytes(table: ObservationTable) -> int:
    return sum(column.nbytes for column in table.to_payload()["columns"].values())


class TestPoolingMemory:
    """A sweep's parent process holds each seed's cases once: pooling writes every
    seed straight into the pooled columns, and the pooled report leaves
    nothing attached to the table it reads."""

    def test_pooling_and_report_add_one_copy(self):
        payloads = [_seed_payload(seed) for seed in (1, 2, 3, 4)]
        registries = [_seed_registry(seed) for seed in (1, 2, 3, 4)]
        assert min(
            sum(c.nbytes for c in p["columns"].values()) for p in payloads
        ) >= 1_000_000
        # the report's first call imports modules; keep them out of the count
        scenario_report(ObservationTable.from_payload(_seed_payload(0, cases=50)))
        tracemalloc.start()
        try:
            tables = [ObservationTable.from_payload(p) for p in payloads]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            pooled, _, info = pool_worlds(tables, registries)
            pool_peak = tracemalloc.get_traced_memory()[1] - before
            before_report = tracemalloc.get_traced_memory()[0]
            scenario_report(pooled)
            left = tracemalloc.get_traced_memory()[0] - before_report
        finally:
            tracemalloc.stop()
        column_bytes = _column_bytes(pooled)
        assert info["worlds"] == 4 and info["relays"] < info["relays_before"]
        assert pooled.num_cases == 4 * 4_000
        assert pool_peak <= 1.1 * column_bytes, pool_peak / column_bytes
        assert abs(left) <= 0.1 * column_bytes, left / column_bytes


class TestMultiScenarioSweep:
    @pytest.fixture(scope="class")
    def artifact(self):
        return run_sweep(
            SweepRequest.from_scenario(
                ("baseline", "no-probes"), seeds=(3,), rounds=1, countries=8
            )
        )

    def test_scenario_major_run_order(self, artifact):
        runs = [(m["scenario"], m["seed"]) for m in artifact["per_seed"]]
        assert runs == [("baseline", 3), ("no-probes", 3)]

    def test_per_scenario_sections(self, artifact):
        assert set(artifact["scenarios"]) == {"baseline", "no-probes"}
        # no legacy top-level aliases for multi-scenario artifacts
        assert "pooled" not in artifact
        assert "aggregate" not in artifact

    def test_relay_mix_shows_in_columns(self, artifact):
        no_probes = artifact["scenarios"]["no-probes"]
        assert no_probes["pooled"]["win_rate_RAR_OTHER"] == 0.0
        assert no_probes["pooled"]["win_rate_RAR_EYE"] == 0.0
        assert no_probes["shapes"]["rar_relays_observed"] is False
        assert artifact["scenarios"]["baseline"]["shapes"]["rar_relays_observed"]

    def test_comparison_pivots_metrics(self, artifact):
        row = artifact["comparison"]["win_rate_COR"]
        assert set(row) == {"baseline", "no-probes"}


class TestSweepCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "--out", "x.json"])
        assert args.num_seeds == 4
        assert args.seed == 11
        assert args.rounds is None  # resolved to 4 at run time
        assert args.workers == 1
        assert args.seeds is None
        assert args.scenario is None  # resolved to ("baseline",)

    def test_parser_out_optional_scenarios_repeatable(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "lossy", "spike-storm"]
        )
        assert args.out is None
        assert args.scenario == ["lossy", "spike-storm"]

    def test_parser_explicit_seed_list(self):
        args = build_parser().parse_args(
            ["sweep", "--seeds", "7", "8", "9", "--out", "x.json"]
        )
        assert args.seeds == [7, 8, 9]

    def test_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--seeds", "3", "4",
                "--rounds", "1",
                "--countries", "8",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "win_rate_COR" in printed
        assert str(out_file) in printed
        artifact = json.loads(out_file.read_text())
        assert artifact["config"]["seeds"] == [3, 4]
        assert len(artifact["per_seed"]) == 2

    def test_duplicate_seeds_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--seeds", "3", "3", "--rounds", "1",
             "--countries", "8", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--seeds", "3", "--rounds", "1", "--countries", "8",
             "--scenario", "nope", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_stdout_artifact_byte_deterministic_across_workers(self, capsys):
        """The ISSUE's acceptance shape: same scenario sweep, different
        worker counts, byte-identical deterministic output."""
        outputs = []
        for workers in ("1", "2"):
            code = main(
                ["sweep", "--scenario", "lossy", "--seeds", "11", "12",
                 "--rounds", "1", "--countries", "8", "--workers", workers]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        artifact = json.loads(outputs[0])
        assert "timing" not in artifact
        assert artifact["config"]["scenarios"] == ["lossy"]


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "lossy", "spike-storm", "regional-eu",
                     "colo-sparse", "voip-heavy", "mega-world", "no-probes"):
            assert name in out

    def test_verify_ok(self, tmp_path, capsys):
        result = run_sweep(
            SweepRequest.from_scenario("baseline", seeds=(3,), rounds=1, countries=8)
        )
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(result.as_dict()))
        assert main(["scenarios", "--verify", str(path)]) == 0
        assert "baseline: ok" in capsys.readouterr().out.replace("  ", " ").strip()

    def test_verify_fails_on_unmet_expectations(self, tmp_path, capsys):
        artifact = {
            "scenarios": {
                "baseline": {
                    "expectations": {
                        "ok": False,
                        "failed": [
                            {"shape": "cor_wins_majority",
                             "expected": True, "observed": False}
                        ],
                    }
                }
            }
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(artifact))
        assert main(["scenarios", "--verify", str(path)]) == 1
        assert "cor_wins_majority" in capsys.readouterr().out

    def test_verify_rejects_artifact_without_scenarios(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["scenarios", "--verify", str(path)]) == 2
        assert "no scenarios section" in capsys.readouterr().err
