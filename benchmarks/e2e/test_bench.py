"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e/test_bench.py -q``.  They live
outside ``tests/`` so the tier-1 suite's time is unchanged; the last three
run the real program (about a minute and a half together).
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_manifest_is_the_committed_benchmark_json():
    assert json.loads(bench.MANIFEST.read_text()) == bench.manifest()


def test_metric_names_and_counts():
    manifest = bench.manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 2 <= len(manifest["workloads"]) <= 8
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def _event(name, ident, parent, ts, dur):
    return {"name": name, "ts": ts, "dur": dur, "args": {"id": ident, "parent": parent}}


def _trace():
    # spawn at t=10.0 s; child lines at 10.1 and 13.9; reap at 14.0
    events = [
        _event("import", 0, None, 0, 300_000),
        _event("command", 1, None, 300_000, 3_400_000),
        _event("world.build", 2, 1, 400_000, 1_000_000),
        _event("fabric", 3, 2, 600_000, 400_000),
        _event("io.save", 4, 1, 2_000_000, 1_500_000),
    ]
    return {"traceEvents": events, "otherData": {"t0": 10.1, "t_end": 13.9}}


def test_self_times_subtract_children():
    own = bench.self_times(_trace()["traceEvents"])
    assert own[2] == pytest.approx(0.6)  # world.build minus its fabric child
    assert own[3] == pytest.approx(0.4)
    assert own[1] == pytest.approx(3.4 - 1.0 - 1.5)


def test_attribution_sums_to_the_wall():
    parts = bench.attribution(_trace(), spawned=10.0, reaped=14.0)
    assert parts["startup.s"] == pytest.approx(0.1)
    assert parts["shutdown.s"] == pytest.approx(0.1)
    # attributed: startup 0.1 + import 0.3 + top-level 1.0 + 1.5 + shutdown 0.1
    assert parts["unattributed.s"] == pytest.approx(4.0 - 3.0)
    assert parts["attributed.frac"] == pytest.approx(3.0 / 4.0)


def test_layer_values_cover_every_layer():
    values = bench.layer_values(_trace(), 10.0, 14.0, None, {})
    assert set(values) | {"trace_overhead.pct"} == {m.name for m in bench.LAYERS}
    assert values["world.build.s"] == pytest.approx(0.6)
    assert values["io.save.s"] == pytest.approx(1.5)
    assert values["io.load.s"] == 0.0


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [5, 1, 4, 2, 3], [2.5] * 8])
def test_quartiles_match_statistics(values):
    q1, median, q3 = bench.quartiles(values)
    assert median == statistics.median(values)
    if len(values) > 1:
        assert [q1, median, q3] == statistics.quantiles(values, n=4)
    else:
        assert q1 == q3 == values[0]


def _stat(v: float) -> dict:
    return {"median": v, "q1": v * 0.98, "q3": v * 1.02, "n": 8}


def _results(wall: float, save: float) -> dict:
    return {
        "campaign-full": {
            "end_to_end": {"wall_s": _stat(wall), "items_per_s": _stat(1e6 / wall)},
            "layers": {"io.save.s": _stat(save), "fabric.s": _stat(0.002)},
            "attempted": 9, "failed": 0, "error_rate": 0.0,
        }
    }


def test_check_passes_within_bounds():
    recorded = {"results": [{"workloads": _results(3.0, 1.6)}]}
    regressions, drifts = bench.check(_results(3.2, 1.65), recorded)
    assert regressions == [] and drifts == []


def test_check_flags_regression_and_drift():
    recorded = {"results": [{"workloads": _results(3.0, 1.6)}]}
    regressions, drifts = bench.check(_results(3.5, 2.1), recorded)
    assert any(r.startswith("campaign-full wall_s") for r in regressions)
    assert any(r.startswith("campaign-full items_per_s") for r in regressions)
    assert any(d.startswith("campaign-full io.save.s") for d in drifts)


def test_check_flags_failed_runs():
    recorded = {"results": [{"workloads": _results(3.0, 1.6)}]}
    fresh = _results(3.0, 1.6)
    fresh["campaign-full"]["failed"] = 1
    regressions, _ = bench.check(fresh, recorded)
    assert regressions == ["campaign-full error_rate: 1/9 runs failed"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "campaign-full", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_smoke_analyze_full():
    done = _run("--runs", "1", "--trace-runs", "1", "--workload", "analyze-full")
    assert done.returncode == 0, done.stderr
    for m in bench.END_TO_END + bench.LAYERS:
        assert re.search(rf"^  {re.escape(m.name)} .* {re.escape(m.unit)} ",
                         done.stdout, re.M), m.name
    assert "0/3 runs failed" in done.stdout


def test_injected_save_slowdown_is_caught(tmp_path):
    # The injected 1.3x save adds ~17 % to campaign-full, but the host's
    # speed can drift by as much within a minute, so each attempt measures
    # its own baseline right before the injected run (through a copy of
    # the benchmark whose recorded.json is that baseline), and a drift
    # that hides the slowdown earns another attempt.
    bench_copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(bench.BENCH_DIR, bench_copy,
                    ignore=shutil.ignore_patterns("__pycache__", "recorded.json"))
    (tmp_path / "src").symlink_to(bench.ROOT / "src")
    args = ("--workload", "campaign-full", "--runs", "6", "--trace-runs", "3")
    outputs = []
    for _ in range(3):
        (bench_copy / "recorded.json").unlink(missing_ok=True)
        base = _run(*args, "--json-out", str(tmp_path / "base.json"), cwd=tmp_path)
        assert base.returncode == 0, base.stderr
        workloads = json.loads((tmp_path / "base.json").read_text())
        (bench_copy / "recorded.json").write_text(
            json.dumps({"results": [{"workloads": workloads}]})
        )
        done = _run("--check", "--inject", "io.save:1.3", *args, cwd=tmp_path)
        outputs.append(done.stdout)
        if (
            done.returncode == 1
            and re.search(r"^REGRESSION campaign-full wall_s", done.stdout, re.M)
            and re.search(r"^DRIFT campaign-full io\.save\.s", done.stdout, re.M)
        ):
            return
    pytest.fail("injected io.save:1.3 not flagged:\n" + "\n".join(outputs))
