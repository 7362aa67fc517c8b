"""PERF — sustained query throughput of the serving layer.

Times the online side of the system on the tiny serving workload (the
same 8-country, 3-round history ``repro serve-bench`` defaults to):
directory compilation from the campaign result, one incremental round
ingest, the ``.npz`` snapshot round-trip and a Zipf-shaped traffic
replay measuring sustained batched queries/sec.  Writes
``BENCH_service.json`` at the repo root so future PRs have a serving-side
perf trajectory next to the engine's ``BENCH_campaign.json``.

Run standalone with ``python benchmarks/bench_service.py`` or via pytest
with the other benches.  ``--smoke --queries N --budget-factor F
[--json-out PATH]`` compiles the directory and replays N queries,
exiting non-zero if compile + replay exceed F times the recorded wall
clocks (replay pro-rated to N queries) — CI's service-bench guard.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import pathlib
import sys
import time

if importlib.util.find_spec("repro") is None:  # bare checkout: src layout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import CampaignConfig, MeasurementCampaign, build_world
from repro.service import LoadgenConfig, ShortcutService, replay
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig

SEED = 11
COUNTRIES = 8
ROUNDS = 3
QUERIES = 200_000
BATCH_SIZE = 1024
REPEATS = 3  #: best-of-N for the timed sections (history built once)
LIVENESS_ROUNDS = 2  #: health window of the churn-aware degradation leg

_OUT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_service.json"


def _build_history():
    """The tiny-world campaign history the service compiles from."""
    world = build_world(
        seed=SEED,
        config=WorldConfig(topology=TopologyConfig(country_limit=COUNTRIES)),
    )
    campaign = MeasurementCampaign(world, CampaignConfig(num_rounds=ROUNDS))
    return campaign.run()


def run_bench() -> dict:
    """Time compile / ingest / snapshot / replay; write the report."""
    start = time.perf_counter()
    result = _build_history()
    history_s = time.perf_counter() - start

    compile_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        service = ShortcutService.from_campaign(result)
        compile_s = min(compile_s, time.perf_counter() - start)

    # incremental ingest: a service warm on all but the last round folds
    # the last round in (what an operator pays per new measurement round)
    ingest_s = float("inf")
    for _ in range(REPEATS):
        warm = ShortcutService.from_campaign(result, rounds=result.rounds[:-1])
        start = time.perf_counter()
        ingest_stats = warm.ingest_round(result.rounds[-1])
        ingest_s = min(ingest_s, time.perf_counter() - start)

    buffer = io.BytesIO()
    start = time.perf_counter()
    service.save(buffer)
    save_s = time.perf_counter() - start
    snapshot_bytes = len(buffer.getvalue())
    buffer.seek(0)
    start = time.perf_counter()
    restored = ShortcutService.load(buffer)
    restore_s = time.perf_counter() - start
    snapshot_ok = (
        restored.directory.block_signature() == service.directory.block_signature()
    )

    config = LoadgenConfig(num_queries=QUERIES, batch_size=BATCH_SIZE)
    best = None
    for _ in range(REPEATS):
        stats = replay(service, config)
        if best is None or stats["wall_clock_s"] < best["wall_clock_s"]:
            best = stats

    # churn-aware leg: the same stream against a liveness-enabled service,
    # recording the health path's degradation counters (stale answers,
    # evictions, tier fallbacks) and its cost next to the health-off
    # replay.  A fresh service per repeat keeps the cumulative counters
    # comparable across runs.
    live_best = live_service = None
    for _ in range(REPEATS):
        candidate = ShortcutService.from_campaign(
            result, liveness_rounds=LIVENESS_ROUNDS
        )
        stats = replay(candidate, config)
        if live_best is None or stats["wall_clock_s"] < live_best["wall_clock_s"]:
            live_best, live_service = stats, candidate
    degradation_report = {
        "liveness_rounds": LIVENESS_ROUNDS,
        "dead_relays": live_service.dead_relay_count(),
        "queries_per_s": live_best["queries_per_s"],
        "health_cost_pct": round(
            100.0
            * (live_best["wall_clock_s"] - best["wall_clock_s"])
            / best["wall_clock_s"],
            1,
        ),
        "tier_counts": live_best["tier_counts"],
        "counters": live_best.degradation,
    }

    report = {
        "workload": (
            f"{COUNTRIES}-country world, seed {SEED}, {ROUNDS}-round history; "
            f"{QUERIES} queries in {BATCH_SIZE}-batches"
        ),
        "protocol": f"best of {REPEATS} runs per timed section",
        "history": {
            "build_s": round(history_s, 3),
            "total_cases": result.total_cases,
            "rounds": len(result.rounds),
            "relays_registered": len(result.registry),
        },
        "compile_s": round(compile_s, 4),
        "ingest_round_s": round(ingest_s, 4),
        "ingest_touched_lanes": ingest_stats["touched_lanes"],
        "snapshot": {
            "bytes": snapshot_bytes,
            "save_s": round(save_s, 4),
            "restore_s": round(restore_s, 4),
            "roundtrip_ok": snapshot_ok,
        },
        "directory": service.stats(),
        "replay": best.as_dict(),
        "degradation": degradation_report,
    }
    _OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_smoke(
    queries: int, budget_factor: float, json_out: str | None = None
) -> int:
    """Compile + replay checked against the recorded wall clocks.

    The budget is ``budget_factor x`` (recorded compile + recorded replay
    wall pro-rated to ``queries``) plus a 2 s grace for fixed costs; the
    history build is excluded from the budget (the campaign engine has its
    own drift guard).  Returns a process exit code.
    """
    recorded = json.loads(_OUT_PATH.read_text())
    replay_budget = (
        recorded["replay"]["wall_clock_s"] * queries / recorded["replay"]["queries"]
    )
    budget = budget_factor * (recorded["compile_s"] + replay_budget) + 2.0

    result = _build_history()
    start = time.perf_counter()
    service = ShortcutService.from_campaign(result)
    stats = replay(
        service, LoadgenConfig(num_queries=queries, batch_size=BATCH_SIZE)
    )
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget and stats["relay_answer_frac"] > 0.0
    print(
        f"smoke: compile + {queries}-query replay took {elapsed:.3f} s "
        f"(budget {budget:.3f} s = {budget_factor}x recorded compile "
        f"{recorded['compile_s']} s + pro-rated replay + 2 s grace); "
        f"{stats['queries_per_s']:,} queries/s -> {'OK' if ok else 'TOO SLOW'}"
    )
    if json_out is not None:
        summary = {
            "queries": queries,
            "wall_clock_s": round(elapsed, 3),
            "budget_s": round(budget, 3),
            "budget_factor": budget_factor,
            "queries_per_s": stats["queries_per_s"],
            "relay_answer_frac": stats["relay_answer_frac"],
            "tier_counts": stats["tier_counts"],
            "ok": ok,
        }
        pathlib.Path(json_out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


def test_service_bench(report_sink):
    report = run_bench()
    best = report["replay"]
    report_sink(
        "perf_service",
        f"workload: {report['workload']}\n"
        f"history build: {report['history']['build_s']:.2f} s "
        f"({report['history']['total_cases']} cases)\n"
        f"compile: {report['compile_s'] * 1000:.1f} ms, incremental ingest: "
        f"{report['ingest_round_s'] * 1000:.1f} ms "
        f"({report['ingest_touched_lanes']} touched lanes)\n"
        f"snapshot: {report['snapshot']['bytes']} bytes, save "
        f"{report['snapshot']['save_s'] * 1000:.1f} ms, restore "
        f"{report['snapshot']['restore_s'] * 1000:.1f} ms\n"
        f"replay: {best['queries']} queries -> {best['queries_per_s']:,} "
        f"queries/s ({100 * best['relay_answer_frac']:.1f}% relay answers)\n"
        f"degradation (liveness={report['degradation']['liveness_rounds']}): "
        f"{report['degradation']['counters']['candidates_evicted']} evicted, "
        f"{report['degradation']['counters']['fallback_country']} country "
        f"fallbacks, health cost "
        f"{report['degradation']['health_cost_pct']}% "
        f"(written to {_OUT_PATH.name})",
    )
    # the acceptance floor: the tiny world must sustain >= 100k batched
    # queries/sec with a healthy answer rate and a clean snapshot
    assert best["queries_per_s"] >= 100_000
    assert best["relay_answer_frac"] >= 0.5
    assert report["snapshot"]["roundtrip_ok"]
    # incremental ingest must be cheaper than a full compile
    assert report["ingest_round_s"] <= report["compile_s"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="compile + replay checked against the recorded wall clocks",
    )
    parser.add_argument("--queries", type=int, default=10_000, help="smoke queries")
    parser.add_argument(
        "--budget-factor", type=float, default=3.0,
        help="smoke budget as a multiple of the recorded wall clocks",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the smoke outcome as JSON (CI's service-bench artifact)",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        sys.exit(run_smoke(cli_args.queries, cli_args.budget_factor, cli_args.json_out))
    print(json.dumps(run_bench(), indent=2))
