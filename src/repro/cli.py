"""Command-line interface.

Mirrors how the paper's published artifact is used: run the measurement
campaign, store the raw results, and run each analysis/figure over the
stored data.

Usage (also via ``python -m repro``)::

    repro summary     --seed 11 [--countries 24]
    repro funnel      --seed 11
    repro campaign    --seed 11 --rounds 4 --out result.npz
    repro campaign    --scenario lossy --out result.npz
    repro sweep       --num-seeds 4 --seed 11 --rounds 4 --out sweep.json
    repro sweep       --scenario lossy spike-storm --seeds 11 12 --out sweep.json
    repro montecarlo  --regime tiny-mc --countries 8 --rounds 1 --out mc.json
    repro montecarlo  --regime baseline-mc --max-draws 48 --workers 4
    repro montecarlo  --list
    repro scenarios
    repro scenarios   --verify sweep.json
    repro analyze     result.npz --report fig2
    repro analyze     result.npz --report table1 --seed 11
    repro serve-bench
    repro serve-bench --scenario paper-scale --rounds 12 --queries 200000
    repro serve-bench --seeds 11 12 13
    repro campaign    --seed 11 --rounds 6 --out r.npz --metrics m.json --trace t.json
    repro metrics summarize m.json

The world/history knobs are shared parent parsers, so ``--seed``,
``--countries``, ``--rounds``, ``--max-countries`` and ``--scenario``
spell and behave identically on ``campaign``, ``sweep`` and
``serve-bench``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

# what every command needs; each command imports the rest itself, so it
# loads only the subsystems it runs
from repro import obs
from repro.core.io import load_result, save_result
from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import ReproError, StoreError

if TYPE_CHECKING:
    from repro.scenarios import Scenario
    from repro.world import World, WorldConfig

_REPORTS = ("fig2", "fig3", "fig4", "table1", "countries", "voip", "stability", "summary", "full")


def _single_scenario(args: argparse.Namespace) -> str | None:
    """The one scenario a non-sweep command accepts (None when unset)."""
    if args.scenario is None:
        return None
    if len(args.scenario) != 1:
        raise ReproError(
            f"this command takes exactly one --scenario, got {args.scenario}"
        )
    return args.scenario[0]


def build_world(
    args: argparse.Namespace, seed: int | None = None, config: WorldConfig | None = None
) -> World:
    """The world a command runs on, under the shared --world-cache flags.

    ``config`` is a scenario's world config; without one, the default
    world limited to ``--countries``.  ``seed`` defaults to ``--seed``.
    The world stack is imported here, on the first call, so a command
    that builds no world never loads it.  ``getattr`` defaults keep
    ``analyze``, whose parser declares no cache flags, on the
    env-driven default cache path.
    """
    from repro import world
    from repro.topology.config import TopologyConfig

    if config is None:
        config = world.WorldConfig(topology=TopologyConfig(country_limit=args.countries))
    return world.build_world(
        seed=args.seed if seed is None else seed,
        config=config,
        world_cache=getattr(args, "world_cache", None),
        use_world_cache=not getattr(args, "no_world_cache", False),
    )


def _scenario(args: argparse.Namespace, name: str) -> Scenario:
    """Scenario ``name`` with the shared history flags applied."""
    from repro.scenarios import get_scenario, scenario_with

    return scenario_with(
        get_scenario(name),
        rounds=args.rounds,
        countries=args.countries,
        max_countries=args.max_countries,
    )


def _cmd_summary(args: argparse.Namespace) -> int:
    world = build_world(args)
    for key, value in world.summary().items():
        print(f"{key:>28}: {value}")
    return 0


def _cmd_funnel(args: argparse.Namespace) -> int:
    from repro.analysis.plotting import render_funnel
    from repro.core.colo import ColoRelayPipeline

    world = build_world(args)
    pipeline = ColoRelayPipeline(world)
    _, report = pipeline.run()
    stages = [("initial", report.initial)] + list(report.stages)
    print(render_funnel(stages))
    facilities = pipeline.facilities_covered()
    cities = {world.peeringdb.city_of(f) for f in facilities}
    print(f"\nverified pool: {report.funnel()[-1]} IPs / {len(facilities)} "
          f"facilities / {len(cities)} cities")
    return 0


def _run_workload_campaign(
    args: argparse.Namespace, seed: int, default_rounds: int, progress=None
):
    """One campaign under the shared world/history/scenario flags.

    Returns ``(result, campaign, scenario, workload)``: ``scenario`` is
    None without ``--scenario``, and ``campaign`` carries the timeline
    for chaos-aware callers.
    """
    scenario_name = _single_scenario(args)
    if scenario_name is not None:
        scenario = _scenario(args, scenario_name)
        world = build_world(args, seed, scenario.world)
        config = scenario.campaign
        workload = f"scenario {scenario_name}, seed {seed}, {config.num_rounds} rounds"
    else:
        from repro.core.config import CampaignConfig

        scenario = None
        rounds = args.rounds if args.rounds is not None else default_rounds
        world = build_world(args, seed)
        config = CampaignConfig(num_rounds=rounds, max_countries=args.max_countries)
        scope = f"{args.countries}-country world" if args.countries else "full world"
        workload = f"{scope}, seed {seed}, {rounds} rounds"
    # after the build, so the world stack the engine shares loads inside it
    from repro.core.campaign import MeasurementCampaign

    campaign = MeasurementCampaign(world, config)
    return campaign.run(progress=progress), campaign, scenario, workload


def _cmd_campaign(args: argparse.Namespace) -> int:
    # fail before the campaign, not after it, when the result cannot land
    out_dir = pathlib.Path(args.out).parent
    if not out_dir.is_dir():
        raise StoreError(args.out, f"directory {out_dir} does not exist")
    result, _, _, _ = _run_workload_campaign(
        args,
        args.seed,
        default_rounds=4,
        progress=lambda i, rnd: print(
            f"round {i}: {rnd.num_pairs()} pairs, {rnd.pings_sent} pings",
            file=sys.stderr,
        ),
    )
    save_result(result, args.out)
    print(f"wrote {result.total_cases} observations to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweep import SweepRequest, run_sweep

    if args.seeds is not None:
        seeds = tuple(args.seeds)
    else:
        seeds = tuple(range(args.seed, args.seed + args.num_seeds))
    request = SweepRequest.from_scenario(
        tuple(args.scenario) if args.scenario else ("baseline",),
        seeds=seeds,
        rounds=args.rounds if args.rounds is not None else 4,
        countries=args.countries,
        max_countries=args.max_countries,
        workers=args.workers,
        world_cache=args.world_cache,
        use_world_cache=not args.no_world_cache,
    )
    result = run_sweep(request)
    artifact = result.as_dict()
    timing = artifact["timing"]
    print(
        f"{artifact['workload']}: {timing['wall_clock_s']} s "
        f"({timing['workers']} worker{'s' if timing['workers'] != 1 else ''})",
        file=sys.stderr,
    )
    for metric in ("world_build", "campaign"):
        pooled = timing.get(metric)
        if pooled:
            print(
                f"  {metric.replace('_', '-')} per seed: min {pooled['min']} / "
                f"median {pooled['median']} / max {pooled['max']} s",
                file=sys.stderr,
            )
    if args.out is None:
        # no output file: the deterministic artifact goes to stdout, byte
        # identical across worker counts (timing is the one section that
        # is not, so it stays on stderr above)
        deterministic = {k: v for k, v in artifact.items() if k != "timing"}
        json.dump(deterministic, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    for name, section in artifact["scenarios"].items():
        for key, value in section["aggregate"].items():
            if key.startswith("win_rate_") and value is not None:
                print(
                    f"{name + ' ' + key:>36}: mean {value['mean']:.4f} "
                    f"[{value['min']:.4f}, {value['max']:.4f}]"
                )
        verdict = section["expectations"]
        print(f"{name + ' paper shapes':>36}: {'ok' if verdict['ok'] else 'FAILED'}")
    print(f"wrote {len(artifact['per_seed'])} campaign summaries to {args.out}")
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import summary_converged
    from repro.core.montecarlo import MonteCarloConfig, run_montecarlo
    from repro.scenarios.regimes import list_regimes

    if args.list:
        for regime in list_regimes():
            print(f"{regime.name:>16}: {regime.description}")
        return 0
    config = MonteCarloConfig(
        regime=args.regime,
        seed=args.seed,
        batch_size=args.batch_size,
        max_draws=args.max_draws,
        confidence=args.confidence,
        target_half_width=args.target_half_width,
        rounds=args.rounds if args.rounds is not None else 2,
        countries=args.countries,
        max_countries=args.max_countries,
        workers=args.workers,
        world_cache=args.world_cache,
        use_world_cache=not args.no_world_cache,
        bootstrap_resamples=args.bootstrap_resamples,
    )
    artifact = run_montecarlo(config)
    convergence = artifact["convergence"]
    timing = artifact["timing"]
    print(
        f"montecarlo {args.regime}: {convergence['draws']} draws in "
        f"{convergence['batches']} batch(es), {timing['wall_clock_s']} s "
        f"({timing['workers']} worker{'s' if timing['workers'] != 1 else ''}); "
        f"{convergence['reason']}",
        file=sys.stderr,
    )
    for name, row in artifact["risk"]["claims"].items():
        print(
            f"{name:>28}: holds {row['probability']:.3f} "
            f"[{row['ci_low']:.3f}, {row['ci_high']:.3f}] "
            f"({row['holds']}/{row['draws']} draws)",
            file=sys.stderr,
        )
    if args.out is None:
        # deterministic artifact to stdout, byte identical across runs
        # and worker counts (timing stays on stderr above)
        deterministic = {k: v for k, v in artifact.items() if k != "timing"}
        json.dump(deterministic, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
        print(f"wrote {convergence['draws']} draws to {args.out}", file=sys.stderr)
    if args.require_converged and not summary_converged(artifact["risk"]):
        print(
            f"montecarlo: FAILED: not converged within "
            f"{config.max_draws} draws (too wide: "
            f"{', '.join(convergence['too_wide'])})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios

    if args.verify is not None:
        with open(args.verify, encoding="utf-8") as fh:
            artifact = json.load(fh)
        sections = artifact.get("scenarios", {})
        if not sections:
            print("error: artifact has no scenarios section", file=sys.stderr)
            return 2
        ok = True
        for name, section in sections.items():
            verdict = section["expectations"]
            status = "ok" if verdict["ok"] else "FAILED"
            print(f"{name:>16}: {status}")
            for failure in verdict["failed"]:
                ok = False
                print(
                    f"{'':>16}  {failure['shape']}: expected "
                    f"{failure['expected']}, observed {failure['observed']}"
                )
        return 0 if ok else 1
    for scenario in list_scenarios():
        print(f"{scenario.name:>16}: {scenario.description}")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import io
    import time

    from repro.core.types import RelayType
    from repro.service import (
        LoadgenConfig,
        ShortcutService,
        cross_world_service,
        replay,
    )

    scenario = None
    campaign = None
    cross_world = None
    if args.result is None and args.scenario is None and args.countries is None:
        # the default "tiny world" serving workload: small, fast, enough
        # history for every fallback tier to fire
        args.countries = 8
    if args.result is not None:
        if args.scenario is not None or args.rounds is not None or (
            args.countries is not None
        ) or args.seeds is not None:
            print(
                "error: --result replays stored measurements; it cannot be "
                "combined with --scenario/--rounds/--countries/--seeds",
                file=sys.stderr,
            )
            return 2
        result = load_result(args.result)
        workload = f"stored result {args.result}"
        start = time.perf_counter()
        service = ShortcutService.from_campaign(
            result,
            max_rounds=args.max_rounds,
            liveness_rounds=args.liveness_rounds,
            spill=args.spill,
        )
        compile_s = time.perf_counter() - start
        total_cases, num_rounds = result.total_cases, len(result.rounds)
    elif args.seeds is not None:
        # cross-world serving: one campaign per seed, relay identities
        # unified, one pooled directory behind the service
        results = []
        for seed in args.seeds:
            result, _, scenario, seed_workload = _run_workload_campaign(
                args, seed, default_rounds=3
            )
            results.append(result)
        start = time.perf_counter()
        service, _, cross_world = cross_world_service(
            results,
            max_rounds=args.max_rounds,
            liveness_rounds=args.liveness_rounds,
            spill=args.spill,
        )
        compile_s = time.perf_counter() - start
        workload = (
            f"cross-world x{len(results)} (seeds {', '.join(map(str, args.seeds))}): "
            + seed_workload
        )
        result = results[-1]
        total_cases = sum(r.total_cases for r in results)
        num_rounds = len(results[0].rounds)
    else:
        result, campaign, scenario, workload = _run_workload_campaign(
            args, args.seed, default_rounds=3
        )
        start = time.perf_counter()
        service = ShortcutService.from_campaign(
            result,
            max_rounds=args.max_rounds,
            liveness_rounds=args.liveness_rounds,
            spill=args.spill,
        )
        compile_s = time.perf_counter() - start
        total_cases, num_rounds = result.total_cases, len(result.rounds)

    # snapshot round-trip: restart cost, and a live determinism check
    buffer = io.BytesIO()
    service.save(buffer)
    snapshot_bytes = len(buffer.getvalue())
    buffer.seek(0)
    start = time.perf_counter()
    restored = ShortcutService.load(buffer)
    restore_s = time.perf_counter() - start
    snapshot_ok = (
        restored.directory.block_signature() == service.directory.block_signature()
    )
    del buffer, restored  # only the check needs them; free them before the replay

    config = LoadgenConfig(
        num_queries=args.queries,
        batch_size=args.batch_size,
        zipf_exponent=args.zipf_exponent,
        seed=args.loadgen_seed,
        k=args.k,
        relay_type=RelayType[args.relay_type],
    )
    stats = replay(service, config)

    # fault-timeline workloads additionally replay traffic round by round
    # against a churn-aware service, scoring availability and staleness
    # against the compiled timeline's ground truth
    chaos = None
    if (
        campaign is not None
        and campaign.timeline is not None
        and campaign.timeline.has_events
    ):
        from repro.timeline.chaos import ChaosConfig, chaos_replay

        chaos = chaos_replay(
            result,
            campaign.timeline,
            ChaosConfig(
                max_rounds=args.max_rounds if args.max_rounds is not None else 3,
                liveness_rounds=(
                    args.liveness_rounds if args.liveness_rounds is not None else 1
                ),
                spill=args.spill,
                seed=args.loadgen_seed,
                zipf_exponent=args.zipf_exponent,
                k=args.k,
                relay_type=RelayType[args.relay_type],
            ),
        )

    print(f"serve-bench: {workload}", file=sys.stderr)
    print(
        f"  compile: {compile_s:.3f} s over {total_cases} cases "
        f"({num_rounds} rounds); snapshot {snapshot_bytes} bytes, "
        f"restore {restore_s:.3f} s, round-trip "
        f"{'ok' if snapshot_ok else 'MISMATCH'}",
        file=sys.stderr,
    )
    tiers = stats.tier_counts
    print(
        f"  replay: {stats.queries} queries x k={config.k} in "
        f"{stats.wall_clock_s} s -> {stats.queries_per_s:,} queries/s "
        f"(tiers: pair {tiers['pair']}, country {tiers['country']}, "
        f"direct {tiers['direct']}; relay answers "
        f"{100 * stats.relay_answer_frac:.1f}%)",
        file=sys.stderr,
    )
    if stats.degradation is not None:
        deg = stats.degradation
        print(
            f"  degradation: {deg['stale_top_answers']} stale top answers, "
            f"{deg['candidates_evicted']} candidates evicted, "
            f"{deg['fallback_country']} country fallbacks, "
            f"{deg['direct']} direct fallbacks, "
            f"{deg['unanswerable']} unanswerable "
            f"(liveness window {args.liveness_rounds} rounds, "
            f"{service.dead_relay_count()} relays presumed dead)",
            file=sys.stderr,
        )
    if chaos is not None:
        summary = chaos["summary"]
        ctiers = summary["tier_counts"]
        cdeg = summary["degradation"]
        print(
            f"  chaos: {summary['replayed_rounds']} faulted rounds, "
            f"min availability {summary['min_availability']}, "
            f"max stale-answer rate {summary['max_stale_answer_rate']} "
            f"(tiers: pair {ctiers['pair']}, country {ctiers['country']}, "
            f"direct {ctiers['direct']}; "
            f"{cdeg['candidates_evicted']} candidates evicted, "
            f"{cdeg['fallback_country']} country fallbacks, "
            f"{cdeg['unanswerable']} unanswerable)",
            file=sys.stderr,
        )

    failures: list[str] = []
    if not snapshot_ok:
        failures.append("snapshot round-trip changed the compiled directory")
    if args.min_qps is not None and stats.queries_per_s < args.min_qps:
        failures.append(
            f"{stats.queries_per_s} queries/s under the "
            f"--min-qps {args.min_qps} floor"
        )
    if scenario is not None:
        floor = scenario.service_expect.get("min_relay_answer_frac")
        if floor is not None and stats.relay_answer_frac < floor:
            failures.append(
                f"relay answer fraction {stats.relay_answer_frac} under "
                f"the scenario's {floor} expectation"
            )
    availability_floor = args.min_availability
    if scenario is not None and availability_floor is None:
        availability_floor = scenario.service_expect.get("min_availability")
    if availability_floor is not None:
        if chaos is None:
            failures.append(
                "an availability floor needs a fault-timeline workload "
                "(scenario with timeline events)"
            )
        elif (
            chaos["summary"]["min_availability"] is not None
            and chaos["summary"]["min_availability"] < availability_floor
        ):
            failures.append(
                f"availability {chaos['summary']['min_availability']} under "
                f"the {availability_floor} floor"
            )
    report = {
        "workload": workload,
        "compile_s": round(compile_s, 4),
        "snapshot_bytes": snapshot_bytes,
        "restore_s": round(restore_s, 4),
        "snapshot_roundtrip_ok": snapshot_ok,
        "directory": service.stats(),
        "replay": stats.as_dict(),
        "cross_world": cross_world,
        "chaos": chaos,
        "failures": failures,
        "ok": not failures,
    }
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    for failure in failures:
        print(f"serve-bench: FAILED: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    result = load_result(args.result)
    report = args.report
    if report == "summary":
        for key, value in result.summary().items():
            print(f"{key:>28}: {value}")
    elif report == "fig2":
        from repro.analysis.improvements import ImprovementAnalysis
        from repro.analysis.plotting import render_cdf

        analysis = ImprovementAnalysis(result)
        for key, value in analysis.summary().items():
            print(f"{key:>36}: {value}")
        series = {
            t.display_name: analysis.fig2_cdf(t)
            for t in RELAY_TYPE_ORDER
            if analysis.fig2_cdf(t)
        }
        if series:
            print()
            print(render_cdf(series, x_label="improvement (ms)"))
    elif report == "fig3":
        from repro.analysis.plotting import render_lines
        from repro.analysis.ranking import TopRelayAnalysis

        analysis = TopRelayAnalysis(result)
        series = {
            t.display_name: analysis.fig3_curve(t, max_n=args.top_n)
            for t in RELAY_TYPE_ORDER
        }
        print(
            render_lines(
                series, x_label="top-N relays", y_label="% of total cases improved"
            )
        )
    elif report == "fig4":
        from repro.analysis.ranking import TopRelayAnalysis

        analysis = TopRelayAnalysis(result)
        thresholds = [0.0, 10.0, 20.0, 50.0, 100.0]
        print(f"{'series':>16} " + " ".join(f">{int(t):>3}ms" for t in thresholds))
        for relay_type in RELAY_TYPE_ORDER:
            for top_n, label in ((10, "TOP10"), (None, "ALL")):
                curve = dict(analysis.fig4_curve(relay_type, thresholds, top_n=top_n))
                print(
                    f"{relay_type.value + '-' + label:>16} "
                    + " ".join(f"{curve[t]:>5.1f}" for t in thresholds)
                )
    elif report == "table1":
        if args.seed is None:
            print("--seed is required for table1 (rebuilds the world)", file=sys.stderr)
            return 2
        from repro.analysis.facilities import FacilityTable

        print(FacilityTable(result, build_world(args)).render())
    elif report == "countries":
        from repro.analysis.countries import CountryChangeAnalysis

        analysis = CountryChangeAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            rates = analysis.group_rates(relay_type)
            print(
                f"{relay_type.value:>10}: different-country "
                f"{rates.different_rate} vs same-country {rates.same_rate}"
            )
        print(f"intercontinental: {analysis.intercontinental_fraction():.3f}")
    elif report == "voip":
        from repro.analysis.voip import VoipAnalysis

        for key, value in VoipAnalysis(result).summary().items():
            print(f"{key:>28}: {value}")
    elif report == "stability":
        from repro.analysis.stability import StabilityAnalysis

        for key, value in StabilityAnalysis(result, min_occurrences=2).summary().items():
            print(f"{key:>28}: {value}")
    elif report == "full":
        from repro.analysis.report import full_report

        world = build_world(args) if args.seed is not None else None
        print(full_report(result, world))
    return 0


def _cmd_metrics_summarize(args: argparse.Namespace) -> int:
    path = args.artifact
    try:
        text = obs.summarize_metrics(obs.load_artifact(path))
    except FileNotFoundError:
        raise ReproError(f"{path}: no such file") from None
    except OSError as exc:
        raise ReproError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not JSON ({exc})") from None
    except ValueError as exc:  # valid JSON, but not a metrics artifact
        raise ReproError(f"{path}: {exc}") from None
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests).

    ``campaign``, ``sweep`` and ``serve-bench`` share the world/history
    flags through common parent parsers, so ``--seed``, ``--countries``,
    ``--rounds``, ``--max-countries`` and ``--scenario`` are spelled and
    defaulted identically everywhere they appear.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Shortcuts through Colocation Facilities' (IMC 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    world_parent = argparse.ArgumentParser(add_help=False)
    world_parent.add_argument(
        "--seed", type=int, default=11,
        help="world seed (sweep: first of the --num-seeds consecutive seeds)",
    )
    world_parent.add_argument(
        "--countries", type=int, default=None,
        help="limit each world to N countries (default: command-specific)",
    )
    world_parent.add_argument(
        "--world-cache", default=None, metavar="DIR",
        help="world-snapshot cache directory: restore expensive world state "
             "(topology, routing fabric, delay grid) from deterministic "
             ".npz snapshots and capture misses for next time; defaults to "
             "$REPRO_WORLD_CACHE when set",
    )
    world_parent.add_argument(
        "--no-world-cache", action="store_true",
        help="force the from-scratch reference path, ignoring --world-cache "
             "and $REPRO_WORLD_CACHE",
    )

    history_parent = argparse.ArgumentParser(add_help=False)
    history_parent.add_argument(
        "--rounds", type=int, default=None,
        help="measurement rounds (default: command-specific)",
    )
    history_parent.add_argument(
        "--max-countries", type=int, default=None,
        help="endpoint countries per round",
    )

    scenario_parent = argparse.ArgumentParser(add_help=False)
    scenario_parent.add_argument(
        "--scenario", nargs="+", default=None, metavar="NAME",
        help="scenario preset(s) — see 'repro scenarios'; campaign and "
             "serve-bench take exactly one, sweep fans out over all",
    )

    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write a deterministic metrics artifact (counters, gauges, "
             "quantized phase timings) here; inspect it with "
             "'repro metrics summarize PATH'",
    )
    obs_parent.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of the run's spans here "
             "(open in chrome://tracing or https://ui.perfetto.dev); "
             "worker processes appear as separate timeline lanes",
    )

    p_summary = sub.add_parser(
        "summary", parents=[world_parent], help="print world entity counts"
    )
    p_summary.set_defaults(func=_cmd_summary)

    p_funnel = sub.add_parser(
        "funnel", parents=[world_parent],
        help="run the Sec 2.2 relay filter pipeline",
    )
    p_funnel.set_defaults(func=_cmd_funnel)

    p_campaign = sub.add_parser(
        "campaign",
        parents=[world_parent, history_parent, scenario_parent, obs_parent],
        help="run a measurement campaign",
    )
    p_campaign.add_argument("--out", required=True, help="result file (.npz, any suffix)")
    p_campaign.add_argument(
        "--profile", default=None, metavar="PATH",
        help="cProfile the run and write merged pstats here "
             "(inspect with 'python -m pstats PATH')",
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[world_parent, history_parent, scenario_parent, obs_parent],
        help="run the campaign for several seeds and aggregate metrics",
    )
    p_sweep.add_argument(
        "--profile", default=None, metavar="PATH",
        help="cProfile driver and pool workers, merged into one pstats file",
    )
    p_sweep.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="explicit seed list (overrides --num-seeds/--seed)",
    )
    p_sweep.add_argument("--num-seeds", type=int, default=4)
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = inline)"
    )
    p_sweep.add_argument(
        "--out", default=None,
        help="output JSON path (default: deterministic artifact to stdout)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mc = sub.add_parser(
        "montecarlo", parents=[world_parent, history_parent, obs_parent],
        help="sample a regime's config distributions until the paper-claim "
             "confidence intervals converge",
    )
    p_mc.add_argument(
        "--regime", default="baseline-mc", metavar="NAME",
        help="Monte-Carlo regime preset — see --list",
    )
    p_mc.add_argument(
        "--list", action="store_true", help="list regime presets and exit"
    )
    p_mc.add_argument(
        "--batch-size", type=int, default=8,
        help="draws per adaptive batch (affects scheduling only: the draw "
             "stream and risk summary are batch-size invariant)",
    )
    p_mc.add_argument(
        "--max-draws", type=int, default=64,
        help="hard draw cap; hitting it ends the run unconverged",
    )
    p_mc.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence level of the bootstrap/Wilson intervals",
    )
    p_mc.add_argument(
        "--target-half-width", type=float, default=0.1,
        help="convergence target for every claim-hold probability interval",
    )
    p_mc.add_argument(
        "--bootstrap-resamples", type=int, default=2000,
        help="resamples per bootstrap interval",
    )
    p_mc.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for each batch's fan-out (1 = inline)",
    )
    p_mc.add_argument(
        "--require-converged", action="store_true",
        help="exit 1 when the draw cap trips before the half-width targets",
    )
    p_mc.add_argument(
        "--out", default=None,
        help="output JSON path (default: deterministic artifact to stdout)",
    )
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_scenarios = sub.add_parser(
        "scenarios", help="list scenario presets / verify a sweep artifact"
    )
    p_scenarios.add_argument(
        "--verify", default=None, metavar="ARTIFACT",
        help="check a sweep artifact's paper-shape expectations "
             "(exit 1 on any failure)",
    )
    p_scenarios.set_defaults(func=_cmd_scenarios)

    p_serve = sub.add_parser(
        "serve-bench",
        parents=[world_parent, history_parent, scenario_parent, obs_parent],
        help="compile the serving layer and replay synthetic traffic against it",
    )
    p_serve.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="cross-world serving: one campaign per seed, relay identities "
             "unified into one pooled directory",
    )
    p_serve.add_argument(
        "--result", default=None, metavar="FILE",
        help="compile from a stored campaign result instead of measuring",
    )
    p_serve.add_argument(
        "--max-rounds", type=int, default=None,
        help="staleness window: retain only the newest N rounds",
    )
    p_serve.add_argument(
        "--liveness-rounds", type=int, default=None,
        help="churn awareness: relays unseen in the newest N ingested rounds "
             "are demoted as dead; enables degradation counters on the "
             "replayed service (chaos replay defaults to 1 when unset)",
    )
    p_serve.add_argument(
        "--spill", type=int, default=2,
        help="chaos replay: extra candidates over-fetched per lane so dead "
             "relays spill to the next-ranked live one",
    )
    p_serve.add_argument(
        "--min-availability", type=float, default=None,
        help="fail (exit 1) when chaos-replay availability drops under this "
             "floor (scenarios may also set it via service_expect)",
    )
    p_serve.add_argument("--queries", type=int, default=100_000)
    p_serve.add_argument("--batch-size", type=int, default=1024)
    p_serve.add_argument("--k", type=int, default=3, help="relay candidates per query")
    p_serve.add_argument(
        "--relay-type", default="COR",
        choices=[t.value for t in RELAY_TYPE_ORDER],
    )
    p_serve.add_argument(
        "--zipf-exponent", type=float, default=1.1,
        help="country-popularity Zipf exponent",
    )
    p_serve.add_argument(
        "--loadgen-seed", type=int, default=0, help="query-stream seed"
    )
    p_serve.add_argument(
        "--min-qps", type=int, default=None,
        help="fail (exit 1) under this sustained queries/s floor",
    )
    p_serve.add_argument(
        "--json-out", default=None,
        help="write the JSON report here instead of stdout",
    )
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_metrics = sub.add_parser(
        "metrics", help="inspect observability artifacts"
    )
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command", required=True)
    p_msummarize = metrics_sub.add_parser(
        "summarize",
        help="print the phase-time/counter tables of a --metrics artifact",
    )
    p_msummarize.add_argument(
        "artifact", help="metrics JSON written by a --metrics run"
    )
    p_msummarize.set_defaults(func=_cmd_metrics_summarize)

    p_analyze = sub.add_parser("analyze", help="analyse a stored campaign result")
    p_analyze.add_argument("result", help="result file written by 'campaign'")
    p_analyze.add_argument("--report", choices=_REPORTS, default="summary")
    p_analyze.add_argument("--top-n", type=int, default=50, help="fig3 x-range")
    p_analyze.add_argument("--seed", type=int, default=None, help="for table1")
    p_analyze.add_argument("--countries", type=int, default=None, help="for table1")
    p_analyze.set_defaults(func=_cmd_analyze)
    return parser


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch one subcommand under its observability/profiling flags.

    With no ``--metrics``/``--trace``/``--profile`` flag set (or on
    commands that do not declare them) this is exactly ``args.func(args)``
    — the recorders stay the module-level null handles and the run is
    byte-identical to the uninstrumented path.
    """
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    profile_path = getattr(args, "profile", None)
    if metrics_path or trace_path:
        obs.enable(
            metrics=metrics_path is not None, trace=trace_path is not None
        )
    try:
        if profile_path:
            from repro.obs.profile import profile_to

            with profile_to(
                profile_path, workers=args.command == "sweep"
            ):
                code = args.func(args)
            print(f"wrote profile to {profile_path}", file=sys.stderr)
        else:
            code = args.func(args)
        if metrics_path:
            obs.write_metrics(metrics_path)
            print(f"wrote metrics to {metrics_path}", file=sys.stderr)
        if trace_path:
            obs.write_trace(trace_path)
            print(f"wrote trace to {trace_path}", file=sys.stderr)
        return code
    finally:
        if metrics_path or trace_path:
            obs.disable()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
