"""Multi-seed, multi-scenario campaign sweeps behind a typed request API.

One seed is one synthetic Internet; one scenario is one measurement
regime (a named world/latency/workload configuration from
:mod:`repro.scenarios`).  The paper's qualitative claims (colo relays win
most cases, median RTT reductions in the tens of ms) should hold across
*worlds* and survive *regimes*, not just rounds of one world —
:func:`run_sweep` runs the full campaign for every entry x seed
combination — optionally in parallel via :mod:`concurrent.futures` — and
aggregates each run's paper-shape metrics into one
:class:`SweepResult`.

The programmatic surface mirrors the service API redesign:

* :class:`SweepRequest` is the typed, frozen request.  Build it with
  :meth:`SweepRequest.from_scenario` (registered preset names, one
  shared seed list) or :meth:`SweepRequest.from_configs` (explicit
  ``WorldConfig``/``CampaignConfig`` pairs — the Monte-Carlo manager's
  path, where every sampled draw is its own entry with its own seed).
* :class:`SweepResult` is the typed, frozen return value.  It carries
  the JSON-ready artifact sections as attributes plus the pooled
  per-entry :class:`~repro.core.table.ObservationTable` objects
  (``tables``; never serialized), and bridges read-only mapping access
  (``result["per_seed"]``, ``dict(result)``) over :meth:`as_dict` so
  callers that treated the old artifact dict as JSON keep working.

Transport is columnar: each worker computes its own seed's ``per_seed``
metrics over the table it already holds and returns them with its
campaign's :class:`~repro.core.table.ObservationTable` as a compact
payload (a dozen flat NumPy buffers plus string pools) and its relay
registry as flat identity columns, rather than pickling one Python object
per case.  The parent builds no per-seed analysis: it pools each entry's
seeds into one cross-world table with
:func:`repro.core.results.pool_worlds` — relay identities unified by
``(node_id, relay_type)``, so the pooled table is servable directly (see
:func:`repro.service.cross_world_service`) — and drops each seed's
payload once it is written there, so the parent keeps one copy of the
cases.  The pooled table feeds the entry's pooled metrics, its
paper-shape verdict (:func:`repro.analysis.scenarios.paper_shapes`
against the preset's expectations) and the cross-entry ``comparison``
section.

Determinism: every per-run metric depends only on ``(configs, seed,
rounds, countries, max_countries)``, so everything except the ``timing``
section is identical regardless of the worker count (the CLI test asserts
this byte for byte).
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import obs
from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.scenarios import (
    check_expectations,
    compare_scenarios,
    relay_type_metrics,
    scenario_report,
)
from repro.core.campaign import MeasurementCampaign
from repro.core.config import CampaignConfig
from repro.core.results import RelayRegistry, pool_worlds
from repro.core.table import ObservationTable
from repro.errors import ConfigError
from repro.obs.profile import active_worker_dir, profile_worker_job
from repro.scenarios import Scenario, get_scenario, scenario_with
from repro.world import WorldConfig, build_world


@dataclass(frozen=True, slots=True)
class SweepEntry:
    """One labelled regime of a sweep, with its own seed list.

    ``label`` keys the artifact's per-entry sections (for registry-backed
    sweeps it is the scenario name; the Monte-Carlo manager labels each
    sampled draw ``draw-NNNN``).  ``scenario`` carries the complete
    world/campaign configuration plus the paper-shape expectations the
    pooled table is checked against.
    """

    label: str
    scenario: Scenario
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigError("sweep entry needs a label")
        if not self.seeds:
            raise ConfigError(f"sweep entry {self.label!r} needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(
                f"duplicate seeds in sweep entry {self.label!r}: {self.seeds}"
            )


@dataclass(frozen=True, slots=True)
class SweepRequest:
    """The typed sweep request :func:`run_sweep` executes.

    Build one with :meth:`from_scenario` (registered presets, shared
    seeds — the CLI path) or :meth:`from_configs` (explicit configs, the
    programmatic/Monte-Carlo path); the bare constructor takes
    pre-assembled :class:`SweepEntry` rows for full control (per-entry
    seed lists).
    """

    entries: tuple[SweepEntry, ...]
    """The labelled regimes to run; every entry runs its own seeds."""

    rounds: int = 4
    """Measurement rounds per campaign (overrides each scenario's own)."""

    countries: int | None = None
    """Optional world country limit (None = each scenario's own scope)."""

    max_countries: int | None = None
    """Optional cap on endpoint countries per round."""

    workers: int = 1
    """Process-pool size; 1 runs the campaigns inline."""

    world_cache: str | None = None
    """Optional world-snapshot cache directory (see
    :mod:`repro.core.worldcache`): workers restore each ``(config, seed)``
    world from its deterministic snapshot when present — the fabric and
    delay-grid arrays arrive memory-mapped and read-only, so N workers
    share one on-disk copy — and the first builder of a missing key
    captures it.  Results are byte-identical either way; None (the
    default) still honours ``$REPRO_WORLD_CACHE``."""

    use_world_cache: bool = True
    """False forces the from-scratch reference path in every worker,
    ignoring both ``world_cache`` and the environment override."""

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("sweep needs at least one entry")
        labels = [entry.label for entry in self.entries]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate labels in sweep entries: {labels}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    @classmethod
    def from_scenario(
        cls,
        names: str | Sequence[str],
        *,
        seeds: Sequence[int],
        rounds: int = 4,
        countries: int | None = None,
        max_countries: int | None = None,
        workers: int = 1,
        world_cache: str | None = None,
        use_world_cache: bool = True,
    ) -> "SweepRequest":
        """A request over registered scenario presets, one shared seed list.

        Raises:
            UnknownScenarioError: for names missing from the registry.
        """
        if isinstance(names, str):
            names = (names,)
        if not names:
            raise ConfigError("sweep needs at least one scenario")
        seed_tuple = tuple(seeds)
        return cls(
            entries=tuple(
                SweepEntry(label=name, scenario=get_scenario(name), seeds=seed_tuple)
                for name in names
            ),
            rounds=rounds,
            countries=countries,
            max_countries=max_countries,
            workers=workers,
            world_cache=world_cache,
            use_world_cache=use_world_cache,
        )

    @classmethod
    def from_configs(
        cls,
        world: WorldConfig | None = None,
        campaign: CampaignConfig | None = None,
        *,
        seeds: Sequence[int],
        label: str = "custom",
        description: str = "explicit world/campaign configuration",
        expect: Mapping[str, bool] | None = None,
        rounds: int = 4,
        countries: int | None = None,
        max_countries: int | None = None,
        workers: int = 1,
        world_cache: str | None = None,
        use_world_cache: bool = True,
    ) -> "SweepRequest":
        """A single-entry request over explicit configs (no registry).

        ``expect`` optionally asserts paper shapes on the pooled table
        exactly like a registered preset's expectations would.
        """
        scenario = Scenario(
            name=label,
            description=description,
            world=world if world is not None else WorldConfig(),
            campaign=campaign if campaign is not None else CampaignConfig(),
            expect=dict(expect) if expect else {},
        )
        return cls(
            entries=(SweepEntry(label=label, scenario=scenario, seeds=tuple(seeds)),),
            rounds=rounds,
            countries=countries,
            max_countries=max_countries,
            workers=workers,
            world_cache=world_cache,
            use_world_cache=use_world_cache,
        )

    @property
    def shared_seeds(self) -> tuple[int, ...] | None:
        """The one seed list every entry runs, or None when they differ."""
        first = self.entries[0].seeds
        if all(entry.seeds == first for entry in self.entries):
            return first
        return None


@dataclass(frozen=True, slots=True)
class SweepResult:
    """One sweep's typed outcome (see :func:`run_sweep`).

    Attribute-typed, with a read-only mapping bridge (``result["key"]``,
    ``"key" in result``, ``dict(result)``) over :meth:`as_dict` so
    callers that treated the old artifact dict as JSON keep working.
    ``tables`` / ``registries`` expose each entry's pooled cross-world
    observation table and unified relay registry for further analysis
    (the Monte-Carlo manager's per-draw metrics); they never appear in
    :meth:`as_dict`.
    """

    workload: str
    config: dict
    per_seed: tuple[dict, ...]
    scenarios: dict[str, dict]
    comparison: dict
    shapes_ok: bool
    timing: dict
    pooled: dict | None = None
    aggregate: dict | None = None
    tables: dict[str, ObservationTable] = field(default_factory=dict, repr=False)
    registries: dict[str, RelayRegistry] = field(default_factory=dict, repr=False)

    def as_dict(self, *, include_timing: bool = True) -> dict[str, Any]:
        """The JSON-ready artifact (the old ``run_sweep`` dict shape).

        ``include_timing=False`` drops the one non-deterministic section,
        leaving bytes that are identical across runs and worker counts.
        """
        out: dict[str, Any] = {
            "workload": self.workload,
            "config": dict(self.config),
            "per_seed": list(self.per_seed),
            "scenarios": dict(self.scenarios),
            "comparison": dict(self.comparison),
            "shapes_ok": self.shapes_ok,
        }
        if self.pooled is not None:
            out["pooled"] = self.pooled
        if self.aggregate is not None:
            out["aggregate"] = self.aggregate
        if include_timing:
            out["timing"] = dict(self.timing)
        return out

    # ------------------------------------------------- mapping bridge
    def __getitem__(self, key: str) -> Any:
        return self.as_dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self.as_dict()

    def __iter__(self) -> Iterator[str]:
        return iter(self.as_dict())

    def keys(self):
        return self.as_dict().keys()

    def values(self):
        return self.as_dict().values()

    def items(self):
        return self.as_dict().items()

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default


def _run_seed_columns(
    label: str,
    world_config: WorldConfig,
    campaign_config: CampaignConfig,
    seed: int,
    world_cache: str | None = None,
    use_world_cache: bool = True,
    obs_modes: dict | None = None,
    profile_dir: str | None = None,
) -> dict:
    """Run one (configs, seed) campaign; return its metrics and columns.

    This is the worker side of the sweep: the parent resolves each
    entry's scenario into explicit configs (registry scenarios hold
    unpicklable mapping proxies; plain config dataclasses travel cheaply
    to pool processes), and the campaign result travels back as its
    ``per_seed`` metrics (computed here, over the table this process
    already holds), its table's payload (flat arrays, see
    :meth:`~repro.core.table.ObservationTable.to_payload`) and its
    registry's.

    Wall clock is reported split into ``world_build_s`` (world assembly +
    routing fabric/grid — snapshot-restored when ``world_cache`` hits) and
    ``campaign_s`` (the measurement itself), so the bench drift guard can
    see regressions in either half.

    ``obs_modes`` (pool workers only, when the driver has observability
    on) starts fresh recorders on this process's own trace lane and ships
    their snapshot back under the outcome's ``obs`` key; ``profile_dir``
    (pool workers under ``--profile``) dumps this job's cProfile stats
    there for the driver to merge.  Both default off, leaving the
    outcome shape untouched.
    """
    if obs_modes is not None:
        obs.enable(**obs_modes)
        obs.begin_worker(
            lane=os.getpid(), lane_name=f"sweep-worker-{os.getpid()}"
        )
    with profile_worker_job(profile_dir, f"{label}-{seed}"):
        with obs.span(f"sweep.seed {label}:{seed}"):
            start = time.perf_counter()
            world = build_world(
                seed=seed,
                config=world_config,
                world_cache=world_cache,
                use_world_cache=use_world_cache,
            )
            world.ensure_routing_fabric()
            build_done = time.perf_counter()
            campaign = MeasurementCampaign(world, campaign_config)
            result = campaign.run()
            end = time.perf_counter()
    table = result.table
    metrics: dict = {
        "scenario": label,
        "seed": seed,
        "total_cases": table.num_cases,
        "total_pings": result.total_pings,
        "relays_registered": len(result.registry),
    }
    metrics.update(
        relay_type_metrics(ImprovementAnalysis(table) if table.num_cases else None)
    )
    outcome = {
        "metrics": metrics,
        "columns": table.to_payload(),
        "registry": result.registry.to_payload(),
        "world_build_s": round(build_done - start, 3),
        "campaign_s": round(end - build_done, 3),
        "wall_clock_s": round(end - start, 3),
    }
    if obs_modes is not None:
        outcome["obs"] = {"payload": obs.worker_payload(), "pid": os.getpid()}
        obs.disable()
    return outcome


def _resolved_configs(
    request: SweepRequest, entry: SweepEntry
) -> tuple[WorldConfig, CampaignConfig]:
    """The entry's configs with the request's workload overrides applied."""
    scenario = scenario_with(
        entry.scenario,
        rounds=request.rounds,
        countries=request.countries,
        max_countries=request.max_countries,
    )
    return scenario.world, scenario.campaign


def run_seed_campaign(
    seed: int,
    rounds: int,
    countries: int | None = None,
    max_countries: int | None = None,
    scenario: str = "baseline",
) -> dict:
    """Run one (scenario, seed) campaign and return its metrics.

    The returned dict is deterministic given the arguments except for
    ``wall_clock_s`` (reported under the same key the sweep's ``timing``
    section uses, and stripped from the deterministic sections).
    """
    resolved = scenario_with(
        get_scenario(scenario),
        rounds=rounds,
        countries=countries,
        max_countries=max_countries,
    )
    outcome = _run_seed_columns(scenario, resolved.world, resolved.campaign, seed)
    return {"metrics": outcome["metrics"], "wall_clock_s": outcome["wall_clock_s"]}


def _sweep_job(args: tuple) -> dict:
    """Picklable process-pool entry point (a ``_run_seed_columns`` arg tuple)."""
    return _run_seed_columns(*args)


def _pooled_clock_stats(values: Sequence[float]) -> dict:
    """min/median/max of one per-seed wall-clock column."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = round((ordered[n // 2 - 1] + ordered[n // 2]) / 2, 3)
    return {"min": ordered[0], "median": median, "max": ordered[-1]}


def _aggregate(per_seed: list[dict]) -> dict:
    """Mean / min / max of every numeric metric across runs.

    ``None`` entries (a relay type that improved nothing for some seed) are
    skipped; a metric that is None for every seed aggregates to None.
    """
    aggregate: dict = {}
    for key in per_seed[0]:
        if key in ("seed", "scenario"):
            continue
        values = [m[key] for m in per_seed if m[key] is not None]
        if not values:
            aggregate[key] = None
            continue
        aggregate[key] = {
            "mean": round(sum(values) / len(values), 4),
            "min": min(values),
            "max": max(values),
        }
    return aggregate


def _config_section(request: SweepRequest) -> dict:
    """The artifact's ``config`` section.

    Keeps the pre-redesign shape byte for byte when every entry shares one
    seed list (``seeds`` + ``scenarios``); per-entry seed lists (the
    Monte-Carlo fan-out) additionally carry an ``entries`` mapping and
    report ``seeds: null``.
    """
    shared = request.shared_seeds
    section: dict = {
        "seeds": list(shared) if shared is not None else None,
        "rounds": request.rounds,
        "countries": request.countries,
        "max_countries": request.max_countries,
        "scenarios": [entry.label for entry in request.entries],
    }
    if shared is None:
        section["entries"] = {
            entry.label: list(entry.seeds) for entry in request.entries
        }
    return section


def run_sweep(request: SweepRequest) -> SweepResult:
    """Run the sweep and return its :class:`SweepResult`.

    Artifact sections (:meth:`SweepResult.as_dict`), all deterministic
    across worker counts:

    * ``config`` — the sweep parameters;
    * ``per_seed`` — each (entry, seed) run's metrics, entry-major in
      ``entries`` x ``seeds`` order;
    * ``scenarios`` — per entry label: its description, the same metrics
      over all its seeds' cases pooled into one cross-world table
      (``pooled``), the paper-shape booleans of that pooled table
      (``shapes``), the verdict against the scenario's expectations
      (``expectations``: ``{"ok": bool, "failed": [...]}``) and the
      across-seed ``aggregate`` (mean/min/max per metric);
    * ``comparison`` — pooled metrics pivoted metric-first so regimes
      read side by side;
    * ``shapes_ok`` — True iff every entry met its expectations;
    * ``pooled`` / ``aggregate`` — single-entry sweeps only: aliases
      of that entry's sections (the pre-scenario artifact shape).

    A separate ``timing`` section carries wall clocks and worker count.

    Each seed's ``per_seed`` metrics are computed where it ran (the pool
    worker, or inline), so the parent builds no per-seed analysis.
    Pooling (:func:`repro.core.results.pool_worlds`, the same function
    ``repro.service.cross_world_service`` uses) unifies relay identities
    by ``(node_id, relay_type)`` and writes each seed's columns once into
    the entry's pooled table, re-keyed on the way in, so the pooled table
    is directly servable — a naive concat would alias unrelated relays
    that happen to share an index.  Each seed's payload is dropped once
    it is written, so the parent keeps one pooled copy of the cases.  The
    ``pooled`` *metrics* are identity-free (fractions and gains) and are
    unchanged by the re-keying; each entry section reports the
    unification census under ``cross_world``.
    """
    # pool workers record observability/profiles locally and ship them
    # back with their outcome; inline jobs record straight into the
    # driver's recorders (both no-ops when obs/profiling are off)
    fan_out = request.workers > 1
    obs_modes = (
        {"metrics": obs.metrics_on(), "trace": obs.tracing_on()}
        if fan_out and obs.active()
        else None
    )
    profile_dir = active_worker_dir() if fan_out else None
    jobs = []
    for entry in request.entries:
        world_config, campaign_config = _resolved_configs(request, entry)
        jobs.extend(
            (
                entry.label,
                world_config,
                campaign_config,
                seed,
                request.world_cache,
                request.use_world_cache,
                obs_modes,
                profile_dir,
            )
            for seed in entry.seeds
        )
    start = time.perf_counter()
    if request.workers == 1:
        outcomes = [_sweep_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=request.workers) as pool:
            outcomes = list(pool.map(_sweep_job, jobs))
    wall_clock_s = time.perf_counter() - start
    if obs_modes is not None:
        # merge worker recorders; per-worker busy seconds (grouped by pool
        # pid) land in the sweep.worker.busy histogram = utilization view
        busy: dict[int, float] = {}
        for outcome in outcomes:
            shipped = outcome.pop("obs", None)
            if shipped is None:
                continue
            obs.merge_worker_payload(shipped["payload"])
            pid = shipped["pid"]
            busy[pid] = busy.get(pid, 0.0) + outcome["wall_clock_s"]
        for pid in sorted(busy):
            obs.observe("sweep.worker.busy", busy[pid])
    obs.inc("sweep.jobs", len(jobs))
    obs.set_gauge("sweep.workers", request.workers)

    per_seed = [outcome["metrics"] for outcome in outcomes]

    scenario_sections: dict[str, dict] = {}
    pooled_tables: dict[str, ObservationTable] = {}
    pooled_registries: dict[str, RelayRegistry] = {}
    lo = 0
    for entry in request.entries:
        hi = lo + len(entry.seeds)
        # the payloads leave their outcomes here: each is freed once pooled
        pooled_table, unified_registry, cross_world = pool_worlds(
            [ObservationTable.from_payload(o.pop("columns")) for o in outcomes[lo:hi]],
            [RelayRegistry.from_payload(o.pop("registry")) for o in outcomes[lo:hi]],
        )
        pooled_metrics, shapes = scenario_report(pooled_table)
        scenario_sections[entry.label] = {
            "description": entry.scenario.description,
            "pooled": pooled_metrics,
            "shapes": shapes,
            "expectations": check_expectations(shapes, entry.scenario.expect),
            "aggregate": _aggregate(per_seed[lo:hi]),
            "cross_world": cross_world,
        }
        pooled_tables[entry.label] = pooled_table
        pooled_registries[entry.label] = unified_registry
        lo = hi

    shared = request.shared_seeds
    if shared is not None:
        workload = (
            f"{len(shared)}-seed x {len(request.entries)}-scenario "
            f"sweep, {request.rounds} rounds each"
        )
    else:
        workload = (
            f"{len(jobs)}-run x {len(request.entries)}-entry "
            f"sweep, {request.rounds} rounds each"
        )

    single = scenario_sections[request.entries[0].label] if (
        len(request.entries) == 1
    ) else None
    return SweepResult(
        workload=workload,
        config=_config_section(request),
        per_seed=tuple(per_seed),
        scenarios=scenario_sections,
        comparison=compare_scenarios(
            {name: section["pooled"] for name, section in scenario_sections.items()}
        ),
        shapes_ok=all(
            section["expectations"]["ok"] for section in scenario_sections.values()
        ),
        pooled=single["pooled"] if single is not None else None,
        aggregate=single["aggregate"] if single is not None else None,
        timing={
            "workers": request.workers,
            "world_cache": request.world_cache,
            "wall_clock_s": round(wall_clock_s, 3),
            "per_seed_s": [outcome["wall_clock_s"] for outcome in outcomes],
            "world_build_s": [outcome["world_build_s"] for outcome in outcomes],
            "campaign_s": [outcome["campaign_s"] for outcome in outcomes],
            "world_build": _pooled_clock_stats(
                [outcome["world_build_s"] for outcome in outcomes]
            ),
            "campaign": _pooled_clock_stats(
                [outcome["campaign_s"] for outcome in outcomes]
            ),
        },
        tables=pooled_tables,
        registries=pooled_registries,
    )
