"""Compiling a fault schedule against a world.

:func:`compile_timeline` resolves every event of a
:class:`~repro.timeline.events.TimelineConfig` into concrete cohorts —
node-id sets for outages and churn, country pairs for link windows —
using *dedicated* named streams from the world's
:class:`~repro.util.rand.SeedSequenceFactory`
(``timeline.event{i}.{pool}``).  The campaign's own round streams are
never touched, which is what makes a no-events timeline byte-identical
to a static run: the campaign code path is guarded on empty effects and
the RNG sequence it consumes is unchanged.

The compiled form is per-round:

* a boolean absence mask per node pool (``(num_rounds, pool_size)``),
  collapsed to a per-round frozenset of absent node ids (what the
  campaign filters samples against);
* the active :class:`LinkWindow` overrides per round (what the campaign
  applies to its latency pair grids);
* the active :class:`TrafficWindow` multipliers per round (what the
  load-replay harness feeds the query generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TimelineError
from repro.timeline.events import (
    LinkDegradation,
    ProbeChurn,
    RelayOutage,
    TimelineConfig,
    TrafficShift,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (world -> core -> config)
    from repro.latency.model import PairGrid
    from repro.world import World


@dataclass(frozen=True, slots=True)
class LinkWindow:
    """One active country-pair degradation: the grid override to apply."""

    cc_a: str
    cc_b: str
    loss_add: float
    rtt_mult: float


@dataclass(frozen=True, slots=True)
class TrafficWindow:
    """One active traffic re-weighting (country resolved, or by rank)."""

    country: str | None
    rank: int
    weight_mult: float


@dataclass(frozen=True, slots=True)
class RoundEffects:
    """Everything a single round must apply.

    ``absent_ids`` covers every pool: probes in it vanish as endpoints
    *and* relays; colo/PlanetLab nodes in it vanish as relays.  Empty
    containers mean "no effect" — the campaign guards on them, so a
    round with empty effects executes exactly the static code path.
    """

    absent_ids: frozenset[str]
    links: tuple[LinkWindow, ...]
    traffic: tuple[TrafficWindow, ...]

    @property
    def any(self) -> bool:
        return bool(self.absent_ids or self.links or self.traffic)


_NO_EFFECTS = RoundEffects(frozenset(), (), ())


def _sample_cohort(
    rng: np.random.Generator, candidates: list[str], fraction: float
) -> frozenset[str]:
    """A deterministic without-replacement cohort of ``fraction`` ids.

    Candidates must arrive sorted (they do: every caller sorts by node
    id), so the draw depends only on the stream and the candidate set.
    """
    count = int(round(fraction * len(candidates)))
    if count == 0:
        return frozenset()
    idx = rng.choice(len(candidates), size=count, replace=False)
    return frozenset(candidates[i] for i in idx)


class CompiledTimeline:
    """A schedule resolved against one world (see module docstring)."""

    def __init__(
        self, config: TimelineConfig, num_rounds: int,
        absent_by_round: list[frozenset[str]],
        links_by_round: list[tuple[LinkWindow, ...]],
        traffic_by_round: list[tuple[TrafficWindow, ...]],
    ) -> None:
        self.config = config
        self.num_rounds = num_rounds
        self._absent = absent_by_round
        self._links = links_by_round
        self._traffic = traffic_by_round

    @property
    def has_events(self) -> bool:
        """True when any round carries any effect."""
        return any(
            self._absent[r] or self._links[r] or self._traffic[r]
            for r in range(self.num_rounds)
        )

    def effects(self, round_index: int) -> RoundEffects:
        """The round's effects (no-effect sentinel outside the horizon)."""
        if not 0 <= round_index < self.num_rounds:
            return _NO_EFFECTS
        return RoundEffects(
            absent_ids=self._absent[round_index],
            links=self._links[round_index],
            traffic=self._traffic[round_index],
        )

    def absent_ids(self, round_index: int) -> frozenset[str]:
        """Node ids dark during a round (empty outside the horizon)."""
        return self.effects(round_index).absent_ids

    def apply_link_overrides(
        self,
        grid: PairGrid,
        row_ccs: np.ndarray,
        col_ccs: np.ndarray,
        round_index: int,
    ) -> PairGrid:
        """The round's link windows applied to a latency pair grid.

        ``row_ccs`` / ``col_ccs`` are the country codes of the grid's
        axes.  Entries whose two sides match an active window's pair (in
        either direction) get ``base *= rtt_mult`` and
        ``loss -> 1 - (1 - loss) * (1 - loss_add)``.  Returns the grid
        object untouched when no window selects anything — the static
        path never sees a copy.
        """
        windows = self._links[round_index] if 0 <= round_index < self.num_rounds else ()
        if not windows:
            return grid
        base = loss = None
        rows = np.asarray(row_ccs)
        cols = np.asarray(col_ccs)
        for window in windows:
            ra, rb = rows == window.cc_a, rows == window.cc_b
            ca, cb = cols == window.cc_a, cols == window.cc_b
            sel = (ra[:, None] & cb[None, :]) | (rb[:, None] & ca[None, :])
            if not sel.any():
                continue
            if base is None:
                base, loss = grid.base.copy(), grid.loss.copy()
            base[sel] *= window.rtt_mult
            loss[sel] = 1.0 - (1.0 - loss[sel]) * (1.0 - window.loss_add)
        if base is None:
            return grid
        return type(grid)(base=base, loss=loss)

    def traffic_multipliers(
        self, round_index: int, rank_order: list[str]
    ) -> dict[str, float]:
        """The round's country → Zipf-weight multiplier map.

        ``rank_order`` is the serving directory's country popularity
        order (see :func:`repro.service.loadgen.country_rank_order`),
        used to resolve rank-targeted windows; a rank past the end of
        the order resolves to nothing.  Multipliers of windows hitting
        the same country multiply.
        """
        out: dict[str, float] = {}
        windows = (
            self._traffic[round_index] if 0 <= round_index < self.num_rounds else ()
        )
        for window in windows:
            country = window.country
            if country is None:
                if window.rank >= len(rank_order):
                    continue
                country = rank_order[window.rank]
            out[country] = out.get(country, 1.0) * window.weight_mult
        return out


def compile_timeline(
    world: World,
    config: TimelineConfig,
    num_rounds: int,
    eyeball_countries: list[str] | None = None,
) -> CompiledTimeline:
    """Resolve a schedule's cohorts against a world (see module docstring).

    Deterministic: cohorts come from ``world.seeds`` streams named by
    event index and pool, so the same (world seed, schedule) always
    compiles to the same timeline, independent of everything else the
    world's seed factory serves.

    ``eyeball_countries`` is the pool sampled link-degradation pairs
    draw from; the campaign passes its endpoint-covered countries so
    sampled windows always hit measured lanes.  Default: every country
    hosting an Atlas probe.
    """
    if num_rounds < 1:
        raise TimelineError(f"num_rounds must be >= 1, got {num_rounds}")
    absent: list[set[str]] = [set() for _ in range(num_rounds)]
    links: list[list[LinkWindow]] = [[] for _ in range(num_rounds)]
    traffic: list[list[TrafficWindow]] = [[] for _ in range(num_rounds)]

    pools: dict[str, list[tuple[str, str]]] | None = None  # pool -> (id, cc)

    def world_pools() -> dict[str, list[tuple[str, str]]]:
        nonlocal pools
        if pools is None:
            pools = {
                "colo": sorted(
                    (i.node.node_id, i.node.cc)
                    for i in world.colo_pool.interfaces()
                ),
                "planetlab": sorted(
                    (n.node.node_id, n.node.cc)
                    for n in world.planetlab.all_nodes()
                ),
                "probes": sorted(
                    (p.node.node_id, p.node.cc) for p in world.atlas.all_probes()
                ),
            }
        return pools

    def candidates(pool: str, countries: tuple[str, ...] | None) -> list[str]:
        entries = world_pools()[pool]
        if countries is None:
            return [node_id for node_id, _ in entries]
        allowed = set(countries)
        return [node_id for node_id, cc in entries if cc in allowed]

    def mark_absent(cohort: frozenset[str], lo: int, hi: int) -> None:
        for r in range(max(lo, 0), min(hi, num_rounds)):
            absent[r] |= cohort

    for i, event in enumerate(config.events):
        if isinstance(event, RelayOutage):
            for pool in event.pools:
                rng = world.seeds.rng(f"timeline.event{i}.{pool}")
                cohort = _sample_cohort(
                    rng, candidates(pool, event.countries), event.fraction
                )
                mark_absent(cohort, event.start_round, event.end_round)
        elif isinstance(event, ProbeChurn):
            rng = world.seeds.rng(f"timeline.event{i}.probes")
            cohort = _sample_cohort(
                rng, candidates("probes", event.countries), event.fraction
            )
            if event.mode == "departure":
                mark_absent(cohort, event.start_round, event.end_round)
            else:  # arrival: absent before the window opens
                mark_absent(cohort, 0, event.start_round)
        elif isinstance(event, LinkDegradation):
            pairs = _resolve_link_pairs(world, event, i, eyeball_countries)
            for r in range(
                max(event.start_round, 0), min(event.end_round, num_rounds)
            ):
                links[r].extend(
                    LinkWindow(a, b, event.loss_add, event.rtt_mult)
                    for a, b in pairs
                )
        elif isinstance(event, TrafficShift):
            window = TrafficWindow(event.country, event.rank, event.weight_mult)
            for r in range(
                max(event.start_round, 0), min(event.end_round, num_rounds)
            ):
                traffic[r].append(window)

    return CompiledTimeline(
        config,
        num_rounds,
        [frozenset(s) for s in absent],
        [tuple(w) for w in links],
        [tuple(w) for w in traffic],
    )


def _resolve_link_pairs(
    world: World,
    event: LinkDegradation,
    event_index: int,
    eyeball_countries: list[str] | None,
) -> list[tuple[str, str]]:
    """The event's country pairs: explicit, or sampled from the world."""
    if event.countries is not None:
        a, b = event.countries
        return [(a, b) if a < b else (b, a)]
    if eyeball_countries is not None:
        ccs = sorted(set(eyeball_countries))
    else:
        ccs = sorted({p.node.cc for p in world.atlas.all_probes()})
    n = len(ccs)
    total = n * (n - 1) // 2
    if total == 0:
        raise TimelineError(
            "world has fewer than two probe countries; cannot sample link pairs"
        )
    rng = world.seeds.rng(f"timeline.event{event_index}.links")
    take = min(event.num_pairs, total)
    flat = rng.choice(total, size=take, replace=False)
    # unrank the flat upper-triangle index into (i, j), i < j
    pairs: list[tuple[str, str]] = []
    for f in sorted(int(x) for x in flat):
        i = 0
        remaining = f
        row = n - 1
        while remaining >= row:
            remaining -= row
            i += 1
            row -= 1
        j = i + 1 + remaining
        pairs.append((ccs[i], ccs[j]))
    return pairs
