"""The measurement campaign: Sec 2.5's 4-step round workflow.

Each round, repeated every 12 simulated hours:

1. sample the round's endpoint set (one eyeball probe per country);
2. measure the direct RTT of every endpoint pair (median of 6 pings);
3. assemble the round's relay sets (COR / PLR / RAR_eye / RAR_other) and
   keep, per pair, only relays passing the speed-of-light bound computed
   from step 2's medians;
4. re-measure the direct paths (so direct and relayed numbers are in
   sync), measure every needed endpoint-relay leg, and stitch the overlay
   RTTs per pair.

The campaign accounts every ping against the Atlas emulator's round budget,
mirroring the paper's constraint of operating within platform limits.

The hot path is vectorized end to end.  Each round builds its
(endpoints × endpoints) and (endpoints × relays)
:class:`~repro.latency.model.PairGrid` once; every measurement step gathers
its legs' deterministic terms from a grid by index and samples them in one
:meth:`PingEngine.median_from_entries` call (per-packet terms drawn in a
handful of RNG calls).  The (pairs × relays) work runs in endpoint blocks:
``np.triu_indices`` lists endpoint i's pairs as one contiguous block of
rows, so a block's Sec 2.4 detours are ``D[i + 1:] + D[i]`` over the
round's (endpoints × relays) delay matrix from the world's
:class:`~repro.geo.matrix.CityDelayMatrix`
(:func:`~repro.core.feasibility.feasibility_mask`) and its stitched RTTs
are ``legs[i + 1:] + legs[i]`` — no pair-sized gather, and IEEE addition
commutes, so every sum has the bits of the pair-ordered one.  Leg selection
ORs each block into its endpoint's row and its partners' rows, under the
``campaign.measure_legs`` span.  Stitching fills a (cases × relays) matrix
whose unusable detours hold +inf, so a relay type's best relay is a plain
argmin and a relay improves a case when its sum is below the direct
median; the reductions land straight in the round's columnar
:class:`~repro.core.table.ObservationTable`.  That float matrix is the
round's one large temporary.  (Keeping it in one buffer across rounds
saved page faults but no measurable wall time, and held it through the
rest of the run.)  No Python-level per-(pair, relay) loop runs anywhere
between feasibility and the stored result, and no per-pair object is
built at all.

Routing is precomputed rather than faulted in: before the first round the
campaign asks the world to build its :class:`~repro.routing.fabric
.RoutingFabric` for the full endpoint+relay destination set, so every BGP
path a round needs is a predecessor-array walk instead of a first-time
scalar table computation mid-measurement.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.colo import ColoRelayPipeline
from repro.core.config import CampaignConfig
from repro.core.eyeballs import EyeballSelector
from repro.core.feasibility import feasibility_mask
from repro.core.relays import AtlasRelaySelector, PlanetLabRelaySelector
from repro.core.results import (
    CampaignResult,
    MedianColumns,
    RelayRegistry,
    RoundResult,
)
from repro.core.table import ObservationTable, TablePools
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError
from repro.latency.model import Endpoint, PairGrid
from repro.measurement.atlas import AtlasProbe
from repro.timeline.schedule import compile_timeline
from repro.world import World


@dataclass(frozen=True, slots=True)
class _RelayArrays:
    """The round's relay sample unpacked into parallel NumPy arrays."""

    items: tuple[tuple[int, Endpoint], ...]
    registry_idx: np.ndarray  #: (relays,) registry indices
    type_codes: np.ndarray  #: (relays,) positions into RELAY_TYPE_ORDER
    ccs: np.ndarray  #: (relays,) country codes
    cc_codes: np.ndarray  #: (relays,) campaign-interned ints for the ccs
    city_idx: np.ndarray  #: (relays,) CityDelayMatrix indices

    @property
    def count(self) -> int:
        return len(self.items)


class MeasurementCampaign:
    """Runs the paper's measurement methodology against a world."""

    def __init__(
        self,
        world: World,
        config: CampaignConfig | None = None,
    ) -> None:
        self._world = world
        self._cfg = config or CampaignConfig()
        self._eyeballs = EyeballSelector(world, self._cfg)
        #: The campaign's compiled fault timeline (None when the config
        #: carries no schedule).  Compiled from dedicated ``timeline.*``
        #: seed streams at construction, so cohort resolution never
        #: perturbs the round streams — an event-free schedule leaves
        #: every measurement byte identical to the static path.  Sampled
        #: link pairs draw from the endpoint-covered countries so every
        #: degradation window hits lanes the campaign measures.
        self.timeline = (
            compile_timeline(
                world,
                self._cfg.timeline,
                self._cfg.num_rounds,
                eyeball_countries=self._eyeballs.covered_countries(),
            )
            if self._cfg.timeline is not None
            else None
        )
        self._colo = ColoRelayPipeline(world, self._cfg)
        self._atlas_relays = AtlasRelaySelector(world, self._cfg)
        self._plr = PlanetLabRelaySelector(world, self._cfg)
        self._registry = RelayRegistry()
        # string pools shared by every round's observation table, so the
        # campaign-level concatenation never has to re-code columns
        self._pools = TablePools.fresh()
        # campaign-private country interner for the same-country broadcast:
        # equality on these ints replaces a per-round np.unique over U3
        # strings.  Never serialized, so assignment order is free.
        self._cc_cmp: dict[str, int] = {}
        # pre-bound observability handles: null singletons unless metrics
        # or tracing were enabled before construction, so the disabled
        # path costs one no-op context manager per phase and nothing else
        self._sp_round = obs.span("campaign.round")
        self._sp_sampling = obs.span("campaign.sampling")
        self._sp_pair_grid = obs.span("campaign.pair_grid")
        self._sp_timeline = obs.span("campaign.timeline")
        self._sp_direct = obs.span("campaign.measure_direct")
        self._sp_relays = obs.span("campaign.assemble_relays")
        self._sp_feasibility = obs.span("campaign.feasibility")
        self._sp_legs = obs.span("campaign.measure_legs")
        self._sp_stitch = obs.span("campaign.stitch")
        self._c_rounds = obs.counter("campaign.rounds")
        self._c_pairs = obs.counter("campaign.pairs")
        self._c_pings = obs.counter("campaign.pings")

    def _cc_cmp_code(self, cc: str) -> int:
        code = self._cc_cmp.get(cc)
        if code is None:
            code = len(self._cc_cmp)
            self._cc_cmp[cc] = code
        return code

    @property
    def config(self) -> CampaignConfig:
        """The campaign configuration."""
        return self._cfg

    @property
    def world(self) -> World:
        """The world being measured."""
        return self._world

    @property
    def colo_pipeline(self) -> ColoRelayPipeline:
        """The Sec 2.2 filter pipeline (shared with analyses)."""
        return self._colo

    @property
    def eyeball_selector(self) -> EyeballSelector:
        """The Sec 2.1 endpoint selector (shared with analyses)."""
        return self._eyeballs

    # ------------------------------------------------------------------- run

    def run(
        self, progress: Callable[[int, RoundResult], None] | None = None
    ) -> CampaignResult:
        """Run all configured rounds and return the collected results.

        ``progress``, if given, is called after each round with
        ``(round_index, round_result)``.
        """
        self._world.ensure_routing_fabric()
        rounds = []
        for round_index in range(self._cfg.num_rounds):
            with self._sp_round:
                result = self.run_round(round_index)
            self._c_rounds.inc()
            self._c_pairs.inc(result.num_pairs())
            self._c_pings.inc(result.pings_sent)
            rounds.append(result)
            if progress is not None:
                progress(round_index, result)
        return CampaignResult(
            rounds=rounds,
            registry=self._registry,
            verified_eyeball_tuples=len(self._eyeballs.verified_tuples()),
            colo_filter_funnel=tuple(self._colo.report().funnel()),
        )

    # ----------------------------------------------------------------- round

    def run_round(self, round_index: int) -> RoundResult:
        """Execute one 4-step measurement round."""
        world = self._world
        cfg = self._cfg
        rng = world.seeds.rng(f"campaign.round.{round_index}")
        world.atlas.begin_round()
        pings_sent = 0
        # the round's fault effects; every application below is guarded on
        # the effect being non-empty, so an event-free timeline (or none)
        # executes exactly the static code path on the same RNG sequence
        effects = (
            self.timeline.effects(round_index) if self.timeline is not None else None
        )
        absent = effects.absent_ids if effects is not None else frozenset()

        # step 1: endpoints
        with self._sp_sampling:
            endpoints = self._eyeballs.sample_endpoints(rng)
        if absent:
            # churn filters *after* sampling: selector RNG consumption is
            # unchanged, only the dark probes drop out of the round
            endpoints = [p for p in endpoints if p.probe_id not in absent]
        probe_ids = [p.probe_id for p in endpoints]
        # the endpoints' codes in the campaign's id pool, interned once in
        # sample order: medians and table id columns gather from them
        ep_ids = self._pools.endpoint_ids.codes(probe_ids)

        # every (i < j) endpoint pair, row-major, shared by the two direct
        # steps (they measure the same pair list); ``pairs`` holds each
        # pair's two rows ordered as its probe ids sort, the smaller first
        i_idx, j_idx = pair_idx = np.triu_indices(len(endpoints), 1)
        rank = np.argsort(sorted(range(len(endpoints)), key=probe_ids.__getitem__))
        swap = rank[i_idx] > rank[j_idx]
        pairs = (np.where(swap, j_idx, i_idx), np.where(swap, i_idx, j_idx))
        # the round's deterministic pair terms as one (endpoints × endpoints)
        # grid: both direct steps gather their legs' base/loss by index
        endpoint_eps = [p.node.endpoint for p in endpoints]
        endpoint_ccs = (
            np.array([p.cc for p in endpoints], dtype="U3")
            if effects is not None and effects.links
            else None
        )
        with self._sp_pair_grid:
            egrid = self._world.latency.pair_grid(endpoint_eps, endpoint_eps)
        if endpoint_ccs is not None:
            with self._sp_timeline:
                egrid = self.timeline.apply_link_overrides(
                    egrid, endpoint_ccs, endpoint_ccs, round_index
                )

        # step 2: direct medians (drive feasibility)
        with self._sp_direct:
            step2, sent = self._measure_direct(rng, egrid, pair_idx)
        pings_sent += sent

        # step 3: relay sets + per-pair feasibility as one broadcast mask
        with self._sp_relays:
            relay_arrays = self._assemble_relays(
                round_index, rng, set(probe_ids), absent
            )
        with self._sp_feasibility:
            feasible = self._feasible_relays(endpoints, relay_arrays, step2)

        # step 4: synced re-measurement + legs + stitching
        with self._sp_direct:
            step4, sent = self._measure_direct(rng, egrid, pair_idx)
        pings_sent += sent
        with self._sp_pair_grid:
            rgrid = self._world.latency.pair_grid(
                endpoint_eps, [ep for _, ep in relay_arrays.items]
            )
        if endpoint_ccs is not None:
            with self._sp_timeline:
                rgrid = self.timeline.apply_link_overrides(
                    rgrid, endpoint_ccs, relay_arrays.ccs, round_index
                )
        with self._sp_legs:
            legs, leg_medians, sent = self._measure_legs(
                ep_ids,
                _needed_legs(feasible, step4, len(endpoints)),
                relay_arrays,
                rng,
                rgrid,
            )
        pings_sent += sent

        with self._sp_stitch:
            table = self._stitch_table(
                round_index,
                endpoints,
                ep_ids,
                pairs,
                step4,
                feasible,
                relay_arrays,
                legs,
            )

        return RoundResult(
            round_index=round_index,
            timestamp_hours=round_index * cfg.round_interval_hours,
            endpoint_ids=tuple(sorted(probe_ids)),
            relay_indices_by_type=self._indices_by_type(relay_arrays),
            table=table,
            # step 4's valid pairs are the table's cases, in case order
            direct_medians=MedianColumns(table.e1_id, table.e2_id, table.direct_rtt_ms),
            relay_medians=leg_medians,
            pings_sent=pings_sent,
        )

    # --------------------------------------------------------------- helpers

    def _median_entries(
        self,
        grid: PairGrid,
        src: np.ndarray,
        dst: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Batch medians for the ``grid[src, dst]`` legs (NaN = invalid)."""
        cfg = self._cfg
        return self._world.ping_engine.median_from_entries(
            grid.base[src, dst],
            grid.loss[src, dst],
            rng,
            count=cfg.pings_per_pair,
            min_valid=cfg.min_valid_rtts,
        )

    def _charged_medians(
        self,
        grid: PairGrid,
        src: np.ndarray,
        dst: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, int]:
        """:meth:`_median_entries` charged to the Atlas round budget."""
        medians = self._median_entries(grid, src, dst, rng)
        sent = len(src) * self._cfg.pings_per_pair
        self._world.atlas.charge(sent)
        return medians, sent

    def _measure_direct(
        self,
        rng: np.random.Generator,
        grid: PairGrid,
        pair_idx: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, int]:
        """Median direct RTT per endpoint pair (ping direction randomised).

        Each leg's deterministic terms are gathered from the round grid by
        endpoint index; a flipped pair swaps its indices.  NaN marks a pair
        with too few replies.
        """
        i_idx, j_idx = pair_idx
        flips = rng.random(len(i_idx)) < 0.5
        return self._charged_medians(
            grid, np.where(flips, j_idx, i_idx), np.where(flips, i_idx, j_idx), rng
        )

    def _feasible_relays(
        self,
        endpoints: list[AtlasProbe],
        relays: _RelayArrays,
        direct_ms: np.ndarray,
    ) -> np.ndarray:
        """Sec 2.4 filter for the whole round as a (pairs × relays) mask.

        Builds the round's (endpoints × relays) one-way delay matrix once
        and evaluates ``2 * (D[e1, r] + D[r, e2]) <= RTT(e1, e2)`` for every
        pair and relay in a single :func:`feasibility_mask` call.  A pair
        whose step-2 median is NaN (invalid) finds no relay feasible.
        """
        if not relays.count or not len(direct_ms):
            return np.zeros((len(direct_ms), relays.count), dtype=bool)
        matrix = self._world.delay_matrix
        endpoint_cities = matrix.indices(p.node.endpoint.city_key for p in endpoints)
        one_way = matrix.one_way_ms_matrix(endpoint_cities, relays.city_idx)
        return feasibility_mask(one_way, direct_ms)

    def _assemble_relays(
        self,
        round_index: int,
        rng: np.random.Generator,
        endpoint_ids: set[str],
        absent: frozenset[str] = frozenset(),
    ) -> _RelayArrays:
        """The round's relay sample, registered in the campaign registry.

        ``absent`` is the timeline's dark-node set for the round: sampled
        relays whose node id is in it drop out *after* selection (the
        selectors' RNG consumption is unchanged) and are never pinged nor
        registered this round.
        """
        relays: list[tuple[int, Endpoint]] = []
        type_codes: list[int] = []
        ccs: list[str] = []
        cc_codes: list[int] = []
        mix = {RelayType[name] for name in self._cfg.relay_mix}

        def _add(idx: int, node, relay_type: RelayType) -> None:
            relays.append((idx, node.endpoint))
            type_codes.append(RELAY_TYPE_ORDER.index(relay_type))
            ccs.append(node.cc)
            cc_codes.append(self._cc_cmp_code(node.cc))

        for colo in self._colo.sample_relays(rng) if RelayType.COR in mix else ():
            node = colo.node
            if node.node_id in absent:
                continue
            idx = self._registry.register(
                node.node_id,
                RelayType.COR,
                node.asn,
                node.cc,
                node.city_key,
                facility_id=colo.facility_id,
            )
            _add(idx, node, RelayType.COR)

        for pl_node in (
            self._plr.sample(round_index, rng) if RelayType.PLR in mix else ()
        ):
            node = pl_node.node
            if node.node_id in absent:
                continue
            idx = self._registry.register(
                node.node_id,
                RelayType.PLR,
                node.asn,
                node.cc,
                node.city_key,
                site_id=pl_node.site_id,
            )
            _add(idx, node, RelayType.PLR)

        for probe in (
            self._atlas_relays.sample_other(rng, endpoint_ids)
            if RelayType.RAR_OTHER in mix
            else ()
        ):
            node = probe.node
            if node.node_id in absent:
                continue
            idx = self._registry.register(
                node.node_id, RelayType.RAR_OTHER, node.asn, node.cc, node.city_key
            )
            _add(idx, node, RelayType.RAR_OTHER)

        for probe in (
            self._atlas_relays.sample_eye(rng, endpoint_ids)
            if RelayType.RAR_EYE in mix
            else ()
        ):
            node = probe.node
            if node.node_id in absent:
                continue
            idx = self._registry.register(
                node.node_id, RelayType.RAR_EYE, node.asn, node.cc, node.city_key
            )
            _add(idx, node, RelayType.RAR_EYE)

        matrix = self._world.delay_matrix
        n = len(relays)
        codes = np.asarray(type_codes, dtype=np.intp)
        # the stitching reductions slice type columns contiguously and group
        # improving entries by a (pair, type) key — both require the sample
        # to stay in RELAY_TYPE_ORDER
        if codes.size and np.any(np.diff(codes) < 0):
            raise AnalysisError("relay sample not grouped in RELAY_TYPE_ORDER")
        return _RelayArrays(
            items=tuple(relays),
            registry_idx=np.fromiter((idx for idx, _ in relays), np.intp, n),
            type_codes=codes,
            ccs=np.array(ccs, dtype="U3"),
            cc_codes=np.asarray(cc_codes, dtype=np.intp),
            city_idx=matrix.indices(ep.city_key for _, ep in relays),
        )

    def _measure_legs(
        self,
        ep_ids: np.ndarray,
        needed: np.ndarray,
        relays: _RelayArrays,
        rng: np.random.Generator,
        grid: PairGrid,
    ) -> tuple[np.ndarray, MedianColumns | None, int]:
        """Median RTT for every needed (endpoint, relay) leg.

        Returns the (endpoints × relays) leg-median matrix (+inf where a
        leg was not measured or had too few replies, so a stitched sum
        over it is +inf exactly when the detour is unusable), the valid
        medians as (endpoint code, registry index, ms) columns for the
        round record (None — not built at all — when the config says not
        to record them), and pings sent.  The needed legs' terms are
        gathered straight off the round's (endpoints × relays) grid.
        """
        e_rows, cols = np.nonzero(needed)
        medians, sent = self._charged_medians(grid, e_rows, cols, rng)
        valid = ~np.isnan(medians)
        e_rows, cols, medians = e_rows[valid], cols[valid], medians[valid]
        legs = np.full(needed.shape, np.inf)
        legs[e_rows, cols] = medians
        if not self._cfg.record_relay_medians:
            return legs, None, sent
        leg_medians = MedianColumns(
            ep_ids[e_rows],
            relays.registry_idx[cols].astype(np.int32),
            medians,
        )
        return legs, leg_medians, sent

    def _stitch_table(
        self,
        round_index: int,
        endpoints: list[AtlasProbe],
        ep_ids: np.ndarray,
        pairs: tuple[np.ndarray, np.ndarray],
        direct: np.ndarray,
        feasible: np.ndarray,
        relays: _RelayArrays,
        legs: np.ndarray,
    ) -> ObservationTable:
        """Assemble the round's columnar observation table from its matrices.

        ``direct`` holds step 4's median per round pair (NaN = invalid); a
        pair with a valid one is a case, stitched over the relays step 3
        found ``feasible`` for it (see :func:`_stitch_columns`).  The only
        Python iteration interns the round's endpoint countries and cities
        — once per *endpoint*, fanned out to cases by index gathers.
        """
        pools = self._pools
        ep_cc = pools.countries.codes(p.cc for p in endpoints)
        ep_city = pools.cities.codes(p.node.city_key for p in endpoints)
        ep_cmp = np.fromiter(
            (self._cc_cmp_code(p.cc) for p in endpoints), np.intp, len(endpoints)
        )
        # one row per case, in pair order
        case_rows = np.flatnonzero(~np.isnan(direct))
        e1_rows = pairs[0][case_rows]
        e2_rows = pairs[1][case_rows]
        n_obs = len(case_rows)
        columns = _stitch_columns(
            case_rows,
            direct,
            feasible,
            legs,
            ep_cmp,
            relays,
            np.empty((n_obs, relays.count)),
        )
        # endpoint identity columns: a gather per pair side out of the
        # per-endpoint codes
        return ObservationTable(
            pools,
            round_idx=np.full(n_obs, round_index, np.int32),
            e1_id=ep_ids[e1_rows],
            e2_id=ep_ids[e2_rows],
            e1_cc=ep_cc[e1_rows],
            e2_cc=ep_cc[e2_rows],
            e1_city=ep_city[e1_rows],
            e2_city=ep_city[e2_rows],
            **columns,
        )

    def _indices_by_type(self, relays: _RelayArrays) -> dict[RelayType, tuple[int, ...]]:
        return {
            t: tuple(
                int(i)
                for i in relays.registry_idx[relays.type_codes == code]
            )
            for code, t in enumerate(RELAY_TYPE_ORDER)
        }

    # ------------------------------------------------------------- symmetry

    def measure_direction_symmetry(
        self, round_index: int = 0
    ) -> list[tuple[float, float]]:
        """Measure every endpoint pair in *both* directions once.

        Supports the Sec 2.5 sanity check that ping direction barely
        matters (~80% of pairs differ by <5%).  Returns ``(rtt_ab,
        rtt_ba)`` tuples for pairs where both directions produced a valid
        median.
        """
        world = self._world
        rng = world.seeds.rng(f"campaign.symmetry.{round_index}")
        endpoints = [p.node.endpoint for p in self._eyeballs.sample_endpoints(rng)]
        grid = world.latency.pair_grid(endpoints, endpoints)
        i_idx, j_idx = np.triu_indices(len(endpoints), 1)
        # legs interleaved as (i, j), (j, i) per pair; a side-effect-free
        # sanity sweep, so not charged to the round budget
        medians = self._median_entries(
            grid,
            np.column_stack((i_idx, j_idx)).reshape(-1),
            np.column_stack((j_idx, i_idx)).reshape(-1),
            rng,
        )
        return [
            (float(fwd), float(rev))
            for fwd, rev in zip(medians[0::2], medians[1::2])
            if fwd == fwd and rev == rev
        ]


# ------------------------------------------------ pair blocks (see module doc)


def _block_starts(num_endpoints: int) -> list[int]:
    """Row offsets of the endpoints' pair blocks: endpoint i's pairs are
    rows ``starts[i]:starts[i + 1]`` of the round's pair order."""
    return [0, *itertools.accumulate(range(num_endpoints - 1, -1, -1))]


def _needed_legs(feasible: np.ndarray, direct: np.ndarray, num_endpoints: int) -> np.ndarray:
    """The (endpoints × relays) legs step 4 measures.

    A leg is needed when a case (a pair with a valid step-4 median in
    ``direct``) finds the relay feasible: both of the pair's endpoints
    get it.  Each endpoint block ORs into its own row and, row for row,
    into the rows of its partners.
    """
    cases = ~np.isnan(direct)
    if not cases.all():
        feasible = feasible & cases[:, np.newaxis]
    starts = _block_starts(num_endpoints)
    needed = np.zeros((num_endpoints, feasible.shape[1]), dtype=bool)
    for i in range(num_endpoints - 1):
        block = feasible[starts[i] : starts[i + 1]]
        needed[i] |= block.any(axis=0)
        needed[i + 1 :] |= block
    return needed


def _stitch_columns(
    case_rows: np.ndarray,
    direct: np.ndarray,
    feasible: np.ndarray,
    legs: np.ndarray,
    endpoint_cc: np.ndarray,
    relays: _RelayArrays,
    stitched: np.ndarray,
) -> dict[str, np.ndarray]:
    """The round table's measurement columns, one row per case.

    ``case_rows`` are the pairs with a valid step-4 median in ``direct``,
    ``legs`` the (endpoints × relays) leg medians with +inf for a missing
    leg, ``endpoint_cc`` the endpoints' campaign-interned country codes,
    and ``stitched`` a (cases × relays) array the overlay RTTs are built
    in (its contents are overwritten).

    Each endpoint block's cases are stitched in place: +inf first, then
    ``legs[j] + legs[i]`` on the relays the pair found feasible.  An
    unusable detour therefore holds +inf, a relay type's best relay is a
    plain argmin over its column slice, and a relay improves a case when
    its stitched RTT is below the (finite) direct one.
    """
    n_obs, num_relays = stitched.shape
    num_types = len(RELAY_TYPE_ORDER)
    direct_ms = direct[case_rows]
    starts = _block_starts(len(endpoint_cc))
    if n_obs == len(direct):  # every pair is a case
        bounds, mask = starts, feasible
    else:
        bounds = np.searchsorted(case_rows, starts).tolist()
        mask = feasible[case_rows]
    # country comparison on the campaign's interned int codes: a relay is
    # same-country for a pair when it shares either endpoint's country
    same_ep = endpoint_cc[:, np.newaxis] == relays.cc_codes[np.newaxis, :]
    same_country = np.empty((n_obs, num_relays), dtype=bool)
    for i in range(len(endpoint_cc) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        if hi - lo == starts[i + 1] - starts[i]:
            partners: slice | np.ndarray = slice(i + 1, None)
        else:  # the block's cases only: pair row p is partner p - starts[i] + i + 1
            partners = case_rows[lo:hi] - (starts[i] - i - 1)
        block = stitched[lo:hi]
        block.fill(np.inf)
        np.add(legs[partners], legs[i], out=block, where=mask[lo:hi])
        np.logical_or(same_ep[partners], same_ep[i], out=same_country[lo:hi])
    usable = stitched < np.inf
    improving = stitched < direct_ms[:, np.newaxis]
    diff_country = ~same_country

    # per relay-type reductions, each (cases,).  _assemble_relays adds
    # relays in RELAY_TYPE_ORDER, so a type's columns are one contiguous
    # slice — every reduction below works on a view instead of paying a
    # full-width masked pass per type.
    type_bounds = np.searchsorted(relays.type_codes, np.arange(num_types + 1)).tolist()
    feasible_counts = np.zeros((num_types, n_obs), dtype=np.int32)
    best_cols = np.zeros((num_types, n_obs), dtype=np.intp)
    best_vals = np.full((num_types, n_obs), np.inf)
    flags = np.zeros((num_types, 4, n_obs), dtype=bool)
    arange = np.arange(n_obs)
    for code in range(num_types):
        lo, hi = type_bounds[code], type_bounds[code + 1]
        if lo == hi:
            continue  # no relays of the type: zeros / inf defaults hold
        usable_t = usable[:, lo:hi]
        improving_t = improving[:, lo:hi]
        same_t = same_country[:, lo:hi]
        diff_t = diff_country[:, lo:hi]
        feasible_counts[code] = np.count_nonzero(mask[:, lo:hi], axis=1)
        # (usable_same, improving_same, usable_diff, improving_diff)
        flags[code, 0] = np.any(usable_t & same_t, axis=1)
        flags[code, 1] = np.any(improving_t & same_t, axis=1)
        flags[code, 2] = np.any(usable_t & diff_t, axis=1)
        flags[code, 3] = np.any(improving_t & diff_t, axis=1)
        cols = np.argmin(stitched[:, lo:hi], axis=1)
        best_cols[code] = cols + lo
        best_vals[code] = stitched[arange, best_cols[code]]

    # improving (relay, gain) entries in row-major order: type columns are
    # contiguous, so entries arrive grouped by (case, type) — exactly the
    # CSR group order the table stores
    flat = np.flatnonzero(improving)
    imp_pair, imp_col = np.divmod(flat, num_relays)
    imp_gain = direct_ms[imp_pair] - stitched.take(flat)
    imp_group = imp_pair * num_types + relays.type_codes[imp_col]
    indptr = np.zeros(n_obs * num_types + 1, np.int64)
    np.cumsum(np.bincount(imp_group, minlength=n_obs * num_types), out=indptr[1:])

    usable_best = best_vals != np.inf
    best_relay = np.full((num_types, n_obs), -1, np.int32)
    best_relay[usable_best] = relays.registry_idx[best_cols[usable_best]]
    return {
        "direct_rtt_ms": direct_ms,
        "best_relay": best_relay,
        "best_stitched": np.where(usable_best, best_vals, np.nan),
        "feasible": feasible_counts,
        "country_flags": flags,
        "imp_indptr": indptr,
        "imp_relay": relays.registry_idx[imp_col].astype(np.int32),
        "imp_gain": imp_gain,
    }
