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
handful of RNG calls).  Step 3's Sec 2.4 bound is evaluated for all
(pair, relay) combinations at once as a NumPy broadcast over the round's
(endpoints × relays) delay matrix from the world's
:class:`~repro.geo.matrix.CityDelayMatrix`, and the resulting boolean mask
flows matrix-shaped through leg selection, overlay stitching and straight
into the round's columnar :class:`~repro.core.table.ObservationTable` — no
Python-level per-(pair, relay) loop survives anywhere between feasibility
and the stored result, and no per-pair observation objects are built
unless a caller materializes them.

Routing is precomputed rather than faulted in: before the first round the
campaign asks the world to build its :class:`~repro.routing.fabric
.RoutingFabric` for the full endpoint+relay destination set, so every BGP
path a round needs is a predecessor-array walk instead of a first-time
scalar table computation mid-measurement.
"""

from __future__ import annotations

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


@dataclass(frozen=True, slots=True)
class _RoundFeasibility:
    """Step 3's output: the Sec 2.4 bound for every (pair, relay) at once."""

    pair_keys: tuple[tuple[str, str], ...]
    e1_rows: np.ndarray  #: (pairs,) endpoint rows of each pair's first id
    e2_rows: np.ndarray  #: (pairs,) endpoint rows of each pair's second id
    mask: np.ndarray  #: (pairs × relays) feasibility mask


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

        # step 1: endpoints (one probe-id lookup table for the whole round)
        with self._sp_sampling:
            endpoints = self._eyeballs.sample_endpoints(rng)
        if absent:
            # churn filters *after* sampling: selector RNG consumption is
            # unchanged, only the dark probes drop out of the round
            endpoints = [p for p in endpoints if p.probe_id not in absent]
        by_id = {p.probe_id: p for p in endpoints}
        endpoint_ids = set(by_id)

        # every (i < j) endpoint pair, row-major; the pair keys are shared
        # by the two direct steps (they measure the same pair list)
        pair_idx = np.triu_indices(len(endpoints), 1)
        probe_ids = [p.probe_id for p in endpoints]
        direct_keys = [
            self._pair_key(probe_ids[i], probe_ids[j])
            for i, j in zip(pair_idx[0].tolist(), pair_idx[1].tolist())
        ]
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
            step2_direct, sent = self._measure_direct(
                direct_keys, rng, egrid, pair_idx
            )
        pings_sent += sent

        # step 3: relay sets + per-pair feasibility as one broadcast mask
        with self._sp_relays:
            relay_arrays = self._assemble_relays(
                round_index, rng, endpoint_ids, absent
            )
        with self._sp_feasibility:
            feasibility = self._feasible_relays(
                endpoints, relay_arrays, step2_direct
            )

        # step 4: synced re-measurement + legs + stitching
        with self._sp_direct:
            step4_direct, sent = self._measure_direct(
                direct_keys, rng, egrid, pair_idx
            )
        pings_sent += sent
        keep = np.fromiter(
            (pair in step4_direct for pair in feasibility.pair_keys),
            dtype=bool,
            count=len(feasibility.pair_keys),
        )
        needed = np.zeros((len(endpoints), relay_arrays.count), dtype=bool)
        if relay_arrays.count:
            kept_mask = feasibility.mask[keep]
            # accumulate per-endpoint rows with |= instead of
            # np.logical_or.at: the ufunc.at path is an order of magnitude
            # slower than ~2 vector ORs per pair
            e1_kept = feasibility.e1_rows[keep].tolist()
            e2_kept = feasibility.e2_rows[keep].tolist()
            for r1, r2, m in zip(e1_kept, e2_kept, kept_mask):
                needed[r1] |= m
                needed[r2] |= m
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
            leg_matrix, leg_medians, sent = self._measure_legs(
                endpoints, needed, relay_arrays, rng, rgrid
            )
        pings_sent += sent

        with self._sp_stitch:
            table = self._stitch_table(
                round_index,
                by_id,
                step4_direct,
                feasibility,
                relay_arrays,
                leg_matrix,
            )

        return RoundResult(
            round_index=round_index,
            timestamp_hours=round_index * cfg.round_interval_hours,
            endpoint_ids=tuple(sorted(endpoint_ids)),
            relay_indices_by_type=self._indices_by_type(relay_arrays),
            table=table,
            direct_medians=step4_direct,
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
        pair_keys: list[tuple[str, str]],
        rng: np.random.Generator,
        grid: PairGrid,
        pair_idx: tuple[np.ndarray, np.ndarray],
    ) -> tuple[dict[tuple[str, str], float], int]:
        """Median direct RTT per endpoint pair (ping direction randomised).

        Each leg's deterministic terms are gathered from the round grid by
        endpoint index; a flipped pair swaps its indices.
        """
        flips = rng.random(len(pair_keys)) < 0.5
        i_idx, j_idx = pair_idx
        medians, sent = self._charged_medians(
            grid, np.where(flips, j_idx, i_idx), np.where(flips, i_idx, j_idx), rng
        )
        return {
            key: med
            for key, med in zip(pair_keys, medians.tolist())
            if med == med
        }, sent

    @staticmethod
    def _pair_key(id1: str, id2: str) -> tuple[str, str]:
        return (id1, id2) if id1 <= id2 else (id2, id1)

    def _feasible_relays(
        self,
        endpoints: list[AtlasProbe],
        relays: _RelayArrays,
        direct: dict[tuple[str, str], float],
    ) -> _RoundFeasibility:
        """Sec 2.4 filter for the whole round: one (pairs × relays) broadcast.

        Builds the round's (endpoints × relays) one-way delay matrix once
        and evaluates ``2 * (D[e1, r] + D[r, e2]) <= RTT(e1, e2)`` for every
        pair and relay in a single :func:`feasibility_mask` call.
        """
        matrix = self._world.delay_matrix
        row_of = {p.probe_id: k for k, p in enumerate(endpoints)}
        pair_keys = tuple(direct)
        n = len(pair_keys)
        e1_rows = np.fromiter((row_of[id1] for id1, _ in pair_keys), np.intp, n)
        e2_rows = np.fromiter((row_of[id2] for _, id2 in pair_keys), np.intp, n)
        if not relays.count or not n:
            mask = np.zeros((n, relays.count), dtype=bool)
            return _RoundFeasibility(pair_keys, e1_rows, e2_rows, mask)
        endpoint_cities = matrix.indices(p.node.endpoint.city_key for p in endpoints)
        one_way = matrix.one_way_ms_matrix(endpoint_cities, relays.city_idx)
        direct_ms = np.fromiter((direct[pair] for pair in pair_keys), float, n)
        mask = feasibility_mask(one_way, e1_rows, e2_rows, direct_ms)
        return _RoundFeasibility(pair_keys, e1_rows, e2_rows, mask)

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
        endpoints: list[AtlasProbe],
        needed: np.ndarray,
        relays: _RelayArrays,
        rng: np.random.Generator,
        grid: PairGrid,
    ) -> tuple[np.ndarray, dict[tuple[str, int], float] | None, int]:
        """Median RTT for every needed (endpoint, relay) leg.

        Returns the (endpoints × relays) leg-median matrix (NaN where a leg
        was not measured or had too few replies), the same medians keyed by
        ``(probe_id, registry_idx)`` for the round record (None — not built
        at all — when the config says not to record them), and pings sent.
        The needed legs' terms are gathered straight off the round's
        (endpoints × relays) grid.
        """
        e_rows, cols = np.nonzero(needed)
        medians, sent = self._charged_medians(grid, e_rows, cols, rng)
        leg_matrix = np.full(needed.shape, np.nan)
        leg_matrix[e_rows, cols] = medians
        if not self._cfg.record_relay_medians:
            return leg_matrix, None, sent
        probe_ids = [p.probe_id for p in endpoints]
        registry_idx = relays.registry_idx.tolist()
        leg_medians = {
            (probe_ids[e], registry_idx[c]): med
            for e, c, med in zip(e_rows.tolist(), cols.tolist(), medians.tolist())
            if med == med
        }
        return leg_matrix, leg_medians, sent

    def _stitch_table(
        self,
        round_index: int,
        by_id: dict[str, AtlasProbe],
        direct: dict[tuple[str, str], float],
        feasibility: _RoundFeasibility,
        relays: _RelayArrays,
        leg_matrix: np.ndarray,
    ) -> ObservationTable:
        """Assemble the round's columnar observation table from its matrices.

        All per-(pair, relay) arithmetic — stitching, improvement, best-relay
        selection, same-country grouping — happens as broadcasts, and the
        results land directly in :class:`ObservationTable` columns.  No
        per-pair packaging loop: the only remaining Python iteration interns
        the round's endpoint identity strings — once per *endpoint*, fanned
        out to pairs by index gathers.
        """
        # per-endpoint identity codes, interned once; every per-pair column
        # below is a row gather out of these three small arrays.  The pool
        # interning order (by_id iteration) is unchanged, so table payloads
        # stay byte-identical to the per-pair generator path this replaces.
        pools = self._pools
        n_ep = len(by_id)
        row_of: dict[str, int] = {}
        ep_codes = np.empty((n_ep, 3), np.int32)
        ep_cmp = np.empty(n_ep, np.intp)
        for k, (pid, probe) in enumerate(by_id.items()):
            row_of[pid] = k
            ep_codes[k, 0] = pools.endpoint_ids.code(pid)
            ep_codes[k, 1] = pools.countries.code(probe.cc)
            ep_codes[k, 2] = pools.cities.code(probe.node.city_key)
            ep_cmp[k] = self._cc_cmp_code(probe.cc)

        pair_rows = {
            pair: k for k, pair in enumerate(feasibility.pair_keys) if pair in direct
        }
        num_types = len(RELAY_TYPE_ORDER)
        n_pairs = len(pair_rows)
        rows = np.fromiter(pair_rows.values(), np.intp, n_pairs)
        e1_rows = feasibility.e1_rows[rows]
        e2_rows = feasibility.e2_rows[rows]
        mask = feasibility.mask[rows]
        direct_ms = np.fromiter(
            (direct[pair] for pair in pair_rows), float, n_pairs
        )

        # (pairs × relays) stitched overlay RTTs and derived masks
        stitched = leg_matrix[e1_rows] + leg_matrix[e2_rows]
        usable = mask & ~np.isnan(stitched)
        improving = usable & (stitched < direct_ms[:, np.newaxis])
        # country comparison on the campaign's interned int codes:
        # elementwise U3 string equality over a (pairs × relays) broadcast
        # is far slower than int equality, and re-deriving codes per round
        # (np.unique over all the round's strings) costs more than the
        # comparison itself
        relay_cc = relays.cc_codes
        cc1 = ep_cmp[e1_rows]
        cc2 = ep_cmp[e2_rows]
        same_country = (relay_cc[np.newaxis, :] == cc1[:, np.newaxis]) | (
            relay_cc[np.newaxis, :] == cc2[:, np.newaxis]
        )
        diff_country = ~same_country

        # per relay-type reductions, each (pairs,).  _assemble_relays adds
        # relays in RELAY_TYPE_ORDER, so a type's columns are one contiguous
        # slice — every reduction below works on a view instead of paying a
        # full-width masked pass per type.
        type_bounds = np.searchsorted(
            relays.type_codes, np.arange(num_types + 1)
        ).tolist()
        feasible_counts = np.zeros((num_types, n_pairs), dtype=np.intp)
        best_cols = np.zeros((num_types, n_pairs), dtype=np.intp)
        best_vals = np.full((num_types, n_pairs), np.inf)
        flags = np.zeros((num_types, 4, n_pairs), dtype=bool)
        arange = np.arange(n_pairs)
        for code in range(num_types if relays.count else 0):
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
            candidates = np.where(usable_t, stitched[:, lo:hi], np.inf)
            cols = np.argmin(candidates, axis=1)
            best_cols[code] = cols + lo
            best_vals[code] = candidates[arange, cols]

        # improving (relay, gain) entries: np.nonzero walks row-major and
        # type columns are contiguous, so entries arrive grouped by
        # (pair, type) — exactly the CSR group order the table stores
        imp_pair, imp_col = np.nonzero(improving)
        imp_reg = relays.registry_idx[imp_col].astype(np.int32)
        imp_gain = direct_ms[imp_pair] - stitched[imp_pair, imp_col]
        imp_group = imp_pair * num_types + relays.type_codes[imp_col]
        group_counts = np.bincount(imp_group, minlength=n_pairs * num_types)

        # scatter the packed (step-2 ∩ step-4) rows into step-4 case order.
        # Both pair_rows and `direct` iterate subsequences of the round's
        # pair list, so the packed pairs appear in the same relative order
        # in both — the entry arrays above are already in case order and
        # only the per-case counts need scattering.
        n_obs = len(direct)
        if len(pair_rows) == n_obs:  # pair_rows ⊆ direct, so equal size ⇒ equal
            case_of_packed = np.arange(n_obs)
        else:
            packed = set(pair_rows)
            case_of_packed = np.fromiter(
                (j for j, pair in enumerate(direct) if pair in packed),
                np.intp,
                len(pair_rows),
            )

        usable_best = best_vals != np.inf
        best_relay_col = np.full((num_types, n_obs), -1, np.int32)
        if relays.count:
            best_relay_col[:, case_of_packed] = np.where(
                usable_best, relays.registry_idx[best_cols], -1
            )
        best_stitched_col = np.full((num_types, n_obs), np.nan)
        best_stitched_col[:, case_of_packed] = np.where(
            usable_best, best_vals, np.nan
        )
        feasible_col = np.zeros((num_types, n_obs), np.int32)
        feasible_col[:, case_of_packed] = feasible_counts
        flags_col = np.zeros((num_types, 4, n_obs), bool)
        flags_col[:, :, case_of_packed] = flags
        counts_col = np.zeros((n_obs, num_types), np.int64)
        counts_col[case_of_packed] = group_counts.reshape(n_pairs, num_types)
        indptr = np.zeros(n_obs * num_types + 1, np.int64)
        np.cumsum(counts_col.reshape(-1), out=indptr[1:])

        # endpoint identity columns: one row-index per pair side, then a
        # fused gather out of the per-endpoint code array built above
        d_e1 = np.fromiter((row_of[p1] for p1, _ in direct), np.intp, n_obs)
        d_e2 = np.fromiter((row_of[p2] for _, p2 in direct), np.intp, n_obs)
        e1_codes = ep_codes[d_e1]
        e2_codes = ep_codes[d_e2]

        return ObservationTable(
            pools,
            round_idx=np.full(n_obs, round_index, np.int32),
            e1_id=e1_codes[:, 0].copy(),
            e2_id=e2_codes[:, 0].copy(),
            e1_cc=e1_codes[:, 1].copy(),
            e2_cc=e2_codes[:, 1].copy(),
            e1_city=e1_codes[:, 2].copy(),
            e2_city=e2_codes[:, 2].copy(),
            direct_rtt_ms=np.fromiter(direct.values(), float, n_obs),
            best_relay=best_relay_col,
            best_stitched=best_stitched_col,
            feasible=feasible_col,
            country_flags=flags_col,
            imp_indptr=indptr,
            imp_relay=imp_reg,
            imp_gain=imp_gain,
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
