"""Cross-cutting property-based tests on core invariants.

These complement the per-module suites with randomized checks of the
relationships the whole methodology rests on: geometry bounds latency,
stitching can only violate *routed* triangle inequalities, funnels only
shrink, the feasibility bound is sound by construction, the shared
lane-ranking kernel ranks exactly as the two-key lexsort it replaced,
the routing fabric's bulk kernels (valley-free tables, hop tables, grid
walk) agree with the scalar references they replace, the stability CVs
over median columns equal the dict-keyed CVs they replaced, the
campaign round's endpoint-block kernels (feasibility, leg selection,
stitching) equal the pair gathers they replaced, the batched skew
hash equals the per-pair one, and a result file gives back every table
it stored.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.stability import series_cvs
from repro.core import campaign as campaign_mod
from repro.core.feasibility import feasibility_mask, is_feasible
from repro.core.oracle import rank_lane_entries
from repro.core.stitching import improvement_ms, is_tiv, stitch_rtt
from repro.core.io import load_result, save_result
from repro.core.results import CampaignResult, MedianColumns, RelayRegistry, RoundResult
from repro.core.table import TablePools
from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import AnalysisError, RoutingError
from repro.latency import model as latency_model
from repro.geo.cities import all_cities
from repro.geo.distance import min_rtt_ms, propagation_delay_ms
from repro.latency.model import Endpoint, LatencyModel
from repro.net.ipv4 import IPv4Prefix
from repro.routing.bgp import BGPRouting
from repro.routing.fabric import RoutingFabric
from repro.routing.geopath import GeoPathWalker
from repro.topology.graph import ASGraph
from repro.topology.types import ASType, AutonomousSystem
from table_builder import Case, build_table

_CITIES = all_cities()
_city_index = st.integers(0, len(_CITIES) - 1)
_rtt = st.floats(0.5, 2000.0)


class TestGeometryProperties:
    @given(_city_index, _city_index, _city_index)
    def test_feasibility_bound_is_geometric_triangle(self, i, j, k):
        """A relay exactly on the segment's cities is feasible whenever the
        direct RTT budget covers the idealised detour."""
        e1 = Endpoint("e1", 1, _CITIES[i].key, 0.0)
        e2 = Endpoint("e2", 1, _CITIES[j].key, 0.0)
        relay = Endpoint("r", 1, _CITIES[k].key, 0.0)
        detour = propagation_delay_ms(
            _CITIES[i].location, _CITIES[k].location
        ) + propagation_delay_ms(_CITIES[k].location, _CITIES[j].location)
        assert is_feasible(relay, e1, e2, 2.0 * detour + 1e-9)
        if detour > 1e-9:
            assert not is_feasible(relay, e1, e2, 2.0 * detour * 0.99)

    @given(_city_index, _city_index)
    def test_min_rtt_symmetric(self, i, j):
        a, b = _CITIES[i].location, _CITIES[j].location
        assert min_rtt_ms(a, b) == pytest.approx(min_rtt_ms(b, a))

    @given(_city_index, _city_index, _city_index)
    def test_ideal_world_has_no_tivs(self, i, j, k):
        """In the idealised speed-of-light world, stitching two geodesic
        legs can never beat the direct geodesic — TIVs exist only because
        routed paths are inflated."""
        direct = min_rtt_ms(_CITIES[i].location, _CITIES[j].location)
        leg1 = min_rtt_ms(_CITIES[i].location, _CITIES[k].location)
        leg2 = min_rtt_ms(_CITIES[k].location, _CITIES[j].location)
        if leg1 > 0 and leg2 > 0:
            assert not is_tiv(direct, stitch_rtt(leg1, leg2) - 1e-9)


class TestStitchingProperties:
    @given(_rtt, _rtt)
    def test_improvement_antisymmetry(self, direct, stitched):
        assert improvement_ms(direct, stitched) == pytest.approx(
            -improvement_ms(stitched, direct)
        )

    @given(_rtt, _rtt, _rtt)
    def test_stitch_monotone(self, a, b, c):
        assert stitch_rtt(a + c, b) > stitch_rtt(a, b)

    @given(_rtt, _rtt)
    def test_tiv_iff_positive_improvement(self, direct, stitched):
        assert is_tiv(direct, stitched) == (improvement_ms(direct, stitched) > 0)


class TestModelProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_base_rtt_respects_light_speed(self, small_world, pick):
        """No pair of real nodes can beat the idealised geodesic bound."""
        probes = small_world.atlas.all_probes()
        i = pick % len(probes)
        j = (pick * 7 + 13) % len(probes)
        if i == j:
            return
        e1, e2 = probes[i].node.endpoint, probes[j].node.endpoint
        rtt = small_world.latency.base_rtt_ms(e1, e2)
        if rtt is None:
            return
        from repro.geo.cities import city as city_of

        bound = min_rtt_ms(city_of(e1.city_key).location, city_of(e2.city_key).location)
        max_skew = small_world.latency.config.asymmetry_frac
        assert rtt >= bound * (1.0 - max_skew) - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1_000))
    def test_sampled_rtts_exceed_zero(self, small_world, pick):
        probes = small_world.atlas.all_probes()
        e1 = probes[pick % len(probes)].node.endpoint
        e2 = probes[(pick + 41) % len(probes)].node.endpoint
        if e1.node_id == e2.node_id:
            return
        rng = np.random.default_rng(pick)
        sample = small_world.latency.sample_rtt_ms(e1, e2, rng)
        if sample is not None:
            assert sample > 0


class TestCampaignInvariants:
    def test_funnel_monotone(self, small_campaign_result):
        funnel = small_campaign_result.colo_filter_funnel
        assert all(a >= b for a, b in zip(funnel, funnel[1:]))

    def test_best_relay_is_min_over_improving(self, small_campaign_result):
        table = small_campaign_result.table
        for code in range(len(RELAY_TYPE_ORDER)):
            cases, _, gains = table.type_entries(code)
            # the best relay's stitched RTT is no worse than any improving one's
            assert (table.best_relay[code, cases] >= 0).all()
            stitched = table.direct_rtt_ms[cases] - gains
            assert (table.best_stitched[code, cases] <= stitched + 1e-9).all()

    def test_group_flags_consistent_with_improving(self, small_campaign_result):
        table = small_campaign_result.table
        registry = small_campaign_result.registry
        # -1 for a relay country no endpoint has: never "same country"
        relay_cc = table.country_codes_for(record.cc for record in registry)
        for code in range(len(RELAY_TYPE_ORDER)):
            usable_same, improving_same, usable_diff, improving_diff = (
                table.country_flags[code]
            )
            # an improving group must also be usable
            assert not (improving_same & ~usable_same).any()
            assert not (improving_diff & ~usable_diff).any()
            # any improving relay implies its group's improving flag
            cases, relays, _ = table.type_entries(code)
            cc = relay_cc[relays]
            same = (cc == table.e1_cc[cases]) | (cc == table.e2_cc[cases])
            assert improving_same[cases[same]].all()
            assert improving_diff[cases[~same]].all()


def _rank_lexsort(lanes, relays, counts=None, gains=None):
    """The lexsort ranking :func:`rank_lane_entries` replaced, kept as its
    reference: group on ``(lane, relay)``, rank on ``(lane, -count, relay)``."""
    order = np.lexsort((relays, lanes))  # stable: preserves row order
    lane_s, relay_s = lanes[order], relays[order]
    boundary = np.flatnonzero((np.diff(lane_s) != 0) | (np.diff(relay_s) != 0))
    starts = np.concatenate(([0], boundary + 1))
    uniq_lane = lane_s[starts]
    uniq_relay = relay_s[starts]
    if counts is None:
        total_count = np.diff(np.append(starts, lane_s.size)).astype(np.int64)
    else:
        total_count = np.add.reduceat(counts[order], starts)
    rank = np.lexsort((uniq_relay, -total_count, uniq_lane))
    ranked_lane = uniq_lane[rank]
    lane_starts = np.flatnonzero(np.diff(ranked_lane, prepend=-1))
    out = (
        ranked_lane[lane_starts],
        np.append(lane_starts, ranked_lane.size).astype(np.int64),
        uniq_relay[rank].astype(np.int32),
        total_count[rank].astype(np.int32),
    )
    if gains is None:
        return out
    return out + (np.add.reduceat(gains[order], starts)[rank],)


@st.composite
def _lane_rows(draw):
    """Rows over a few lane keys up to 2**62 and relay ids up to 2**31 - 1,
    with and without per-row counts and gains."""
    n = draw(st.integers(1, 80))
    lane_pool = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=6))
    relay_pool = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
    rows = st.lists(st.sampled_from(lane_pool), min_size=n, max_size=n)
    lanes = np.asarray(draw(rows), np.int64)
    relays = np.asarray(
        draw(st.lists(st.sampled_from(relay_pool), min_size=n, max_size=n)), np.int32
    )
    counts = draw(st.none() | st.lists(st.integers(1, 1_000), min_size=n, max_size=n))
    gains = draw(
        st.none() | st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)
    )
    return (
        lanes,
        relays,
        None if counts is None else np.asarray(counts, np.int32),
        None if gains is None else np.asarray(gains),
    )


class TestRankingKernel:
    @settings(max_examples=200, deadline=None)
    @given(_lane_rows())
    def test_equals_lexsort_reference(self, rows):
        got = rank_lane_entries(*rows)
        want = _rank_lexsort(*rows)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()  # bit for bit, gains included


@st.composite
def _valley_free_graphs(draw):
    """Small AS graphs with mixed c2p/p2p edges: ASN values in shuffled
    order against insertion order (so next-hop ASN ties break on value),
    c2p edges oriented along a random tiering (acyclic by construction),
    and a split of the destinations into one or two fabric batches."""
    n = draw(st.integers(2, 12))
    asns = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    tier = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kinds = draw(st.lists(st.sampled_from("-cp"), min_size=len(pairs), max_size=len(pairs)))
    graph = ASGraph()
    for asn in asns:
        graph.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"AS{asn}",
                as_type=ASType.TRANSIT_REGIONAL,
                cc="DE",
                pop_cities=("Frankfurt/DE",),
                prefixes=(IPv4Prefix.parse("10.0.0.0/16"),),
            )
        )
    for (i, j), kind in zip(pairs, kinds):
        if kind == "c":
            # the lower (tier, index) end is the customer
            cust, prov = (i, j) if (tier[i], i) < (tier[j], j) else (j, i)
            graph.add_c2p(asns[cust], asns[prov], ["Frankfurt/DE"])
        elif kind == "p":
            graph.add_p2p(asns[i], asns[j], ["Frankfurt/DE"])
    split = draw(st.integers(0, n))
    return graph, split


def _fabric_over(graph: ASGraph, split: int) -> RoutingFabric:
    fabric = RoutingFabric(graph)
    asns = graph.asns()
    fabric.ensure(asns[:split])
    fabric.ensure(asns[split:])
    return fabric


def _line_graph(n: int) -> ASGraph:
    """AS1 <- AS2 <- ... <- ASn (each a customer of the next), one city."""
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"AS{asn}",
                as_type=ASType.TRANSIT_REGIONAL,
                cc="DE",
                pop_cities=("Frankfurt/DE", "Paris/FR"),
                prefixes=(IPv4Prefix.parse(f"10.{asn}.0.0/16"),),
            )
        )
    for asn in range(2, n + 1):
        graph.add_c2p(asn, asn - 1, ["Frankfurt/DE", "Paris/FR"])
    return graph


class TestFabricKernels:
    @settings(max_examples=80, deadline=None)
    @given(_valley_free_graphs())
    def test_tables_equal_scalar_reference(self, drawn):
        graph, split = drawn
        fabric = _fabric_over(graph, split)
        reference = BGPRouting(graph)  # no fabric: the scalar computation
        for dst in graph.asns():
            assert fabric.table_to(dst) == reference._compute_table(dst), dst

    def test_hop_tables_equal_scalar_handover(self, small_world):
        walker = GeoPathWalker(small_world.graph)
        edge_ids, handover, km = walker.hop_tables()
        cities = range(walker.matrix.size)
        for adj in small_world.graph.edges():
            eid = edge_ids[(adj.a, adj.b)]
            assert edge_ids[(adj.b, adj.a)] == eid
            want = [walker._handover(p, adj.interconnect_cities)[1] for p in cities]
            assert handover[eid].tolist() == want, adj
            # exact: the walk accumulates these values bit for bit
            assert km[eid].tolist() == [walker._row(p)[h] for p, h in zip(cities, want)], adj

    @pytest.mark.parametrize("corrupt", ["cycle", "distance"])
    def test_looping_next_hops_fail_the_grid_walk(self, corrupt):
        graph = _line_graph(4)
        fabric = RoutingFabric(graph)
        fabric.ensure(graph.asns())
        dests, rclass, dist, next_hop = fabric.export_tables()
        row = dests.index(1)  # toward AS1: AS4 -> AS3 -> AS2 -> AS1
        next_hop = next_hop.copy()
        dist = dist.copy()
        if corrupt == "cycle":
            # AS3's next hop is AS4: AS4 -> AS3 -> AS4 -> AS3 after 3 hops
            next_hop[row, 2] = 3
        else:
            dist[row, 3] = 10 * len(graph)  # beyond any simple path
        looped = RoutingFabric(graph)
        looped.restore_tables(dests, rclass, dist, next_hop)
        walker = GeoPathWalker(graph)
        attachments = [(1, "Frankfurt/DE"), (4, "Paris/FR")]
        with pytest.raises(RoutingError, match="routing loop"):
            looped.build_attachment_grid(walker, attachments, 0.5)
        # the untouched tables walk fine over the same attachments
        grid, _ = fabric.build_attachment_grid(walker, attachments, 0.5)
        assert np.isfinite(grid).all()



def _pair_gather_round(one_way, step2, step4, legs, endpoint_cc, relays, rank):
    """The pair-gather round the endpoint blocks replaced, kept as their
    reference: feasibility, leg selection and the stitched table columns
    from per-pair row gathers over NaN-marked legs.  ``rank`` orders each
    pair's two endpoints, as the probe ids do in a campaign round."""
    n, num_relays = len(endpoint_cc), len(relays.type_codes)
    i_idx, j_idx = np.triu_indices(n, 1)
    swap = rank[i_idx] > rank[j_idx]
    e1, e2 = np.where(swap, j_idx, i_idx), np.where(swap, i_idx, j_idx)
    feasible = 2.0 * (one_way[e1, :] + one_way[e2, :]) <= step2[:, np.newaxis]

    cases = ~np.isnan(step4)
    kept, cols = np.nonzero(feasible[cases])
    needed = np.zeros((n, num_relays), dtype=bool)
    needed[e1[cases][kept], cols] = True
    needed[e2[cases][kept], cols] = True

    num_types = len(RELAY_TYPE_ORDER)
    e1_rows, e2_rows = e1[cases], e2[cases]
    mask = feasible[cases]
    direct_ms = step4[cases]
    n_obs = len(direct_ms)
    stitched = legs[e1_rows] + legs[e2_rows]
    usable = mask & ~np.isnan(stitched)
    improving = usable & (stitched < direct_ms[:, np.newaxis])
    relay_cc = relays.cc_codes
    cc1, cc2 = endpoint_cc[e1_rows], endpoint_cc[e2_rows]
    same_country = (relay_cc[np.newaxis, :] == cc1[:, np.newaxis]) | (
        relay_cc[np.newaxis, :] == cc2[:, np.newaxis]
    )
    diff_country = ~same_country
    type_bounds = np.searchsorted(relays.type_codes, np.arange(num_types + 1)).tolist()
    feasible_counts = np.zeros((num_types, n_obs), dtype=np.int32)
    best_cols = np.zeros((num_types, n_obs), dtype=np.intp)
    best_vals = np.full((num_types, n_obs), np.inf)
    flags = np.zeros((num_types, 4, n_obs), dtype=bool)
    arange = np.arange(n_obs)
    for code in range(num_types if num_relays else 0):
        lo, hi = type_bounds[code], type_bounds[code + 1]
        if lo == hi:
            continue
        usable_t = usable[:, lo:hi]
        improving_t = improving[:, lo:hi]
        same_t = same_country[:, lo:hi]
        diff_t = diff_country[:, lo:hi]
        feasible_counts[code] = np.count_nonzero(mask[:, lo:hi], axis=1)
        flags[code, 0] = np.any(usable_t & same_t, axis=1)
        flags[code, 1] = np.any(improving_t & same_t, axis=1)
        flags[code, 2] = np.any(usable_t & diff_t, axis=1)
        flags[code, 3] = np.any(improving_t & diff_t, axis=1)
        candidates = np.where(usable_t, stitched[:, lo:hi], np.inf)
        best = np.argmin(candidates, axis=1)
        best_cols[code] = best + lo
        best_vals[code] = candidates[arange, best]
    imp_pair, imp_col = np.nonzero(improving)
    imp_group = imp_pair * num_types + relays.type_codes[imp_col]
    indptr = np.zeros(n_obs * num_types + 1, np.int64)
    np.cumsum(np.bincount(imp_group, minlength=n_obs * num_types), out=indptr[1:])
    usable_best = best_vals != np.inf
    best_relay = np.full((num_types, n_obs), -1, np.int32)
    best_relay[usable_best] = relays.registry_idx[best_cols[usable_best]]
    columns = {
        "direct_rtt_ms": direct_ms,
        "best_relay": best_relay,
        "best_stitched": np.where(usable_best, best_vals, np.nan),
        "feasible": feasible_counts,
        "country_flags": flags,
        "imp_indptr": indptr,
        "imp_relay": relays.registry_idx[imp_col].astype(np.int32),
        "imp_gain": direct_ms[imp_pair] - stitched[imp_pair, imp_col],
    }
    return feasible, needed, columns


@st.composite
def _round_inputs(draw):
    """One round's block-kernel inputs: 0-8 endpoints, 0-12 relays grouped
    in RELAY_TYPE_ORDER (types may be empty), a few shared country codes,
    delays and legs from a small value set (so sums tie), and NaN step-2
    medians, step-4 medians and legs."""
    n = draw(st.integers(0, 8))
    r = draw(st.integers(0, 12))
    num_pairs = n * (n - 1) // 2
    value = st.sampled_from([0.5, 1.0, 2.0, 2.5]) | st.floats(0.0, 60.0)
    median = st.sampled_from([np.nan, 6.0, 9.0]) | st.floats(0.5, 250.0)
    code = st.integers(0, 3)
    relays = campaign_mod._RelayArrays(
        items=(),
        registry_idx=np.arange(r, dtype=np.intp) * 7 + 3,
        type_codes=np.sort(draw(hnp.arrays(np.intp, r, elements=code))),
        ccs=np.full(r, "XX", dtype="U3"),
        cc_codes=draw(hnp.arrays(np.intp, r, elements=code)),
        city_idx=np.zeros(r, np.intp),
    )
    return (
        draw(hnp.arrays(np.float64, (n, r), elements=value)),
        draw(hnp.arrays(np.float64, num_pairs, elements=median)),
        draw(hnp.arrays(np.float64, num_pairs, elements=median)),
        draw(hnp.arrays(np.float64, (n, r), elements=st.just(np.nan) | value)),
        draw(hnp.arrays(np.intp, n, elements=code)),
        relays,
        np.asarray(draw(st.permutations(range(n))), np.intp),
    )


class TestRoundBlocks:
    @settings(max_examples=150, deadline=None)
    @given(_round_inputs())
    def test_blocks_equal_pair_gather_reference(self, drawn):
        one_way, step2, step4, legs, endpoint_cc, relays, rank = drawn
        want_feasible, want_needed, want = _pair_gather_round(*drawn)

        feasible = feasibility_mask(one_way, step2)
        assert feasible.shape == want_feasible.shape
        assert feasible.tobytes() == want_feasible.tobytes()
        needed = campaign_mod._needed_legs(feasible, step4, len(endpoint_cc))
        assert needed.shape == want_needed.shape
        assert needed.tobytes() == want_needed.tobytes()

        case_rows = np.flatnonzero(~np.isnan(step4))
        # a dirty buffer: any cell the kernel fails to set shows up
        stitched = np.full((len(case_rows), len(relays.type_codes)), -1.0)
        got = campaign_mod._stitch_columns(
            case_rows,
            step4,
            feasible,
            np.where(np.isnan(legs), np.inf, legs),
            endpoint_cc,
            relays,
            stitched,
        )
        assert got.keys() == want.keys()
        for name, column in want.items():
            assert got[name].dtype == column.dtype, name
            assert got[name].shape == column.shape, name
            assert got[name].tobytes() == column.tobytes(), name

def _dict_series_cvs(rounds: Sequence[Mapping], min_occurrences: int) -> list[float]:
    """The dict-keyed ``series_cvs`` the median columns replaced, kept as its
    reference: one ``{key: value}`` mapping per round."""
    chain = itertools.chain.from_iterable
    size = sum(map(len, rounds))
    # a key's code is the number of distinct keys seen before it first appears
    index: dict = {}
    codes = np.fromiter(
        map(index.setdefault, chain(rounds), map(len, itertools.repeat(index))), np.intp, size
    )
    values = np.fromiter(chain(r.values() for r in rounds), np.float64, size)
    counts = np.bincount(codes, minlength=len(index))
    starts = np.cumsum(counts) - counts
    keep = counts >= min_occurrences
    counts, starts = counts[keep], starts[keep]
    # one row per kept key: its values in round order, zero-padded
    grouped = values[np.argsort(codes, kind="stable")]
    live = np.arange(counts.max(initial=0)) < counts[:, None]
    offsets = np.where(live, starts[:, None] + np.arange(live.shape[1]), 0)
    rows = np.where(live, grouped[offsets], 0.0)

    def row_sums(matrix: np.ndarray) -> np.ndarray:
        total = np.zeros(len(matrix))
        for column in matrix.T:
            total += column
        return total

    mean = row_sums(rows) / counts
    if np.any(mean == 0.0):
        raise AnalysisError("coefficient_of_variation() undefined for zero mean")
    squares = np.where(live, np.float_power(rows - mean[:, None], 2.0), 0.0)
    return (np.sqrt(row_sums(squares) / counts) / np.abs(mean)).tolist()


@st.composite
def _median_rounds(draw):
    """0-5 rounds, each a distinct subset of a few ``(a, b)`` keys up to
    2**31 - 1 in drawn order, valued so that zero means occur."""
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
            min_size=1, max_size=6, unique=True,
        )
    )
    value = st.sampled_from([0.0, 1.0, -1.0, 2.5]) | st.floats(-1e3, 1e3, allow_nan=False)
    rounds = []
    for _ in range(draw(st.integers(0, 5))):
        keys = draw(st.lists(st.sampled_from(pool), unique=True))
        rounds.append({key: draw(value) for key in keys})
    return rounds


def _as_columns(medians: dict) -> MedianColumns:
    keys = np.array(list(medians), np.int32).reshape(-1, 2)
    return MedianColumns(keys[:, 0], keys[:, 1], np.array(list(medians.values())))


class TestMedianColumns:
    @settings(max_examples=200, deadline=None)
    @given(_median_rounds(), st.integers(2, 4))
    def test_series_cvs_equals_dict_reference(self, rounds, min_occurrences):
        columns = [_as_columns(medians) for medians in rounds]
        try:
            want = _dict_series_cvs(rounds, min_occurrences)
        except AnalysisError:
            with pytest.raises(AnalysisError, match="zero mean"):
                series_cvs(columns, min_occurrences)
            return
        got = series_cvs(columns, min_occurrences)
        # bit for bit and in first-appearance order
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.text(max_size=12), max_size=6),
        st.lists(st.text(alphabet="ab|\u00e9\u4e2d\U0001f600", max_size=6), max_size=6),
    )
    def test_skew_grid_equals_pair_hash(self, row_ids, col_ids):
        model = LatencyModel()
        want = [
            [latency_model._pair_unit_hash(a, b) for b in col_ids] for a in row_ids
        ]
        for _ in range(2):  # cold cells are hashed, warm ones gathered
            grid = model._skew_grid(row_ids, col_ids)
            assert grid.shape == (len(row_ids), len(col_ids))
            assert grid.tolist() == want

    @pytest.mark.parametrize(
        "value", [0, 1, 2**53 + 1, 2**63 + 2**10, 2**64 - 1],
        ids=["zero", "one", "2^53+1", "tie-2^63+2^10", "max"],
    )
    def test_digest_units_round_like_int_division(self, value):
        digest = value.to_bytes(8, "big")
        got = latency_model._digest_units(digest * 2)
        want = int.from_bytes(digest, "big") / 2**64
        assert got.tolist() == [want, want]
        assert got[0].hex() == want.hex()


#: The relay type of each registry index the drawn tables refer to.
_REGISTRY_TYPES = tuple(t for t in RELAY_TYPE_ORDER for _ in range(2))


def _per_type(values):
    """A map over some relay types; the types left out take the defaults."""
    return st.dictionaries(st.sampled_from(RELAY_TYPE_ORDER), values)


_relay = st.integers(0, len(_REGISTRY_TYPES) - 1)
_ms = st.floats(0.5, 900.0)
_cases = st.builds(
    Case,
    e1_id=st.sampled_from(("p1", "p2", "p3")),
    e2_id=st.sampled_from(("p4", "p5")),
    e1_cc=st.sampled_from(("DE", "JP", "US")),
    e2_cc=st.sampled_from(("BR", "ZA")),
    e1_city=st.sampled_from(("Berlin/DE", "Tokyo/JP", "Chicago/US")),
    e2_city=st.sampled_from(("Recife/BR", "Durban/ZA")),
    direct_rtt_ms=_ms,
    best_by_type=_per_type(st.tuples(_relay, _ms)),
    improving_by_type=_per_type(st.lists(st.tuples(_relay, _ms), max_size=3).map(tuple)),
    feasible_by_type=_per_type(st.integers(0, 40)),
    country_groups_by_type=_per_type(st.tuples(*[st.booleans()] * 4)),
)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("store")


class TestStoreRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_cases, max_size=6), max_size=3))
    def test_saved_tables_load_equal(self, store_dir, rounds):
        registry = RelayRegistry()
        for index, relay_type in enumerate(_REGISTRY_TYPES):
            registry.register(f"r{index}", relay_type, 64500 + index, "NL", "Amsterdam/NL")
        pools = TablePools.fresh()
        result = CampaignResult(rounds=[], registry=registry)
        for k, cases in enumerate(rounds):
            table = build_table(
                [dataclasses.replace(case, round_index=k) for case in cases], pools
            )
            result.rounds.append(RoundResult(
                round_index=k,
                timestamp_hours=12.0 * k,
                endpoint_ids=tuple(sorted({c.e1_id for c in cases} | {c.e2_id for c in cases})),
                relay_indices_by_type={},
                table=table,
                direct_medians=MedianColumns(table.e1_id, table.e2_id, table.direct_rtt_ms),
                relay_medians=None,
                pings_sent=0,
            ))
        path = store_dir / "result.npz"
        save_result(result, path)
        loaded = load_result(path)
        assert len(loaded.rounds) == len(rounds)
        for got, want in zip(loaded.rounds, result.rounds):
            assert got.table.columns_equal(want.table)
            assert got.direct_medians == want.direct_medians
        assert loaded.table.columns_equal(result.table)
