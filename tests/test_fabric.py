"""Equivalence suite for the precomputed routing fabric.

The fabric's batched, level-synchronous relaxation must reproduce the lazy
scalar :class:`BGPRouting` computation *exactly* — same route classes, same
distances, same lowest-next-hop-ASN tie-breaks — on hand-built topologies
and on generated worlds.  Its attachment grid, the latency model's one
source of one-way delay, must equal the scalar path walk
(:meth:`GeoPathWalker.propagation_ms` plus the per-hop cost) cell for cell.
The scalar code stays in the tree as the reference implementation
precisely so this suite can compare against it.
"""

import numpy as np
import pytest

from repro.errors import MeasurementError, TopologyError
from repro.latency.model import Endpoint, LatencyModel
from repro.net.ipv4 import IPv4Prefix
from repro.routing.bgp import BGPRouting
from repro.routing.fabric import RoutingFabric
from repro.routing.geopath import GeoPathWalker
from repro.topology.graph import ASGraph
from repro.topology.types import ASType, AutonomousSystem


def _mk_graph(n: int) -> ASGraph:
    g = ASGraph()
    for asn in range(1, n + 1):
        g.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"AS{asn}",
                as_type=ASType.EYEBALL,
                cc="DE",
                pop_cities=("Frankfurt/DE",),
                prefixes=(IPv4Prefix.parse(f"10.{asn}.0.0/16"),),
            )
        )
    return g


CITY = ["Frankfurt/DE"]


def _fabric_all(graph: ASGraph) -> RoutingFabric:
    fabric = RoutingFabric(graph)
    fabric.ensure(graph.asns())
    return fabric


def _assert_tables_equal(graph: ASGraph, destinations=None) -> None:
    reference = BGPRouting(graph)  # no fabric: pure scalar computation
    fabric = _fabric_all(graph)
    for dst in destinations if destinations is not None else graph.asns():
        assert fabric.table_to(dst) == reference._compute_table(dst), f"dst {dst}"


class TestHandBuiltEquivalence:
    def test_chain(self):
        g = _mk_graph(3)
        g.add_c2p(1, 2, CITY)
        g.add_c2p(2, 3, CITY)
        _assert_tables_equal(g)

    def test_peer_valley(self):
        g = _mk_graph(5)
        g.add_p2p(1, 2, CITY)
        g.add_p2p(2, 3, CITY)
        g.add_c2p(4, 1, CITY)
        g.add_c2p(5, 3, CITY)
        _assert_tables_equal(g)
        fabric = _fabric_all(g)
        assert fabric.path(4, 5) is None  # two peer hops: valley-free forbids
        assert fabric.path(1, 3) is None

    def test_customer_preferred_even_if_longer(self):
        g = _mk_graph(6)
        g.add_c2p(2, 1, CITY)
        g.add_c2p(3, 2, CITY)
        g.add_c2p(6, 3, CITY)
        g.add_c2p(6, 5, CITY)
        g.add_p2p(1, 5, CITY)
        _assert_tables_equal(g)
        assert _fabric_all(g).path(1, 6) == [1, 2, 3, 6]

    def test_lowest_next_hop_tiebreak(self):
        g = _mk_graph(4)
        g.add_c2p(1, 2, CITY)
        g.add_c2p(1, 3, CITY)
        g.add_c2p(2, 4, CITY)
        g.add_c2p(3, 4, CITY)
        _assert_tables_equal(g)
        assert _fabric_all(g).path(1, 4) == [1, 2, 4]

    def test_self_path_even_for_unknown_asn(self):
        g = _mk_graph(2)
        g.add_c2p(1, 2, CITY)
        fabric = _fabric_all(g)
        assert fabric.path(1, 1) == [1]
        assert fabric.path(99, 99) == [99]  # scalar path() behaves the same

    def test_unknown_source_is_unreachable(self):
        g = _mk_graph(2)
        g.add_c2p(1, 2, CITY)
        assert _fabric_all(g).path(99, 2) is None

    def test_ensure_rejects_unknown_destination(self):
        g = _mk_graph(2)
        g.add_c2p(1, 2, CITY)
        with pytest.raises(TopologyError):
            RoutingFabric(g).ensure([99])

    def test_ensure_is_incremental(self):
        g = _mk_graph(3)
        g.add_c2p(1, 2, CITY)
        g.add_c2p(2, 3, CITY)
        fabric = RoutingFabric(g)
        assert fabric.ensure([2]) == 1
        assert fabric.covers(2) and not fabric.covers(3)
        assert fabric.ensure([2, 3]) == 1  # only the missing one computed
        assert fabric.num_destinations() == 2


class TestSeededWorldEquivalence:
    def test_tables_identical_on_seeded_world(self, small_world):
        graph = small_world.graph
        reference = BGPRouting(graph)
        fabric = _fabric_all(graph)
        for dst in graph.asns():
            assert fabric.table_to(dst) == reference._compute_table(dst), f"dst {dst}"

    def test_paths_identical_on_seeded_world(self, small_world):
        graph = small_world.graph
        reference = BGPRouting(graph)
        fabric = _fabric_all(graph)
        asns = graph.asns()
        checked = 0
        for src in asns[::3]:
            for dst in asns[::5]:
                assert reference._compute_path(src, dst) == fabric.path(src, dst)
                checked += 1
        assert checked > 1000

    def test_world_routing_serves_fabric_tables(self, small_world):
        """The world's BGPRouting delegates to its fabric once built."""
        small_world.ensure_routing_fabric()
        fabric = small_world.fabric
        assert fabric.num_destinations() > 0
        dst = small_world.campaign_destination_asns()[0]
        assert fabric.covers(dst)
        assert small_world.routing.table_to(dst) == fabric.table_to(dst)

    def test_worlds_same_seed_build_identical_fabrics(self):
        from repro.topology.config import TopologyConfig
        from repro.world import WorldConfig, build_world

        config = WorldConfig(topology=TopologyConfig(country_limit=8))
        w1 = build_world(seed=5, config=config)
        w2 = build_world(seed=5, config=config)
        f1 = w1.ensure_routing_fabric()
        f2 = w2.ensure_routing_fabric()
        assert f1.num_destinations() == f2.num_destinations()
        for dst in w1.campaign_destination_asns()[:25]:
            assert f1.table_to(dst) == f2.table_to(dst)


class TestFabricArrays:
    def test_predecessor_arrays_are_int32(self, small_world):
        fabric = _fabric_all(small_world.graph)
        batch = fabric._batches[0]
        assert batch.next_hop.dtype == np.int32
        assert batch.rclass.dtype == np.int8


def _assert_grid_is_scalar_walk(grid, att_ids, attachments, graph, walker, per_hop):
    """Every ``attachments`` cell of ``grid`` is the scalar walk's delay
    over a fabric-free BGP path, bit for bit, and NaN exactly when that
    path is None.  Returns the number of unrouted pairs."""
    reference = BGPRouting(graph)  # no fabric: the scalar computation
    unrouted = 0
    for src_asn, src_city in attachments:
        row = grid[att_ids[(src_asn, src_city)]]
        for dst_asn, dst_city in attachments:
            cell = row[att_ids[(dst_asn, dst_city)]]
            path = reference.path(src_asn, dst_asn)
            if path is None:
                assert np.isnan(cell), (src_asn, src_city, dst_asn, dst_city)
                unrouted += 1
                continue
            want = walker.propagation_ms(src_city, path, dst_city) + per_hop * (
                len(path) - 1
            )
            assert cell == want, (src_asn, src_city, dst_asn, dst_city)
    return unrouted


class TestAttachmentGrid:
    """The grid is checked against :meth:`GeoPathWalker.propagation_ms`,
    its live scalar reference."""

    def test_cells_equal_scalar_walk_on_seeded_world(self, small_world):
        small_world.ensure_routing_fabric()
        grid, att_ids = small_world.latency.attachment_grid()
        attachments = sorted(att_ids)
        sample = attachments[:: len(attachments) // 120][:120]
        assert len(sample) == 120  # 14,400 ordered pairs
        _assert_grid_is_scalar_walk(
            grid,
            att_ids,
            sample,
            small_world.graph,
            small_world.walker,
            small_world.config.latency.per_hop_ms,
        )

    def test_unrouted_cells_are_nan(self):
        # AS4 -> AS1 -peer- AS2 -peer- AS3 <- AS5: every path that needs
        # both peering edges is a valley, so several pairs are unrouted
        g = _mk_graph(5)
        g.add_p2p(1, 2, ["Paris/FR"])
        g.add_p2p(2, 3, ["Warsaw/PL", "Frankfurt/DE"])
        g.add_c2p(4, 1, ["Madrid/ES"])
        g.add_c2p(5, 3, ["Frankfurt/DE"])
        fabric = _fabric_all(g)
        walker = GeoPathWalker(g)
        attachments = [
            (asn, city) for asn in g.asns() for city in ("Frankfurt/DE", "Madrid/ES")
        ]
        grid, att_ids = fabric.build_attachment_grid(walker, attachments, 0.35)
        unrouted = _assert_grid_is_scalar_walk(
            grid, att_ids, attachments, g, walker, 0.35
        )
        assert 0 < unrouted < len(attachments) ** 2

    def test_off_grid_endpoint_is_named(self, small_world):
        small_world.ensure_routing_fabric()
        _, att_ids = small_world.latency.attachment_grid()
        stray_as = next(a for a in small_world.graph if (a.asn, a.primary_city) not in att_ids)
        stray = Endpoint("stray-probe", stray_as.asn, stray_as.primary_city, 1.0)
        probe = small_world.atlas.all_probes()[0].node.endpoint
        model = small_world.latency
        with pytest.raises(MeasurementError, match="stray-probe"):
            model.base_rtt_ms(probe, stray)
        with pytest.raises(MeasurementError, match="stray-probe"):
            model.pair_grid([probe], [stray])

    def test_model_without_grid_refuses(self, small_world):
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:2]]
        with pytest.raises(MeasurementError, match="no attachment delay grid"):
            LatencyModel(small_world.routing).base_rtt_ms(*probes)
