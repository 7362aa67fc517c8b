"""Precomputed routing fabric: bulk valley-free tables + geopath memo.

:class:`~repro.routing.bgp.BGPRouting` computes one destination table at a
time with Python heaps and dicts — fine for a handful of queries, but a
measurement campaign faults in hundreds of tables during its first round
(flagged in the ROADMAP engine notes as the dominant remaining round cost).
:class:`RoutingFabric` removes that cost by computing *all* of a campaign's
destination tables in one batched pass over NumPy arrays:

* the AS graph's adjacencies are packed once into CSR-style arrays (edge
  endpoint indices grouped and offset-indexed by provider, by customer and
  by peering node);
* each destination batch runs the same three-phase Gao-Rexford algorithm as
  the scalar code — customer routes up the provider DAG, one peer-edge
  relaxation, provider routes down the customer DAG — but *level-
  synchronously* across every destination at once, as reverse (destination
  -> source) relaxations over ``(batch x nodes)`` arrays.  Segment minima
  via ``np.minimum.reduceat`` reproduce the scalar algorithm's exact
  preference order (route class, then AS-path length, then lowest next-hop
  ASN), so the resulting tables are identical entry-for-entry to
  ``BGPRouting._compute_table``'s — the equivalence suite in
  ``tests/test_fabric.py`` asserts as much on seeded worlds;
* selected routes are stored as flat ``int32`` predecessor (next-hop)
  arrays, one row per destination.  AS paths are reconstructed on demand by
  walking a destination's predecessor list — a few list lookups — instead
  of chasing per-``(src, dst)`` cached dict entries.

The fabric also owns the world's :class:`GeoWalkMemo`: the geographic path
walker (:mod:`repro.routing.geopath`) memoizes each walk's stretched-fiber
prefix keyed by ``(source city, AS-path hops)``, so re-walking the same AS
path from the same city — which legs to relays in multi-city destination
ASes trigger constantly — costs one dict hit instead of a per-hop loop.

Equivalence sketch for the level-synchronous relaxation: the scalar code's
heaps order entries by ``(dist, via_asn, node)`` and settle each node on
first pop.  With unit edge weights, every entry at distance ``d`` is pushed
before the first distance-``d`` pop (pushes at ``d`` happen only during
distance-``d - 1`` pops, which the heap order completes first; phase-3
seeds are all pushed up front).  A node settled at distance ``d`` therefore
selects the minimum ``via_asn`` among *all* neighbours settled at
``d - 1`` — exactly the segment-minimum this module computes per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RoutingError
from repro.geo.distance import SPEED_OF_LIGHT_FIBER_KM_PER_MS
from repro.routing.bgp import Route, RouteClass
from repro.topology.graph import ASGraph, Relationship

if TYPE_CHECKING:
    from repro.routing.geopath import GeoPathWalker

#: Route-class codes stored in the fabric's arrays (match RouteClass values).
_UNREACHABLE = -1
_ORIGIN = int(RouteClass.ORIGIN)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)


class GeoWalkMemo:
    """Shared memo of geographic walk prefixes.

    Keys are ``(src_city_key, as_path_tuple)``; values are the walk's state
    after the last inter-AS handover: ``(end_city_key, end_city_index,
    stretched_km)``.  Owned by the fabric so the world can hand one memo to
    every consumer of the path walker.
    """

    __slots__ = ("prefixes",)

    def __init__(self) -> None:
        self.prefixes: dict[tuple[str, tuple[int, ...]], tuple[str, int, float]] = {}

    def __len__(self) -> int:
        return len(self.prefixes)


@dataclass(frozen=True, slots=True)
class _CSR:
    """Edge endpoints grouped by one side: segment starts + sorted columns."""

    targets: np.ndarray  #: (segments,) node index each segment settles
    indptr: np.ndarray  #: (segments,) start offset of each segment
    values: np.ndarray  #: (edges,) neighbour node index, grouped by target

    @property
    def empty(self) -> bool:
        return self.targets.size == 0


def _group_by(targets: np.ndarray, values: np.ndarray) -> _CSR:
    if targets.size == 0:
        return _CSR(targets, targets, values)
    order = np.argsort(targets, kind="stable")
    sorted_targets = targets[order]
    unique, indptr = np.unique(sorted_targets, return_index=True)
    return _CSR(unique, indptr, values[order])


@dataclass(frozen=True, slots=True)
class _Batch:
    """One batch's routing state, row-per-destination."""

    rclass: np.ndarray  #: (D, N) int8 route class, -1 unreachable
    dist: np.ndarray  #: (D, N) int32 AS hops to the destination, -1 unreachable
    next_hop: np.ndarray  #: (D, N) int32 next-hop node index, -1 none


class RoutingFabric:
    """Bulk-precomputed valley-free routing tables over an :class:`ASGraph`.

    Destinations are added in batches via :meth:`ensure`; queries against a
    destination the fabric does not cover are the caller's responsibility
    (:class:`~repro.routing.bgp.BGPRouting` falls back to its scalar
    reference implementation).  The graph must not be mutated after the
    fabric is constructed.
    """

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        asns = graph.asns()
        self._n = len(asns)
        self._asn_of = np.asarray(asns, dtype=np.int64)
        self._asn_list: list[int] = list(asns)
        self._index_of: dict[int, int] = {asn: i for i, asn in enumerate(asns)}

        # preference tie-breaks are by ASN *value*; node indices follow graph
        # insertion order, so rank arrays translate between the two.
        order = np.argsort(self._asn_of, kind="stable")
        self._node_of_rank = order.astype(np.int32)
        self._rank_of = np.empty(self._n, dtype=np.int32)
        self._rank_of[order] = np.arange(self._n, dtype=np.int32)

        cust, prov, pnode, ppeer = [], [], [], []
        for adj in graph.edges():
            a, b = self._index_of[adj.a], self._index_of[adj.b]
            if adj.rel is Relationship.C2P:
                cust.append(a)
                prov.append(b)
            else:
                pnode.extend((a, b))
                ppeer.extend((b, a))
        cust_arr = np.asarray(cust, dtype=np.intp)
        prov_arr = np.asarray(prov, dtype=np.intp)
        #: customer routes settle providers: group c2p edges by provider
        self._up = _group_by(prov_arr, cust_arr)
        #: provider routes settle customers: group c2p edges by customer
        self._down = _group_by(cust_arr, prov_arr)
        #: peer routes settle each peering node: group directed peer edges
        self._peer = _group_by(
            np.asarray(pnode, dtype=np.intp), np.asarray(ppeer, dtype=np.intp)
        )

        self._slot: dict[int, tuple[int, int]] = {}  # dst asn -> (batch, row)
        self._batches: list[_Batch] = []
        #: per-destination plain-list views for the path walk, built lazily
        self._walk_lists: dict[int, tuple[list[int], list[int], int]] = {}
        self._tables: dict[int, dict[int, Route]] = {}
        self.walk_memo = GeoWalkMemo()

    # ------------------------------------------------------------- coverage

    @property
    def graph(self) -> ASGraph:
        """The AS graph the fabric was built over."""
        return self._graph

    def covers(self, dst: int) -> bool:
        """True if tables toward ``dst`` are precomputed."""
        return dst in self._slot

    def num_destinations(self) -> int:
        """Number of destinations with precomputed tables."""
        return len(self._slot)

    def ensure(self, destinations) -> int:
        """Precompute tables for every not-yet-covered destination.

        Returns the number of destinations newly computed.  Unknown ASNs
        raise :class:`~repro.errors.TopologyError` (via the graph).
        """
        missing = sorted({d for d in destinations if d not in self._slot})
        if not missing:
            return 0
        for dst in missing:
            self._graph.get_as(dst)
        dest_idx = np.asarray([self._index_of[d] for d in missing], dtype=np.intp)
        batch = self._compute_batch(dest_idx)
        batch_no = len(self._batches)
        self._batches.append(batch)
        for row, dst in enumerate(missing):
            self._slot[dst] = (batch_no, row)
        return len(missing)

    # ------------------------------------------------------- snapshot state

    def export_tables(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """The computed destination tables as flat arrays.

        Returns ``(destinations, rclass, dist, next_hop)`` with one row per
        destination, rows in slot-assignment order (sorted within each
        :meth:`ensure` call).  The arrays are copies laid out for
        serialization; feeding them back through :meth:`restore_tables` on a
        fabric over an identical graph reproduces every query answer.
        """
        dests = list(self._slot)
        num = len(dests)
        rclass = np.empty((num, self._n), dtype=np.int8)
        dist = np.empty((num, self._n), dtype=np.int32)
        next_hop = np.empty((num, self._n), dtype=np.int32)
        for i, dst in enumerate(dests):
            batch_no, row = self._slot[dst]
            batch = self._batches[batch_no]
            rclass[i] = batch.rclass[row]
            dist[i] = batch.dist[row]
            next_hop[i] = batch.next_hop[row]
        return dests, rclass, dist, next_hop

    def restore_tables(
        self,
        destinations,
        rclass: np.ndarray,
        dist: np.ndarray,
        next_hop: np.ndarray,
    ) -> None:
        """Adopt previously exported destination tables without relaxing.

        The arrays may be read-only (e.g. memory-mapped from a snapshot);
        the fabric only ever reads them.  Restoring is only valid on a
        fabric with no computed destinations yet, over the same graph the
        tables were exported from.
        """
        if self._slot:
            raise RoutingError("cannot restore tables into a non-empty fabric")
        dest_list = [int(d) for d in destinations]
        shape = (len(dest_list), self._n)
        for name, arr in (("rclass", rclass), ("dist", dist), ("next_hop", next_hop)):
            if arr.shape != shape:
                raise RoutingError(
                    f"restored {name} shape {arr.shape} != expected {shape}"
                )
        for dst in dest_list:
            self._graph.get_as(dst)
        self._batches.append(_Batch(rclass, dist, next_hop))
        for row, dst in enumerate(dest_list):
            self._slot[dst] = (0, row)

    # -------------------------------------------------------------- queries

    def path(self, src: int, dst: int) -> list[int] | None:
        """The AS path ``[src, ..., dst]``, or None if unreachable.

        Reconstructed by walking ``dst``'s flat predecessor array; ``dst``
        must be covered (see :meth:`covers`).
        """
        if src == dst:
            return [src]
        next_hop, rclass, dst_idx = self._walk_list(dst)
        i = self._index_of.get(src)
        if i is None or rclass[i] < 0:
            return None
        asn_list = self._asn_list
        path = [src]
        limit = self._n
        while i != dst_idx:
            i = next_hop[i]
            path.append(asn_list[i])
            if len(path) > limit:
                raise RoutingError(f"routing loop toward AS{dst} at AS{asn_list[i]}")
        return path

    def table_to(self, dst: int) -> dict[int, Route]:
        """``dst``'s routing table as an ASN -> :class:`Route` dict.

        Identical in content to ``BGPRouting._compute_table(dst)``; built
        from the arrays on first request and cached.
        """
        table = self._tables.get(dst)
        if table is None:
            batch_no, row = self._slot[dst]
            batch = self._batches[batch_no]
            rclass = batch.rclass[row].tolist()
            dist = batch.dist[row].tolist()
            next_hop = batch.next_hop[row].tolist()
            asn_list = self._asn_list
            table = {}
            for i in np.nonzero(batch.rclass[row] >= 0)[0].tolist():
                code = rclass[i]
                table[asn_list[i]] = Route(
                    RouteClass(code),
                    dist[i],
                    None if code == _ORIGIN else asn_list[next_hop[i]],
                )
            self._tables[dst] = table
        return table

    def _walk_list(self, dst: int) -> tuple[list[int], list[int], int]:
        entry = self._walk_lists.get(dst)
        if entry is None:
            batch_no, row = self._slot[dst]
            batch = self._batches[batch_no]
            entry = (
                batch.next_hop[row].tolist(),
                batch.rclass[row].tolist(),
                self._index_of[dst],
            )
            self._walk_lists[dst] = entry
        return entry

    # ------------------------------------------------------ attachment grid

    def _edge_id_lookup(self, edge_ids: dict[tuple[int, int], int]) -> np.ndarray:
        """Dense (nodes × nodes) edge-id matrix (-1 where not adjacent)."""
        mat = np.full((self._n, self._n), -1, dtype=np.int32)
        index_of = self._index_of
        for (a, b), eid in edge_ids.items():
            mat[index_of[a], index_of[b]] = eid
        return mat

    def build_attachment_grid(
        self,
        walker: "GeoPathWalker",
        attachments: list[tuple[int, str]],
        per_hop_ms: float,
    ) -> tuple[np.ndarray, dict[tuple[int, str], int]]:
        """One-way network delays between every pair of attachment points.

        An attachment is an ``(asn, city_key)`` pair — where a measurement
        node meets the network.  Every destination ASN must already be
        covered (:meth:`ensure`).  Returns the ``(A × A)`` delay matrix
        (``grid[s, t]`` = one-way ms from attachment ``s`` to ``t``, NaN
        when no valley-free route exists) plus the attachment -> row index
        map.

        The walks run as one vectorized wavefront over the predecessor
        arrays: every (attachment, destination-AS) walk advances one AS hop
        per iteration through the walker's dense hop tables, so the whole
        grid costs a handful of NumPy gathers per path-length level instead
        of a Python loop per walk.  Delay assembly mirrors
        ``LatencyModel._one_way_batch``'s operation order bit-exactly.
        """
        matrix = walker.matrix
        num = len(attachments)
        att_asn = [asn for asn, _ in attachments]
        att_city = matrix.indices(city for _, city in attachments)
        att_node = np.fromiter(
            (self._index_of[asn] for asn in att_asn), np.intp, num
        )
        dests = sorted(set(att_asn))
        n_dest = len(dests)
        dest_col = {asn: j for j, asn in enumerate(dests)}
        n = self._n
        rcl_rows = np.empty((n_dest, n), dtype=np.int8)
        dist_rows = np.empty((n_dest, n), dtype=np.int32)
        nh_rows = np.empty((n_dest, n), dtype=np.int32)
        dnode = np.empty(n_dest, dtype=np.intp)
        for j, asn in enumerate(dests):
            batch_no, row = self._slot[asn]
            batch = self._batches[batch_no]
            rcl_rows[j] = batch.rclass[row]
            dist_rows[j] = batch.dist[row]
            nh_rows[j] = batch.next_hop[row]
            dnode[j] = self._index_of[asn]

        edge_ids, handover, km_tab = walker.hop_tables()
        eid_mat = self._edge_id_lookup(edge_ids)
        stretch_node = np.fromiter(
            (walker.carrier_stretch(asn) for asn in self._asn_list), float, n
        )

        # flat (attachment × destination) wavefront walk
        node = np.repeat(att_node, n_dest)
        pos = np.repeat(att_city, n_dest)
        drow = np.tile(np.arange(n_dest), num)
        dest_node = dnode[drow]
        routed = rcl_rows[drow, node] >= 0
        hops = dist_rows[drow, node]
        km = np.zeros(num * n_dest)
        active = routed & (node != dest_node)
        guard = 0
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            nxt = nh_rows[drow[idx], cur]
            eid = eid_mat[cur, nxt]
            at = pos[idx]
            km[idx] += km_tab[eid, at] * stretch_node[cur]
            pos[idx] = handover[eid, at]
            node[idx] = nxt
            active[idx] = nxt != dest_node[idx]
            guard += 1
            if guard > n:
                raise RoutingError("routing loop in attachment-grid walk")

        # per (source attachment, target attachment) delay assembly
        full_km = matrix.distance_km_matrix(
            np.arange(matrix.size, dtype=np.intp),
            np.arange(matrix.size, dtype=np.intp),
        )
        km_grid = km.reshape(num, n_dest)
        end_grid = pos.reshape(num, n_dest)
        hops_grid = hops.reshape(num, n_dest)
        routed_grid = routed.reshape(num, n_dest)
        cols = np.fromiter((dest_col[asn] for asn in att_asn), np.intp, num)
        end_t = end_grid[:, cols]  # (A, A): end city of src's walk toward t's AS
        seg = full_km[end_t, att_city[np.newaxis, :]]
        stretch_t = np.fromiter(
            (walker.carrier_stretch(asn) for asn in att_asn), float, num
        )
        grid = (
            (km_grid[:, cols] + seg * stretch_t[np.newaxis, :])
            / SPEED_OF_LIGHT_FIBER_KM_PER_MS
            + per_hop_ms * hops_grid[:, cols]
        )
        grid[~routed_grid[:, cols]] = np.nan
        att_ids = {att: i for i, att in enumerate(attachments)}
        return grid, att_ids

    # ----------------------------------------------------------- relaxation

    def _compute_batch(self, dest_idx: np.ndarray) -> _Batch:
        """Run the three valley-free phases for a whole destination batch."""
        n = self._n
        num = dest_idx.size
        rclass = np.full((num, n), _UNREACHABLE, dtype=np.int8)
        dist = np.full((num, n), -1, dtype=np.int32)
        next_hop = np.full((num, n), -1, dtype=np.int32)
        settled = np.zeros((num, n), dtype=bool)
        rows = np.arange(num)
        rclass[rows, dest_idx] = _ORIGIN
        dist[rows, dest_idx] = 0
        settled[rows, dest_idx] = True

        self._phase_customer(dest_idx, rclass, dist, next_hop, settled)
        self._phase_peer(rclass, dist, next_hop, settled)
        self._phase_provider(rclass, dist, next_hop, settled)
        return _Batch(rclass, dist, next_hop)

    def _settle(
        self,
        csr: _CSR,
        candidate_ranks: np.ndarray,
        settled: np.ndarray,
        invalid: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment-minimum + not-yet-settled filter shared by all phases.

        ``candidate_ranks`` is ``(D, edges)``: the (encoded) preference key
        each edge offers its segment's target, ``invalid`` marking edges
        with nothing to offer.  Returns ``(batch_rows, node_indices,
        winning_keys)`` of the nodes that settle this step.
        """
        mins = np.minimum.reduceat(candidate_ranks, csr.indptr, axis=1)
        new = (mins < invalid) & ~settled[:, csr.targets]
        batch_rows, seg = np.nonzero(new)
        return batch_rows, csr.targets[seg], mins[batch_rows, seg]

    def _phase_customer(self, dest_idx, rclass, dist, next_hop, settled) -> None:
        """Customer routes climb the provider DAG, one BFS level at a time."""
        csr = self._up
        if csr.empty:
            return
        num, n = settled.shape
        rank_of, node_of_rank = self._rank_of, self._node_of_rank
        edge_ranks = rank_of[csr.values]
        frontier = np.zeros((num, n), dtype=bool)
        frontier[np.arange(num), dest_idx] = True
        level = 0
        while frontier.any():
            level += 1
            cand = np.where(frontier[:, csr.values], edge_ranks, n)
            batch_rows, nodes, won = self._settle(csr, cand, settled, n)
            if batch_rows.size == 0:
                break
            settled[batch_rows, nodes] = True
            rclass[batch_rows, nodes] = _CUSTOMER
            dist[batch_rows, nodes] = level
            next_hop[batch_rows, nodes] = node_of_rank[won]
            frontier = np.zeros((num, n), dtype=bool)
            frontier[batch_rows, nodes] = True

    def _phase_peer(self, rclass, dist, next_hop, settled) -> None:
        """One relaxation over peering edges from customer/origin routes.

        Preference among a node's peer candidates is ``(dist, next-hop
        ASN)``, encoded as ``dist * n + rank`` so one segment minimum picks
        the scalar algorithm's exact choice.
        """
        csr = self._peer
        if csr.empty:
            return
        n = self._n
        big = np.int64(n) + 2  # beyond any real hop count
        exportable = (rclass == _ORIGIN) | (rclass == _CUSTOMER)
        cdist = np.where(exportable, dist.astype(np.int64), big)
        cand = (cdist[:, csr.values] + 1) * n + self._rank_of[csr.values]
        batch_rows, nodes, won = self._settle(csr, cand, settled, (big + 1) * n)
        if batch_rows.size == 0:
            return
        settled[batch_rows, nodes] = True
        rclass[batch_rows, nodes] = _PEER
        dist[batch_rows, nodes] = won // n
        next_hop[batch_rows, nodes] = self._node_of_rank[won % n]

    def _phase_provider(self, rclass, dist, next_hop, settled) -> None:
        """Provider routes descend the customer DAG, level-synchronously.

        Seeds are every already-settled route (any class); a node settles at
        distance ``d`` via the lowest-ASN provider settled at ``d - 1``,
        which is exactly the scalar Dijkstra's pop order for unit weights.
        """
        csr = self._down
        if csr.empty:
            return
        n = self._n
        rank_of, node_of_rank = self._rank_of, self._node_of_rank
        edge_ranks = rank_of[csr.values]
        max_dist = int(dist.max(initial=0))
        d = 1
        while d <= max_dist + 1:
            cand = np.where(dist[:, csr.values] == d - 1, edge_ranks, n)
            batch_rows, nodes, won = self._settle(csr, cand, settled, n)
            if batch_rows.size:
                settled[batch_rows, nodes] = True
                rclass[batch_rows, nodes] = _PROVIDER
                dist[batch_rows, nodes] = d
                next_hop[batch_rows, nodes] = node_of_rank[won]
                max_dist = max(max_dist, d)
            d += 1
