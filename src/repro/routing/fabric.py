"""Precomputed routing fabric: bulk valley-free tables + attachment delays.

:class:`~repro.routing.bgp.BGPRouting` computes one destination table at a
time with Python heaps and dicts — fine for a handful of queries, but a
measurement campaign faults in hundreds of tables during its first round
(flagged in the ROADMAP engine notes as the dominant remaining round cost).
:class:`RoutingFabric` removes that cost by computing *all* of a campaign's
destination tables in one batched pass over NumPy arrays:

* the AS graph's adjacencies are packed once into CSR-style arrays, each
  relationship grouped by the node routes leave from (providers by
  customer, customers by provider, peers by peer);
* each destination batch runs the same three-phase Gao-Rexford algorithm as
  the scalar code — customer routes up the provider DAG, one peer-edge
  relaxation, provider routes down the customer DAG — but *level-
  synchronously* across every destination at once.  A phase offers routes
  only from the ``(destination, node)`` entries that can export one or sit
  on the current frontier, and scatters the offers into one minimum per
  reached entry (``np.minimum.at``) that encodes the scalar algorithm's
  exact preference order (route class, then AS-path length, then lowest
  next-hop ASN).  The resulting tables are identical entry-for-entry to
  ``BGPRouting._compute_table``'s: ``tests/test_fabric.py`` asserts as much
  on seeded worlds, and ``tests/test_properties.py`` on random graphs;
* selected routes are stored as flat ``int32`` predecessor (next-hop)
  arrays, one row per destination.  AS paths are reconstructed on demand by
  walking a destination's predecessor list — a few list lookups — instead
  of chasing per-``(src, dst)`` cached dict entries.

The fabric also builds the world's attachment grid
(:meth:`RoutingFabric.build_attachment_grid`): the one-way network delay
between every pair of ``(asn, city)`` attachments, walked over the
predecessor arrays for all pairs at once.  It is the latency model's only
source of one-way delay.

Equivalence sketch for the level-synchronous relaxation: the scalar code's
heaps order entries by ``(dist, via_asn, node)`` and settle each node on
first pop.  With unit edge weights, every entry at distance ``d`` is pushed
before the first distance-``d`` pop (pushes at ``d`` happen only during
distance-``d - 1`` pops, which the heap order completes first; phase-3
seeds are all pushed up front).  A node settled at distance ``d`` therefore
selects the minimum ``via_asn`` among *all* neighbours settled at
``d - 1`` — exactly the minimum this module scatters per level.
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


@dataclass(frozen=True, slots=True)
class _Adjacency:
    """Directed edges grouped by source node: node ``u``'s neighbours are
    ``nbrs[indptr[u]:indptr[u + 1]]``."""

    indptr: np.ndarray  #: (nodes + 1,) start offset of each node's edges
    nbrs: np.ndarray  #: (edges,) neighbour node index, grouped by source

    @classmethod
    def group(cls, sources: np.ndarray, targets: np.ndarray, n: int) -> "_Adjacency":
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
        return cls(indptr, targets[np.argsort(sources, kind="stable")])


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
        n = self._n
        #: customer routes climb from each customer to its providers
        self._up = _Adjacency.group(cust_arr, prov_arr, n)
        #: provider routes descend from each provider to its customers
        self._down = _Adjacency.group(prov_arr, cust_arr, n)
        #: peer routes cross each directed peering edge
        self._peer = _Adjacency.group(
            np.asarray(pnode, dtype=np.intp), np.asarray(ppeer, dtype=np.intp), n
        )

        self._slot: dict[int, tuple[int, int]] = {}  # dst asn -> (batch, row)
        self._batches: list[_Batch] = []
        #: per-destination plain-list views for the path walk, built lazily
        self._walk_lists: dict[int, tuple[list[int], list[int], int]] = {}
        self._tables: dict[int, dict[int, Route]] = {}

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

        Every (attachment, destination-AS) walk follows the predecessor
        arrays for exactly its ``dist`` AS hops, through the walker's dense
        hop tables.  The walks are sorted longest-first, so the walks still
        live at each hop level are a prefix of the state arrays: a level
        costs a few NumPy gathers over that prefix, with no compaction.  A
        walk that does not end at its destination after ``dist`` hops means
        the next-hop rows loop, and raises :class:`RoutingError`.  The
        walk state is freed before the grid is assembled, in row blocks,
        into one preallocated array.  Each cell equals, bit for bit,
        ``walker.propagation_ms(src_city, path, dst_city) + per_hop_ms *
        (len(path) - 1)`` over the scalar BGP path, its reference
        (``tests/test_fabric.py``).
        """
        matrix = walker.matrix
        num = len(attachments)
        n = self._n
        att_asn = [asn for asn, _ in attachments]
        att_city = matrix.indices(city for _, city in attachments)
        att_node = np.fromiter((self._index_of[asn] for asn in att_asn), np.intp, num)
        dests = sorted(set(att_asn))
        n_dest = len(dests)
        dest_col = {asn: j for j, asn in enumerate(dests)}
        dist_rows = np.empty((n_dest, n), dtype=np.int32)
        nh_rows = np.empty((n_dest, n), dtype=np.intp)
        for j, asn in enumerate(dests):
            batch_no, row = self._slot[asn]
            batch = self._batches[batch_no]
            dist_rows[j] = batch.dist[row]
            nh_rows[j] = batch.next_hop[row]

        # per (destination row, node) entry ``j * n + u``: the entry its
        # next hop leads to, the hop-table cell base of the edge it leaves
        # by, and its carrier's stretch (entries without a next hop get
        # in-range values no walk reads)
        edge_ids, handover, km_tab = walker.hop_tables()
        n_cities = handover.shape[1]
        handover_flat, km_flat = handover.ravel(), km_tab.ravel()
        row_base = (np.arange(n_dest) * n)[:, np.newaxis]
        eid = self._edge_id_lookup(edge_ids)[np.arange(n), nh_rows]
        cell_base = eid.ravel().astype(np.intp) * n_cities
        next_entry = (nh_rows + row_base).ravel()
        stretch_node = np.fromiter(
            (walker.carrier_stretch(asn) for asn in self._asn_list), float, n
        )
        stretch_entry = np.tile(stretch_node, n_dest)
        del eid, nh_rows

        # walk w = a * n_dest + j runs from attachment a to destination j
        # for exactly its ``dist`` hops (none when unrouted, dist -1);
        # longest first, so the walks live at hop l are a prefix
        start = (row_base.T + att_node[:, np.newaxis]).ravel()
        hops = dist_rows.ravel()[start]
        if hops.max(initial=0) > n:
            raise RoutingError("routing loop in attachment-grid walk")
        steps = np.maximum(hops, 0)
        order = np.argsort((n - steps).astype(np.min_scalar_type(n)), kind="stable")
        live = order.size - np.cumsum(np.bincount(steps, minlength=1))
        entry = start[order]
        pos = att_city.astype(handover.dtype)[order // n_dest]
        km = np.zeros(order.size)
        del start, steps
        for m in live[:-1].tolist():
            at = entry[:m]
            cell = cell_base[at]
            cell += pos[:m]
            km[:m] += km_flat[cell] * stretch_entry[at]
            pos[:m] = handover_flat[cell]
            entry[:m] = next_entry[at]
        # a walk that has not reached its destination (distance 0) after
        # ``dist`` hops followed a next-hop loop
        if np.any(dist_rows.ravel()[entry[: live[0]]] != 0):
            raise RoutingError("routing loop in attachment-grid walk")
        km_grid = np.empty((num, n_dest))
        km_grid.ravel()[order] = km
        end_code = np.empty((num, n_dest), dtype=np.intp)
        end_code.ravel()[order] = pos.astype(np.intp) * matrix.size
        hops_grid = hops.reshape(num, n_dest)
        # free the walk state before the grid exists: together they would
        # set the process's peak RSS
        del order, entry, pos, km, cell_base, next_entry, stretch_entry

        full_km = matrix.distance_km_matrix(
            np.arange(matrix.size, dtype=np.intp),
            np.arange(matrix.size, dtype=np.intp),
        ).ravel()
        cols = np.fromiter((dest_col[asn] for asn in att_asn), np.intp, num)
        stretch_t = np.fromiter(
            (walker.carrier_stretch(asn) for asn in att_asn), float, num
        )
        grid = np.empty((num, num))
        block = max(1, (1 << 18) // max(num, 1))  # rows per ~2 MB temporary
        for lo in range(0, num, block):
            rows = slice(lo, lo + block)
            out = grid[rows]
            # (km + seg * stretch_t) / c + per_hop_ms * hops: the scalar
            # walk's sum (IEEE addition and product commute exactly)
            seg = np.take(end_code[rows], cols, axis=1)
            seg += att_city
            np.take(full_km, seg, out=out)
            out *= stretch_t
            out += np.take(km_grid[rows], cols, axis=1)
            out /= SPEED_OF_LIGHT_FIBER_KM_PER_MS
            walk_hops = np.take(hops_grid[rows], cols, axis=1)
            out += per_hop_ms * walk_hops
            out[walk_hops < 0] = np.nan
        att_ids = {att: i for i, att in enumerate(attachments)}
        return grid, att_ids

    # ----------------------------------------------------------- relaxation

    def _compute_batch(self, dest_idx: np.ndarray) -> _Batch:
        """Run the three valley-free phases for a whole destination batch.

        The phases address the batch's ``(D, N)`` arrays by flat entry
        ``row * N + node``.  Each offers routes only from the entries that
        can export one and settles only entries without a route yet
        (``rclass < 0``); the arrays themselves are the output.
        """
        n = self._n
        num = dest_idx.size
        rclass = np.full((num, n), _UNREACHABLE, dtype=np.int8)
        dist = np.full((num, n), -1, dtype=np.int32)
        next_hop = np.full((num, n), -1, dtype=np.int32)
        flat = (rclass.ravel(), dist.ravel(), next_hop.ravel())
        origins = np.arange(num) * n + dest_idx
        flat[0][origins] = _ORIGIN
        flat[1][origins] = 0

        self._phase_levels(self._up, _CUSTOMER, origins, flat)
        self._phase_peer(flat)
        # every route selected so far seeds the descent, at its own distance
        self._phase_levels(self._down, _PROVIDER, np.flatnonzero(flat[0] >= 0), flat)
        return _Batch(rclass, dist, next_hop)

    def _relax(
        self,
        adj: _Adjacency,
        entries: np.ndarray,
        offers: np.ndarray,
        limit: int,
        rclass: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Offer ``offers[i]`` across every ``adj`` edge out of flat entry
        ``entries[i]``, into the same row.

        Returns ``(won, best)``: the routeless entries reached, each with
        the smallest offer it got.  Offers are below ``limit``.
        """
        nodes = entries % self._n
        lo = adj.indptr[nodes]
        counts = adj.indptr[nodes + 1] - lo
        # edge slot = the node's first slot + the edge's rank within it
        slot = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        slot += np.arange(slot.size)
        target = np.repeat(entries - nodes, counts)
        target += adj.nbrs[slot]
        best = np.full(rclass.size, limit, dtype=offers.dtype)
        np.minimum.at(best, target, np.repeat(offers, counts))
        won = np.flatnonzero((best < limit) & (rclass < 0))
        return won, best[won]

    def _phase_levels(self, adj: _Adjacency, code: int, seeds: np.ndarray, flat) -> None:
        """Relax ``adj`` level-synchronously from the ``seeds`` entries.

        Customer routes climb ``_up`` from the origins; provider routes
        descend ``_down`` from every route selected before them.  The
        frontier at level ``d`` is every entry at distance ``d - 1``: the
        seeds at that distance plus what level ``d - 1`` settled.  A
        routeless entry reached at level ``d`` settles via its lowest-ASN
        frontier neighbour, which is exactly the scalar algorithm's heap
        order for unit weights (module docstring).
        """
        rclass, dist, next_hop = flat
        seed_dist = dist[seeds]
        order = np.argsort(seed_dist, kind="stable")
        seeds = seeds[order]
        # seeds[bounds[d]:bounds[d + 1]] sit at distance d
        bounds = np.searchsorted(seed_dist[order], np.arange(int(seed_dist.max()) + 2))
        won = seeds[:0]
        d = 1
        while won.size or d < bounds.size:
            frontier = won
            if d < bounds.size:
                frontier = np.concatenate((seeds[bounds[d - 1] : bounds[d]], won))
            offers = self._rank_of[frontier % self._n]
            won, rank = self._relax(adj, frontier, offers, self._n, rclass)
            rclass[won] = code
            dist[won] = d
            next_hop[won] = self._node_of_rank[rank]
            d += 1

    def _phase_peer(self, flat) -> None:
        """One relaxation over peering edges from customer/origin routes.

        Only entries that export (origin or customer routes) offer peer
        candidates.  Preference among a node's peer candidates is
        ``(dist, next-hop ASN)``, encoded as ``dist * n + rank`` so one
        minimum picks the scalar algorithm's exact choice.
        """
        rclass, dist, next_hop = flat
        n = self._n
        exporting = np.flatnonzero((rclass == _ORIGIN) | (rclass == _CUSTOMER))
        offers = (dist[exporting].astype(np.int64) + 1) * n
        offers += self._rank_of[exporting % n]
        won, best = self._relax(self._peer, exporting, offers, (n + 2) * n, rclass)
        rclass[won] = _PEER
        dist[won] = best // n
        next_hop[won] = self._node_of_rank[best % n]
