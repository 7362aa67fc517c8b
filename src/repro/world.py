"""World assembly: one seed, one complete synthetic Internet.

:func:`build_world` wires every subsystem together in dependency order —
topology, routing, latency, measurement infrastructure, dataset substrates —
and returns a :class:`World` handle the measurement methodology
(:mod:`repro.core`) runs against.  Two worlds built from the same seed and
config are identical in every observable way.

World construction is cacheable: pass ``world_cache`` (or set
``$REPRO_WORLD_CACHE``) and the expensive state — topology, routing
fabric, attachment delay grid — is restored from a deterministic on-disk
snapshot keyed by ``(config, seed)`` when one exists, and captured into
the cache the first time :meth:`World.ensure_routing_fabric` computes it.
A cache-restored world's campaign output is byte-identical to a freshly
built one's (see :mod:`repro.core.worldcache`); ``use_world_cache=False``
forces the reference from-scratch path regardless of the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.datasets.apnic import ApnicCoverage
from repro.datasets.config import DatasetConfig
from repro.datasets.facility_mapping import FacilityMappingDataset
from repro.datasets.peeringdb import PeeringDB
from repro.datasets.periscope import Periscope
from repro.datasets.prefix2as import Prefix2AS
from repro.errors import TopologyError
from repro.geo.matrix import CityDelayMatrix
from repro.latency.backbone import BackboneStretch
from repro.latency.model import LatencyConfig, LatencyModel
from repro.latency.ping import PingEngine
from repro.measurement.atlas import RipeAtlasEmulator
from repro.measurement.colo import ColoInterfacePool
from repro.measurement.config import InfrastructureConfig
from repro.measurement.nodes import HostAddressBook, MeasurementNode
from repro.measurement.planetlab import PlanetLabEmulator
from repro.net.ipv4 import IPv4Address
from repro.routing.bgp import BGPRouting
from repro.routing.fabric import RoutingFabric
from repro.routing.geopath import GeoPathWalker
from repro.topology.builder import Topology, TopologyBuilder
from repro.topology.config import TopologyConfig
from repro.topology.types import ASType
from repro.util.rand import SeedSequenceFactory

if TYPE_CHECKING:
    from repro.core.worldcache import WorldCache, WorldSnapshot


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Aggregated configuration of every subsystem."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    infrastructure: InfrastructureConfig = field(default_factory=InfrastructureConfig)
    datasets: DatasetConfig = field(default_factory=DatasetConfig)


class World:
    """A fully-built synthetic Internet plus its measurement ecosystem.

    Instances are produced by :func:`build_world`; all attributes are
    read-only by convention.
    """

    def __init__(
        self,
        seed: int,
        config: WorldConfig,
        *,
        snapshot: "WorldSnapshot | None" = None,
    ) -> None:
        self.seed = seed
        self.config = config
        self.seeds = SeedSequenceFactory(seed)

        #: With a snapshot, the topology is restored from arrays instead of
        #: generated; every insertion order is preserved, and the builder's
        #: seed streams are simply never drawn (streams are named, so no
        #: other subsystem shifts).
        self.topology: Topology = (
            snapshot.restore_topology(config.topology)
            if snapshot is not None
            else TopologyBuilder(config.topology, self.seeds).build()
        )
        self.graph = self.topology.graph
        #: This world's precomputed routing fabric.  Created empty (CSR
        #: adjacency arrays only); destination tables are bulk-computed by
        #: :meth:`ensure_routing_fabric` when a campaign starts, and served
        #: through :attr:`routing` transparently.
        self.fabric = RoutingFabric(self.graph)
        self.routing = BGPRouting(self.graph, fabric=self.fabric)
        self.backbone_stretch = BackboneStretch(self.graph)
        #: This world's vectorized city-geometry cache; shared by the path
        #: walker and the campaign's feasibility filter so delay rows are
        #: computed once per world (no module-global state).
        self.delay_matrix = CityDelayMatrix()
        self.walker = GeoPathWalker(
            self.graph,
            stretch_of=self.backbone_stretch.factor,
            delay_matrix=self.delay_matrix,
        )
        #: Serves every base RTT from the attachment grid; the first query
        #: on a world without one builds it (:meth:`ensure_routing_fabric`).
        self.latency = LatencyModel(config.latency, build_grid=self.ensure_routing_fabric)
        self.ping_engine = PingEngine(self.latency)

        book = HostAddressBook(self.graph)
        self.atlas = RipeAtlasEmulator(
            self.topology, book, config.infrastructure, self.seeds
        )
        self.planetlab = PlanetLabEmulator(
            self.topology, book, config.infrastructure, self.seeds
        )
        self.colo_pool = ColoInterfacePool(
            self.topology, book, config.infrastructure, self.seeds
        )

        self.peeringdb = PeeringDB(
            self.topology,
            config.datasets,
            self.seeds,
            churn=snapshot.peeringdb_churn() if snapshot is not None else None,
        )
        self.prefix2as = Prefix2AS(self.topology, config.datasets, self.seeds)
        self.facility_mapping = FacilityMappingDataset(
            self.topology, self.colo_pool, config.datasets, self.seeds
        )
        self.periscope = Periscope(
            self.topology, self.latency, book, config.infrastructure, self.seeds
        )
        self.apnic = ApnicCoverage(self.topology, self.seeds)

        self._nodes_by_id: dict[str, MeasurementNode] = {}
        self._nodes_by_ip: dict[IPv4Address, MeasurementNode] = {}
        self._index_nodes()
        self._fabric_ready = False
        #: Cache to capture into once the fabric is computed (set by
        #: :func:`build_world` on a miss; never set on a restored world).
        self._world_cache: "WorldCache | None" = None
        if snapshot is not None:
            snapshot.attach_routing(self)

    def _index_nodes(self) -> None:
        nodes: list[MeasurementNode] = [p.node for p in self.atlas.all_probes()]
        nodes.extend(n.node for n in self.planetlab.all_nodes())
        nodes.extend(i.node for i in self.colo_pool.interfaces())
        for city in self.periscope.covered_cities():
            nodes.extend(lg.node for lg in self.periscope.lgs_in(city))
        for node in nodes:
            if node.node_id in self._nodes_by_id:
                raise TopologyError(f"duplicate node id {node.node_id}")
            if node.ip in self._nodes_by_ip:
                raise TopologyError(f"duplicate node IP {node.ip}")
            self._nodes_by_id[node.node_id] = node
            self._nodes_by_ip[node.ip] = node

    # ----------------------------------------------------------------- nodes

    def node(self, node_id: str) -> MeasurementNode:
        """Look a node up by id.

        Raises:
            KeyError: if unknown.
        """
        return self._nodes_by_id[node_id]

    def node_by_ip(self, ip: IPv4Address) -> MeasurementNode | None:
        """Look a node up by IP address; None for unassigned addresses."""
        return self._nodes_by_ip.get(ip)

    def num_nodes(self) -> int:
        """Total number of indexed vantage points."""
        return len(self._nodes_by_id)

    # ---------------------------------------------------------------- routing

    def campaign_destination_asns(self) -> list[int]:
        """Every ASN a measurement campaign can ping toward.

        The union of the hosting ASes of all Atlas probes (endpoints and
        RAR relays), PlanetLab nodes (PLR relays) and colo interfaces (COR
        relays) — the destination set of every direct pair and relay leg a
        campaign can measure.
        """
        return sorted({node.asn for node in self._campaign_nodes()})

    def ensure_routing_fabric(self) -> RoutingFabric:
        """Bulk-precompute routing for the campaign destination set.

        Computes every destination routing table in one batched pass, then
        the attachment-to-attachment one-way delay grid (hop-sorted
        vectorized walks over the predecessor arrays) that the latency model
        serves base RTTs from.  Idempotent on coverage, not just per
        session: if the fabric already covers the destination set and the
        installed grid's rows match the attachment list — a snapshot-
        restored world, or a fabric warmed by an earlier caller — nothing
        is recomputed.  Called eagerly by
        :class:`~repro.core.campaign.MeasurementCampaign` so no round pays
        for first-time routing computation, and by the latency model on the
        first base-RTT query of a world that has not called it yet.

        On the first computation of a world built with a cache
        (:func:`build_world` ``world_cache=``), the finished state is
        captured into the cache for future processes.
        """
        if self._fabric_ready:
            return self.fabric
        with obs.span("world.fabric"):
            attachments = self._grid_attachments()
            self.fabric.ensure(sorted({asn for asn, _ in attachments}))
            if not self.latency.attachment_grid_covers(attachments):
                grid, att_ids = self.fabric.build_attachment_grid(
                    self.walker, attachments, self.config.latency.per_hop_ms
                )
                self.latency.set_attachment_grid(grid, att_ids)
                if self._world_cache is not None:
                    self._world_cache.store(self)
        self._fabric_ready = True
        return self.fabric

    def _grid_attachments(self) -> list[tuple[int, str]]:
        """Every ``(asn, city)`` attachment the delay grid precomputes.

        Campaign nodes (endpoints and relays) plus the fixed measurement
        vantages whose legs the colo pipeline resolves every run — the
        Periscope looking glasses and the pipeline monitor's tier-1
        attachment — so that one-time verification is grid gathers instead
        of scalar walks.
        """
        attachments = {(n.asn, n.city_key) for n in self._campaign_nodes()}
        for city in self.periscope.covered_cities():
            for lg in self.periscope.lgs_in(city):
                attachments.add((lg.node.asn, lg.node.city_key))
        tier1s = self.topology.asns_of_type(ASType.TRANSIT_GLOBAL)
        if tier1s:
            monitor_as = self.graph.get_as(tier1s[0])
            attachments.add((monitor_as.asn, monitor_as.primary_city))
        return sorted(attachments)

    def _campaign_nodes(self):
        for probe in self.atlas.all_probes():
            yield probe.node
        for pl_node in self.planetlab.all_nodes():
            yield pl_node.node
        for interface in self.colo_pool.interfaces():
            yield interface.node

    def summary(self) -> dict[str, int]:
        """Entity counts across the world, for logging and sanity checks."""
        info = self.topology.summary()
        info["atlas_probes"] = len(self.atlas.all_probes())
        info["planetlab_nodes"] = len(self.planetlab.all_nodes())
        info["colo_interfaces"] = len(self.colo_pool.interfaces())
        info["looking_glasses"] = self.periscope.num_lgs()
        info["facility_mapping_records"] = len(self.facility_mapping)
        return info


def build_world(
    seed: int = 0,
    config: WorldConfig | None = None,
    *,
    world_cache: str | None = None,
    use_world_cache: bool = True,
) -> World:
    """Build a complete world from a seed (the package's main entry point).

    ``world_cache`` names an on-disk snapshot directory (falling back to
    ``$REPRO_WORLD_CACHE`` when None): a snapshot keyed to ``(config,
    seed)`` restores the topology, routing fabric and delay grid instead
    of rebuilding them, and a miss arms the world to capture its state
    once :meth:`World.ensure_routing_fabric` first computes it.
    ``use_world_cache=False`` is the reference path — always build from
    scratch, never read or write a cache.
    """
    from repro.core.worldcache import resolve_cache

    config = config or WorldConfig()
    cache = resolve_cache(world_cache) if use_world_cache else None
    if cache is None:
        obs.inc("world.builds")
        with obs.span("world.build"):
            return World(seed, config)
    snapshot = cache.load(seed, config)
    if snapshot is not None:
        obs.inc("world.cache.hits")
        with obs.span("world.restore"):
            return World(seed, config, snapshot=snapshot)
    obs.inc("world.cache.misses")
    obs.inc("world.builds")
    with obs.span("world.build"):
        world = World(seed, config)
    world._world_cache = cache
    return world
