"""On-disk world snapshots: build once per ``(config, seed)``, share.

A sweep rebuilds the same synthetic Internet in every worker: topology
generation, the routing fabric's bulk relaxation and the attachment delay
grid together dwarf the measurement itself (ROADMAP: ~8 s/seed of which
<1 s is measurement).  This module serializes exactly that expensive state
into one deterministic ``.npz`` snapshot per ``(WorldConfig, seed,
SNAPSHOT_VERSION)`` and restores it without re-running any of it:

* **topology** — AS records, adjacencies, facilities and IXPs as flat
  arrays, preserving every insertion order, so the rebuilt
  :class:`~repro.topology.builder.Topology` is observationally identical
  to the generated one (graph node/edge order drives fabric indexing and
  neighbour-set layouts downstream);
* **PeeringDB churn** — the one dataset whose generation iterates
  ``frozenset`` fields of the topology while drawing randomness; a
  rebuilt frozenset does not reproduce the original's iteration order, so
  the churn *outcome* travels in the snapshot instead of being re-derived;
* **routing fabric** — the merged per-destination predecessor tables
  (``rclass`` / ``dist`` / ``next_hop``), restored as one read-only batch;
* **attachment grid** — the ``(A x A)`` one-way delay matrix plus its
  attachment row order, installed directly into the latency model.

Everything else (emulators, datasets, node indexing) is rebuilt live:
each subsystem draws from its own named seed stream
(:class:`~repro.util.rand.SeedSequenceFactory` streams are independent of
request order), so skipping the builder cannot perturb them, and a
restored world's campaign output is byte-identical to a fresh build's
(asserted in ``tests/test_worldcache.py``).

Snapshots go through :mod:`repro.core.store`: they are deterministic at
the byte level — capturing the same state twice yields identical files —
and written atomically, so concurrent sweep workers racing on one key are
safe.  Loads memory-map every member, which keeps the per-worker resident
cost of the fabric and grid near zero.  Unreadable, truncated,
version-bumped or key-mismatched files are treated as cache misses, never
errors: the caller rebuilds and overwrites.
"""

from __future__ import annotations

import dataclasses
import json
import os
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro import obs
from repro.core.store import read_arrays, str_array, write_arrays
from repro.errors import WorldCacheError
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.topology.builder import Topology
from repro.topology.facilities import IXP, Facility
from repro.topology.graph import ASGraph, Relationship
from repro.topology.types import ASType, AutonomousSystem

if TYPE_CHECKING:
    from repro.world import World, WorldConfig

#: Bump on any change to the snapshot layout or to what must be captured;
#: older files then miss cleanly and are rebuilt.
SNAPSHOT_VERSION = 2

#: Environment variable consulted by :func:`resolve_cache` when no explicit
#: cache directory is given (the CLI's ``--world-cache`` wins over it).
CACHE_ENV_VAR = "REPRO_WORLD_CACHE"

_ASTYPES = tuple(ASType)
_ASTYPE_CODE = {t: i for i, t in enumerate(_ASTYPES)}
_REL_CODE = {Relationship.C2P: 0, Relationship.P2P: 1}


def config_digest(config: "WorldConfig") -> str:
    """A stable content digest of a :class:`~repro.world.WorldConfig`.

    Canonical JSON (sorted keys, tuples as lists) over the nested frozen
    dataclasses, hashed with blake2b.  Any changed field — topology knobs,
    latency tunables, infrastructure or dataset probabilities — changes
    the digest and therefore the cache key.
    """
    canonical = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return blake2b(canonical.encode(), digest_size=16).hexdigest()


def snapshot_key(seed: int, config: "WorldConfig") -> str:
    """The cache key (and file stem) for ``(config, seed, version)``."""
    return f"world-{config_digest(config)}-s{seed}-v{SNAPSHOT_VERSION}"


# --------------------------------------------------------------- capture


def _csr(rows: Iterable[Iterable]) -> tuple[np.ndarray, list]:
    """Ragged rows -> (indptr, flat python list)."""
    indptr = [0]
    flat: list = []
    for row in rows:
        flat.extend(row)
        indptr.append(len(flat))
    return np.asarray(indptr, dtype=np.int64), flat


def capture_arrays(world: "World") -> dict[str, np.ndarray]:
    """Snapshot a world's expensive state into named flat arrays.

    The world must have its routing fabric and attachment grid built
    (:meth:`~repro.world.World.ensure_routing_fabric`); raises
    :class:`~repro.errors.WorldCacheError` otherwise.  The mapping's key
    order is fixed, so serializing it yields identical bytes for
    identical state.
    """
    grid_state = world.latency.attachment_grid()
    if grid_state is None:
        raise WorldCacheError(
            "cannot capture a world before ensure_routing_fabric() built "
            "its attachment grid"
        )
    grid, att_ids = grid_state
    topo = world.topology
    graph = topo.graph

    arrays: dict[str, np.ndarray] = {}
    meta = {
        "snapshot_version": SNAPSHOT_VERSION,
        "seed": world.seed,
        "config_digest": config_digest(world.config),
        "num_graph_nodes": len(graph),
    }
    arrays["meta"] = np.asarray([json.dumps(meta, sort_keys=True)])

    # ---- autonomous systems, in graph insertion order
    ases = list(graph)
    arrays["as_asn"] = np.asarray([a.asn for a in ases], dtype=np.int64)
    arrays["as_name"] = str_array([a.name for a in ases])
    arrays["as_type"] = np.asarray(
        [_ASTYPE_CODE[a.as_type] for a in ases], dtype=np.int8
    )
    arrays["as_cc"] = str_array([a.cc for a in ases])
    arrays["as_pop_indptr"], pops = _csr(a.pop_cities for a in ases)
    arrays["as_pop_cities"] = str_array(pops)
    arrays["as_prefix_indptr"], prefixes = _csr(a.prefixes for a in ases)
    arrays["as_prefix_net"] = np.asarray(
        [p.network.value for p in prefixes], dtype=np.uint32
    )
    arrays["as_prefix_len"] = np.asarray(
        [p.length for p in prefixes], dtype=np.int8
    )

    # ---- adjacencies, in graph insertion order
    edges = list(graph.edges())
    arrays["edge_a"] = np.asarray([e.a for e in edges], dtype=np.int64)
    arrays["edge_b"] = np.asarray([e.b for e in edges], dtype=np.int64)
    arrays["edge_rel"] = np.asarray(
        [_REL_CODE[e.rel] for e in edges], dtype=np.int8
    )
    arrays["edge_city_indptr"], cities = _csr(
        e.interconnect_cities for e in edges
    )
    arrays["edge_cities"] = str_array(cities)

    # ---- role index, rows in ASType declaration order
    arrays["bytype_indptr"], bytype = _csr(
        topo.asns_of_type(t) for t in _ASTYPES
    )
    arrays["bytype_asns"] = np.asarray(bytype, dtype=np.int64)

    # ---- facilities and IXPs, dict insertion order; frozenset fields are
    # stored sorted (canonical) — no consumer outside the serialized
    # PeeringDB churn depends on their iteration order
    facs = list(topo.facilities.values())
    arrays["fac_id"] = np.asarray([f.fac_id for f in facs], dtype=np.int64)
    arrays["fac_name"] = str_array([f.name for f in facs])
    arrays["fac_operator"] = str_array([f.operator for f in facs])
    arrays["fac_city"] = str_array([f.city_key for f in facs])
    arrays["fac_cloud"] = np.asarray(
        [f.cloud_services for f in facs], dtype=bool
    )
    arrays["fac_members_indptr"], fac_members = _csr(
        sorted(f.members) for f in facs
    )
    arrays["fac_members"] = np.asarray(fac_members, dtype=np.int64)
    arrays["fac_ixps_indptr"], fac_ixps = _csr(sorted(f.ixp_ids) for f in facs)
    arrays["fac_ixps"] = np.asarray(fac_ixps, dtype=np.int64)

    ixps = list(topo.ixps.values())
    arrays["ixp_id"] = np.asarray([x.ixp_id for x in ixps], dtype=np.int64)
    arrays["ixp_name"] = str_array([x.name for x in ixps])
    arrays["ixp_city"] = str_array([x.city_key for x in ixps])
    arrays["ixp_fac_indptr"], ixp_facs = _csr(
        sorted(x.facility_ids) for x in ixps
    )
    arrays["ixp_facs"] = np.asarray(ixp_facs, dtype=np.int64)
    arrays["ixp_members_indptr"], ixp_members = _csr(
        sorted(x.members) for x in ixps
    )
    arrays["ixp_members"] = np.asarray(ixp_members, dtype=np.int64)

    # ---- PeeringDB churn outcome (see module docstring)
    closed, departed = world.peeringdb.churn_state()
    arrays["pdb_closed"] = np.asarray(sorted(closed), dtype=np.int64)
    departed_sorted = sorted(departed)
    arrays["pdb_departed"] = np.asarray(
        departed_sorted, dtype=np.int64
    ).reshape(len(departed_sorted), 2)

    # ---- routing fabric destination tables
    dests, rclass, dist, next_hop = world.fabric.export_tables()
    arrays["fab_dest"] = np.asarray(dests, dtype=np.int64)
    arrays["fab_rclass"] = rclass
    arrays["fab_dist"] = dist
    arrays["fab_next_hop"] = next_hop

    # ---- attachment delay grid, rows in attachment id order
    arrays["grid"] = np.ascontiguousarray(grid)
    arrays["att_asn"] = np.asarray([asn for asn, _ in att_ids], dtype=np.int64)
    arrays["att_city"] = str_array([city for _, city in att_ids])
    return arrays


# --------------------------------------------------------------- restore


class WorldSnapshot:
    """A loaded snapshot, ready to rebuild a world's expensive state.

    Constructed by :meth:`WorldCache.load`; consumed by
    :class:`~repro.world.World` (``snapshot=`` argument).  Arrays may be
    memory-mapped; nothing here writes to them.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._a = arrays

    def restore_topology(self, config) -> Topology:
        """Rebuild the :class:`Topology`, preserving every insertion order."""
        a = self._a
        graph = ASGraph()
        pop_indptr = a["as_pop_indptr"].tolist()
        pops = a["as_pop_cities"].tolist()
        pfx_indptr = a["as_prefix_indptr"].tolist()
        pfx_net = a["as_prefix_net"].tolist()
        pfx_len = a["as_prefix_len"].tolist()
        for i, (asn, name, code, cc) in enumerate(
            zip(
                a["as_asn"].tolist(),
                a["as_name"].tolist(),
                a["as_type"].tolist(),
                a["as_cc"].tolist(),
            )
        ):
            lo, hi = pfx_indptr[i], pfx_indptr[i + 1]
            graph.add_as(
                AutonomousSystem(
                    asn=asn,
                    name=name,
                    as_type=_ASTYPES[code],
                    cc=cc,
                    pop_cities=tuple(pops[pop_indptr[i] : pop_indptr[i + 1]]),
                    prefixes=tuple(
                        IPv4Prefix(IPv4Address(net), length)
                        for net, length in zip(pfx_net[lo:hi], pfx_len[lo:hi])
                    ),
                )
            )
        city_indptr = a["edge_city_indptr"].tolist()
        edge_cities = a["edge_cities"].tolist()
        for i, (ea, eb, rel) in enumerate(
            zip(
                a["edge_a"].tolist(),
                a["edge_b"].tolist(),
                a["edge_rel"].tolist(),
            )
        ):
            cities = edge_cities[city_indptr[i] : city_indptr[i + 1]]
            if rel == 0:
                graph.add_c2p(ea, eb, cities)
            else:
                graph.add_p2p(ea, eb, cities)

        facilities: dict[int, Facility] = {}
        fm_indptr = a["fac_members_indptr"].tolist()
        fm = a["fac_members"].tolist()
        fx_indptr = a["fac_ixps_indptr"].tolist()
        fx = a["fac_ixps"].tolist()
        for i, fac_id in enumerate(a["fac_id"].tolist()):
            facilities[fac_id] = Facility(
                fac_id=fac_id,
                name=str(a["fac_name"][i]),
                operator=str(a["fac_operator"][i]),
                city_key=str(a["fac_city"][i]),
                members=frozenset(fm[fm_indptr[i] : fm_indptr[i + 1]]),
                ixp_ids=frozenset(fx[fx_indptr[i] : fx_indptr[i + 1]]),
                cloud_services=bool(a["fac_cloud"][i]),
            )
        ixps: dict[int, IXP] = {}
        xf_indptr = a["ixp_fac_indptr"].tolist()
        xf = a["ixp_facs"].tolist()
        xm_indptr = a["ixp_members_indptr"].tolist()
        xm = a["ixp_members"].tolist()
        for i, ixp_id in enumerate(a["ixp_id"].tolist()):
            ixps[ixp_id] = IXP(
                ixp_id=ixp_id,
                name=str(a["ixp_name"][i]),
                city_key=str(a["ixp_city"][i]),
                facility_ids=frozenset(xf[xf_indptr[i] : xf_indptr[i + 1]]),
                members=frozenset(xm[xm_indptr[i] : xm_indptr[i + 1]]),
            )

        bt_indptr = a["bytype_indptr"].tolist()
        bt = a["bytype_asns"].tolist()
        by_type = {
            t: tuple(bt[bt_indptr[i] : bt_indptr[i + 1]])
            for i, t in enumerate(_ASTYPES)
        }
        return Topology(
            graph=graph,
            facilities=facilities,
            ixps=ixps,
            config=config,
            _by_type=by_type,
        )

    def peeringdb_churn(
        self,
    ) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
        """The serialized PeeringDB churn outcome."""
        closed = frozenset(self._a["pdb_closed"].tolist())
        departed = frozenset(
            (fac, asn) for fac, asn in self._a["pdb_departed"].tolist()
        )
        return closed, departed

    def attach_routing(self, world: "World") -> None:
        """Install the fabric tables and the attachment grid."""
        a = self._a
        world.fabric.restore_tables(
            a["fab_dest"].tolist(),
            a["fab_rclass"],
            a["fab_dist"],
            a["fab_next_hop"],
        )
        att_ids = {
            (asn, city): i
            for i, (asn, city) in enumerate(
                zip(a["att_asn"].tolist(), a["att_city"].tolist())
            )
        }
        world.latency.set_attachment_grid(a["grid"], att_ids)


# --------------------------------------------------------------- the cache


class WorldCache:
    """An on-disk directory of world snapshots keyed by (config, seed).

    ``load`` returns None for any file that is absent, unreadable, from a
    different snapshot version or keyed to a different config — the
    caller builds fresh and ``store`` overwrites atomically.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, seed: int, config: "WorldConfig") -> Path:
        """Where the snapshot for ``(config, seed)`` lives."""
        return self.root / f"{snapshot_key(seed, config)}.npz"

    def load(self, seed: int, config: "WorldConfig") -> WorldSnapshot | None:
        """Load and validate a snapshot; None on miss or any defect."""
        with obs.span("world.cache.load"):
            return self._load(seed, config)

    def _load(self, seed: int, config: "WorldConfig") -> WorldSnapshot | None:
        path = self.path_for(seed, config)
        if not path.exists():
            return None
        try:
            arrays = read_arrays(path)
            meta = json.loads(str(arrays["meta"][0]))
            if meta["snapshot_version"] != SNAPSHOT_VERSION:
                return None
            if meta["seed"] != seed:
                return None
            if meta["config_digest"] != config_digest(config):
                return None
            # touch the members restore needs, so truncated files miss here
            for name in (
                "as_asn",
                "edge_a",
                "fab_dest",
                "fab_rclass",
                "grid",
                "att_asn",
            ):
                arrays[name].shape  # noqa: B018 — existence check
            return WorldSnapshot(arrays)
        except Exception:
            obs.inc("world.cache.defects")
            return None

    def store(self, world: "World") -> Path:
        """Capture and write the world's snapshot atomically (:mod:`repro.core.store`)."""
        with obs.span("world.cache.store"):
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.path_for(world.seed, world.config)
            return write_arrays(path, capture_arrays(world))


def resolve_cache(
    world_cache: str | os.PathLike | None = None,
) -> WorldCache | None:
    """The cache to use: explicit path, else ``$REPRO_WORLD_CACHE``, else None."""
    if world_cache is not None:
        return WorldCache(world_cache)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return WorldCache(env)
    return None
