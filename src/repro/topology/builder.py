"""Deterministic generator of the synthetic Internet topology.

The builder creates, in order: tier-1 transit, regional transit per
continent, eyeball ISPs per country, content/cloud networks, research
(NREN) networks and enterprise stubs; then colocation facilities and IXPs
at hub metros; then the Gao-Rexford adjacencies (transit mesh, customer
cones, IXP peering).  All randomness comes from named streams of a
:class:`~repro.util.rand.SeedSequenceFactory`, so one seed reproduces the
entire world bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, TopologyError
from repro.geo.cities import City, all_cities, cities_in_country, city as city_of, hub_cities
from repro.geo.countries import all_countries
from repro.geo.distance import great_circle_km
from repro.net.allocator import PrefixAllocator
from repro.topology.config import TopologyConfig
from repro.topology.facilities import IXP, Facility
from repro.topology.graph import ASGraph
from repro.topology.types import ASType, AutonomousSystem, COLO_TENANT_TYPES
from repro.util.rand import SeedSequenceFactory

#: One bit per AS role: a pair of ASes is the OR of its members' bits.
_TYPE_BIT = {as_type: 1 << i for i, as_type in enumerate(ASType)}

#: Probability that a facility member of each role joins a hub's IXP.
_IXP_JOIN_PROB = {
    ASType.CONTENT: 0.85,
    ASType.CLOUD: 0.8,
    ASType.TRANSIT_GLOBAL: 0.6,
    ASType.TRANSIT_REGIONAL: 0.7,
    ASType.EYEBALL: 0.5,
    ASType.RESEARCH: 0.5,
    ASType.ENTERPRISE: 0.2,
}

_FACILITY_OPERATORS = (
    "Equinox",
    "Telihouse",
    "Interxchange",
    "Digital Realm",
    "CoreLocate",
    "GlobalRack",
    "NetHaus",
    "DataDock",
    "ColoCentral",
    "HubOne",
)

_TIER1_NAMES = (
    "Centuria Backbone",
    "Levant-3",
    "GTT-like Global",
    "Cogentia",
    "TeliaNet Intl",
    "NTT-like Global",
    "Zayo-like",
    "Tata-like Comm",
    "PCCW-like Global",
    "Orange Intl",
    "Sparkle Intl",
    "Lumen-like",
)

_CONTENT_NAMES = (
    "StreamCast CDN",
    "VideoPrime CDN",
    "EdgeServe",
    "FastPath CDN",
    "Cachely",
    "MediaGrid",
    "PixelFlow",
    "ClipNet",
    "SurgeCDN",
    "RapidEdge",
    "MirrorWave",
    "ByteSpring",
    "NodeFront",
    "SwiftCache",
    "OriginX",
    "PulseCDN",
    "VectorStream",
    "PrimeEdge",
)

_CLOUD_NAMES = (
    "Nimbus Cloud",
    "StratusCompute",
    "AltoCloud",
    "CirrusHost",
    "VaporStack",
    "SkyForge",
    "CumulusGrid",
    "AetherCloud",
    "ZenithCompute",
    "ApexHosting",
    "OrbitCloud",
    "NovaCompute",
)


@dataclass
class Topology:
    """The generated Internet: graph + facility/IXP ecosystem.

    Attributes:
        graph: AS relationship graph.
        facilities: Facility records keyed by facility id.
        ixps: IXP records keyed by IXP id.
        config: The configuration the world was generated from.
    """

    graph: ASGraph
    facilities: dict[int, Facility]
    ixps: dict[int, IXP]
    config: TopologyConfig
    _by_type: dict[ASType, tuple[int, ...]] = field(default_factory=dict)

    def asns_of_type(self, as_type: ASType) -> tuple[int, ...]:
        """Return the ASNs of a given role, in creation order."""
        return self._by_type.get(as_type, ())

    def eyeball_asns(self) -> tuple[int, ...]:
        """Convenience accessor for eyeball ISPs."""
        return self.asns_of_type(ASType.EYEBALL)

    def facilities_of_member(self, asn: int) -> tuple[Facility, ...]:
        """Facilities where the given AS has equipment."""
        return tuple(f for f in self.facilities.values() if asn in f.members)

    def summary(self) -> dict[str, int]:
        """Entity counts, for logging and sanity tests."""
        counts = {f"as_{t.value}": len(self.asns_of_type(t)) for t in ASType}
        counts["as_total"] = len(self.graph)
        counts["edges"] = self.graph.num_edges()
        counts["facilities"] = len(self.facilities)
        counts["ixps"] = len(self.ixps)
        return counts


class TopologyBuilder:
    """Builds a :class:`Topology` from a config and a seed factory."""

    def __init__(self, config: TopologyConfig, seeds: SeedSequenceFactory) -> None:
        self._cfg = config
        self._seeds = seeds
        self._graph = ASGraph()
        self._allocator = PrefixAllocator("10.0.0.0/8")
        self._next_asn = config.first_asn
        self._by_type: dict[ASType, list[int]] = {t: [] for t in ASType}
        self._hub_list: tuple[City, ...] = hub_cities()
        if config.continent_scope is not None:
            scope = set(config.continent_scope)
            # scoping the hub list scopes everything placed at hubs —
            # tier-1 PoPs, content/cloud presence, facilities and IXPs —
            # so a regional world has no out-of-scope infrastructure
            self._hub_list = tuple(c for c in self._hub_list if c.continent in scope)
            if not self._hub_list:
                raise ConfigError(
                    f"continent_scope {config.continent_scope} has no hub metros"
                )
        self._hub_weights = self._compute_hub_weights()
        self._countries = self._select_countries(
            config.country_limit, config.continent_scope
        )

    @staticmethod
    def _select_countries(limit: int | None, scope: tuple[str, ...] | None = None):
        """The countries the world places ASes in.

        With a limit, pick round-robin across continents so a small world
        still spans the globe (intercontinental pairs dominate the paper's
        dataset and drive its path-inflation findings).  A continent scope
        restricts the pool before the limit applies.
        """
        countries = all_countries()
        if scope is not None:
            allowed = set(scope)
            countries = [c for c in countries if c.continent in allowed]
        if limit is None or limit >= len(countries):
            return list(countries)
        by_continent: dict[str, list] = {}
        for ctry in countries:
            by_continent.setdefault(ctry.continent, []).append(ctry)
        picked = []
        rotation = sorted(by_continent)
        cursor = {continent: 0 for continent in rotation}
        while len(picked) < limit:
            progressed = False
            for continent in rotation:
                pool = by_continent[continent]
                if cursor[continent] < len(pool):
                    picked.append(pool[cursor[continent]])
                    cursor[continent] += 1
                    progressed = True
                    if len(picked) == limit:
                        break
            if not progressed:
                break
        return picked

    # ------------------------------------------------------------------ API

    def build(self) -> Topology:
        """Generate the full topology; deterministic for a given seed."""
        self._create_tier1s()
        self._create_regionals()
        self._create_eyeballs()
        self._create_content_and_cloud()
        self._create_research()
        self._create_enterprises()
        facilities = self._create_facilities()
        ixps = self._create_ixps(facilities)
        self._wire_transit_mesh()
        self._wire_regional_transit()
        self._wire_eyeball_transit()
        self._wire_content_cloud_transit()
        self._wire_research()
        self._wire_enterprises()
        self._wire_peering(ixps)
        self._graph.validate()
        topo = Topology(
            graph=self._graph,
            facilities=facilities,
            ixps=ixps,
            config=self._cfg,
            _by_type={t: tuple(asns) for t, asns in self._by_type.items()},
        )
        return topo

    # -------------------------------------------------------------- helpers

    def _compute_hub_weights(self) -> np.ndarray:
        """Hub attractiveness: population plus a flat interconnection bonus.

        Small metros that are major interconnection points (e.g. Ashburn)
        still attract presence, hence the flat bonus.
        """
        weights = np.array([c.population_m + 6.0 for c in self._hub_list])
        return weights / weights.sum()

    def _claim_asn(self) -> int:
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def _register(
        self,
        name: str,
        as_type: ASType,
        cc: str,
        pop_cities: list[str],
        num_prefixes: int,
        prefix_len: int,
    ) -> int:
        asn = self._claim_asn()
        prefixes = tuple(self._allocator.allocate_prefix(prefix_len) for _ in range(num_prefixes))
        asys = AutonomousSystem(
            asn=asn,
            name=name,
            as_type=as_type,
            cc=cc,
            pop_cities=tuple(pop_cities),
            prefixes=prefixes,
        )
        self._graph.add_as(asys)
        self._by_type[as_type].append(asn)
        return asn

    def _sample_hubs(self, rng: np.random.Generator, count: int) -> list[str]:
        """Sample distinct hub city keys, weighted by attractiveness."""
        count = min(count, len(self._hub_list))
        idx = rng.choice(len(self._hub_list), size=count, replace=False, p=self._hub_weights)
        return [self._hub_list[i].key for i in sorted(idx)]

    @staticmethod
    def _nearest_city_key(target: City, candidates: list[str]) -> str:
        """The candidate city key geographically closest to ``target``."""
        if not candidates:
            raise TopologyError("no candidate interconnection city")
        return min(
            candidates,
            key=lambda key: great_circle_km(target.location, city_of(key).location),
        )

    # ------------------------------------------------------------ AS layers

    def _create_tier1s(self) -> None:
        rng = self._seeds.rng("topology.tier1")
        home_ccs = ("US", "US", "GB", "DE", "FR", "JP", "US", "IN", "HK", "FR", "IT", "US")
        for i in range(self._cfg.num_tier1):
            name = _TIER1_NAMES[i % len(_TIER1_NAMES)]
            cc = home_ccs[i % len(home_ccs)]
            # Tier-1s are present at most hubs.
            pops = [c.key for c in self._hub_list if rng.random() < 0.85]
            if len(pops) < 8:
                pops = [c.key for c in self._hub_list[:10]]
            # Primary city: a hub in the home country if any, else first PoP.
            home = [k for k in pops if k.endswith(f"/{cc}")]
            if home:
                pops.remove(home[0])
                pops.insert(0, home[0])
            self._register(name, ASType.TRANSIT_GLOBAL, cc, pops, 2, 20)

    def _create_regionals(self) -> None:
        rng = self._seeds.rng("topology.regional")
        countries_by_continent: dict[str, list] = {}
        for ctry in self._countries:
            countries_by_continent.setdefault(ctry.continent, []).append(ctry)
        for continent, count in self._cfg.regional_per_continent:
            continent_hubs = [c for c in self._hub_list if c.continent == continent]
            continent_cities = [c for c in all_cities() if c.continent == continent]
            candidates = countries_by_continent.get(continent, [])
            if not candidates:
                continue  # continent outside the world's scope
            for i in range(count):
                home = candidates[int(rng.integers(len(candidates)))]
                home_cities = list(cities_in_country(home.code))
                primary = home_cities[int(rng.integers(len(home_cities)))]
                pops = [primary.key]
                # presence at most continent hubs plus a few other cities
                for hub in continent_hubs:
                    if hub.key not in pops and rng.random() < 0.7:
                        pops.append(hub.key)
                extra = [c for c in continent_cities if c.key not in pops]
                if extra:
                    n_extra = int(rng.integers(2, min(6, len(extra) + 1)))
                    for idx in rng.choice(len(extra), size=min(n_extra, len(extra)), replace=False):
                        pops.append(extra[idx].key)
                name = f"{home.name} Carrier {i + 1}"
                self._register(name, ASType.TRANSIT_REGIONAL, home.code, pops, 2, 20)

    def _eyeball_count(self, users_m: float) -> int:
        """Eyeball AS count for a country scales with its user population."""
        count = 1 + int(round(math.log2(users_m + 1.0) / 1.5))
        return max(1, min(self._cfg.max_eyeballs_per_country, count))

    def _create_eyeballs(self) -> None:
        rng = self._seeds.rng("topology.eyeball")
        for ctry in self._countries:
            home_cities = list(cities_in_country(ctry.code))
            if not home_cities:
                continue
            for i in range(self._eyeball_count(ctry.internet_users_m)):
                n_cities = int(rng.integers(1, min(4, len(home_cities)) + 1))
                chosen = list(
                    rng.choice(len(home_cities), size=n_cities, replace=False)
                )
                pops = [home_cities[j].key for j in chosen]
                # largest chosen city first (headquarters)
                pops.sort(key=lambda k: -city_of(k).population_m)
                if rng.random() < self._cfg.eyeball_remote_hub_prob:
                    for hub_key in self._sample_hubs(rng, int(rng.integers(1, 3))):
                        if hub_key not in pops:
                            pops.append(hub_key)
                name = f"{ctry.name} Broadband {i + 1}"
                self._register(name, ASType.EYEBALL, ctry.code, pops, 2, 20)

    def _create_content_and_cloud(self) -> None:
        rng = self._seeds.rng("topology.content")
        for i in range(self._cfg.num_content):
            pops = [c.key for c in self._hub_list if rng.random() < 0.75]
            if len(pops) < 6:
                pops = [c.key for c in self._hub_list[:8]]
            cc = city_of(pops[0]).cc
            self._register(_CONTENT_NAMES[i % len(_CONTENT_NAMES)], ASType.CONTENT, cc, pops, 2, 21)
        for i in range(self._cfg.num_cloud):
            pops = [c.key for c in self._hub_list if rng.random() < 0.65]
            if len(pops) < 5:
                pops = [c.key for c in self._hub_list[:6]]
            cc = city_of(pops[0]).cc
            self._register(_CLOUD_NAMES[i % len(_CLOUD_NAMES)], ASType.CLOUD, cc, pops, 2, 21)

    def _create_research(self) -> None:
        rng = self._seeds.rng("topology.research")
        # Continental research backbones first (GEANT-like), present at hubs.
        self._backbones_by_continent: dict[str, int] = {}
        for continent, _ in self._cfg.regional_per_continent:
            hubs = [c.key for c in self._hub_list if c.continent == continent]
            if not hubs:
                continue
            asn = self._register(
                f"{continent} Research Backbone", ASType.RESEARCH, city_of(hubs[0]).cc, hubs, 1, 21
            )
            self._backbones_by_continent[continent] = asn
        # National NRENs.
        for ctry in self._countries:
            if ctry.continent not in self._backbones_by_continent:
                continue
            if rng.random() >= self._cfg.research_country_prob:
                continue
            home_cities = list(cities_in_country(ctry.code))
            if not home_cities:
                continue
            n = min(2, len(home_cities))
            chosen = rng.choice(len(home_cities), size=n, replace=False)
            pops = [home_cities[j].key for j in chosen]
            self._register(f"{ctry.name} NREN", ASType.RESEARCH, ctry.code, pops, 1, 22)

    def _create_enterprises(self) -> None:
        rng = self._seeds.rng("topology.enterprise")
        for ctry in self._countries:
            if rng.random() >= self._cfg.enterprise_country_prob:
                continue
            home_cities = list(cities_in_country(ctry.code))
            if not home_cities:
                continue
            primary = home_cities[int(rng.integers(len(home_cities)))]
            self._register(
                f"{ctry.name} Enterprise Net", ASType.ENTERPRISE, ctry.code, [primary.key], 1, 22
            )

    # --------------------------------------------------------- colo & IXPs

    def _facility_candidates(self, city_key: str) -> list[int]:
        """ASes with a PoP in the city, colo-tenant roles first."""
        tenants, others = [], []
        for asys in self._graph:
            if not asys.has_pop_in(city_key):
                continue
            if asys.as_type in COLO_TENANT_TYPES:
                tenants.append(asys.asn)
            else:
                others.append(asys.asn)
        return tenants + others

    def _create_facilities(self) -> dict[int, Facility]:
        rng = self._seeds.rng("topology.facility")
        facilities: dict[int, Facility] = {}
        fac_id = 1
        for hub in self._hub_list:
            candidates = self._facility_candidates(hub.key)
            if len(candidates) < 3:
                continue
            n_fac = 1 + int(rng.integers(0, self._cfg.max_facilities_per_hub))
            # attractiveness: first facility in a metro is the flagship
            weights = sorted((rng.pareto(1.5) + 0.3 for _ in range(n_fac)), reverse=True)
            for j in range(n_fac):
                operator = _FACILITY_OPERATORS[int(rng.integers(len(_FACILITY_OPERATORS)))]
                name = f"{operator} {hub.name} {j + 1}"
                if j == 0:
                    # the metro's flagship facility lands nearly every
                    # network in town (Telehouse-North-style mega sites)
                    prob = 0.85
                else:
                    prob = min(
                        0.75, self._cfg.facility_base_membership_prob * min(1.3, weights[j])
                    )
                members = {asn for asn in candidates if rng.random() < prob}
                # flagship facilities always land the tier-1s present in town
                if j == 0:
                    members.update(
                        asn
                        for asn in candidates
                        if self._graph.get_as(asn).as_type == ASType.TRANSIT_GLOBAL
                    )
                if len(members) < 3:
                    members = set(candidates[:3])
                facilities[fac_id] = Facility(
                    fac_id=fac_id,
                    name=name,
                    operator=operator,
                    city_key=hub.key,
                    members=frozenset(members),
                    ixp_ids=frozenset(),  # filled once IXPs exist
                    cloud_services=bool(rng.random() < self._cfg.cloud_facility_prob),
                )
                fac_id += 1
        return facilities

    def _create_ixps(self, facilities: dict[int, Facility]) -> dict[int, IXP]:
        rng = self._seeds.rng("topology.ixp")
        ixps: dict[int, IXP] = {}
        ixp_id = 1
        by_city: dict[str, list[Facility]] = {}
        for fac in facilities.values():
            by_city.setdefault(fac.city_key, []).append(fac)
        for city_key, facs in by_city.items():
            hub = city_of(city_key)
            # every hub metro gets a main exchange; the biggest get a second
            n_ixps = 2 if hub.population_m > 10 and len(facs) >= 2 else 1
            for j in range(n_ixps):
                attached = [f for f in facs if j == 0 or rng.random() < 0.6]
                if not attached:
                    attached = facs[:1]
                pool = set().union(*(f.members for f in attached))
                members = set()
                for asn in pool:
                    join_prob = _IXP_JOIN_PROB[self._graph.get_as(asn).as_type]
                    if rng.random() < join_prob:
                        members.add(asn)
                if len(members) < 3:
                    members = set(list(pool)[:3])
                suffix = "-IX" if j == 0 else f"-IX{j + 1}"
                ixps[ixp_id] = IXP(
                    ixp_id=ixp_id,
                    name=f"{hub.name}{suffix}",
                    city_key=city_key,
                    facility_ids=frozenset(f.fac_id for f in attached),
                    members=frozenset(members),
                )
                ixp_id += 1
        # back-fill facility -> IXP links
        fac_to_ixps: dict[int, set[int]] = {fid: set() for fid in facilities}
        for ixp in ixps.values():
            for fid in ixp.facility_ids:
                fac_to_ixps[fid].add(ixp.ixp_id)
        for fid, fac in list(facilities.items()):
            facilities[fid] = Facility(
                fac_id=fac.fac_id,
                name=fac.name,
                operator=fac.operator,
                city_key=fac.city_key,
                members=fac.members,
                ixp_ids=frozenset(fac_to_ixps[fid]),
                cloud_services=fac.cloud_services,
            )
        return ixps

    # ---------------------------------------------------------------- edges

    def _shared_cities(self, a: int, b: int) -> list[str]:
        pops_a = set(self._graph.get_as(a).pop_cities)
        pops_b = self._graph.get_as(b).pop_cities
        return [key for key in pops_b if key in pops_a]

    def _interconnect_cities(
        self, rng: np.random.Generator, customer: int, provider: int, max_sites: int | None = None
    ) -> list[str]:
        """Choose interconnection cities for a c2p edge.

        Prefer cities where both networks have PoPs; otherwise the customer
        reaches the provider's PoP nearest to the customer's primary city
        over a private line.
        """
        if max_sites is None:
            max_sites = self._cfg.c2p_interconnect_sites
        shared = self._shared_cities(customer, provider)
        if shared:
            k = min(max_sites, len(shared))
            idx = rng.choice(len(shared), size=k, replace=False)
            return [shared[i] for i in sorted(idx)]
        cust_primary = city_of(self._graph.get_as(customer).primary_city)
        provider_pops = list(self._graph.get_as(provider).pop_cities)
        return [self._nearest_city_key(cust_primary, provider_pops)]

    def _wire_transit_mesh(self) -> None:
        rng = self._seeds.rng("topology.mesh")
        tier1s = self._by_type[ASType.TRANSIT_GLOBAL]
        for i, a in enumerate(tier1s):
            for b in tier1s[i + 1 :]:
                shared = self._shared_cities(a, b)
                if not shared:
                    continue
                k = min(self._cfg.mesh_interconnect_sites, len(shared))
                idx = rng.choice(len(shared), size=k, replace=False)
                self._graph.add_p2p(a, b, [shared[j] for j in sorted(idx)])

    def _wire_regional_transit(self) -> None:
        rng = self._seeds.rng("topology.regional_transit")
        tier1s = self._by_type[ASType.TRANSIT_GLOBAL]
        for asn in self._by_type[ASType.TRANSIT_REGIONAL]:
            n_providers = int(rng.integers(2, 4))
            providers = rng.choice(len(tier1s), size=min(n_providers, len(tier1s)), replace=False)
            for idx in providers:
                provider = tier1s[idx]
                self._graph.add_c2p(
                    asn, provider, self._interconnect_cities(rng, asn, provider)
                )

    def _wire_eyeball_transit(self) -> None:
        rng = self._seeds.rng("topology.eyeball_transit")
        regionals = self._by_type[ASType.TRANSIT_REGIONAL]
        tier1s = self._by_type[ASType.TRANSIT_GLOBAL]
        # regionals per home country and per primary-city continent, in
        # creation order
        by_country: dict[str, list[int]] = {}
        by_continent: dict[str, list[int]] = {}
        for r in regionals:
            regional = self._graph.get_as(r)
            by_country.setdefault(regional.cc, []).append(r)
            by_continent.setdefault(city_of(regional.primary_city).continent, []).append(r)
        for asn in self._by_type[ASType.EYEBALL]:
            asys = self._graph.get_as(asn)
            continent = city_of(asys.primary_city).continent
            # prefer same-country regionals, then same-continent ones
            pool = by_country.get(asys.cc) or by_continent.get(continent) or regionals
            n_providers = int(rng.integers(1, 3))
            chosen = rng.choice(len(pool), size=min(n_providers, len(pool)), replace=False)
            for idx in chosen:
                provider = pool[idx]
                if not self._graph.are_adjacent(asn, provider):
                    self._graph.add_c2p(
                        asn, provider, self._interconnect_cities(rng, asn, provider)
                    )
            if rng.random() < self._cfg.eyeball_multihome_tier1_prob:
                provider = tier1s[int(rng.integers(len(tier1s)))]
                if not self._graph.are_adjacent(asn, provider):
                    self._graph.add_c2p(
                        asn, provider, self._interconnect_cities(rng, asn, provider)
                    )

    def _wire_content_cloud_transit(self) -> None:
        rng = self._seeds.rng("topology.content_transit")
        tier1s = self._by_type[ASType.TRANSIT_GLOBAL]
        for asn in self._by_type[ASType.CONTENT] + self._by_type[ASType.CLOUD]:
            n_providers = int(rng.integers(1, 3))
            chosen = rng.choice(len(tier1s), size=min(n_providers, len(tier1s)), replace=False)
            for idx in chosen:
                provider = tier1s[idx]
                self._graph.add_c2p(asn, provider, self._interconnect_cities(rng, asn, provider))

    def _wire_research(self) -> None:
        rng = self._seeds.rng("topology.research_wire")
        backbones = list(self._backbones_by_continent.values())
        regionals = self._by_type[ASType.TRANSIT_REGIONAL]
        tier1s = self._by_type[ASType.TRANSIT_GLOBAL]
        # backbones peer among themselves where they share hubs, and each
        # buys commercial transit from one tier-1
        content_cloud = self._by_type[ASType.CONTENT] + self._by_type[ASType.CLOUD]
        for i, a in enumerate(backbones):
            for b in backbones[i + 1 :]:
                shared = self._shared_cities(a, b)
                if shared:
                    self._graph.add_p2p(a, b, shared[:2])
            provider = tier1s[int(rng.integers(len(tier1s)))]
            self._graph.add_c2p(a, provider, self._interconnect_cities(rng, a, provider))
            # NRENs peer openly at hub exchanges with content and regionals
            for other in content_cloud:
                shared = self._shared_cities(a, other)
                if shared and rng.random() < 0.8:
                    self._graph.add_p2p(a, other, shared[:2])
            for other in regionals:
                if self._graph.are_adjacent(a, other):
                    continue
                shared = self._shared_cities(a, other)
                if shared and rng.random() < 0.7:
                    self._graph.add_p2p(a, other, shared[:2])
        # national NRENs are customers of their continental backbone, and
        # sometimes of a commercial regional as well
        for asn in self._by_type[ASType.RESEARCH]:
            if asn in self._backbones_by_continent.values():
                continue
            asys = self._graph.get_as(asn)
            continent = city_of(asys.primary_city).continent
            backbone = self._backbones_by_continent.get(continent)
            if backbone is not None:
                self._graph.add_c2p(asn, backbone, self._interconnect_cities(rng, asn, backbone))
            if rng.random() < 0.5 and regionals:
                provider = regionals[int(rng.integers(len(regionals)))]
                if not self._graph.are_adjacent(asn, provider):
                    self._graph.add_c2p(
                        asn, provider, self._interconnect_cities(rng, asn, provider)
                    )

    def _wire_enterprises(self) -> None:
        rng = self._seeds.rng("topology.enterprise_wire")
        regionals = self._by_type[ASType.TRANSIT_REGIONAL]
        eyeballs = self._by_type[ASType.EYEBALL]
        for asn in self._by_type[ASType.ENTERPRISE]:
            asys = self._graph.get_as(asn)
            same_cc = [r for r in regionals if self._graph.get_as(r).cc == asys.cc]
            pool = same_cc if same_cc else regionals
            provider = pool[int(rng.integers(len(pool)))]
            self._graph.add_c2p(asn, provider, self._interconnect_cities(rng, asn, provider))
            # some enterprises also buy from a local eyeball ISP
            local_eyeballs = [e for e in eyeballs if self._graph.get_as(e).cc == asys.cc]
            if local_eyeballs and rng.random() < 0.4:
                provider = local_eyeballs[int(rng.integers(len(local_eyeballs)))]
                if not self._graph.are_adjacent(asn, provider):
                    self._graph.add_c2p(
                        asn, provider, self._interconnect_cities(rng, asn, provider)
                    )

    def _wire_peering(self, ixps: dict[int, IXP]) -> None:
        """IXP-driven public peering: the Internet-flattening edges."""
        rng = self._seeds.rng("topology.peering")
        cfg = self._cfg
        # regional <-> regional at shared hub PoPs
        regionals = self._by_type[ASType.TRANSIT_REGIONAL]
        for i, a in enumerate(regionals):
            for b in regionals[i + 1 :]:
                if self._graph.are_adjacent(a, b):
                    continue
                shared = [k for k in self._shared_cities(a, b) if city_of(k).is_hub]
                if shared and rng.random() < cfg.regional_peering_prob:
                    self._graph.add_p2p(a, b, shared[:2])
        # IXP multilateral peering: each member pair's type mask names the
        # one rule (if any) it draws for; within an IXP a pair is visited
        # once, so the pairs that draw are fixed by the adjacency at the
        # IXP's start, and one batched draw replays the pair-by-pair order
        graph = self._graph
        node_of = {asn: i for i, asn in enumerate(graph.asns())}
        type_bit = np.fromiter(
            (_TYPE_BIT[asys.as_type] for asys in graph), np.int64, len(node_of)
        )
        adjacent = np.zeros((len(node_of), len(node_of)), dtype=bool)
        for adj in graph.edges():
            a, b = node_of[adj.a], node_of[adj.b]
            adjacent[a, b] = adjacent[b, a] = True
        prob = self._ixp_peering_probs()
        for ixp in ixps.values():
            members = sorted(ixp.members)
            node = np.fromiter((node_of[asn] for asn in members), np.intp, len(members))
            first, second = np.triu_indices(len(members), 1)  # loop order
            pair_prob = prob[type_bit[node[first]] | type_bit[node[second]]]
            draws = np.flatnonzero(
                (pair_prob >= 0) & ~adjacent[node[first], node[second]]
            )
            peer = draws[rng.random(draws.size) < pair_prob[draws]]
            for i, j in zip(first[peer].tolist(), second[peer].tolist()):
                graph.add_p2p(members[i], members[j], [ixp.city_key])
            adjacent[node[first[peer]], node[second[peer]]] = True
            adjacent[node[second[peer]], node[first[peer]]] = True

    def _ixp_peering_probs(self) -> np.ndarray:
        """IXP peering probability per pair type mask (-1: never peers).

        A pair's mask ORs its two members' type bits.  The four rules'
        type conditions are disjoint, so a pair draws at most once.
        """
        cfg = self._cfg
        eyeball = _TYPE_BIT[ASType.EYEBALL]
        regional = _TYPE_BIT[ASType.TRANSIT_REGIONAL]
        content_cloud = _TYPE_BIT[ASType.CONTENT] | _TYPE_BIT[ASType.CLOUD]
        prob = np.full(1 << len(ASType), -1.0)
        for mask in range(1, prob.size):
            if (mask & ~eyeball) == 0:
                prob[mask] = cfg.eyeball_eyeball_peering_prob
            elif mask & eyeball and mask & content_cloud:
                prob[mask] = cfg.eyeball_content_peering_prob
            elif mask & regional and mask & content_cloud:
                prob[mask] = cfg.content_regional_peering_prob
            elif (mask & ~content_cloud) == 0:
                prob[mask] = 0.6
        return prob
