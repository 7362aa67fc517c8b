"""The RTT model.

An RTT between two endpoints decomposes as::

    rtt = 2 * (propagation + per_hop_processing + access_src + access_dst)
          * (1 +- direction_asymmetry)
          + jitter                                  (per packet)

* **propagation** — fiber delay along the geographic waypoints of the BGP
  path between the endpoints' ASes (:mod:`repro.routing.geopath`);
* **per-hop processing** — a small per-AS-hop cost (router processing and
  intra-AS queueing);
* **access** — the endpoint's host/last-mile latency: large for home
  probes, tiny for router interfaces inside a facility.  This term is why
  eyeball-hosted relays underperform in the paper: a relayed path pays the
  relay's access latency twice (once per stitched segment);
* **asymmetry** — a deterministic, pair-specific few-percent skew between
  the two ping directions, matching the paper's observation that direction
  changes the measured RTT by <5% in ~80% of cases;
* **jitter** — per-packet multiplicative noise plus exponential queueing
  and rare heavy spikes (the outliers that justify median-of-6 batches).

The network terms (propagation and per-hop processing) come from one
place: the routing fabric's attachment grid, the one-way delay between
every pair of ``(asn, city)`` attachments a world's nodes occupy
(:meth:`~repro.routing.fabric.RoutingFabric.build_attachment_grid`).  The
model adds the access, skew and per-packet terms.

Base RTTs are deterministic given the world seed; only the per-packet terms
consume random numbers at measurement time.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, MeasurementError
from repro.routing.bgp import BGPRouting


@dataclass(frozen=True, slots=True)
class Endpoint:
    """A pingable interface somewhere in the simulated Internet.

    Attributes:
        node_id: Stable unique identifier (used for deterministic hashing).
        asn: AS originating the interface's address.
        city_key: City the interface is physically in.
        access_ms: One-way host/access latency added at this endpoint.
        loss_prob: Per-packet loss probability contributed by this endpoint.
    """

    node_id: str
    asn: int
    city_key: str
    access_ms: float
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.access_ms < 0:
            raise ConfigError(f"negative access_ms for {self.node_id}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(f"loss_prob {self.loss_prob} outside [0, 1) for {self.node_id}")

    def __hash__(self) -> int:
        # node ids are unique per world, so hashing the id alone is
        # consistent with field equality — and far cheaper than the
        # generated all-fields hash on the cache-key hot path (str hashes
        # are cached by the interpreter; the millions of per-leg cache
        # lookups a campaign makes hit this)
        return hash(self.node_id)


@dataclass(frozen=True, slots=True)
class LatencyConfig:
    """Tunables of the RTT model."""

    per_hop_ms: float = 0.35
    """One-way processing cost per AS-level hop."""

    jitter_sigma: float = 0.025
    """Sigma of the per-packet lognormal multiplicative jitter."""

    queueing_scale_ms: float = 0.4
    """Scale of the per-packet exponential queueing term (ms)."""

    spike_prob: float = 0.015
    """Probability a packet hits a congestion spike."""

    spike_range_ms: tuple[float, float] = (30.0, 300.0)
    """Uniform range of spike magnitude (ms)."""

    base_loss_prob: float = 0.004
    """Path loss probability independent of the endpoints."""

    asymmetry_frac: float = 0.045
    """Maximum deterministic per-direction measurement skew (host timer and
    scheduling effects).  Each ordered pair gets an independent skew in
    [-frac, +frac]; with 0.045 the two directions of a pair agree within 5%
    for ~80% of pairs, matching the paper's Sec 2.5 observation."""

    def __post_init__(self) -> None:
        if self.per_hop_ms < 0 or self.queueing_scale_ms < 0:
            raise ConfigError("per-hop and queueing costs must be non-negative")
        if not 0.0 <= self.spike_prob < 1.0:
            raise ConfigError(f"spike_prob {self.spike_prob} outside [0, 1)")
        if not 0.0 <= self.base_loss_prob < 1.0:
            raise ConfigError(f"base_loss_prob {self.base_loss_prob} outside [0, 1)")
        if self.spike_range_ms[0] > self.spike_range_ms[1]:
            raise ConfigError("spike_range_ms must be (low, high)")
        if not 0.0 <= self.asymmetry_frac < 0.5:
            raise ConfigError(f"asymmetry_frac {self.asymmetry_frac} outside [0, 0.5)")


def _pair_unit_hash(a: str, b: str) -> float:
    """Deterministic value in [0, 1) specific to the ordered pair (a, b)."""
    digest = hashlib.blake2b(f"{a}|{b}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def _digest_units(digests: bytes) -> np.ndarray:
    """:func:`_pair_unit_hash`'s last step for concatenated 8-byte digests.

    uint64 to float64 rounds half to even like Python's ``int / int``, and
    dividing by 2**64 is exact, so the values are bit-identical.
    """
    return np.frombuffer(digests, ">u8").astype(np.float64) / 2.0**64


def _intern(codes: dict[str, int], ids: Sequence[str]) -> np.ndarray:
    """Each id's code in ``codes``, giving a new id the next free code."""
    return np.fromiter((codes.setdefault(i, len(codes)) for i in ids), np.intp, len(ids))


@dataclass(frozen=True, slots=True)
class PairGrid:
    """Deterministic pair terms for a (rows × cols) endpoint grid.

    ``base[i, j]`` is the base RTT from ``rows[i]`` to ``cols[j]`` (NaN when
    either direction is unrouted) and ``loss[i, j]`` the pair's per-packet
    loss probability — the same two values :meth:`LatencyModel._pair_entries`
    resolves per leg, assembled once for the whole grid.  A measurement step
    gathers its legs' entries by index.
    """

    base: np.ndarray  #: (rows × cols) base RTT, NaN = unrouted
    loss: np.ndarray  #: (rows × cols) per-packet loss probability

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape


class LatencyModel:
    """Computes base and sampled RTTs between :class:`Endpoint` objects.

    Every one-way delay is read from the installed attachment grid (see
    :meth:`set_attachment_grid`).  ``build_grid`` is called on the first
    query that finds no grid installed and must install one; a world
    passes its :meth:`~repro.world.World.ensure_routing_fabric`, so its
    callers need not build the fabric first.
    """

    def __init__(
        self,
        routing: BGPRouting,
        config: LatencyConfig | None = None,
        build_grid: Callable[[], object] | None = None,
    ) -> None:
        self._routing = routing
        self._cfg = config or LatencyConfig()
        self._build_grid = build_grid
        # attachment-to-attachment one-way delay grid and its row index
        self._grid: np.ndarray | None = None
        self._grid_ids: dict[tuple[int, str], int] = {}
        # keyed by id(endpoint); _attachment_id pins every endpoint it maps
        # in _ep_refs, so an id is never reused while its entry lives
        self._att_of: dict[int, int] = {}
        # (base RTT or NaN-if-unrouted, loss probability) per ordered pair,
        # keyed by per-endpoint cache tokens (see _endpoint_token).  Campaign
        # rounds gather from pair grids instead; this cache serves the
        # per-leg resolvers, chiefly the colo pipeline's geolocation legs,
        # which warm_pairs resolves in bulk before they are pinged one at a
        # time.  Token-tuple keys hash entirely in C — with Endpoint-tuple
        # keys the interpreter pays two Python-level __hash__ calls per
        # lookup.
        self._pair_cache: dict[tuple, tuple[float, float]] = {}
        # ordered-pair skew memo as a growable code-indexed matrix: blake2b
        # per pair is the one irreducibly scalar term of the pair grid, and
        # campaign rounds revisit mostly-overlapping endpoint/relay sets —
        # warm cells come back as one fancy-indexed gather, NaN cells are
        # hashed once and written back.  Rows and columns have their own
        # code spaces, so the memo spans the grids' row ids (the round's
        # endpoints) by their column ids (endpoints and relays), not every
        # id by every id.
        self._skew_rows: dict[str, int] = {}
        self._skew_cols: dict[str, int] = {}
        self._skew_memo: np.ndarray = np.full((0, 0), np.nan)
        # endpoint-token memo: id(endpoint) -> token, with a strong
        # reference pinning each memoized object so ids are never reused
        self._ep_tokens: dict[int, object] = {}
        self._ep_refs: dict[int, Endpoint] = {}
        self._ep_owner: dict[str, Endpoint] = {}

    @property
    def config(self) -> LatencyConfig:
        """The model's tunables."""
        return self._cfg

    # ----------------------------------------------------------- base RTT

    def base_rtt_ms(self, src: Endpoint, dst: Endpoint) -> float | None:
        """Deterministic RTT between two endpoints, before jitter.

        The round trip rides the forward BGP path *and* the (possibly
        different) reverse path — the same wire path regardless of which
        side initiates the ping — plus both endpoints' access latency twice.
        A small ordered-pair-specific skew models host-side measurement
        effects, which is all that distinguishes the two ping directions.
        Returns None when either direction lacks a valley-free route.
        """
        base = self._pair_entries(((src, dst),))[0][0]
        return None if base != base else base

    def _endpoint_token(self, endpoint: Endpoint) -> object:
        """A hashable pair-cache token for an endpoint, memoized by object.

        The world's endpoints are singletons with unique node ids, so the
        token is normally just the id string (hashed in C, no Python
        ``__hash__`` frame).  An ad-hoc endpoint reusing a known node id
        with different fields (tests do this to pin the pair skew) gets a
        full-fidelity tuple instead, so it can never collide with the
        original.  Memoized entries hold a strong reference to their
        endpoint, which pins ``id(endpoint)`` for the model's lifetime.
        """
        owner = self._ep_owner.setdefault(endpoint.node_id, endpoint)
        if owner is endpoint or owner == endpoint:
            token: object = endpoint.node_id
        else:
            token = (
                endpoint.node_id,
                endpoint.asn,
                endpoint.city_key,
                endpoint.access_ms,
                endpoint.loss_prob,
            )
        key = id(endpoint)
        self._ep_tokens[key] = token
        self._ep_refs[key] = endpoint
        return token

    # ------------------------------------------------------- batched base RTT

    def set_attachment_grid(
        self, grid: np.ndarray, att_ids: dict[tuple[int, str], int]
    ) -> None:
        """Install a precomputed attachment delay grid.

        ``grid[s, t]`` is the one-way network delay from attachment
        ``att_ids``-row ``s`` to row ``t`` (NaN = unrouted), as
        :meth:`RoutingFabric.build_attachment_grid` computes it.
        """
        self._grid = grid
        self._grid_ids = att_ids
        self._att_of = {}

    def attachment_grid(
        self,
    ) -> tuple[np.ndarray, dict[tuple[int, str], int]] | None:
        """The installed ``(grid, attachment -> row)`` pair, or None.

        Exposed for world snapshotting (:mod:`repro.core.worldcache`); the
        returned arrays must be treated as read-only.
        """
        if self._grid is None:
            return None
        return self._grid, self._grid_ids

    def attachment_grid_covers(self, attachments: list[tuple[int, str]]) -> bool:
        """True if the installed grid's rows are exactly ``attachments``.

        Row order matters (it is the grid's index order), so the caller
        passes the same sorted attachment list the grid was built from.
        This is how :meth:`World.ensure_routing_fabric` detects that a
        restored or pre-warmed grid already serves the campaign and skips
        the rebuild.
        """
        return self._grid is not None and list(self._grid_ids) == attachments

    def _delay_grid(self) -> np.ndarray:
        """The installed attachment grid, built through ``build_grid`` if
        none is installed yet."""
        if self._grid is None and self._build_grid is not None:
            self._build_grid()
        if self._grid is None:
            raise MeasurementError("latency model has no attachment delay grid")
        return self._grid

    def _attachment_id(self, endpoint: Endpoint) -> int:
        """The endpoint's grid row.

        Raises:
            MeasurementError: naming the endpoint, if its ``(asn, city)``
                attachment has no row.
        """
        key = id(endpoint)
        att = self._att_of.get(key)
        if att is None:
            att = self._grid_ids.get((endpoint.asn, endpoint.city_key))
            if att is None:
                raise MeasurementError(
                    f"endpoint {endpoint.node_id} (AS{endpoint.asn}, "
                    f"{endpoint.city_key}) is on no row of the attachment grid"
                )
            self._att_of[key] = att
            self._ep_refs.setdefault(key, endpoint)  # pin the id
        return att

    def _attachment_ids(self, endpoints: Sequence[Endpoint]) -> np.ndarray:
        """Grid rows of ``endpoints`` (see :meth:`_attachment_id`)."""
        return np.fromiter(map(self._attachment_id, endpoints), np.intp, len(endpoints))

    def _pair_entries(
        self, pairs: Sequence[tuple[Endpoint, Endpoint]]
    ) -> list[tuple[float, float]]:
        """``(base-or-NaN, loss)`` per pair, computing uncached ones in bulk.

        The one resolver for arbitrary leg lists: :meth:`base_rtt_ms`,
        :meth:`sample_rtt_matrix` and :meth:`warm_pairs` all go through it,
        while measurement rounds gather from a :meth:`pair_grid` instead.
        Base-RTT assembly ``(forward + reverse + access) * skew factor``
        runs as NumPy elementwise expressions in the same operation order
        as :meth:`pair_grid`, so both give bit-identical entries.  One
        cache pass serves the whole (mostly-warm) leg list.
        """
        cache = self._pair_cache
        tokens = self._ep_tokens
        token_of = self._endpoint_token
        keys = []
        append_key = keys.append
        for s, d in pairs:
            t1 = tokens.get(id(s))
            if t1 is None:
                t1 = token_of(s)
            t2 = tokens.get(id(d))
            if t2 is None:
                t2 = token_of(d)
            append_key((t1, t2))
        entries = [cache.get(k) for k in keys]
        if None not in entries:
            return entries
        # dedup misses preserving first-seen order, keeping one
        # representative Endpoint pair per key
        miss_by_key: dict[tuple, tuple[Endpoint, Endpoint]] = {}
        for key, pair, entry in zip(keys, pairs, entries):
            if entry is None and key not in miss_by_key:
                miss_by_key[key] = pair
        misses = list(miss_by_key.values())
        n = len(misses)
        grid = self._delay_grid()
        src_ids = self._attachment_ids([s for s, _ in misses])
        dst_ids = self._attachment_ids([d for _, d in misses])
        fwd, rev = grid[src_ids, dst_ids], grid[dst_ids, src_ids]
        cfg = self._cfg
        access = np.fromiter(
            (2.0 * (s.access_ms + d.access_ms) for s, d in misses), float, n
        )
        skew = np.fromiter(
            (_pair_unit_hash(s.node_id, d.node_id) for s, d in misses), float, n
        )
        base = (fwd + rev + access) * (
            1.0 + (2.0 * skew - 1.0) * cfg.asymmetry_frac
        )
        # loss stays scalar-per-pair: loss_probability's left-to-right
        # product is the association pair_grid's loss matrix reproduces
        loss = [self.loss_probability(s, d) for s, d in misses]
        for key, b, p in zip(miss_by_key, base.tolist(), loss):
            cache[key] = (b, p)
        return [
            e if e is not None else cache[k] for k, e in zip(keys, entries)
        ]

    def warm_pairs(self, pairs: Sequence[tuple[Endpoint, Endpoint]]) -> None:
        """Resolve a leg list's deterministic (base, loss) entries in bulk.

        Purely a cache warmer: subsequent scalar calls
        (:meth:`sample_rtt_ms`, :meth:`base_rtt_ms`) for the same pairs hit
        the pair cache and return bit-identical values while consuming the
        RNG exactly as before.  The colo pipeline's geolocation filter uses
        this to batch its one-time verification without perturbing the
        verified pool (see :class:`~repro.core.colo.ColoRelayPipeline`).
        """
        self._pair_entries(pairs)

    # ----------------------------------------------------------- pair grid

    def _one_way_grid(
        self, rows: Sequence[Endpoint], cols: Sequence[Endpoint]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(rows × cols) forward and reverse one-way delay matrices: two
        gathers from the attachment grid (NaN = unrouted)."""
        grid = self._delay_grid()
        row_ids = self._attachment_ids(rows)[:, np.newaxis]
        col_ids = self._attachment_ids(cols)[np.newaxis, :]
        return grid[row_ids, col_ids], grid[col_ids, row_ids]

    def _skew_grid(
        self, row_ids: Sequence[str], col_ids: Sequence[str]
    ) -> np.ndarray:
        """(rows × cols) deterministic per-ordered-pair skew units.

        Warm pairs are one gather out of the memo matrix; NaN cells (first
        visit of the ordered pair) are hashed and written back.  A row's
        hash is fed ``"{row_id}|"`` once and copied per missing cell, which
        then feeds the column id: the same bytes :func:`_pair_unit_hash`
        hashes, so the same value.
        """
        rows = _intern(self._skew_rows, row_ids)
        cols = _intern(self._skew_cols, col_ids)
        memo = self._skew_memo
        need = (len(self._skew_rows), len(self._skew_cols))
        if need[0] > memo.shape[0] or need[1] > memo.shape[1]:
            # each axis grows on its own, at least doubling when it grows
            shape = [cap if n <= cap else max(n, 2 * cap) for n, cap in zip(need, memo.shape)]
            grown = np.full(shape, np.nan)
            grown[: memo.shape[0], : memo.shape[1]] = memo
            self._skew_memo = memo = grown
        sub = memo[np.ix_(rows, cols)]
        miss_i, miss_j = np.nonzero(np.isnan(sub))
        if miss_i.size:
            heads = [
                hashlib.blake2b(f"{a}|".encode("utf-8"), digest_size=8) for a in row_ids
            ]
            tails = [b.encode("utf-8") for b in col_ids]
            digests = []
            for i, j in zip(miss_i.tolist(), miss_j.tolist()):
                pair = heads[i].copy()
                pair.update(tails[j])
                digests.append(pair.digest())
            fresh = _digest_units(b"".join(digests))
            memo[rows[miss_i], cols[miss_j]] = fresh
            sub[miss_i, miss_j] = fresh
        return sub

    def pair_grid(
        self, rows: Sequence[Endpoint], cols: Sequence[Endpoint]
    ) -> PairGrid:
        """Base-RTT and loss matrices for every ordered (row, col) pair.

        Entries are bit-identical to what :meth:`_pair_entries` resolves for
        the same ordered pair: the base assembly follows its operation order
        term by term ((fwd + rev + access) * skew factor, loss as the same
        left-to-right product), and the one-way delays come from the same
        attachment grid.  Building the grid costs O(rows +
        cols) Python work per endpoint plus one cached hash per ordered
        pair; gathering a leg's entry afterwards is pure NumPy indexing,
        which is why the campaign's measurement steps use it.
        """
        r, c = len(rows), len(cols)
        fwd, rev = self._one_way_grid(rows, cols)
        access = 2.0 * (
            np.fromiter((e.access_ms for e in rows), float, r)[:, np.newaxis]
            + np.fromiter((e.access_ms for e in cols), float, c)[np.newaxis, :]
        )
        skew = self._skew_grid(
            [e.node_id for e in rows], [e.node_id for e in cols]
        )
        cfg = self._cfg
        base = (fwd + rev + access) * (
            1.0 + (2.0 * skew - 1.0) * cfg.asymmetry_frac
        )
        loss = 1.0 - (
            (1.0 - cfg.base_loss_prob)
            * (1.0 - np.fromiter((e.loss_prob for e in rows), float, r))[:, np.newaxis]
            * (1.0 - np.fromiter((e.loss_prob for e in cols), float, c))[np.newaxis, :]
        )
        return PairGrid(base=base, loss=loss)

    # --------------------------------------------------------- sampled RTT

    def loss_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """Per-packet loss probability for the pair."""
        p_deliver = (
            (1.0 - self._cfg.base_loss_prob)
            * (1.0 - src.loss_prob)
            * (1.0 - dst.loss_prob)
        )
        return 1.0 - p_deliver

    def sample_rtt_ms(
        self, src: Endpoint, dst: Endpoint, rng: np.random.Generator
    ) -> float | None:
        """One ping outcome: an RTT in ms, or None for a lost packet.

        ``rng`` is advanced exactly once per loss decision and per delivered
        packet's jitter draw, so the caller controls determinism by handing
        in a named stream.
        """
        base = self.base_rtt_ms(src, dst)
        if base is None:
            return None
        if rng.random() < self.loss_probability(src, dst):
            return None
        cfg = self._cfg
        rtt = base * float(rng.lognormal(mean=0.0, sigma=cfg.jitter_sigma))
        rtt += float(rng.exponential(cfg.queueing_scale_ms))
        if rng.random() < cfg.spike_prob:
            low, high = cfg.spike_range_ms
            rtt += float(rng.uniform(low, high))
        return rtt

    def sample_rtt_batch(
        self, src: Endpoint, dst: Endpoint, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """``count`` ping outcomes for one pair in vectorized RNG draws.

        Returns a ``(count,)`` float array; NaN marks a lost packet (or, for
        every entry, an unrouted pair).  The per-packet model is identical to
        :meth:`sample_rtt_ms` — same base RTT, same jitter / queueing / spike
        / loss distributions — but all packets' terms come from a handful of
        vectorized draws (see :meth:`sample_rtt_matrix`), so the random
        stream is consumed in a different order than ``count`` scalar calls
        would consume it.
        """
        return self.sample_rtt_matrix([(src, dst)], rng, count)[0]

    def sample_rtt_matrix(
        self,
        pairs: Sequence[tuple[Endpoint, Endpoint]],
        rng: np.random.Generator,
        count: int,
    ) -> np.ndarray:
        """Ping outcomes for a whole leg list in vectorized RNG draws.

        Returns a ``(len(pairs) × count)`` float array; NaN marks a lost
        packet, and every entry of an unrouted pair's row.  The loss and
        spike uniforms for *all* packets of *all* pairs come out of one
        RNG call, jitter and queueing out of one each — four RNG calls
        per batch, and only three when ``spike_prob`` is zero (the spike
        block is skipped entirely).

        RNG-stream caveat (as with PR 1's vectorization): fusing the two
        uniform blocks consumes the random stream in a different order
        than the earlier five-draw engine, so same-seed per-packet values
        differ from it while every per-packet distribution is unchanged;
        same-seed runs of this engine are bit-identical to each other.
        """
        n = len(pairs)
        if n == 0:
            return np.full((n, count), np.nan)
        entries = self._pair_entries(pairs)
        base = np.fromiter((e[0] for e in entries), float, n)
        loss = np.fromiter((e[1] for e in entries), float, n)
        return self.sample_rtt_entries(base, loss, rng, count)

    def sample_rtt_entries(
        self,
        base: np.ndarray,
        loss: np.ndarray,
        rng: np.random.Generator,
        count: int,
    ) -> np.ndarray:
        """Ping outcomes for legs whose ``(base, loss)`` entries are given.

        The vectorized sampling tail of :meth:`sample_rtt_matrix`: callers
        that gathered their legs' deterministic terms from a
        :class:`PairGrid` hand them in directly, skipping the per-leg pair
        resolution entirely.  RNG consumption is identical to
        :meth:`sample_rtt_matrix` for the same entry vectors, so the two
        paths produce bit-identical packets.
        """
        n = len(base)
        out = np.full((n, count), np.nan)
        if n == 0:
            return out
        routed = ~np.isnan(base)
        m = int(np.count_nonzero(routed))
        if m == 0:
            return out
        cfg = self._cfg
        shape = (m, count)
        spikes_on = cfg.spike_prob > 0.0
        if spikes_on:
            u = rng.random((2, m, count))
            u_loss, u_spike = u[0], u[1]
        else:
            u_loss = rng.random(shape)
        # the RTTs are built in place in the jitter array: multiplication
        # commutes, and a packet without a spike skips the add (no RTT is
        # -0.0, so rtt + 0.0 == rtt), so every packet keeps its bits
        rtt = rng.lognormal(mean=0.0, sigma=cfg.jitter_sigma, size=shape)
        rtt *= (base if m == n else base[routed])[:, np.newaxis]
        rtt += rng.exponential(cfg.queueing_scale_ms, size=shape)
        if spikes_on:
            low, high = cfg.spike_range_ms
            spike = rng.uniform(low, high, size=shape)
            np.add(rtt, spike, out=rtt, where=u_spike < cfg.spike_prob)
        rtt[u_loss < loss[routed, np.newaxis]] = np.nan
        if m == n:
            return rtt
        out[routed] = rtt
        return out

    # ------------------------------------------------------------- insight

    def as_path(self, src: Endpoint, dst: Endpoint) -> list[int] | None:
        """The BGP AS path the pair's traffic follows (None if unrouted)."""
        path = self._routing.path(src.asn, dst.asn)
        # copy: the routing layer caches and reuses its path lists
        return None if path is None else list(path)
