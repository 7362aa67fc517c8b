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
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, MeasurementError


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
        if not 0.0 <= self.access_ms < math.inf:
            raise ConfigError(f"access_ms {self.access_ms} not finite and >= 0 for {self.node_id}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(f"loss_prob {self.loss_prob} outside [0, 1) for {self.node_id}")


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
        # every delay term is finite and non-negative; the probability
        # range checks below reject NaN and infinities as well
        low, high = self.spike_range_ms
        terms = (self.per_hop_ms, self.jitter_sigma, self.queueing_scale_ms, low, high)
        if not all(0.0 <= t < math.inf for t in terms):
            raise ConfigError(f"latency delay terms must be finite and non-negative: {self}")
        if not 0.0 <= self.spike_prob < 1.0:
            raise ConfigError(f"spike_prob {self.spike_prob} outside [0, 1)")
        if not 0.0 <= self.base_loss_prob < 1.0:
            raise ConfigError(f"base_loss_prob {self.base_loss_prob} outside [0, 1)")
        if low > high:
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


def _host_terms(endpoints: Sequence[Endpoint]) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints' ``access_ms`` and ``loss_prob`` as two vectors."""
    n = len(endpoints)
    return (
        np.fromiter((e.access_ms for e in endpoints), float, n),
        np.fromiter((e.loss_prob for e in endpoints), float, n),
    )


@dataclass(frozen=True, slots=True)
class PairGrid:
    """Deterministic pair terms for a (rows × cols) endpoint grid.

    ``base[i, j]`` is the base RTT from ``rows[i]`` to ``cols[j]`` (NaN when
    either direction is unrouted) and ``loss[i, j]`` the pair's per-packet
    loss probability — the same two values the uncached
    :meth:`LatencyModel.leg_entries` resolves per leg, assembled once for
    the whole grid.  A measurement step gathers its legs' entries by index.
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

    Two resolvers turn endpoints into deterministic ``(base, loss)``
    entries: :meth:`pair_grid` for a campaign round's (rows × cols) grids
    and :meth:`leg_entries`, which has no cache, for any other leg list.
    """

    def __init__(
        self,
        config: LatencyConfig | None = None,
        build_grid: Callable[[], object] | None = None,
    ) -> None:
        self._cfg = config or LatencyConfig()
        self._build_grid = build_grid
        # attachment-to-attachment one-way delay grid and its row index
        self._grid: np.ndarray | None = None
        self._grid_ids: dict[tuple[int, str], int] = {}
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
        base = float(self.leg_entries([(src, dst)])[0][0])
        return None if base != base else base

    # ------------------------------------------------------ attachment grid

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
        att = self._grid_ids.get((endpoint.asn, endpoint.city_key))
        if att is None:
            raise MeasurementError(
                f"endpoint {endpoint.node_id} (AS{endpoint.asn}, "
                f"{endpoint.city_key}) is on no row of the attachment grid"
            )
        return att

    def _attachment_ids(self, endpoints: Sequence[Endpoint]) -> np.ndarray:
        """Grid rows of ``endpoints`` (see :meth:`_attachment_id`)."""
        return np.fromiter(map(self._attachment_id, endpoints), np.intp, len(endpoints))

    # ------------------------------------------------------------ resolvers

    def _entries(
        self,
        fwd: np.ndarray,
        rev: np.ndarray,
        skew: np.ndarray,
        src: tuple[np.ndarray, np.ndarray],
        dst: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(base, loss)`` from gathered one-way delays and skew units.

        ``src`` and ``dst`` are the two sides' :func:`_host_terms`, shaped
        to broadcast against ``fwd``.  Both resolvers assemble their
        entries here, so a leg's entry is the same bits whichever of them
        resolves it.
        """
        cfg = self._cfg
        base = (fwd + rev + 2.0 * (src[0] + dst[0])) * (
            1.0 + (2.0 * skew - 1.0) * cfg.asymmetry_frac
        )
        loss = 1.0 - (1.0 - cfg.base_loss_prob) * (1.0 - src[1]) * (1.0 - dst[1])
        return base, loss

    def leg_entries(
        self, legs: Sequence[tuple[Endpoint, Endpoint]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(base, loss)`` vectors for an arbitrary leg list, NaN base = unrouted.

        The resolver for every leg list outside a campaign round's pair
        grids: :meth:`base_rtt_ms`, :meth:`sample_rtt_ms`,
        :meth:`sample_rtt_matrix` (relay-liveness sweeps) and Periscope's
        geolocation legs.  It has no cache: each call is two gathers from
        the attachment grid, one pair hash per leg and the same vectorized
        assembly :meth:`pair_grid` runs, so entries are bit-identical to
        the grid cell of the same ordered pair.
        """
        srcs = [s for s, _ in legs]
        dsts = [d for _, d in legs]
        grid = self._delay_grid()
        src_ids, dst_ids = self._attachment_ids(srcs), self._attachment_ids(dsts)
        skew = np.fromiter(
            (_pair_unit_hash(s.node_id, d.node_id) for s, d in legs), float, len(legs)
        )
        fwd, rev = grid[src_ids, dst_ids], grid[dst_ids, src_ids]
        return self._entries(fwd, rev, skew, _host_terms(srcs), _host_terms(dsts))

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

        Entries are bit-identical to what :meth:`leg_entries` resolves for
        the same ordered pair: both read the same attachment grid and
        assemble in the same place.  Unlike :meth:`leg_entries`, which has
        no cache, the grid takes its skew units from a memo that campaign
        rounds keep warm, so building it costs O(rows + cols) Python work
        per endpoint plus one hash per *new* ordered pair; gathering a
        leg's entry afterwards is pure NumPy indexing, which is why the
        campaign's measurement steps use it.
        """
        grid = self._delay_grid()
        row_ids = self._attachment_ids(rows)[:, np.newaxis]
        col_ids = self._attachment_ids(cols)[np.newaxis, :]
        skew = self._skew_grid([e.node_id for e in rows], [e.node_id for e in cols])
        src = tuple(v[:, np.newaxis] for v in _host_terms(rows))
        dst = tuple(v[np.newaxis, :] for v in _host_terms(cols))
        base, loss = self._entries(
            grid[row_ids, col_ids], grid[col_ids, row_ids], skew, src, dst
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
        base, loss = self.leg_entries([(src, dst)])
        return self.sample_rtt_entry(float(base[0]), float(loss[0]), rng)

    def sample_rtt_entry(
        self, base: float, loss: float, rng: np.random.Generator
    ) -> float | None:
        """One ping outcome for a leg whose ``(base, loss)`` entry is given.

        The scalar tail of :meth:`sample_rtt_ms`: an unrouted leg (NaN
        ``base``) gives None without drawing from ``rng``; a routed one
        draws a loss uniform, then jitter, queueing and a spike uniform
        for a delivered packet — the same draws in the same order.
        """
        if base != base:
            return None
        if rng.random() < loss:
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
        if not pairs:
            return np.full((0, count), np.nan)
        base, loss = self.leg_entries(pairs)
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
