"""Speed-of-light relay feasibility (Sec 2.4).

A relay ``f`` can only beat the direct path between endpoints ``n1`` and
``n2`` if, even in an idealised "speed-of-light Internet", the detour
through it is no longer than the measured direct RTT::

    2 * [t(n1, f) + t(f, n2)] <= RTT(n1, n2)

with ``t(a, b) = d(a, b) / (c * 2/3)`` the one-way fiber-light propagation
between the nodes' geolocations.  Everything else about the relay is
ignored at this stage — the filter is a pure geometry bound, so it can
never discard a relay that would actually have improved the pair.

The campaign evaluates the bound for a whole round at once with
:func:`feasibility_mask` over a :class:`~repro.geo.matrix.CityDelayMatrix`
delay submatrix; the scalar :func:`is_feasible` / :func:`feasible_relays`
API remains for external callers and accepts an optional matrix to reuse
its cached rows.  Without one, delays are recomputed from the coordinates —
pure functions, no shared module state (the old module-global delay cache
is gone; per-world caching lives in the world's ``CityDelayMatrix``).
"""

from __future__ import annotations

import numpy as np

from repro.geo.cities import city as city_of
from repro.geo.distance import propagation_delay_ms
from repro.geo.matrix import CityDelayMatrix
from repro.latency.model import Endpoint


def _city_delay_ms(a_key: str, b_key: str, matrix: CityDelayMatrix | None) -> float:
    if matrix is not None:
        return matrix.one_way_ms_between(a_key, b_key)
    return propagation_delay_ms(city_of(a_key).location, city_of(b_key).location)


def is_feasible(
    relay: Endpoint,
    n1: Endpoint,
    n2: Endpoint,
    direct_rtt_ms: float,
    matrix: CityDelayMatrix | None = None,
) -> bool:
    """True if the relay passes the speed-of-light bound for the pair.

    Pass a :class:`CityDelayMatrix` (e.g. ``world.delay_matrix``) to reuse
    its cached city-delay rows when calling in a loop.
    """
    detour = _city_delay_ms(n1.city_key, relay.city_key, matrix) + _city_delay_ms(
        relay.city_key, n2.city_key, matrix
    )
    return 2.0 * detour <= direct_rtt_ms


def feasible_relays(
    relays: list[Endpoint],
    n1: Endpoint,
    n2: Endpoint,
    direct_rtt_ms: float,
    matrix: CityDelayMatrix | None = None,
) -> list[Endpoint]:
    """The subset of ``relays`` passing the bound for the pair."""
    return [r for r in relays if is_feasible(r, n1, n2, direct_rtt_ms, matrix)]


def feasibility_mask(one_way_ms: np.ndarray, direct_rtt_ms: np.ndarray) -> np.ndarray:
    """The Sec 2.4 bound for every (pair, relay) of a round.

    Args:
        one_way_ms: ``(endpoints × relays)`` one-way delay matrix ``D`` from
            :meth:`CityDelayMatrix.one_way_ms_matrix`.
        direct_rtt_ms: measured direct medians of every endpoint pair
            ``i < j``, in ``np.triu_indices(endpoints, 1)`` order (NaN finds
            no relay feasible).

    Returns:
        ``(pairs × relays)`` boolean mask of
        ``2 * (D[i, r] + D[r, j]) <= RTT(i, j)`` — bit-for-bit the
        decisions :func:`is_feasible` makes relay by relay when given the
        same matrix.  (The matrix-less scalar fallback recomputes the
        delays with ``math`` trigonometry, which can differ in the last
        ulp; a pair sitting exactly on the bound could then flip.)

    Endpoint ``i``'s pairs are one block of rows, so a block's detours
    are ``D[i + 1:] + D[i]`` in a block-sized scratch array: no pair-sized
    gather or temporary.  IEEE addition commutes, so each detour has the
    same bits whichever endpoint comes first.

    Raises:
        ValueError: if ``direct_rtt_ms`` does not hold one median per pair.
    """
    n, relays = one_way_ms.shape
    rtt = np.asarray(direct_rtt_ms, dtype=float)
    if len(rtt) != n * (n - 1) // 2:
        raise ValueError(f"{len(rtt)} direct medians for {n} endpoints' pairs")
    out = np.empty((len(rtt), relays), dtype=bool)
    detour = np.empty((max(n - 1, 0), relays))
    lo = 0
    for i in range(n - 1):
        hi = lo + n - 1 - i
        block = detour[: hi - lo]
        np.add(one_way_ms[i + 1 :], one_way_ms[i], out=block)
        block *= 2.0
        np.less_equal(block, rtt[lo:hi, np.newaxis], out=out[lo:hi])
        lo = hi
    return out
