"""Vectorized city geometry: NumPy distance / fiber-delay matrices.

Every hot path of the measurement engine asks the same question many
thousands of times per round: "how far apart are these two cities, and how
long does light in fiber take between them?".  The scalar answer
(:func:`repro.geo.distance.great_circle_km` plus assorted per-call dict
caches) costs a Python frame per lookup, which dominates the Sec 2.4
feasibility filter (pairs × relays bounds per round) and the hot-potato
handover search of the geographic path walker.

:class:`CityDelayMatrix` packs the city database's coordinates into NumPy
arrays once and answers by city *index*: a full row at a time (lazily
filled and cached, so only cities actually touched pay for their row) or
an arbitrary (rows × cols) submatrix in one broadcast.  The vectorized
haversine matches the scalar one to floating-point noise (well below 1e-9
relative), so the feasibility bound computed from a matrix row is the same
bound the scalar filter computes.

Instances own their cache: a matrix built for one world shares nothing
with any other, replacing the old module-global delay cache in
:mod:`repro.core.feasibility`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GeoError
from repro.geo.cities import City, all_cities
from repro.geo.distance import EARTH_RADIUS_KM, SPEED_OF_LIGHT_FIBER_KM_PER_MS


class CityDelayMatrix:
    """Great-circle distances and one-way fiber delays between cities, by index.

    Rows are filled lazily on first access and cached for the lifetime of
    the instance; a full matrix over the embedded city database is ~140x140
    floats, so even eager use is cheap.
    """

    def __init__(self, cities: Sequence[City] | None = None) -> None:
        self._cities: tuple[City, ...] = (
            tuple(cities) if cities is not None else all_cities()
        )
        if not self._cities:
            raise GeoError("CityDelayMatrix needs at least one city")
        self._index: dict[str, int] = {c.key: i for i, c in enumerate(self._cities)}
        if len(self._index) != len(self._cities):
            raise GeoError("duplicate city keys in CityDelayMatrix")
        n = len(self._cities)
        lat = np.radians(np.array([c.location.lat for c in self._cities]))
        lon = np.radians(np.array([c.location.lon for c in self._cities]))
        self._lat = lat
        self._lon = lon
        self._cos_lat = np.cos(lat)
        self._km = np.full((n, n), np.nan)
        self._filled = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------- identity

    @property
    def size(self) -> int:
        """Number of cities indexed by the matrix."""
        return len(self._cities)

    @property
    def cities(self) -> tuple[City, ...]:
        """The cities, in index order."""
        return self._cities

    def index(self, city_key: str) -> int:
        """Return the row/column index of a ``'Name/CC'`` city key.

        Raises:
            GeoError: if the key is not in the matrix.
        """
        try:
            return self._index[city_key]
        except KeyError:
            raise GeoError(f"unknown city key {city_key!r}") from None

    def indices(self, city_keys: Iterable[str]) -> np.ndarray:
        """Return the indices of several city keys as an int array."""
        idx = self._index
        try:
            return np.fromiter(
                (idx[k] for k in city_keys), dtype=np.intp
            )
        except KeyError as exc:
            raise GeoError(f"unknown city key {exc.args[0]!r}") from None

    def key_of(self, index: int) -> str:
        """Return the city key at ``index``."""
        return self._cities[index].key

    # ----------------------------------------------------------------- fill

    def _fill(self, rows: np.ndarray) -> None:
        todo = rows[~self._filled[rows]]
        if todo.size == 0:
            return
        todo = np.unique(todo)
        dlat = self._lat[np.newaxis, :] - self._lat[todo, np.newaxis]
        dlon = self._lon[np.newaxis, :] - self._lon[todo, np.newaxis]
        h = (
            np.sin(dlat / 2.0) ** 2
            + self._cos_lat[todo, np.newaxis]
            * self._cos_lat[np.newaxis, :]
            * np.sin(dlon / 2.0) ** 2
        )
        self._km[todo, :] = (
            2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        )
        self._filled[todo] = True

    # -------------------------------------------------------------- lookups

    def distance_row(self, i: int) -> np.ndarray:
        """Distances (km) from city ``i`` to every city; do not mutate."""
        self._fill(np.asarray([i], dtype=np.intp))
        return self._km[i]

    def distance_km(self, i: int, j: int) -> float:
        """Great-circle distance between cities ``i`` and ``j``, km."""
        return float(self.distance_row(i)[j])

    def one_way_ms(self, i: int, j: int) -> float:
        """One-way idealised propagation delay between two cities, ms.

        The paper's ``t(n1, n2) = d(n1, n2) / (c * 2/3)`` (Sec 2.4): geodesic
        over fiber light speed, no route stretch.
        """
        return self.distance_km(i, j) / SPEED_OF_LIGHT_FIBER_KM_PER_MS

    def distance_km_matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The (len(rows) × len(cols)) distance submatrix, km."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        self._fill(rows)
        return self._km[np.ix_(rows, cols)]

    def one_way_ms_matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The (len(rows) × len(cols)) one-way fiber-delay submatrix, ms.

        This is the round's ``D[endpoint, relay]`` matrix the Sec 2.4
        feasibility bound broadcasts over.
        """
        return self.distance_km_matrix(rows, cols) / SPEED_OF_LIGHT_FIBER_KM_PER_MS

    # -------------------------------------------------------- scalar-by-key

    def one_way_ms_between(self, a_key: str, b_key: str) -> float:
        """One-way fiber delay between two city keys, ms (scalar wrapper)."""
        return self.one_way_ms(self.index(a_key), self.index(b_key))
