"""Campaign result files: run a campaign once, analyse it many times.

Format 2 is an uncompressed ``.npz`` written through
:mod:`repro.core.store`, whatever the file's suffix.  Members, in order:
``meta`` (one JSON string: ``format_version``, the colo funnel,
``verified_eyeball_tuples`` and each round's index, timestamp, endpoint
ids, relay indices by type, pings sent and whether it recorded relay
medians); the table string pools (``pool.*``); the relay registry's
payload columns (``relay.*``); then per round ``k`` its
:class:`~repro.core.table.ObservationTable` columns (``round<k>.*``) and
its direct and relay medians: the three
:class:`~repro.core.results.MedianColumns` arrays ``a`` (endpoint code),
``b`` (endpoint code or relay registry index) and ``ms``, in measurement
order (``round<k>.direct.*`` / ``round<k>.relay.*``).  It is uncompressed
because the loader memory-maps it: loaded columns, medians included, are
read-only views of the file and no per-case or per-median Python object
is built; the loader checks the columns' shapes, code ranges and CSR
offsets instead.  Version-1 files were JSON; they, like any file that is
not a format-2 archive, raise :class:`~repro.errors.StoreError` naming
the path — re-run the campaign.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.results import CampaignResult, MedianColumns, RelayRegistry, RoundResult
from repro.core.store import read_arrays, str_array, write_arrays
from repro.core.table import Interner, ObservationTable, TablePools
from repro.core.types import RelayType
from repro.errors import AnalysisError, StoreError

#: Format version written into every file; bumped on breaking changes.
FORMAT_VERSION = 2


def save_result(result: CampaignResult, path: str | os.PathLike) -> None:
    """Write a campaign result to exactly ``path`` as a format-2 archive.

    Raises:
        StoreError: if the file cannot be written; ``path`` is then unchanged.
    """
    pools = result.rounds[0].table.pools if result.rounds else TablePools.fresh()
    if any(rnd.table.pools is not pools for rnd in result.rounds):
        raise AnalysisError("cannot save round tables that use different pools")
    rounds, columns = [], {}
    for k, rnd in enumerate(result.rounds):
        rounds.append({
            "round_index": rnd.round_index,
            "timestamp_hours": rnd.timestamp_hours,
            "endpoint_ids": list(rnd.endpoint_ids),
            "relay_indices_by_type": {
                t.value: list(v) for t, v in rnd.relay_indices_by_type.items()
            },
            "pings_sent": rnd.pings_sent,
            "relay_medians": rnd.relay_medians is not None,
        })
        prefix = f"round{k}."
        for name in ObservationTable._ARRAY_FIELDS:
            columns[prefix + name] = getattr(rnd.table, name)
        for kind, medians in (("direct", rnd.direct_medians), ("relay", rnd.relay_medians)):
            if medians is not None:
                for name in ("a", "b", "ms"):
                    columns[f"{prefix}{kind}.{name}"] = getattr(medians, name)
    meta = {
        "format_version": FORMAT_VERSION,
        "colo_filter_funnel": list(result.colo_filter_funnel),
        "verified_eyeball_tuples": result.verified_eyeball_tuples,
        "rounds": rounds,
    }
    arrays = {
        "meta": np.asarray([json.dumps(meta)]),
        "pool.endpoint_ids": str_array(pools.endpoint_ids.values),
        "pool.countries": str_array(pools.countries.values),
        "pool.cities": str_array(pools.cities.values),
    }
    for key, values in result.registry.to_payload().items():
        ints = key in ("asns", "facility_ids")
        arrays["relay." + key] = np.asarray(values, np.int64) if ints else str_array(values)
    write_arrays(path, {**arrays, **columns})


def load_result(path: str | os.PathLike) -> CampaignResult:
    """Read a campaign result written by :func:`save_result`.

    Table and median columns are read-only maps of the file.

    Raises:
        StoreError: naming ``path``, if the file is missing, truncated or
            not a format-2 result archive (a version-1 JSON file included),
            if a string pool repeats a string or the relay registry a node
            id, or if a round's columns are defective: a table column of
            the wrong shape, median columns of unequal length, a code
            outside its string pool, a relay index outside the registry
            (``best_relay`` may be -1), or an ``imp_indptr`` that does not
            run from 0, without decreasing, to ``len(imp_relay)``.
    """
    arrays = read_arrays(path)
    try:
        meta = json.loads(str(arrays["meta"][0]))
    except (KeyError, IndexError, ValueError) as exc:
        raise StoreError(path, "not a campaign result file") from exc
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise StoreError(path, f"format version {version}; this build reads {FORMAT_VERSION}")
    try:
        try:
            registry = RelayRegistry.from_payload({
                name[len("relay."):]: values.tolist()
                for name, values in arrays.items() if name.startswith("relay.")
            })
        except AnalysisError as exc:  # a node id repeated under another type
            raise StoreError(path, f"relay.node_ids: {exc}") from exc
        if len(registry) != arrays["relay.node_ids"].shape[0]:
            raise StoreError(path, "relay registry repeats a node id")

        def pool(name: str) -> Interner:
            values = arrays[f"pool.{name}"].tolist()
            interned = Interner(values)
            if len(interned) != len(values):  # every later code would shift
                raise StoreError(path, f"pool.{name} repeats a string")
            return interned

        # one pools object across rounds, as in a live campaign, so the
        # campaign-level table stays a plain array concatenate
        pools = TablePools(pool("endpoint_ids"), pool("countries"), pool("cities"))

        def check_codes(member: str, codes: np.ndarray, limit: int, low: int = 0) -> None:
            if codes.size and not low <= codes.min() <= codes.max() < limit:
                raise StoreError(path, f"{member} holds a code outside [{low}, {limit})")

        def round_table(prefix: str) -> ObservationTable:
            try:
                table = ObservationTable(pools, **{
                    name: arrays[prefix + name] for name in ObservationTable._ARRAY_FIELDS
                })
            except AnalysisError as exc:  # a column of the wrong shape, named first
                raise StoreError(path, f"{prefix}{exc}") from exc
            for names, limit in (
                (("e1_id", "e2_id"), len(pools.endpoint_ids)),
                (("e1_cc", "e2_cc"), len(pools.countries)),
                (("e1_city", "e2_city"), len(pools.cities)),
                (("imp_relay",), len(registry)),
            ):
                for name in names:
                    check_codes(prefix + name, getattr(table, name), limit)
            check_codes(prefix + "best_relay", table.best_relay, len(registry), low=-1)
            ptr = table.imp_indptr
            if ptr[0] != 0 or ptr[-1] != len(table.imp_relay) or (np.diff(ptr) < 0).any():
                raise StoreError(path, f"{prefix}imp_indptr is not a CSR index of imp_relay")
            return table

        def medians(prefix: str, b_limit: int) -> MedianColumns:
            cols = MedianColumns(*(arrays[f"{prefix}.{name}"] for name in ("a", "b", "ms")))
            if not len(cols.a) == len(cols.b) == len(cols.ms):
                raise StoreError(path, f"{prefix} columns differ in length")
            check_codes(prefix + ".a", cols.a, len(pools.endpoint_ids))
            check_codes(prefix + ".b", cols.b, b_limit)
            return cols

        rounds = []
        for k, info in enumerate(meta["rounds"]):
            prefix = f"round{k}."
            rounds.append(RoundResult(
                round_index=info["round_index"],
                timestamp_hours=info["timestamp_hours"],
                endpoint_ids=tuple(info["endpoint_ids"]),
                relay_indices_by_type={
                    RelayType(t): tuple(v) for t, v in info["relay_indices_by_type"].items()
                },
                table=round_table(prefix),
                direct_medians=medians(prefix + "direct", len(pools.endpoint_ids)),
                relay_medians=(
                    medians(prefix + "relay", len(registry)) if info["relay_medians"] else None
                ),
                pings_sent=info["pings_sent"],
            ))
        return CampaignResult(
            rounds=rounds,
            registry=registry,
            verified_eyeball_tuples=meta["verified_eyeball_tuples"],
            colo_filter_funnel=tuple(meta["colo_filter_funnel"]),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise StoreError(path, f"malformed result file ({exc!r})") from exc
