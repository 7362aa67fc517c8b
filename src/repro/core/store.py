"""Atomic, deterministic array files: one writer and one reader.

Every array file the system keeps on disk — world snapshots
(:mod:`repro.core.worldcache`) and campaign results (:mod:`repro.core.io`)
— is an uncompressed ``.npz`` written by :func:`write_arrays` and read by
:func:`read_arrays`.  Equal arrays give equal bytes (``np.savez`` writes
members in the mapping's order with constant zip timestamps) within one
Python line: 3.10's ``zipfile`` writes other zip64 headers than 3.11+.
Both raise :class:`~repro.errors.StoreError`, which names the path.  Only
the standard library and NumPy are imported here, so reading a result
file does not load the world-building stack.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import tempfile
import zipfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.errors import StoreError


def str_array(values: list[str]) -> np.ndarray:
    """A fixed-width unicode array for a string list (``U1`` when empty)."""
    return np.asarray(values, dtype=np.str_) if values else np.empty(0, dtype="U1")


def write_arrays(path: str | os.PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``arrays`` as an uncompressed ``.npz`` at exactly ``path``.

    The members go to a private temp file beside ``path`` that
    ``os.replace`` moves over it: a crash or a full disk leaves the old
    file intact and no temp file behind; of racing writers, the last wins.

    Raises:
        StoreError: if the file cannot be created, written or moved into
            place (a missing directory included).
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    except OSError as exc:
        raise StoreError(path, f"cannot create a file here: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        # mkstemp files are 0600; open the file up to the umask's default
        # so a shared directory works across users
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise StoreError(path, f"write failed: {exc}") from exc
        raise
    return path


def read_arrays(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Map every member of an uncompressed ``.npz`` read-only, in order.

    An uncompressed member is a contiguous byte range of the archive: the
    zip local header gives its offset, the npy header dtype and shape, and
    the array views that range of one read-only ``mmap`` of the file (an
    empty member is a fresh zero-size array).  Loads cost page faults.

    Raises:
        StoreError: if the file is missing, is not a zip archive, is
            truncated, or holds a compressed or object-dtype member.
    """
    try:
        return _mmap_npz(os.fspath(path))
    except FileNotFoundError as exc:
        raise StoreError(path, "no such file") from exc
    except (OSError, ValueError, TypeError, EOFError, struct.error, zipfile.BadZipFile) as exc:
        raise StoreError(path, f"not a readable array archive ({exc})") from exc


def _mmap_npz(path: str) -> dict[str, np.ndarray]:
    members: dict[str, np.ndarray] = {}
    with open(path, "rb") as raw, zipfile.ZipFile(raw) as archive:
        data = mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ)
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise StoreError(path, f"member {info.filename} is compressed")
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] != b"PK\x03\x04":
                raise StoreError(path, f"bad local header for {info.filename}")
            name_len, extra_len = struct.unpack("<HH", local[26:30])
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:
                raise StoreError(path, f"unsupported npy version {version}")
            if dtype.hasobject:
                raise StoreError(path, f"member {info.filename} holds objects")
            name = info.filename.removesuffix(".npy")
            if int(np.prod(shape)) == 0:
                members[name] = np.zeros(shape, dtype)
            else:
                members[name] = np.ndarray(
                    shape, dtype, buffer=data, offset=raw.tell(),
                    order="F" if fortran else "C",
                )
    return members
