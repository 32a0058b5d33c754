"""Frozen model packs: the mmap-able ``.tdbx`` on-disk layout.

The ``.tdb`` container (:mod:`repro.core.trainingdb`) optimizes for
*transport*: one zlib stream, decompressed and copied record by record
on every load.  That is the wrong trade for a serving fleet — N worker
processes each paying a full decompress + copy hold N private heap
copies of the same fitted-model arrays, and a hot reload re-parses the
whole database on the serving path.

A frozen pack stores the arrays a fitted model actually reads —
``positions``, ``mean_matrix``, ``std_matrix``, the raw per-location
``samples``, and optionally the :class:`~repro.algorithms.regression.
PackedRanging` inversion tables — as **aligned, raw little-endian
sections** behind a checksummed JSON header.  Opening a pack maps the
file read-only (``mmap.ACCESS_READ``) and exposes each section as a
zero-copy ``np.frombuffer`` view:

* every view is ``writeable=False`` (the buffer itself is read-only),
  so the corruption-by-aliasing class of bugs cannot exist;
* N processes opening one pack share **one page-cache copy** of the
  model — combined RSS for the model stays at ~one worker's, which is
  what lets ``repro serve --workers N`` scale without N× memory;
* hot-reload is "open the new pack, swap one reference" — no
  ``zlib.decompress``, no per-record copies on the serving path.

Layout::

    MAGIC "RTDX1\\n" | u32 header_len | u32 header_crc32
    | header JSON (utf-8) | zero padding to 64-byte alignment
    | section 0 bytes | padding | section 1 bytes | ...

The header records ``{"format", "meta", "sections": [{name, dtype,
shape, offset, nbytes, crc32}]}`` with offsets relative to the aligned
data start, so byte layout is a pure function of the content.  All
sections are little-endian; the checksums (zlib CRC-32) cover the
header bytes and each section's bytes, giving the loader a taxonomy of
failures: :class:`FrozenPackMagicError` (not a pack),
:class:`FrozenPackTruncatedError` (short file),
:class:`FrozenPackChecksumError` (bit rot), all under
:class:`FrozenPackError`.

The freeze path (:func:`freeze_training_db`) writes the exact bytes
the heap-backed accessors produce — ``db.mean_matrix()`` and friends
are computed once at freeze time by the same code every consumer runs
— so a localizer fitted on a frozen database answers **bit-for-bit**
identically to one fitted on the ``.tdb`` it was frozen from (the
parity suite in ``tests/test_frozenpack.py`` enforces this across
every registered algorithm).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.geometry import Point
from repro.core.trainingdb import LocationRecord, TrainingDatabase, TrainingDBError
from repro.core.trainingdb import MAGIC as TDB_MAGIC

PathLike = Union[str, os.PathLike]

__all__ = [
    "MAGIC",
    "FrozenPack",
    "FrozenPackError",
    "FrozenPackMagicError",
    "FrozenPackTruncatedError",
    "FrozenPackChecksumError",
    "write_pack",
    "freeze_training_db",
    "load_frozen_db",
    "load_database",
    "is_frozen_pack",
    "ranging_fingerprint",
    "frozen_ranging_for",
]

MAGIC = b"RTDX1\n"

#: Section payloads start on this boundary.  The mmap base is
#: page-aligned, so a 64-byte file offset alignment gives every view
#: cache-line-aligned data — and comfortably satisfies any dtype's
#: alignment requirement.
ALIGN = 64

_LEN_CRC = struct.Struct("<II")

#: The std floor(s) precomputed into a pack by default.  0.5 is the
#: toolkit-wide default of :meth:`LocationRecord.std_rssi`; consumers
#: asking for another floor fall back to computing it from the mapped
#: samples (still zero-copy inputs, heap output).
DEFAULT_STD_FLOORS = (0.5,)

_FORMAT = "repro-frozenpack/1"


class FrozenPackError(ValueError):
    """Base class for malformed / unreadable frozen packs."""


class FrozenPackMagicError(FrozenPackError):
    """The file does not start with the ``.tdbx`` magic."""


class FrozenPackTruncatedError(FrozenPackError):
    """The file ends before the bytes its header promises."""


class FrozenPackChecksumError(FrozenPackError):
    """Stored CRC-32 does not match the bytes on disk (bit rot)."""


def _align(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _le_dtype(dtype: np.dtype) -> np.dtype:
    """The little-endian spelling of ``dtype`` (no-op on LE hosts)."""
    return dtype.newbyteorder("<")


def write_pack(
    path: PathLike,
    sections: Sequence[Tuple[str, np.ndarray]],
    meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write named arrays as one frozen pack; returns the file size.

    Arrays are serialized contiguously in little-endian byte order;
    ``sections`` order is preserved (it becomes the on-disk order).
    """
    blobs: List[bytes] = []
    table: List[Dict[str, object]] = []
    offset = 0
    seen = set()
    for name, arr in sections:
        if name in seen:
            raise FrozenPackError(f"duplicate section name {name!r}")
        seen.add(name)
        a = np.ascontiguousarray(arr)
        dt = _le_dtype(a.dtype)
        data = np.ascontiguousarray(a, dtype=dt).tobytes()
        offset = _align(offset)
        table.append({
            "name": name,
            "dtype": dt.str,
            "shape": list(a.shape),
            "offset": offset,
            "nbytes": len(data),
            "crc32": zlib.crc32(data) & 0xFFFFFFFF,
        })
        blobs.append(data)
        offset += len(data)
    header = {"format": _FORMAT, "meta": meta or {}, "sections": table}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(len(MAGIC) + _LEN_CRC.size + len(header_bytes))
    out = bytearray()
    out += MAGIC
    out += _LEN_CRC.pack(len(header_bytes), zlib.crc32(header_bytes) & 0xFFFFFFFF)
    out += header_bytes
    out += b"\0" * (data_start - len(out))
    for entry, data in zip(table, blobs):
        absolute = data_start + int(entry["offset"])
        out += b"\0" * (absolute - len(out))
        out += data
    Path(path).write_bytes(bytes(out))
    return len(out)


class FrozenPack:
    """A read-only mmap over one ``.tdbx`` file.

    Every :meth:`array` is a zero-copy ``np.frombuffer`` view into the
    mapping — ``writeable=False`` by construction, shared page-cache
    backing across every process that opens the same file.  Keep the
    pack object alive as long as its views are in use (the loader
    attaches it to the :class:`TrainingDatabase` it builds); ``close``
    tolerates live views by leaving the final unmap to the GC.
    """

    def __init__(self, path: PathLike, verify: bool = True):
        self.path = str(path)
        prefix_len = len(MAGIC) + _LEN_CRC.size
        with open(self.path, "rb") as f:
            head = f.read(prefix_len)
            if len(head) < len(MAGIC) or not head.startswith(MAGIC):
                raise FrozenPackMagicError(
                    f"{self.path}: not a frozen pack "
                    f"(magic {head[:len(MAGIC)]!r}, expected {MAGIC!r})"
                )
            if len(head) < prefix_len:
                raise FrozenPackTruncatedError(f"{self.path}: truncated header prefix")
            header_len, header_crc = _LEN_CRC.unpack(head[len(MAGIC):])
            header_bytes = f.read(header_len)
            if len(header_bytes) < header_len:
                raise FrozenPackTruncatedError(
                    f"{self.path}: header claims {header_len} bytes, "
                    f"file has {len(header_bytes)}"
                )
            if zlib.crc32(header_bytes) & 0xFFFFFFFF != header_crc:
                raise FrozenPackChecksumError(f"{self.path}: header checksum mismatch")
            try:
                header = json.loads(header_bytes)
            except ValueError as exc:
                raise FrozenPackError(f"{self.path}: unparseable header: {exc}") from None
            if header.get("format") != _FORMAT:
                raise FrozenPackError(
                    f"{self.path}: unsupported format {header.get('format')!r}"
                )
            f.seek(0, os.SEEK_END)
            size = f.tell()
            f.seek(0)
            self._mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        self.meta: Dict[str, object] = header.get("meta") or {}
        data_start = _align(prefix_len + header_len)
        self._arrays: Dict[str, np.ndarray] = {}
        for entry in header.get("sections", []):
            name = entry["name"]
            off = data_start + int(entry["offset"])
            nbytes = int(entry["nbytes"])
            if off + nbytes > size:
                self._mm.close()
                raise FrozenPackTruncatedError(
                    f"{self.path}: section {name!r} wants bytes "
                    f"[{off}, {off + nbytes}), file has {size}"
                )
            if verify:
                crc = zlib.crc32(memoryview(self._mm)[off:off + nbytes]) & 0xFFFFFFFF
                if crc != int(entry["crc32"]):
                    self._mm.close()
                    raise FrozenPackChecksumError(
                        f"{self.path}: section {name!r} checksum mismatch"
                    )
            dt = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            count = 1
            for s in shape:
                count *= s
            if count * dt.itemsize != nbytes:
                self._mm.close()
                raise FrozenPackError(
                    f"{self.path}: section {name!r} shape {shape} x {dt} "
                    f"!= {nbytes} bytes"
                )
            view = np.frombuffer(self._mm, dtype=dt, count=count, offset=off)
            self._arrays[name] = view.reshape(shape)

    def names(self) -> List[str]:
        return list(self._arrays)

    def array(self, name: str) -> np.ndarray:
        """The named section as a read-only zero-copy view."""
        try:
            return self._arrays[name]
        except KeyError:
            raise FrozenPackError(
                f"{self.path}: no section {name!r}; have {self.names()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def close(self) -> None:
        """Drop the array views and try to unmap.

        Views handed out earlier keep the mapping alive (closing an
        mmap with exported buffers raises ``BufferError``); in that
        case the unmap happens when the last view is collected.
        """
        self._arrays = {}
        try:
            self._mm.close()
        except BufferError:
            pass  # live views: the GC unmaps when the last one dies

    def __enter__(self) -> "FrozenPack":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def ranging_fingerprint(ap_positions: Dict[str, Point]) -> str:
    """Stable digest of an AP-position map.

    Stored beside frozen :class:`PackedRanging` tables; a localizer
    only adopts the frozen tables when its own ``ap_positions`` hash to
    the same value, since the regression fits depend on them.
    """
    doc = sorted(
        (str(b), float(p.x), float(p.y)) for b, p in ap_positions.items()
    )
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def freeze_training_db(
    db: TrainingDatabase,
    path: PathLike,
    std_floors: Sequence[float] = DEFAULT_STD_FLOORS,
    ap_positions: Optional[Dict[str, Point]] = None,
) -> int:
    """Write ``db`` (plus optional ranging tables) as a frozen pack.

    The stored matrices are produced by the database's own accessors,
    so a pack round-trip is bit-exact by construction.  With
    ``ap_positions`` the §5.2 per-AP regression is fitted here, once,
    and its :class:`PackedRanging` arrays ride in the pack under a
    fingerprint of the AP map — geometric/multilateration fits on the
    loaded database reuse them instead of re-running the regression.

    Returns the pack size in bytes.
    """
    with obs.span("frozenpack.freeze", path=str(path)):
        if db.records:
            samples = np.concatenate(
                [np.ascontiguousarray(r.samples, dtype="<f4") for r in db.records]
            )
        else:
            samples = np.zeros((0, len(db.bssids)), dtype="<f4")
        offsets = np.zeros(len(db.records) + 1, dtype=np.int64)
        np.cumsum([r.samples.shape[0] for r in db.records], out=offsets[1:])
        sections: List[Tuple[str, np.ndarray]] = [
            ("positions", db.positions()),
            ("mean_matrix", db.mean_matrix()),
            ("samples", samples),
            ("sample_offsets", offsets),
        ]
        floors = sorted({float(f) for f in std_floors})
        for floor in floors:
            sections.append((f"std_matrix/{floor!r}", db.std_matrix(min_std=floor)))
        meta: Dict[str, object] = {
            "bssids": list(db.bssids),
            "names": [r.name for r in db.records],
            "std_floors": floors,
        }
        if ap_positions:
            from repro.algorithms.regression import PackedRanging, fit_per_ap

            packed = PackedRanging.from_fits(
                fit_per_ap(db, ap_positions), db.bssids
            )
            for field in ("columns", "a", "b", "c", "lo", "hi", "ss_lo", "ss_hi"):
                sections.append((f"ranging/{field}", getattr(packed, field)))
            meta["ranging"] = {
                "bssids": list(packed.bssids),
                "fingerprint": ranging_fingerprint(ap_positions),
            }
        size = write_pack(path, sections, meta=meta)
        obs.counter("frozenpack.freezes").inc()
        return size


class _FrozenRanging:
    """The pack's PackedRanging arrays + the AP-map fingerprint."""

    __slots__ = ("packed", "fingerprint")

    def __init__(self, packed, fingerprint: str):
        self.packed = packed
        self.fingerprint = fingerprint


def load_frozen_db(path: PathLike, verify: bool = True) -> TrainingDatabase:
    """Open a pack as a :class:`TrainingDatabase` of zero-copy views.

    Record samples are read-only row slices of one mapped ``samples``
    section; the positions / mean / std matrices are the mapped
    sections themselves, pre-seeded into the database's memo slots so
    every consumer reads the page-cache copy.  The returned database
    carries ``frozen_pack`` (the open :class:`FrozenPack`) and — when
    the pack includes ranging tables — ``frozen_ranging`` for
    :func:`frozen_ranging_for`.
    """
    with obs.span("frozenpack.load", path=str(path)):
        pack = FrozenPack(path, verify=verify)
        try:
            bssids = list(pack.meta["bssids"])
            names = list(pack.meta["names"])
        except KeyError as exc:
            pack.close()
            raise FrozenPackError(f"{path}: pack meta lacks {exc}") from None
        positions = pack.array("positions")
        samples = pack.array("samples")
        offsets = pack.array("sample_offsets")
        if positions.shape != (len(names), 2):
            pack.close()
            raise FrozenPackError(
                f"{path}: positions shape {positions.shape} != ({len(names)}, 2)"
            )
        if offsets.shape != (len(names) + 1,):
            pack.close()
            raise FrozenPackError(
                f"{path}: sample_offsets shape {offsets.shape} != ({len(names) + 1},)"
            )
        records = []
        for i, name in enumerate(names):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            records.append(LocationRecord(
                name,
                Point(float(positions[i, 0]), float(positions[i, 1])),
                samples[lo:hi],
            ))
        try:
            db = TrainingDatabase(bssids, records)
        except TrainingDBError:
            pack.close()
            raise
        db._positions_memo = positions
        db._mean_matrix_memo = pack.array("mean_matrix")
        for floor in pack.meta.get("std_floors", []):
            db._std_matrix_memo[float(floor)] = pack.array(f"std_matrix/{float(floor)!r}")
        db.frozen_pack = pack
        ranging_meta = pack.meta.get("ranging")
        if ranging_meta:
            from repro.algorithms.regression import PackedRanging

            db.frozen_ranging = _FrozenRanging(
                PackedRanging(
                    bssids=tuple(ranging_meta["bssids"]),
                    columns=pack.array("ranging/columns"),
                    a=pack.array("ranging/a"),
                    b=pack.array("ranging/b"),
                    c=pack.array("ranging/c"),
                    lo=pack.array("ranging/lo"),
                    hi=pack.array("ranging/hi"),
                    ss_lo=pack.array("ranging/ss_lo"),
                    ss_hi=pack.array("ranging/ss_hi"),
                ),
                str(ranging_meta["fingerprint"]),
            )
        obs.counter("frozenpack.loads").inc()
        return db


def frozen_ranging_for(
    db: TrainingDatabase, ap_positions: Dict[str, Point]
):
    """The database's frozen ranging tables, iff they match ``ap_positions``.

    Returns the pack-backed :class:`PackedRanging` when ``db`` was
    loaded from a pack frozen with the *same* AP map (fingerprint
    equality); None otherwise — callers then run the regression as
    usual.  Adoption is safe because the frozen arrays were produced by
    the identical ``from_fits`` computation at freeze time.
    """
    frozen = getattr(db, "frozen_ranging", None)
    if frozen is None:
        return None
    if frozen.fingerprint != ranging_fingerprint(ap_positions):
        return None
    return frozen.packed


def is_frozen_pack(path: PathLike) -> bool:
    """True iff ``path`` starts with the frozen-pack magic."""
    try:
        with open(path, "rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def load_database(path: PathLike) -> TrainingDatabase:
    """Load ``path`` as whichever container it is (``.tdb`` / ``.tdbx``).

    Sniffs the magic rather than trusting the suffix; unknown magics
    raise :class:`TrainingDBError` naming both formats.
    """
    with open(path, "rb") as f:
        head = f.read(max(len(MAGIC), len(TDB_MAGIC)))
    if head.startswith(MAGIC):
        return load_frozen_db(path)
    if head.startswith(TDB_MAGIC):
        return TrainingDatabase.load(path)
    raise TrainingDBError(
        f"{path}: neither a .tdb ({TDB_MAGIC!r}) nor a frozen pack ({MAGIC!r}); "
        f"got {head!r}"
    )
