"""Frozen model packs: format round-trip, corruption taxonomy, parity.

The pack's whole value proposition is "bit-for-bit the same answers,
zero-copy the whole way down", so the suite enforces three contracts:

* **Format**: ``write_pack`` → :class:`FrozenPack` round-trips arrays
  exactly (hypothesis-driven across dtypes/shapes), every view is
  ``writeable=False``, and each way a file can be wrong (bad magic,
  truncation, header rot, section rot) raises its own error class.
* **Parity**: every registered localizer fitted on a frozen database
  answers byte-identically (canonical wire JSON) to the same localizer
  fitted on the heap-backed ``.tdb`` database it was frozen from —
  including the fallback chain.
* **Adoption**: geometric tiers reuse the pack's ranging tables only
  under a matching AP-map fingerprint, and the adopted arrays really
  are the mapped ones (``np.shares_memory``), not copies.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms  # noqa: F401 - populate the registry
from repro.algorithms.base import _REGISTRY, make_localizer
from repro.core.frozenpack import (
    MAGIC,
    FrozenPack,
    FrozenPackChecksumError,
    FrozenPackError,
    FrozenPackMagicError,
    FrozenPackTruncatedError,
    freeze_training_db,
    frozen_ranging_for,
    is_frozen_pack,
    load_database,
    load_frozen_db,
    ranging_fingerprint,
    write_pack,
)
from repro.core.geometry import Point
from repro.core.trainingdb import TrainingDBError
from repro.serve.wire import canonical_json, estimate_to_json


@pytest.fixture(scope="module")
def pack_path(training_db, house, tmp_path_factory):
    path = tmp_path_factory.mktemp("packs") / "model.tdbx"
    freeze_training_db(
        training_db, path, ap_positions=house.ap_positions_by_bssid()
    )
    return path


@pytest.fixture(scope="module")
def frozen_db(pack_path):
    return load_frozen_db(pack_path)


# ----------------------------------------------------------------------
# format round-trip
# ----------------------------------------------------------------------
_DTYPES = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u1"])


@st.composite
def _section(draw, index):
    dtype = np.dtype(draw(_DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    if dtype.kind == "f":
        elems = st.floats(
            allow_nan=False, allow_infinity=False, width=32, min_value=-1e6, max_value=1e6
        )
    else:
        info = np.iinfo(dtype)
        elems = st.integers(int(info.min), int(info.max))
    n = int(np.prod(shape))
    values = draw(st.lists(elems, min_size=n, max_size=n))
    return f"s{index}", np.array(values, dtype=dtype).reshape(shape)


@st.composite
def _sections(draw):
    k = draw(st.integers(1, 4))
    return [draw(_section(i)) for i in range(k)]


@settings(max_examples=40, deadline=None)
@given(sections=_sections())
def test_pack_roundtrip_bitexact(tmp_path_factory, sections):
    path = tmp_path_factory.mktemp("rt") / "t.tdbx"
    size = write_pack(path, sections, meta={"k": "v"})
    assert path.stat().st_size == size
    with FrozenPack(path) as pack:
        assert pack.meta == {"k": "v"}
        assert pack.names() == [name for name, _ in sections]
        for name, arr in sections:
            view = pack.array(name)
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape
            assert view.tobytes() == arr.tobytes()
            assert not view.flags.writeable


def test_pack_rejects_duplicate_sections(tmp_path):
    a = np.zeros(3)
    with pytest.raises(FrozenPackError, match="duplicate"):
        write_pack(tmp_path / "d.tdbx", [("x", a), ("x", a)])


def test_unknown_section_raises(tmp_path):
    path = tmp_path / "one.tdbx"
    write_pack(path, [("x", np.arange(4.0))])
    with FrozenPack(path) as pack:
        with pytest.raises(FrozenPackError, match="no section 'y'"):
            pack.array("y")


# ----------------------------------------------------------------------
# corruption taxonomy: each failure mode has its own exception
# ----------------------------------------------------------------------
@pytest.fixture()
def small_pack(tmp_path):
    path = tmp_path / "small.tdbx"
    write_pack(path, [("x", np.arange(64, dtype=np.float64))], meta={"m": 1})
    return path


def test_bad_magic_raises_magic_error(small_pack):
    raw = bytearray(small_pack.read_bytes())
    raw[:6] = b"NOTPCK"
    small_pack.write_bytes(bytes(raw))
    assert not is_frozen_pack(small_pack)
    with pytest.raises(FrozenPackMagicError):
        FrozenPack(small_pack)


def test_truncated_header_raises_truncated_error(small_pack):
    small_pack.write_bytes(small_pack.read_bytes()[: len(MAGIC) + 10])
    with pytest.raises(FrozenPackTruncatedError):
        FrozenPack(small_pack)


def test_truncated_section_raises_truncated_error(small_pack):
    small_pack.write_bytes(small_pack.read_bytes()[:-100])
    with pytest.raises(FrozenPackTruncatedError):
        FrozenPack(small_pack)


def test_header_bitflip_raises_checksum_error(small_pack):
    raw = bytearray(small_pack.read_bytes())
    raw[len(MAGIC) + 8 + 2] ^= 0x01  # inside the header JSON
    small_pack.write_bytes(bytes(raw))
    with pytest.raises(FrozenPackChecksumError):
        FrozenPack(small_pack)


def test_section_bitflip_raises_checksum_error(small_pack):
    raw = bytearray(small_pack.read_bytes())
    raw[-1] ^= 0x01  # last byte of the last section
    small_pack.write_bytes(bytes(raw))
    with pytest.raises(FrozenPackChecksumError):
        FrozenPack(small_pack)
    # verify=False skips section CRCs by design (trusted local file).
    pack = FrozenPack(small_pack, verify=False)
    pack.close()


def test_unknown_magic_names_both_formats(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"GARBAGE!" * 4)
    with pytest.raises(TrainingDBError, match="neither"):
        load_database(path)


# ----------------------------------------------------------------------
# the frozen database: zero-copy, read-only, sniffed loader
# ----------------------------------------------------------------------
def test_frozen_db_views_are_readonly_and_shared(frozen_db, training_db):
    pack = frozen_db.frozen_pack
    for arr in (
        frozen_db.positions(),
        frozen_db.mean_matrix(),
        frozen_db.std_matrix(),
    ):
        assert not arr.flags.writeable
    assert np.shares_memory(frozen_db.positions(), pack.array("positions"))
    assert np.shares_memory(frozen_db.mean_matrix(), pack.array("mean_matrix"))
    for rec in frozen_db.records:
        assert not rec.samples.flags.writeable
        assert np.shares_memory(rec.samples, pack.array("samples"))
    with pytest.raises((ValueError, RuntimeError)):
        frozen_db.mean_matrix()[0, 0] = 0.0


def test_frozen_db_matches_heap_db(frozen_db, training_db):
    assert list(frozen_db.bssids) == list(training_db.bssids)
    assert [r.name for r in frozen_db.records] == [r.name for r in training_db.records]
    np.testing.assert_array_equal(frozen_db.positions(), training_db.positions())
    np.testing.assert_array_equal(frozen_db.mean_matrix(), training_db.mean_matrix())
    np.testing.assert_array_equal(frozen_db.std_matrix(), training_db.std_matrix())
    for fr, hr in zip(frozen_db.records, training_db.records):
        np.testing.assert_array_equal(
            np.asarray(fr.samples, dtype=np.float32),
            np.asarray(hr.samples, dtype=np.float32),
        )


def test_load_database_sniffs_both_formats(tmp_path, training_db, house):
    tdb = tmp_path / "m.tdb"
    tdbx = tmp_path / "m.tdbx"
    training_db.save(tdb)
    training_db.freeze(tdbx, ap_positions=house.ap_positions_by_bssid())
    heap = load_database(tdb)
    frozen = load_database(tdbx)
    assert getattr(heap, "frozen_pack", None) is None
    assert frozen.frozen_pack is not None
    np.testing.assert_array_equal(heap.mean_matrix(), frozen.mean_matrix())


def test_uncommon_std_floor_still_works(frozen_db, training_db):
    # 0.5 rides in the pack; other floors compute from mapped samples.
    np.testing.assert_array_equal(
        frozen_db.std_matrix(min_std=2.0), training_db.std_matrix(min_std=2.0)
    )


# ----------------------------------------------------------------------
# parity: every registered localizer, frozen vs heap, byte-identical
# ----------------------------------------------------------------------
def _kwargs_for(name, house):
    if name in ("geometric", "multilateration"):
        return {"ap_positions": house.ap_positions_by_bssid()}
    if name == "fallback":
        return {
            "ap_positions": house.ap_positions_by_bssid(),
            "bounds": house.bounds(),
        }
    return {}


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_frozen_parity_all_algorithms(name, frozen_db, training_db, house, observations):
    heap = make_localizer(name, **_kwargs_for(name, house)).fit(training_db)
    cold = make_localizer(name, **_kwargs_for(name, house)).fit(frozen_db)
    obs_list = list(observations)
    heap_many = heap.locate_many(obs_list)
    cold_many = cold.locate_many(obs_list)
    for h, c in zip(heap_many, cold_many):
        assert canonical_json(estimate_to_json(h)) == canonical_json(
            estimate_to_json(c)
        )
    # Scalar path too: locate() must agree with itself across backings.
    h1 = heap.locate(obs_list[0])
    c1 = cold.locate(obs_list[0])
    assert canonical_json(estimate_to_json(h1)) == canonical_json(estimate_to_json(c1))


def test_ranging_adoption_shares_pack_memory(frozen_db, house):
    ap_positions = house.ap_positions_by_bssid()
    packed = frozen_ranging_for(frozen_db, ap_positions)
    assert packed is not None
    assert np.shares_memory(packed.a, frozen_db.frozen_pack.array("ranging/a"))
    geo = make_localizer("geometric", ap_positions=ap_positions).fit(frozen_db)
    assert geo._packed is packed


def test_ranging_not_adopted_on_fingerprint_mismatch(frozen_db, house):
    moved = {
        b: Point(p.x + 1.0, p.y) for b, p in house.ap_positions_by_bssid().items()
    }
    assert frozen_ranging_for(frozen_db, moved) is None
    geo = make_localizer("geometric", ap_positions=moved).fit(frozen_db)
    assert not np.shares_memory(geo._packed.a, frozen_db.frozen_pack.array("ranging/a"))


def test_ranging_fingerprint_is_order_independent():
    a = {"aa": Point(1.0, 2.0), "bb": Point(3.0, 4.0)}
    b = dict(reversed(list(a.items())))
    assert ranging_fingerprint(a) == ranging_fingerprint(b)
    assert ranging_fingerprint(a) != ranging_fingerprint(
        {"aa": Point(1.0, 2.0), "bb": Point(3.0, 4.5)}
    )


def test_freeze_cli_roundtrip(tmp_path, training_db, house):
    from repro.cli import repro_main

    tdb = tmp_path / "m.tdb"
    training_db.save(tdb)
    out = tmp_path / "m.tdbx"
    assert repro_main(["freeze", str(tdb), str(out)]) == 0
    db = load_database(out)
    assert db.frozen_pack is not None
    assert getattr(db, "frozen_ranging", None) is None
    np.testing.assert_array_equal(db.mean_matrix(), training_db.mean_matrix())
