"""ModelRegistry: the multi-site LRU, model-checked.

Tier-1 throughout — no sockets.  The centerpiece mirrors the
``SessionStore`` property suite: hypothesis drives scripted operation
sequences (lease / pin / release / reload) against a real registry
over a fleet of tiny on-disk grid sites, and every step is compared
against a reference shadow model (a plain ``OrderedDict`` recency
list).  The concurrency tests hammer single-flight loading with real
threads, synchronizing on events rather than sleeps.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.base import Observation
from repro.core.geometry import Point
from repro.obs.quality import APDriftMonitor
from repro.serve.registry import (
    ModelRegistry,
    SiteDefinition,
    UnknownSiteError,
    load_fleet,
    write_fleet_manifest,
)
from tests.siteutils import make_grid_db, rssi_at, write_grid_fleet

SITE_IDS = ("g00", "g01", "g02", "g03", "g04")


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


@pytest.fixture(scope="module")
def fleet_manifest(tmp_path_factory):
    """Five tiny grid sites (one frozen) — millisecond model builds."""
    root = tmp_path_factory.mktemp("grid-fleet")
    sites, manifest = write_grid_fleet(root, len(SITE_IDS), freeze=(1,))
    assert tuple(sorted(sites)) == SITE_IDS
    return manifest


def fresh_registry(fleet_manifest, capacity=3, **kwargs):
    return ModelRegistry(fleet_manifest, capacity=capacity, **kwargs)


def probe_observation(seed=0):
    rng = np.random.default_rng(seed)
    return Observation(rng.normal(rssi_at(Point(12.0, 18.0)), 1.0, size=(3, 4)))


# ----------------------------------------------------------------------
# manifest round-trip
# ----------------------------------------------------------------------
class TestFleetManifest:
    def test_round_trip_preserves_sites_and_default(self, tmp_path):
        db = make_grid_db(step=25.0, n_samples=4)
        path = tmp_path / "one.tdb"
        db.save(str(path))
        sites = {
            "one": SiteDefinition(
                "one",
                str(path),
                algorithm="knn",
                ap_positions={"ap0": Point(1.0, 2.0)},
                bounds=(0.0, 0.0, 50.0, 40.0),
                meta={"floor": 3},
            )
        }
        write_fleet_manifest(tmp_path, sites, default="one")
        loaded, default = load_fleet(tmp_path)
        assert default == "one"
        d = loaded["one"]
        assert d.algorithm == "knn"
        assert d.ap_positions["ap0"] == Point(1.0, 2.0)
        assert d.bounds == (0.0, 0.0, 50.0, 40.0)
        assert d.meta == {"floor": 3}

    def test_bare_directory_discovery_prefers_frozen_twin(self, tmp_path):
        db = make_grid_db(step=25.0, n_samples=4)
        db.save(str(tmp_path / "a.tdb"))
        db.freeze(str(tmp_path / "a.tdbx"))
        db.save(str(tmp_path / "b.tdb"))
        sites, default = load_fleet(tmp_path)
        assert sorted(sites) == ["a", "b"]
        assert default == "a"
        assert sites["a"].database.endswith("a.tdbx")  # frozen shadows heap
        assert sites["b"].database.endswith("b.tdb")

    def test_unknown_site_raises_with_known_ids(self, fleet_manifest):
        with fresh_registry(fleet_manifest) as registry:
            with pytest.raises(UnknownSiteError) as err:
                registry.acquire("nowhere")
            assert err.value.site_id == "nowhere"
            assert err.value.known == SITE_IDS


# ----------------------------------------------------------------------
# the reference model
# ----------------------------------------------------------------------
class _ShadowRegistry:
    """Reference model: recency OrderedDict + pin counts + generations."""

    def __init__(self, capacity, default):
        self.capacity = capacity
        self.default = default
        self.resident = OrderedDict()  # sid -> pins, order = LRU -> MRU
        self.generations = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0  # never in single-threaded sequences
        self.loads = 0
        self.evictions = 0

    def _evict(self):
        for sid in list(self.resident):  # oldest first
            if len(self.resident) <= self.capacity:
                break
            if self.resident[sid] > 0:
                continue  # pinned: never unload
            del self.resident[sid]
            self.evictions += 1

    def acquire(self, sid):
        sid = self.default if sid is None else sid
        if sid in self.resident:
            self.resident.move_to_end(sid)
            self.resident[sid] += 1
            self.hits += 1
            return sid
        self.misses += 1
        self.loads += 1
        self.generations[sid] = self.generations.get(sid, 0) + 1
        self.resident[sid] = 1
        self.resident.move_to_end(sid)
        self._evict()
        return sid

    def release(self, sid):
        assert self.resident[sid] > 0
        self.resident[sid] -= 1
        self._evict()

    def reload(self, sid):
        sid = self.acquire(sid)
        self.generations[sid] += 1
        self.release(sid)

    def status(self):
        return {
            "resident": [
                {"site": sid, "generation": self.generations[sid], "pins": pins}
                for sid, pins in self.resident.items()
            ],
            "generations": dict(self.generations),
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "loads": self.loads,
            "evictions": self.evictions,
        }


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("lease"), st.sampled_from(SITE_IDS)),
        st.tuples(st.just("pin"), st.sampled_from(SITE_IDS)),
        st.tuples(st.just("unpin"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("reload"), st.sampled_from(SITE_IDS)),
        st.tuples(st.just("lease_default"), st.none()),
    ),
    max_size=40,
)


class TestRegistryProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_registry_matches_reference_model(self, fleet_manifest, ops):
        registry = fresh_registry(fleet_manifest, capacity=3)
        shadow = _ShadowRegistry(capacity=3, default=registry.default_site)
        held = []  # runtimes with an outstanding pin, acquisition order
        try:
            for op, arg in ops:
                if op in ("lease", "lease_default"):
                    with registry.lease(arg):
                        pass
                    sid = shadow.acquire(arg)
                    shadow.release(sid)
                elif op == "pin":
                    held.append(registry.acquire(arg))
                    shadow.acquire(arg)
                elif op == "unpin":
                    if held:
                        runtime = held.pop(arg % len(held))
                        registry.release(runtime)
                        shadow.release(runtime.site_id)
                elif op == "reload":
                    registry.reload(arg)
                    shadow.reload(arg)
                # The whole card must agree after every operation:
                # residency set AND order, pins, generations, counters.
                real = registry.status()
                expect = shadow.status()
                assert real["resident"] == expect["resident"]
                assert real["generations"] == expect["generations"]
                for key in ("hits", "misses", "coalesced", "loads", "evictions"):
                    assert real[key] == expect[key], key
                # Residency never exceeds capacity except for pinned
                # sites blocking eviction.
                pinned = sum(1 for e in real["resident"] if e["pins"] > 0)
                assert len(real["resident"]) <= registry.capacity + pinned
        finally:
            for runtime in held:
                registry.release(runtime)
            registry.close()

    def test_evicted_site_reloads_transparently(self, fleet_manifest):
        """Eviction is invisible to callers: same site, same answers,
        strictly newer generation."""
        obs_doc = probe_observation()
        with fresh_registry(fleet_manifest, capacity=2) as registry:
            with registry.lease("g00") as runtime:
                first = runtime.service.locate_many([obs_doc])[0]
                gen_first = runtime.generation
            for sid in ("g01", "g02", "g03"):  # flood: g00 must fall out
                with registry.lease(sid):
                    pass
            assert "g00" not in [
                e["site"] for e in registry.status()["resident"]
            ]
            with registry.lease("g00") as runtime:
                again = runtime.service.locate_many([obs_doc])[0]
                assert runtime.generation > gen_first
            assert again.location_name == first.location_name
            assert again.position == first.position

    def test_generations_monotonic_across_evict_reload_cycles(
        self, fleet_manifest
    ):
        with fresh_registry(fleet_manifest, capacity=1) as registry:
            seen = []
            for _ in range(4):
                with registry.lease("g00") as runtime:
                    seen.append(runtime.generation)
                with registry.lease("g01"):  # capacity 1: evicts g00
                    pass
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen)  # strictly increasing
            registry.reload("g00")
            assert registry.generation_of("g00") > seen[-1]

    def test_pinned_site_survives_a_flood(self, fleet_manifest):
        with fresh_registry(fleet_manifest, capacity=2) as registry:
            pinned = registry.acquire("g00")
            for sid in ("g01", "g02", "g03", "g04"):
                with registry.lease(sid):
                    pass
            resident = [e["site"] for e in registry.status()["resident"]]
            assert "g00" in resident
            registry.release(pinned)
            # Unpinned now: the very next load may evict it.
            with registry.lease("g01"):
                pass
            assert len(registry) <= registry.capacity

    def test_release_without_acquire_is_an_error(self, fleet_manifest):
        with fresh_registry(fleet_manifest) as registry:
            runtime = registry.acquire("g00")
            registry.release(runtime)
            with pytest.raises(RuntimeError):
                registry.release(runtime)

    def test_closed_registry_refuses_acquires(self, fleet_manifest):
        registry = fresh_registry(fleet_manifest)
        registry.close()
        with pytest.raises(RuntimeError):
            registry.acquire("g00")


# ----------------------------------------------------------------------
# single-flight under a thundering herd
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_cold_herd_pays_one_build(self, fleet_manifest, monkeypatch):
        registry = fresh_registry(fleet_manifest, capacity=3)
        builds = []
        herd_ready = threading.Event()
        original = ModelRegistry._build_runtime

        def counted(self, sid):
            builds.append(sid)
            herd_ready.wait(timeout=10.0)  # hold the load open
            return original(self, sid)

        monkeypatch.setattr(ModelRegistry, "_build_runtime", counted)
        results = []
        errors = []

        def worker():
            try:
                with registry.lease("g02") as runtime:
                    results.append(runtime)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while not builds:  # leader reached the build
            assert time.monotonic() < deadline, "no leader entered the build"
            time.sleep(0.001)
        herd_ready.set()
        for t in threads:
            t.join(timeout=30.0)
        registry.close()
        assert not errors
        assert builds == ["g02"]  # one build for the whole herd
        assert len(results) == 8
        assert len({id(r) for r in results}) == 1  # everyone got the same one
        snap = obs.snapshot()["counters"]
        assert snap["serve.site.requests{cache=miss,site=g02}"] == 1
        hits = snap.get("serve.site.requests{cache=hit,site=g02}", 0)
        coalesced = snap.get("serve.site.requests{cache=coalesced,site=g02}", 0)
        assert hits + coalesced == 7

    def test_failed_load_propagates_then_recovers(
        self, fleet_manifest, monkeypatch
    ):
        registry = fresh_registry(fleet_manifest)
        original = ModelRegistry._build_runtime
        blow_up = {"g03": True}

        def flaky(self, sid):
            if blow_up.pop(sid, False):
                raise OSError("pack store briefly unreachable")
            return original(self, sid)

        monkeypatch.setattr(ModelRegistry, "_build_runtime", flaky)
        with pytest.raises(OSError):
            registry.acquire("g03")
        # The flight is gone: the next acquire retries and succeeds.
        with registry.lease("g03") as runtime:
            assert runtime.site_id == "g03"
        registry.close()
        snap = obs.snapshot()["counters"]
        assert snap["serve.site.loads{result=failed,site=g03}"] == 1
        assert snap["serve.site.loads{result=ok,site=g03}"] == 1


# ----------------------------------------------------------------------
# metric-label cardinality: a big fleet must not blow up /metrics
# ----------------------------------------------------------------------
class TestMetricCardinality:
    N_SITES = 50
    DRIFT_CAP = 2

    def test_fifty_resident_sites_keep_metrics_bounded(self, tmp_path):
        from repro.obs.export import render_prometheus

        sites, manifest = write_grid_fleet(
            tmp_path, self.N_SITES, step=50.0, n_samples=3
        )
        rng = np.random.default_rng(0)
        with ModelRegistry(manifest, capacity=self.N_SITES) as registry:
            for sid in sorted(sites):
                with registry.lease(sid) as runtime:
                    runtime.service.locate_many([probe_observation()])
                    # The served monitor's own cap (12) exceeds the 4
                    # APs here; a smaller one makes the cap bind.
                    monitor = APDriftMonitor(
                        runtime.service.model().db,
                        site=registry.site_label(sid),
                        min_samples=5,
                        max_ap_series=self.DRIFT_CAP,
                    )
                    live = rng.normal(-55.0, 3.0, size=(20, 4))
                    monitor.observe(live)
                    monitor.status()
            assert len(registry) == self.N_SITES

        snap = obs.snapshot()
        series = [
            name
            for group in ("counters", "gauges", "histograms")
            for name in snap.get(group, {})
        ]
        # Per-AP drift series are capped per site: even with 4 APs per
        # site, at most DRIFT_CAP ap-labelled series of each kind.
        for sid in sorted(sites):
            ap_series = [
                s for s in series if "ap=" in s and f"site={sid}" in s
            ]
            kinds = {s.split("{", 1)[0] for s in ap_series}
            for kind in kinds:
                per_kind = [s for s in ap_series if s.startswith(kind + "{")]
                assert len(per_kind) <= self.DRIFT_CAP, (sid, kind, per_kind)
        # Whole-registry bound: series growth is O(sites), small factor.
        site_labelled = [s for s in series if "site=" in s]
        assert len(site_labelled) <= self.N_SITES * 12
        # And the exposition still renders + parses end to end.
        text = render_prometheus(snap)
        assert text.count("# TYPE") >= 3
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
