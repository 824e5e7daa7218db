import dataclasses

from helpers import Rig, VIN
from ota_stations import messages as msg
from ota_stations.broker import Station, UpdateEngine
from ota_stations.scenario import (ScenarioConfig, build_scenario,
                                   collect_report, run_scenario)


def _station(rig, capacity=1000):
    return Station("station0", rig.world, rig.trust, rig.add_key("station0"),
                   engine="engine0", engine_link=rig.link("s-e"),
                   repo="repo0", repo_link=rig.link("s-r"),
                   capacity_bytes=capacity)


def _image(data):
    return msg.UpdateImage("x", data)


def _engine(rig):
    return UpdateEngine("engine0", rig.world, rig.trust,
                        rig.add_key("engine0"),
                        sud="sud0", sud_link=rig.link("e-s"))


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------

def test_lru_evicts_least_recently_used():
    rig = Rig()
    station = _station(rig, capacity=1000)
    mu, _ = rig.make_update("x")
    station.cache_insert("a", 1, _image(b"1" * 400), mu)
    station.cache_insert("b", 1, _image(b"2" * 400), mu)
    station.cache_get("a", 1)                      # refresh a
    evicted = station.cache_insert("c", 1, _image(b"3" * 400), mu)
    assert evicted == ["b"]
    assert station.cache_get("b", 1) is None
    assert station.cache_get("a", 1) is not None
    assert station.occupancy == 800


def test_oversized_image_is_pass_through():
    rig = Rig()
    station = _station(rig, capacity=100)
    mu, _ = rig.make_update("big")
    assert station.cache_insert("big", 1, _image(b"x" * 500), mu) is None
    assert station.occupancy == 0
    assert station.cache_get("big", 1) is None


def test_reinsert_counts_an_entry_once():
    rig = Rig()
    station = _station(rig, capacity=1000)
    mu, _ = rig.make_update("x")
    station.cache_insert("a", 1, _image(b"1" * 400), mu)
    station.cache_insert("b", 1, _image(b"2" * 400), mu)
    # The cache holds 800 bytes, so inserting b again must evict nothing.
    assert station.cache_insert("b", 1, _image(b"3" * 400), mu) == []
    station.cache_insert("b", 1, _image(b"4" * 300), mu)
    assert station.occupancy == sum(e.size for e in station.cache.values())
    assert station.occupancy == 700
    assert station.cache_get("a", 1) is not None
    assert station.cache_get("b", 1).image.data == b"4" * 300


def test_cache_dump_is_sorted():
    rig = Rig()
    station = _station(rig, capacity=10_000)
    mu, _ = rig.make_update("x")
    station.cache_insert("b", 1, _image(b"x" * 10), mu)
    station.cache_insert("a", 2, _image(b"y" * 20), mu)
    assert station.cache_dump() == [("a", 2, 20), ("b", 1, 10)]


# ---------------------------------------------------------------------------
# Engine bundle validation
# ---------------------------------------------------------------------------

def _granted_bundle(rig, software="sw0"):
    rig.director.register_vehicle(VIN, {software: ("primary",
                                                   msg.TimestampRecord(1, 1))})
    rig.seed_update(software)
    bundle = rig.director.resolve_and_bundle(software, VIN[:11])
    return rig.director.publish_bundle(bundle, "engine0")


def test_engine_accepts_valid_publish_and_rejects_foreign_grant():
    rig = Rig()
    engine = _engine(rig)
    granted = _granted_bundle(rig)
    assert engine.validate_bundle(granted, VIN[:11]) is None
    # A copy granted to someone else must not validate at the engine.
    other = rig.director.publish_bundle(
        rig.director.bundles[(VIN[:11], "sw0")], "producer0")
    assert engine.validate_bundle(other, VIN[:11]) == "auth"


def test_engine_rejects_replayed_bundle_version():
    rig = Rig()
    engine = _engine(rig)
    granted = _granted_bundle(rig)
    assert engine.validate_bundle(granted, VIN[:11]) is None
    engine._accept(granted, VIN[:11])
    assert engine.validate_bundle(granted, VIN[:11]) == "stale"


def test_engine_rejects_tampered_manifest():
    rig = Rig()
    engine = _engine(rig)
    granted = _granted_bundle(rig)
    mu = granted.manifests[0]
    forged = dataclasses.replace(
        mu, theta=dataclasses.replace(mu.theta, h=bytes(32)))
    bad = dataclasses.replace(granted, manifests=(forged,))
    assert engine.validate_bundle(bad, VIN[:11]) is not None


def test_engine_delegated_grant_reaches_station():
    rig = Rig()
    engine = _engine(rig)
    rig.add_key("station0")
    granted = _granted_bundle(rig)
    delegated = engine.delegate(granted, "station0")
    assert rig.trust.granted(delegated, "station0")


def test_engine_revoke_station_removes_subscriptions():
    rig = Rig()
    engine = _engine(rig)
    engine.subscriptions["MODEL000"] = {"station0": rig.link("x")}
    engine.revoke_station("station0")
    assert engine.subscriptions["MODEL000"] == {}


# ---------------------------------------------------------------------------
# End-to-end cache outcomes
# ---------------------------------------------------------------------------

def _mix_run(mix):
    hit, miss, unknown = mix
    config = ScenarioConfig(
        name="mix", bundle_bytes=2_000_000, image_count=4, coverage_pct=100,
        mix_hit=hit, mix_miss=miss, mix_unknown=unknown,
        horizon_ms=600_000)
    return run_scenario(config)


def test_outcomes_match_mix_labels():
    rep = _mix_run((50, 25, 25))
    assert rep.cache_counts == {"hit": 2, "miss": 1, "unknown": 1}
    assert rep.install_count == 4
    assert rep.alert_count == 0


def test_hit_faster_than_miss_and_unknown_close_to_miss():
    t_hit = _mix_run((100, 0, 0)).mean_download_ms
    t_miss = _mix_run((0, 100, 0)).mean_download_ms
    t_unknown = _mix_run((0, 0, 100)).mean_download_ms
    assert t_hit < t_miss
    assert abs(t_miss - t_unknown) / t_miss <= 0.10


def test_miss_populates_cache_for_later_vehicles():
    config = ScenarioConfig(
        name="warmup", bundle_bytes=1_000_000, image_count=2,
        coverage_pct=100, mix_hit=0, mix_miss=100, mix_unknown=0,
        vehicles=2, stations=1, ignition_stagger_ms=60_000.0,
        horizon_ms=600_000)
    rep = run_scenario(config)
    # First vehicle misses; the second is served from the warmed cache.
    assert rep.cache_counts["miss"] == 2
    assert rep.cache_counts["hit"] == 2


def test_image_larger_than_the_cache_is_served_pass_through():
    config = ScenarioConfig(
        name="pass-through", bundle_bytes=1_000_000, image_count=2,
        bucket_size=65536, coverage_pct=100, mix_hit=0, mix_miss=100,
        mix_unknown=0, vehicles=2, stations=1, cache_capacity_bytes=100_000,
        ignition_stagger_ms=60_000.0, horizon_ms=600_000)
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    report = collect_report(built)
    # Nothing fits, so the second vehicle misses too; every image is still
    # served by the station and installed.
    assert report.cache_counts == {"hit": 0, "miss": 4, "unknown": 0}
    assert report.install_count == 4 and report.alert_count == 0
    assert built.stations[0].cache_dump() == []
    assert report.bytes_by_class.get("cellular", 0) < 100_000
