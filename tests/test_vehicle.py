from helpers import Rig, VIN, mixed_config
from ota_stations import messages as msg
from ota_stations.adversary import AttackRule
from ota_stations.broker import Station, UpdateEngine
from ota_stations.crypto import KeyPair, digest, sign
from ota_stations.scenario import (ScenarioConfig, build_scenario,
                                   collect_report, liveness_failures,
                                   run_scenario, safety_violations)
from ota_stations.simnet import FETCH_RETRIES, Envelope
from ota_stations.vehicle import SecondaryEcu, VehiclePrimary, group_digest


def _primary(rig, initial, secondaries=(), **kwargs):
    key = rig.add_key(f"{VIN}.primary")
    rig.registry.add(KeyPair(VIN, key.public_key, b"", key.scheme))
    return VehiclePrimary(
        VIN, rig.world, rig.trust, key,
        sud="sud0", sud_link=rig.link("v-sud"),
        repo="repo0", repo_link=rig.link("v-repo"),
        initial=initial, secondaries=secondaries, **kwargs)


def _register(rig, software="sw0"):
    rig.director.register_vehicle(
        VIN, {software: ("primary", msg.TimestampRecord(1, 1))})
    rig.seed_update(software)
    rig.director.resolve_and_bundle(software, VIN[:11])


# ---------------------------------------------------------------------------
# Primary ECU end to end (status -> reply -> download -> install)
# ---------------------------------------------------------------------------

def test_end_to_end_install_over_cellular():
    rig = Rig()
    _register(rig)
    vehicle = _primary(rig, {"sw0": ("primary", msg.TimestampRecord(1, 1))})
    rig.world.schedule(10.0, vehicle.ignition)
    rig.world.run()
    assert vehicle.inventory[("primary", "sw0")].v == 2
    assert vehicle.records["complete"] is not None
    assert not vehicle.alerts
    log = rig.world.install_log
    assert [(vin, ecu, s, v) for _, vin, ecu, s, v, _ in log] == \
        [(VIN, "primary", "sw0", 2)]
    bundle = rig.director.bundles[(VIN[:11], "sw0")]
    assert log[0][5] == bundle.trigger.theta.h


def _lib_then_app(rig, vehicle, published=False):
    """The model has `lib` and `app` at v1, and the vehicle ignites at
    10 ms and then every 100 s.  `lib` v2 is bundled before the first
    ignition, and `app` v2, which depends on `lib`, at 50 s; if
    `published`, the director also publishes each bundle to its
    subscribers.  Runs the world and returns the install log's (ecu,
    software, version) rows."""
    min_id = VIN[:11]

    def bundle(software, deps=()):
        signed, _ = rig.seed_update(software, deps=deps)
        if published:
            rig.director._bundle_and_publish(signed)
        else:
            rig.director.resolve_and_bundle(software, min_id)

    bundle("lib")
    rig.world.schedule(50_000.0, lambda: bundle("app", deps=("lib",)))
    rig.world.schedule(10.0, vehicle.ignition)
    rig.world.run()
    return [(ecu, s, v) for _, _, ecu, s, v, _ in rig.world.install_log]


def _lib_and_app(ecu="primary"):
    return {s: (ecu, msg.TimestampRecord(1, 1)) for s in ("lib", "app")}


def _one_group_run(rig, vehicle, ecu):
    """Bundles `app` v2, which depends on `lib`, with `lib` v2 for `ecu`,
    so that both form one install group.  The vehicle ignites at 10 ms.
    Runs the world and returns the install log's (ecu, software, version)
    rows."""
    rig.seed_update("lib", ecu=ecu)
    rig.seed_update("app", ecu=ecu, deps=("lib",))
    bundle = rig.director.resolve_and_bundle("app", VIN[:11])
    assert [m.theta.s for m in bundle.manifests] == ["app", "lib"]
    rig.world.schedule(10.0, vehicle.ignition)
    rig.world.run()
    assert not vehicle.alerts
    return [(ecu, s, v) for _, _, ecu, s, v, _ in rig.world.install_log]


def test_a_primary_group_installs_a_dependency_before_its_dependent():
    rig = Rig()
    rig.director.register_vehicle(VIN, _lib_and_app())
    vehicle = _primary(rig, _lib_and_app())
    assert _one_group_run(rig, vehicle, "primary") == [
        ("primary", "lib", 2), ("primary", "app", 2)]


def test_a_secondary_group_installs_a_dependency_before_its_dependent():
    rig = Rig()
    rig.director.register_vehicle(VIN, _lib_and_app("sec"))
    secondary = SecondaryEcu(
        VIN, "sec", rig.world, rig.trust, rig.add_key(f"{VIN}.sec"),
        {s: msg.TimestampRecord(1, 1) for s in ("lib", "app")})
    vehicle = _primary(rig, _lib_and_app("sec"),
                       secondaries={"sec": (secondary.name, rig.link("iv"))})
    assert _one_group_run(rig, vehicle, "sec") == [
        ("sec", "lib", 2), ("sec", "app", 2)]
    assert {s: tau.v for s, tau in secondary.installed.items()} == {
        "lib": 2, "app": 2}


def test_dependency_bundle_installs_after_its_dependency_over_cellular():
    rig = Rig()
    rig.director.register_vehicle(VIN, _lib_and_app())
    vehicle = _primary(rig, _lib_and_app(), ignition_period_ms=100_000.0,
                       ignition_limit=3)
    assert _lib_then_app(rig, vehicle) == [("primary", "lib", 2),
                                           ("primary", "app", 2)]
    assert not vehicle.alerts


def test_dependency_bundle_reaches_a_vehicle_through_engine_and_station():
    rig = Rig()
    min_id = VIN[:11]
    engine = UpdateEngine("engine0", rig.world, rig.trust,
                          rig.add_key("engine0"), sud="sud0",
                          sud_link=rig.link("e-s"))
    station = Station("station0", rig.world, rig.trust,
                      rig.add_key("station0"), engine="engine0",
                      engine_link=rig.link("s-e"), repo="repo0",
                      repo_link=rig.link("s-r"), capacity_bytes=10_000)
    rig.director.subscribers[min_id] = {"engine0": rig.link("sud-e")}
    engine.subscriptions[min_id] = {"station0": rig.link("e-st")}
    rig.director.register_vehicle(VIN, _lib_and_app())
    vehicle = _primary(rig, _lib_and_app(), ignition_period_ms=100_000.0,
                       ignition_limit=3, station="station0",
                       station_link=rig.link("v-st"))
    assert _lib_then_app(rig, vehicle, published=True) == [
        ("primary", "lib", 2), ("primary", "app", 2)]
    # Both images come from the station's prefetched cache.
    assert [(outcome, s) for _, outcome, s in station.events] == [
        ("hit", "lib"), ("hit", "app")]
    assert engine.audit_log == []
    assert not vehicle.alerts


def test_digest_status_used_once_inventory_is_stable():
    rig = Rig()
    _register(rig)
    vehicle = _primary(rig, {"sw0": ("primary", msg.TimestampRecord(1, 1))},
                       ignition_period_ms=200_000.0, ignition_limit=3)
    r_kinds = []
    original = rig.director.on_status

    def tap(env):
        r_kinds.append("digest" if isinstance(env.payload.r, bytes)
                       else "full")
        original(env)

    rig.director.on_status = tap
    rig.world.schedule(10.0, vehicle.ignition)
    rig.world.run()
    # First report is full; the install changes the inventory so the second
    # is full again; the third matches the second and ships the digest.
    assert r_kinds == ["full", "full", "digest"]
    assert vehicle.last_r_digest is not None
    assert not vehicle.alerts


def test_digest_status_the_director_cannot_match_is_resent_full():
    rig = Rig()
    _register(rig)
    vehicle = _primary(rig, {"sw0": ("primary", msg.TimestampRecord(1, 1))},
                       ignition_period_ms=200_000.0, ignition_limit=3)
    r_kinds = []
    original = rig.director.on_status

    def tap(env):
        if isinstance(env.payload.r, bytes):
            r_kinds.append("digest")
            # The director has lost the full report the digest stands for.
            rig.director.fleet[VIN].last_full_r = None
        else:
            r_kinds.append("full")
        original(env)

    rig.director.on_status = tap
    rig.world.schedule(10.0, vehicle.ignition)
    rig.world.run()
    assert r_kinds == ["full", "full", "digest", "full"]
    assert [rec.kind for rec in rig.world.trace].count(
        "status_need_full") == 1
    assert not vehicle.alerts


def test_forged_reply_is_ignored_and_deadline_raises_alert():
    rig = Rig()
    _register(rig)
    vehicle = _primary(rig, {"sw0": ("primary", msg.TimestampRecord(1, 1))},
                       status_deadline_ms=5_000.0)

    def forge(env):
        gamma = env.payload
        nonce = digest(b"echo" + gamma.nonce)[:msg.NONCE_LEN]
        reply = msg.StatusReport((), msg.TimestampRecord(9_999, 99), nonce)
        reply = msg.sign_message(reply, rig.keys["sud.snapshot"])  # wrong role
        rig.director.reply(env, "status_reply", reply, 256)

    rig.director.on_status = forge
    rig.world.schedule(10.0, vehicle.ignition)
    rig.world.run()
    assert vehicle.alerts
    assert [reason for _, reason in vehicle.alerts] == ["status_timeout"]
    assert vehicle.last_reply_tau.v == 1  # forged timestamp never accepted


def test_reply_with_wrong_nonce_is_rejected():
    rig = Rig()
    vehicle = _primary(rig, {})
    reply = msg.StatusReport((), msg.TimestampRecord(100, 5), b"x" * 16)
    reply = msg.sign_message(reply, rig.keys["sud.timestamp"])
    env = Envelope("sud0", VIN, "status_reply", reply, 256, rig.link("x"))
    vehicle._on_status_reply(env, (), None, expect_nonce=b"y" * 16)
    assert vehicle.last_reply_tau.v == 1


def test_station_session_failure_falls_back_to_cellular():
    config = ScenarioConfig(
        name="fallback", bundle_bytes=1_000_000, image_count=2,
        coverage_pct=100, mix_hit=100, mix_miss=0, mix_unknown=0,
        revocations=(("station0", 10.0),), horizon_ms=600_000)
    rep = run_scenario(config)
    assert rep.install_count == 2
    assert rep.alert_count == 0
    assert sum(rep.cache_counts.values()) == 0       # nothing station-served
    assert rep.bytes_by_class.get("cellular", 0) > 0


def test_an_unanswered_session_falls_back_to_cellular():
    # No `session_ok` arrives and no image deadline is set: the session
    # request times out and sends the queued images cellular.
    config = ScenarioConfig(
        name="silent-station", bundle_bytes=200_000, image_count=2,
        coverage_pct=100, horizon_ms=600_000,
        attacks=(AttackRule("drop", message_kinds=frozenset({"session_ok"})),))
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    rep = collect_report(built)
    assert rep.install_count == 2 and rep.alert_count == 0
    assert liveness_failures(built) == []
    assert all(rec.kind != "session_ok" for rec in built.world.trace)
    assert rep.bytes_by_class.get("cellular", 0) > 0


def _one_image_run(attacks, image_deadline_ms: float):
    """One vehicle downloading one 1 MB station-cached image under
    `attacks`; returns the scenario and the vehicle's (kind, from_index)
    download requests in the order it made them."""
    config = ScenarioConfig(
        name="one-image", bundle_bytes=1_000_000, image_count=1,
        bucket_size=65536, secondaries_per_vehicle=0, coverage_pct=100,
        mix_hit=100, attacks=tuple(attacks),
        image_deadline_ms=image_deadline_ms, horizon_ms=600_000)
    built = build_scenario(config)
    vehicle = built.vehicles[0]
    asked = []
    original = vehicle.request

    def request(dst, kind, payload, *args, **kwargs):
        if kind in ("serve", "fetch"):
            asked.append((kind, payload["from_index"]))
        return original(dst, kind, payload, *args, **kwargs)

    vehicle.request = request
    built.world.run(config.horizon_ms)
    return built, asked


def test_each_source_re_requests_fetch_retries_times():
    # Every image reply fails its digest, so no download ever completes.
    built, asked = _one_image_run(
        [AttackRule("tamper", frozenset({"serve_ok", "fetch_ok"}))],
        image_deadline_ms=60_000.0)
    per_download = FETCH_RETRIES + 1
    # The station download gives up and the image restarts on cellular
    # at bucket 0.  That download gives up too, which starts the one
    # cellular fallback round; its download gives up and raises the alert,
    # and the image deadline raises none after it.
    assert asked == ([("serve", 0)] * per_download
                     + [("fetch", 0)] * (2 * per_download))
    vehicle = built.vehicles[0]
    assert [reason for _, reason in vehicle.alerts] == ["image_timeout"]
    assert built.world.install_log == []


def test_a_failed_repository_download_falls_back_then_alerts():
    # Every image reply is tampered with for 200 s and no deadline is set,
    # so only failed downloads move the vehicles on: a failed repository
    # download starts the one cellular fallback round, and the next failure
    # raises the alert, once per vehicle.
    config = mixed_config(attacks=(AttackRule(
        "tamper", frozenset({"fetch_ok", "serve_ok"}), t_end=200_000.0),))
    assert config.image_deadline_ms is None
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    assert [[reason for _, reason in vehicle.alerts]
            for vehicle in built.vehicles] == [["image_timeout"]] * 3
    assert liveness_failures(built) == []
    assert safety_violations(built) == []


def _late_station_reply_run(tampered: bool):
    # The station's reply is held back past the image deadline, which
    # restarts the image on cellular; the reply still lands first.
    late = AttackRule("delay", frozenset({"serve_ok"}), delay_ms=5_500.0)
    attacks = [late]
    if tampered:
        attacks.insert(0, AttackRule("tamper", frozenset({"serve_ok"})))
    built, asked = _one_image_run(attacks, image_deadline_ms=5_000.0)
    assert asked == [("serve", 0), ("fetch", 0)]   # the station, once
    served = [rec.time for rec in built.world.trace if rec.kind == "serve_ok"]
    fetched = [rec.time for rec in built.world.trace if rec.kind == "fetch_ok"]
    assert len(served) == len(fetched) == 1 and served[0] < fetched[0]
    (at, _, _, software, _, data_digest), = built.world.install_log
    item, = built.items
    assert (software, data_digest) == (item.software, item.manifest.theta.h)
    vehicle = built.vehicles[0]
    assert vehicle.records["complete"] == at and not vehicle.alerts
    return at, served[0], fetched[0]


def test_image_deadline_reset_keeps_the_station_reply_in_flight():
    # The late station reply is absorbed into the item's download state
    # and completes the image; the cellular reply after it is ignored.
    at, served, fetched = _late_station_reply_run(tampered=False)
    assert served < at < fetched
    # A late station reply that leaves the image incomplete is absorbed
    # too, and the station is asked nothing more: cellular completes it.
    at, served, fetched = _late_station_reply_run(tampered=True)
    assert fetched < at


# ---------------------------------------------------------------------------
# Secondary ECUs
# ---------------------------------------------------------------------------

def _secondary(rig, untrusted=False, installed_version=1, **kwargs):
    rig.add_key(f"{VIN}.primary")
    key = rig.add_key(f"{VIN}.sec")
    initial = {"sw0": msg.TimestampRecord(installed_version,
                                          installed_version)}
    return SecondaryEcu(VIN, "sec", rig.world, rig.trust, key, initial,
                        untrusted=untrusted, flash_latency_ms=1.0, **kwargs)


def _install_env(rig, items, bundle=None, signer=None):
    signer = signer or rig.keys[f"{VIN}.primary"]
    entry = sign(group_digest(items, [
        digest(msg.joined_bytes(buckets))
        for _, buckets in items]), signer)
    return Envelope(f"{VIN}.primary", f"{VIN}.sec", "install_group",
                    {"bundle": bundle, "items": items, "group_sig": entry},
                    256, rig.link("iv"), req_id=rig.world.next_req_id())


def _capture(actor):
    replies = []
    original = actor.reply
    actor.reply = lambda env, kind, payload, size: (
        replies.append((kind, payload)), original(env, kind, payload, size))
    return replies


def test_secondary_installs_valid_group():
    rig = Rig()
    sec = _secondary(rig)
    replies = _capture(sec)
    mu, image = rig.make_update("sw0", version=2, ecu="sec")
    sec.on_install_group(_install_env(rig, ((mu, image.buckets()),)))
    rig.world.run()
    assert replies[0][0] == "install_ok"
    assert sec.installed["sw0"].v == 2
    assert rig.world.install_log[0][2:5] == ("sec", "sw0", 2)


def test_secondary_group_is_all_or_nothing():
    rig = Rig()
    sec = _secondary(rig)
    replies = _capture(sec)
    good, image = rig.make_update("sw0", version=2, ecu="sec")
    bad, _ = rig.make_update("sw1", version=2, ecu="sec")
    items = ((good, image.buckets()), (bad, msg.split_buckets(b"not the signed bytes", 65536)))
    sec.on_install_group(_install_env(rig, items))
    rig.world.run()
    assert replies[0] == ("install_err", {"reason": "integrity"})
    assert sec.installed["sw0"].v == 1        # the good half not applied
    assert "sw1" not in sec.installed
    assert rig.world.install_log == []


def test_secondary_rejects_stale_and_foreign_signer():
    rig = Rig()
    sec = _secondary(rig, installed_version=3)
    replies = _capture(sec)
    mu, image = rig.make_update("sw0", version=2, ecu="sec")
    sec.on_install_group(_install_env(rig, ((mu, image.buckets()),)))
    assert replies[-1] == ("install_err", {"reason": "stale"})
    mallory = rig.add_key("mallory")
    fresh, image = rig.make_update("sw0", version=9, ecu="sec")
    sec.on_install_group(
        _install_env(rig, ((fresh, image.buckets()),), signer=mallory))
    assert replies[-1] == ("install_err", {"reason": "primary_auth"})
    assert sec.installed["sw0"].v == 3


def test_untrusted_secondary_requires_endorsed_bundle():
    rig = Rig()
    sec = _secondary(rig, untrusted=True)
    replies = _capture(sec)
    mu, image = rig.seed_update("sw0", ecu="sec")  # carries all role sigs
    bundle = msg.sign_message(
        msg.Bundle((mu,), msg.TimestampRecord(5, 1)),
        rig.keys["sud.snapshot"])
    sec.on_install_group(_install_env(rig, ((mu, image.buckets()),), bundle))
    assert replies[-1] == ("install_err", {"reason": "no_endorsement"})
    endorsed = msg.endorse_for_ecu(bundle, "sec", rig.keys["sud.targets"])
    sec.on_install_group(_install_env(rig, ((mu, image.buckets()),), endorsed))
    rig.world.run()
    assert replies[-1][0] == "install_ok"
    assert sec.installed["sw0"].v == 2


def test_untrusted_secondary_rejects_bad_relays_and_times_out():
    rig = Rig()
    sec = _secondary(rig, untrusted=True, status_deadline_ms=1_000.0,
                     image_deadline_ms=5_000.0)
    link = rig.link("iv")
    sec.on_report_tau(Envelope(f"{VIN}.primary", sec.name, "report_tau", {},
                               64, link, req_id=rig.world.next_req_id()))
    mu, _ = rig.seed_update("sw0", ecu="sec")  # an update the ECU wants
    bundle = msg.Bundle((mu,), msg.TimestampRecord(5, 1))

    def relay(report):
        sec.on_relay_reply(Envelope(f"{VIN}.primary", sec.name, "relay_reply",
                                    {"report": report}, 256, link))

    def report(tau, role):
        gamma = msg.StatusReport((), tau, bytes(msg.NONCE_LEN),
                                 bundles=(bundle,))
        return msg.sign_message(gamma, rig.keys[msg.ROLE_IDS[role]])

    # Each bad relay fails exactly one guard: the bundle is fresh and
    # timestamp-signed, but is not a status report.
    not_a_report = msg.sign_message(
        bundle, rig.keys[msg.ROLE_IDS["timestamp"]])
    before = sec.last_reply_tau
    for bad in (not_a_report,
                report(msg.TimestampRecord(10, 2), "snapshot"),   # wrong role
                report(msg.TimestampRecord(0, 2), "timestamp")):  # not fresh
        relay(bad)
        assert sec.last_reply_tau == before
        assert sec._image_timer is None
    rig.world.run()
    assert [reason for _, reason in sec.alerts] == ["status_relay_timeout"]
    # The same bundle in a fresh, timestamp-signed report is accepted.
    good = report(msg.TimestampRecord(10, 2), "timestamp")
    relay(good)
    assert sec.last_reply_tau == good.tau
    assert sec._image_timer is not None


# ---------------------------------------------------------------------------
# Whole-vehicle scenarios with secondaries
# ---------------------------------------------------------------------------

def test_scenario_installs_across_ecus_trusted_and_untrusted():
    for untrusted in (False, True):
        config = ScenarioConfig(
            name="ecus", bundle_bytes=600_000, image_count=3,
            secondaries_per_vehicle=2, coverage_pct=100,
            untrusted_secondaries=untrusted, horizon_ms=600_000)
        rep = run_scenario(config)
        assert rep.install_count == 3, untrusted
        assert rep.alert_count == 0, untrusted


def test_an_ecu_re_signs_an_entry_only_when_its_tau_changes(monkeypatch):
    signed = []
    original = msg.sign_status_entry

    def counting(entry, key):
        signed.append((key.signer_id, entry.ecu, entry.software, entry.tau))
        return original(entry, key)

    monkeypatch.setattr(msg, "sign_status_entry", counting)
    config = ScenarioConfig(
        name="ecus", bundle_bytes=600_000, image_count=3,
        secondaries_per_vehicle=2, coverage_pct=100,
        untrusted_secondaries=True, ignition_period_ms=20_000,
        ignition_limit=4, horizon_ms=600_000)
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    primary = built.vehicles[0]
    assert primary._ignitions == 4
    assert len(built.world.install_log) == 3
    # Every ignition reports every entry, but each (ECU, software, tau) is
    # signed once: again after its install, and never otherwise.
    assert len(signed) == len(set(signed))
    installed = {(ecu, s, v) for _, _, ecu, s, v, _ in built.world.install_log}
    assert {(ecu, s, tau.v) for _, ecu, s, tau in signed
            if tau.v > 1} == installed
    reported = built.director.fleet[primary.vin].last_full_r
    assert {(e.ecu, e.software, e.tau.v) for e in reported} >= installed
