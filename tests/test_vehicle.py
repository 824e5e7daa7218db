from helpers import Rig, VIN
from ota_stations import messages as msg
from ota_stations.adversary import AttackRule
from ota_stations.crypto import KeyPair, digest, sign
from ota_stations.scenario import ScenarioConfig, build_scenario, run_scenario
from ota_stations.simnet import FETCH_RETRIES, Envelope
from ota_stations.vehicle import SecondaryEcu, VehiclePrimary, group_digest


def _primary(rig, initial, **kwargs):
    key = rig.add_key(f"{VIN}.primary")
    rig.registry.add(KeyPair(VIN, key.public_key, b"", key.scheme))
    return VehiclePrimary(
        VIN, rig.world, rig.trust, key,
        sud="sud0", sud_link=rig.link("v-sud"),
        repo="repo0", repo_link=rig.link("v-repo"),
        initial=initial, secondaries={}, **kwargs)


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
    tau, h = vehicle.installed["sw0"]
    assert tau.v == 2
    assert vehicle.inventory[("primary", "sw0")].v == 2
    assert vehicle.records["complete"] is not None
    assert not vehicle.alert_flag
    log = rig.world.install_log
    assert [(vin, ecu, s, v) for _, vin, ecu, s, v, _ in log] == \
        [(VIN, "primary", "sw0", 2)]
    assert log[0][5] == h


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
    assert not vehicle.alert_flag


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
    assert vehicle.alert_flag
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
    # at bucket 0; that download gives up too, and so does the one the
    # first image deadline starts.  The second deadline raises the alert.
    assert asked == ([("serve", 0)] * per_download
                     + [("fetch", 0)] * (2 * per_download))
    vehicle = built.vehicles[0]
    assert [reason for _, reason in vehicle.alerts] == ["image_timeout"]
    assert built.world.install_log == []


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
    assert data_digest == built.truth[software][1]
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

def _secondary(rig, untrusted=False, installed_version=1):
    rig.add_key(f"{VIN}.primary")
    key = rig.add_key(f"{VIN}.sec")
    initial = {"sw0": (msg.TimestampRecord(installed_version,
                                           installed_version), None)}
    return SecondaryEcu(VIN, "sec", rig.world, rig.trust, key, initial,
                        untrusted=untrusted, flash_latency_ms=1.0)


def _install_env(rig, items, bundle=None, signer=None):
    signer = signer or rig.keys[f"{VIN}.primary"]
    entry = sign(group_digest(items, [digest(b"".join(chunks))
                                      for _, chunks in items]),
                 signer)
    return Envelope(f"{VIN}.primary", f"{VIN}.sec", "install_group",
                    {"bundle": bundle, "items": items, "group_sig": entry},
                    256, rig.link("iv"), req_id=rig.world.next_req_id())


def _capture(actor):
    replies = []
    original = actor.reply
    actor.reply = lambda env, kind, payload, size, link=None: (
        replies.append((kind, payload)), original(env, kind, payload, size,
                                                  link))
    return replies


def test_secondary_installs_valid_group():
    rig = Rig()
    sec = _secondary(rig)
    replies = _capture(sec)
    mu, image = rig.make_update("sw0", version=2, ecu="sec")
    sec.on_install_group(_install_env(rig, ((mu, (image.data,)),)))
    rig.world.run()
    assert replies[0][0] == "install_ok"
    assert sec.installed["sw0"][0].v == 2
    assert rig.world.install_log[0][2:5] == ("sec", "sw0", 2)


def test_secondary_group_is_all_or_nothing():
    rig = Rig()
    sec = _secondary(rig)
    replies = _capture(sec)
    good, image = rig.make_update("sw0", version=2, ecu="sec")
    bad, _ = rig.make_update("sw1", version=2, ecu="sec")
    items = ((good, (image.data,)), (bad, (b"not the signed bytes",)))
    sec.on_install_group(_install_env(rig, items))
    rig.world.run()
    assert replies[0] == ("install_err", {"reason": "integrity"})
    assert sec.installed["sw0"][0].v == 1        # the good half not applied
    assert "sw1" not in sec.installed
    assert rig.world.install_log == []


def test_secondary_rejects_stale_and_foreign_signer():
    rig = Rig()
    sec = _secondary(rig, installed_version=3)
    replies = _capture(sec)
    mu, image = rig.make_update("sw0", version=2, ecu="sec")
    sec.on_install_group(_install_env(rig, ((mu, (image.data,)),)))
    assert replies[-1] == ("install_err", {"reason": "stale"})
    mallory = rig.add_key("mallory")
    fresh, image = rig.make_update("sw0", version=9, ecu="sec")
    sec.on_install_group(
        _install_env(rig, ((fresh, (image.data,)),), signer=mallory))
    assert replies[-1] == ("install_err", {"reason": "primary_auth"})
    assert sec.installed["sw0"][0].v == 3


def test_untrusted_secondary_requires_endorsed_bundle():
    rig = Rig()
    sec = _secondary(rig, untrusted=True)
    replies = _capture(sec)
    mu, image = rig.seed_update("sw0", ecu="sec")  # carries all role sigs
    bundle = msg.sign_message(
        msg.Bundle((mu,), msg.TimestampRecord(5, 1)),
        rig.keys["sud.snapshot"])
    sec.on_install_group(_install_env(rig, ((mu, (image.data,)),), bundle))
    assert replies[-1] == ("install_err", {"reason": "no_endorsement"})
    endorsed = msg.endorse_for_ecu(bundle, "sec", rig.keys["sud.targets"])
    sec.on_install_group(_install_env(rig, ((mu, (image.data,)),), endorsed))
    rig.world.run()
    assert replies[-1][0] == "install_ok"
    assert sec.installed["sw0"][0].v == 2


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
