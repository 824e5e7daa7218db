import pytest

from helpers import Rig, VIN
from ota_stations import messages as msg
from ota_stations.crypto import digest
from ota_stations.director import (DependencyCycleError, DirectorError,
                                   resolve_update_set)
from ota_stations.simnet import Envelope


def _initial(*softwares, ecu="primary"):
    return {s: (ecu, msg.TimestampRecord(1, 1)) for s in softwares}


# ---------------------------------------------------------------------------
# Fleet registration
# ---------------------------------------------------------------------------

def test_vin_must_be_17_characters():
    rig = Rig()
    with pytest.raises(DirectorError):
        rig.director.register_vehicle("SHORT", {})
    record = rig.director.register_vehicle(VIN, _initial("sw0"))
    assert record.min == VIN[:11]
    with pytest.raises(DirectorError):
        rig.director.register_vehicle(VIN, {})  # duplicate


# ---------------------------------------------------------------------------
# Update-set resolution
# ---------------------------------------------------------------------------

def test_resolution_is_dependencies_first():
    deps = {"a": ("b",), "b": ("c",), "c": ()}
    order = resolve_update_set("a", deps, installed=set())
    assert order == ["c", "b", "a"]


def test_resolution_skips_installed_dependencies():
    deps = {"a": ("b", "c"), "b": ("c",)}
    order = resolve_update_set("a", deps, installed={"c"})
    assert order == ["b", "a"]


def test_resolution_cycle_raises():
    deps = {"a": ("b",), "b": ("a",)}
    with pytest.raises(DependencyCycleError):
        resolve_update_set("a", deps, installed=set())


def test_co_update_groups_ship_together():
    deps = {"a": (), "x": ("y",), "y": ()}
    order = resolve_update_set("a", deps, installed=set(),
                               groups=[{"a", "x"}])
    assert set(order) == {"a", "x", "y"}
    assert order.index("y") < order.index("x")


# ---------------------------------------------------------------------------
# Ingestion (request/reply through the repository)
# ---------------------------------------------------------------------------

def _submit(rig, mu, producer="producer0"):
    env = Envelope(producer, "sud0", "producer_manifest", mu,
                   msg.wire_size(mu), rig.link("prod"),
                   req_id=rig.world.next_req_id())
    replies = []
    rig.director.reply = _capture_reply(rig.director, replies)
    rig.director.on_producer_manifest(env)
    rig.world.run()
    return replies


def _capture_reply(actor, sink):
    original = type(actor).reply

    def wrapper(env, kind, payload, size, link=None):
        sink.append((kind, payload))
        return original(actor, env, kind, payload, size, link)

    return wrapper


def test_ingestion_appends_role_signatures_in_order():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    mu, image = rig.make_update("sw0")
    rig.repo.store(image, mu, "producer0")
    replies = _submit(rig, mu)
    assert replies[0][0] == "manifest_accepted"
    signed = rig.director.catalog["sw0"][-1]
    assert [e.signer_id for e in signed.sigma] == \
        ["producer0", "sud.targets", "sud.timestamp", "sud.root"]
    # Inventory updated for the registered vehicle.
    record = rig.director.fleet[VIN]
    assert signed in record.l_e["primary"]


class _DelayFirstFetchOk:
    """An adversary that delays the repository's first `fetch_ok` by 40 s,
    past the director's 30 s timeout, and records every `fetch_ok`."""

    def __init__(self):
        self.sent = []

    def intercept(self, world, env):
        if env.kind != "fetch_ok":
            return []
        self.sent.append((world.now, env))
        return [("delay", 40_000.0)] if len(self.sent) == 1 else []


def test_a_retransmitted_fetch_gets_the_same_reply_as_the_first():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    mu, image = rig.make_update("sw0", size=200_000)
    rig.repo.store(image, mu, "producer0")
    rig.world.adversary = adversary = _DelayFirstFetchOk()
    fetches = []
    on_fetch = rig.repo.on_fetch
    rig.repo.on_fetch = lambda env: (fetches.append(env.attempt),
                                     on_fetch(env))
    replies = _submit(rig, mu)
    # The retransmission reaches the repository's handler again, which
    # answers it anew; the director takes that reply and drops the delayed
    # first one as a late duplicate.
    assert fetches == [0, 1]
    assert replies == [("manifest_accepted", replies[0][1])]
    (first_at, first), (again_at, again) = adversary.sent
    assert again_at - first_at == pytest.approx(30_000.0, abs=10.0)
    assert (again.kind, again.size) == (first.kind, first.size)
    assert again.payload["buckets"] == first.payload["buckets"]
    assert [i for i, _, _ in again.payload["buckets"]] == list(
        range(len(image.buckets())))


def test_ingestion_rejects_unknown_producer_and_bad_signature():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    mu, image = rig.make_update("sw0")
    env = Envelope("mallory", "sud0", "producer_manifest", mu, 100,
                   rig.link("x"), req_id=rig.world.next_req_id())
    replies = []
    rig.director.reply = _capture_reply(rig.director, replies)
    rig.director.on_producer_manifest(env)
    assert replies[0] == ("manifest_rejected", {"reason": "unknown_producer"})

    unsigned = msg.UpdateManifest(mu.l, mu.theta, mu.tau)
    replies.clear()
    env = Envelope("producer0", "sud0", "producer_manifest", unsigned, 100,
                   rig.link("x"), req_id=rig.world.next_req_id())
    rig.director.on_producer_manifest(env)
    assert replies[0] == ("manifest_rejected", {"reason": "auth"})


def test_ingestion_rejects_stale_version():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    rig.seed_update("sw0", version=3)
    mu_old, image_old = rig.make_update("sw0", version=2)
    rig.repo.store(image_old, mu_old, "producer0")
    replies = _submit(rig, mu_old)
    assert replies[0] == ("manifest_rejected", {"reason": "stale"})


def test_ingestion_rejects_image_digest_mismatch():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    mu, image = rig.make_update("sw0")
    # Store different bytes under the same location by forging a matching
    # manifest for them, then submit the original manifest.
    other = msg.UpdateImage("sw0", b"Z" * 1000, 65536)
    theta = msg.MetaRecord(digest(other.data), "primary", "sw0")
    cover = msg.sign_message(
        msg.UpdateManifest(mu.l, theta, mu.tau), rig.keys["producer0"])
    rig.repo.store(other, cover, "producer0")
    replies = _submit(rig, mu)
    assert replies[0] == ("manifest_rejected", {"reason": "integrity"})


def test_ecu_reassignment_rejected():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    rig.seed_update("sw0", version=2, ecu="primary")
    mu, image = rig.make_update("sw0", version=3, ecu="ecu1")
    rig.repo.store(image, mu, "producer0")
    replies = _submit(rig, mu)
    assert replies[0] == ("manifest_rejected", {"reason": "ecu_mismatch"})


# ---------------------------------------------------------------------------
# Bundling and publication
# ---------------------------------------------------------------------------

def test_bundle_contains_closure_and_snapshot_signature():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("app", "lib"))
    rig.seed_update("lib")
    rig.seed_update("app", deps=("lib",))
    bundle = rig.director.resolve_and_bundle("app", VIN[:11])
    # The trigger first, then its dependencies, dependencies first.
    assert [m.theta.s for m in bundle.manifests] == ["app", "lib"]
    assert bundle.trigger.theta.s == "app"
    assert [e.signer_id for e in bundle.sigma] == ["sud.snapshot"]


def test_bundle_deferred_until_dependency_ingested():
    # "lib" is neither installed on the model nor ingested yet, so the
    # closure cannot be shipped until its manifest arrives.
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("app"))
    rig.seed_update("app", deps=("lib",))
    assert rig.director.resolve_and_bundle("app", VIN[:11]) is None
    assert ("bundle_deferred", "app", "lib") in rig.director.audit_log
    rig.seed_update("lib")
    assert rig.director.resolve_and_bundle("app", VIN[:11]) is not None


def test_bundle_versions_are_fresh_and_monotone():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    rig.seed_update("sw0")
    b1 = rig.director.resolve_and_bundle("sw0", VIN[:11])
    b2 = rig.director.resolve_and_bundle("sw0", VIN[:11])
    assert b2.tau.v == b1.tau.v + 1


def test_publish_grants_are_per_subscriber():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    rig.add_key("engine0")
    rig.seed_update("sw0")
    bundle = rig.director.resolve_and_bundle("sw0", VIN[:11])
    copy = rig.director.publish_bundle(bundle, "engine0")
    assert rig.trust.granted(copy, "engine0")
    assert not rig.trust.granted(copy, "other")
    with pytest.raises(DirectorError):
        rig.director.publish_bundle(bundle, "unregistered")


# ---------------------------------------------------------------------------
# Status handling
# ---------------------------------------------------------------------------

def _vehicle_key(rig):
    key = rig.add_key(f"{VIN}.primary")
    from ota_stations.crypto import KeyPair
    rig.registry.add(KeyPair(VIN, key.public_key, b"", key.scheme))
    return key


def _gamma(rig, key, entries, t, v, nonce=None):
    gamma = msg.StatusReport(entries, msg.TimestampRecord(t, v),
                             nonce or rig.world.rng.randbytes(16))
    return msg.sign_message(gamma, key)


def _status(rig, gamma):
    env = Envelope(VIN, "sud0", "status", gamma, msg.wire_size(gamma),
                   rig.link("cell"), req_id=rig.world.next_req_id())
    replies = []
    rig.director.reply = _capture_reply(rig.director, replies)
    rig.director.on_status(env)
    return replies


def test_status_reply_carries_new_bundles_and_echo_nonce():
    rig = Rig()
    key = _vehicle_key(rig)
    rig.director.register_vehicle(VIN, _initial("sw0"))
    rig.seed_update("sw0")
    rig.director.resolve_and_bundle("sw0", VIN[:11])
    entries = (msg.StatusEntry("primary", "sw0", msg.TimestampRecord(1, 1)),)
    gamma = _gamma(rig, key, entries, t=5, v=1)
    replies = _status(rig, gamma)
    kind, reply = replies[0]
    assert kind == "status_reply"
    assert reply.tau.v == 2
    assert reply.nonce == digest(b"echo" + gamma.nonce)[:16]
    assert len(reply.bundles) == 1
    assert rig.trust.granted(reply.bundles[0], VIN)


def test_status_invalid_or_replayed_is_silently_discarded():
    rig = Rig()
    key = _vehicle_key(rig)
    rig.director.register_vehicle(VIN, _initial("sw0"))
    entries = (msg.StatusEntry("primary", "sw0", msg.TimestampRecord(1, 1)),)

    unsigned = msg.StatusReport(entries, msg.TimestampRecord(5, 1),
                                rig.world.rng.randbytes(16))
    assert _status(rig, unsigned) == []

    gamma = _gamma(rig, key, entries, t=6, v=1)
    assert len(_status(rig, gamma)) == 1
    assert _status(rig, gamma) == []  # replayed: refused as not fresh

    ahead = _gamma(rig, key, entries, t=7, v=99)  # version ahead of director
    assert _status(rig, ahead) == []


def test_status_digest_r_fast_path_and_need_full():
    rig = Rig()
    key = _vehicle_key(rig)
    rig.director.register_vehicle(VIN, _initial("sw0"))
    entries = (msg.StatusEntry("primary", "sw0", msg.TimestampRecord(1, 1)),)

    # Digest before any stored full report: must ask for the full R.
    early = _gamma(rig, key, digest(b"whatever"), t=3, v=1)
    assert _status(rig, early)[0][0] == "status_need_full"

    full = _gamma(rig, key, entries, t=5, v=1)
    assert _status(rig, full)[0][0] == "status_reply"
    r_digest = digest(msg.signed_region(
        msg.StatusReport(entries, full.tau, full.nonce)))
    short = _gamma(rig, key, r_digest, t=9, v=2)
    kind, reply = _status(rig, short)[0]
    assert kind == "status_reply"
    assert reply.tau.v == 3


def test_untrusted_mode_requires_signed_entries():
    rig = Rig(untrusted=True)
    key = _vehicle_key(rig)
    ecu_key = rig.add_key(f"{VIN}.ecu1")
    rig.director.register_vehicle(VIN, _initial("sw0", ecu="ecu1"))
    plain = (msg.StatusEntry("ecu1", "sw0", msg.TimestampRecord(1, 1)),)
    gamma = _gamma(rig, key, plain, t=5, v=1)
    assert _status(rig, gamma) == []

    signed = tuple(msg.sign_status_entry(e, ecu_key) for e in plain)
    gamma = _gamma(rig, key, signed, t=6, v=1)
    assert _status(rig, gamma)[0][0] == "status_reply"


def test_untrusted_reply_bundles_carry_ecu_endorsements():
    rig = Rig(untrusted=True)
    key = _vehicle_key(rig)
    ecu_key = rig.add_key(f"{VIN}.ecu1")
    rig.director.register_vehicle(VIN, _initial("sw0", ecu="ecu1"))
    rig.seed_update("sw0", ecu="ecu1")
    rig.director.resolve_and_bundle("sw0", VIN[:11])
    entries = (msg.sign_status_entry(
        msg.StatusEntry("ecu1", "sw0", msg.TimestampRecord(1, 1)), ecu_key),)
    replies = _status(rig, _gamma(rig, key, entries, t=5, v=1))
    bundle = replies[0][1].bundles[0]
    assert rig.trust.endorsed(bundle, "ecu1")


def test_status_reply_carries_the_new_copy_after_a_rebundle():
    rig = Rig(untrusted=True)
    key = _vehicle_key(rig)
    ecu_key = rig.add_key(f"{VIN}.ecu1")
    rig.director.register_vehicle(VIN, _initial("sw0", ecu="ecu1"))
    rig.seed_update("sw0", ecu="ecu1")
    first = rig.director.resolve_and_bundle("sw0", VIN[:11])
    entries = (msg.sign_status_entry(
        msg.StatusEntry("ecu1", "sw0", msg.TimestampRecord(1, 1)), ecu_key),)

    def reply_bundle(t):
        kind, reply = _status(rig, _gamma(rig, key, entries, t=t, v=1))[0]
        assert kind == "status_reply" and len(reply.bundles) == 1
        return reply.bundles[0]

    copy = reply_bundle(5)
    assert reply_bundle(6) is copy  # granted and endorsed once
    # Bundled anew, the trigger's reply carries a copy of the new bundle.
    second = rig.director.resolve_and_bundle("sw0", VIN[:11])
    fresh = reply_bundle(7)
    assert fresh is not copy
    assert msg.signed_region(fresh) == msg.signed_region(second)
    assert msg.signed_region(fresh) != msg.signed_region(first)
    assert fresh.tau == second.tau
    assert rig.trust.verify_bundle(fresh, VIN)
    assert rig.trust.endorsed(fresh, "ecu1")
    assert msg.canonical_encode(fresh) == (fresh._encode_region()
                                           + fresh._sections())


def test_inventory_export_is_deterministic():
    rig = Rig()
    rig.director.register_vehicle(VIN, _initial("sw0"))
    rig.seed_update("sw0")
    assert rig.director.export_inventory() == \
        rig.director.export_inventory()
    assert "sw0 v2" in rig.director.export_inventory()
