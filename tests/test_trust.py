"""One manifest policy, many verifiers: the update engine, a station, a
vehicle's primary and an untrusted secondary all verify through the one
trust context, so each refuses the manifests it refuses and accepts the
ones it accepts."""
import pytest

from helpers import Rig, VIN
from ota_stations import messages as msg
from ota_stations.broker import Station, UpdateEngine
from ota_stations.crypto import KeyPair, digest, sign
from ota_stations.scenario import ScenarioConfig, build_scenario
from ota_stations.simnet import Envelope
from ota_stations.vehicle import SecondaryEcu, VehiclePrimary, group_digest

MIN = VIN[:msg.MIN_LEN]
ECU = "sec"
INITIAL_TAU = msg.TimestampRecord(1, 1)


def _bundled(case):
    """A rig whose director has bundled one `sw0` manifest built for `case`,
    with the bundle and the image bytes."""
    rig = Rig()
    for name in ("engine0", "station0", f"{VIN}.{ECU}", "mallory"):
        rig.add_key(name)
    primary = rig.add_key(f"{VIN}.primary")
    rig.registry.add(KeyPair(VIN, primary.public_key, b"", primary.scheme))
    rig.director.register_vehicle(VIN, {"sw0": (ECU, INITIAL_TAU)})
    mu, image = rig.make_update("sw0", ecu=ECU)
    unsigned = msg.UpdateManifest(mu.l, mu.theta, mu.tau)
    if case == "no_producer":
        mu = unsigned
    elif case == "non_producer":
        mu = msg.sign_message(unsigned, rig.keys["mallory"])
    rig.director.accept_manifest(mu)      # adds the three role signatures
    bundle = rig.director.resolve_and_bundle("sw0", MIN)
    if case == "revoked_targets":
        rig.trust.revoke(msg.ROLE_IDS["targets"])
    return rig, bundle, image


def _capture(actor):
    replies = []
    original = actor.reply
    actor.reply = lambda env, kind, payload, size: (
        replies.append((kind, payload)), original(env, kind, payload, size))
    return replies


def _engine_accepts(rig, bundle, image):
    engine = UpdateEngine("engine0", rig.world, rig.trust,
                          rig.keys["engine0"], sud="sud0",
                          sud_link=rig.link("e-s"))
    granted = rig.director.publish_bundle(bundle, "engine0")
    return engine.validate_bundle(granted, MIN) is None


def _station_accepts(rig, bundle, image):
    station = Station("station0", rig.world, rig.trust, rig.keys["station0"],
                      engine="engine0", engine_link=rig.link("s-e"),
                      repo="repo0", repo_link=rig.link("s-r"),
                      capacity_bytes=1_000_000)
    replies = _capture(station)
    granted = rig.director.publish_bundle(bundle, VIN)
    station.on_serve(Envelope(
        VIN, "station0", "serve",
        {"manifest": granted.manifests[0], "bundle": granted, "min": MIN},
        256, rig.link("wire"), req_id=rig.world.next_req_id()))
    return ("serve_err", {"reason": "refused"}) not in replies


def _primary_accepts(rig, bundle, image):
    vehicle = VehiclePrimary(
        VIN, rig.world, rig.trust, rig.keys[f"{VIN}.primary"],
        sud="sud0", sud_link=rig.link("v-s"), repo="repo0",
        repo_link=rig.link("v-r"), initial={"sw0": (ECU, INITIAL_TAU)},
        secondaries={})
    nonce = b"n" * msg.NONCE_LEN
    reply = msg.sign_message(
        msg.StatusReport((), msg.TimestampRecord(100, 2), nonce,
                         bundles=(rig.director.publish_bundle(bundle, VIN),)),
        rig.keys[msg.ROLE_IDS["timestamp"]])
    vehicle._on_status_reply(
        Envelope("sud0", VIN, "status_reply", reply, 256, rig.link("cell")),
        (), None, expect_nonce=nonce)
    assert vehicle.last_reply_tau == reply.tau   # the reply itself is valid
    return bool(vehicle.pending)


def _secondary_accepts(rig, bundle, image):
    secondary = SecondaryEcu(VIN, ECU, rig.world, rig.trust,
                             rig.keys[f"{VIN}.{ECU}"],
                             {"sw0": INITIAL_TAU}, untrusted=True)
    replies = _capture(secondary)
    endorsed = msg.endorse_for_ecu(bundle, ECU,
                                   rig.keys[msg.ROLE_IDS["targets"]])
    items = ((bundle.manifests[0], image.buckets()),)
    entry = sign(group_digest(items, [digest(image.data)]),
                 rig.keys[f"{VIN}.primary"])
    secondary.on_install_group(Envelope(
        f"{VIN}.primary", secondary.name, "install_group",
        {"bundle": endorsed, "items": items, "group_sig": entry}, 256,
        rig.link("bus"), req_id=rig.world.next_req_id()))
    return not any(kind == "install_err" for kind, _ in replies)


VERIFIERS = {"engine": _engine_accepts, "station": _station_accepts,
             "primary": _primary_accepts, "secondary": _secondary_accepts}


@pytest.mark.parametrize("verifier", sorted(VERIFIERS))
@pytest.mark.parametrize("case", ("no_producer", "non_producer",
                                  "revoked_targets"))
def test_every_verifier_refuses_what_the_policy_refuses(case, verifier):
    assert not VERIFIERS[verifier](*_bundled(case))


@pytest.mark.parametrize("verifier", sorted(VERIFIERS))
def test_every_verifier_accepts_a_valid_manifest(verifier):
    assert VERIFIERS[verifier](*_bundled("valid"))


def test_policy_requires_a_producer_and_the_three_roles():
    rig, bundle, _ = _bundled("valid")
    mu = bundle.manifests[0]
    assert rig.trust.verify_manifest(mu)
    for role in ("targets", "timestamp", "root"):
        stripped = msg.UpdateManifest(mu.l, mu.theta, mu.tau, tuple(
            e for e in mu.sigma if e.signer_id != msg.ROLE_IDS[role]))
        assert not rig.trust.verify_manifest(stripped), role
        # The repository's fetch credential needs the producer only.
        assert rig.trust.verify_manifest(stripped, roles=())


def test_scenario_actors_share_one_trust_context():
    built = build_scenario(ScenarioConfig(
        bundle_bytes=10_000, image_count=2, secondaries_per_vehicle=1,
        vehicles=2))
    verifiers = [actor for actor in built.world.actors.values()
                 if hasattr(actor, "trust")]
    # The repository, director, engine, station, 2 primaries, 2 secondaries.
    assert len(verifiers) == 8
    assert all(actor.trust is built.trust for actor in verifiers)
    built.revoke_now("station0")
    assert built.trust.crl.revoked == {"station0"}
