"""How often image bytes are hashed: senders split and hash an image once
and share the buckets, receivers hash each chunk once and the whole image
once, and installs reuse the digest of the bytes they install."""
import hashlib

from helpers import Rig
from ota_stations import (broker, crypto, director, image_repo, messages,
                          scenario, vehicle)
from ota_stations.adversary import Adversary, AttackRule, _tamper
from ota_stations.scenario import ScenarioConfig, build_scenario
from ota_stations.simnet import Envelope

DIGEST_SITES = (crypto, messages, vehicle, broker, director, image_repo,
                scenario)
# Messages that carry image bytes.
DATA_KINDS = ("store_image", "fetch_ok", "serve_ok", "install_group")


def _fetch(rig, mu):
    env = Envelope("sud0", "repo0", "fetch", {"l": mu.l, "credential": mu},
                   96, rig.link("x"), req_id=rig.world.next_req_id())
    sent = []
    rig.repo.reply = lambda e, kind, payload, size, link=None: \
        sent.append(Envelope("repo0", e.src, kind, payload, size, e.link,
                             reply_to=e.req_id))
    rig.repo.on_fetch(env)
    return sent[0]


def test_fetch_replies_share_the_image_buckets():
    rig = Rig()
    mu, image = rig.seed_update("sw0", size=200_000)
    first = _fetch(rig, mu).payload["buckets"]
    second = _fetch(rig, mu).payload["buckets"]
    assert len(first) == 4
    assert all(a[1] is b[1] for a, b in zip(first, second))


def test_tampered_fetch_leaves_the_shared_buckets_intact():
    rig = Rig()
    mu, image = rig.seed_update("sw0", size=200_000)
    adversary = Adversary([AttackRule("tamper")])
    reply = _fetch(rig, mu)
    (action, tampered), = adversary.intercept(rig.world, reply)
    assert action == "modify"
    assert tampered.payload["buckets"][0][1] != reply.payload["buckets"][0][1]
    assert image.buckets() == tuple(messages.split_buckets(image.data,
                                                           image.bucket_size))
    result = messages.assemble_buckets(_fetch(rig, mu).payload["buckets"], mu,
                                       total=4)
    assert isinstance(result, messages.Complete)
    assert b"".join(chunk for _, chunk, _ in result.buckets) == image.data


def test_tampered_chunk_is_a_new_object_and_fails_its_digest():
    rig = Rig()
    mu, image = rig.seed_update("sw0", size=200_000)
    reply = _fetch(rig, mu)
    (action, tampered), = Adversary([AttackRule("tamper")]).intercept(
        rig.world, reply)
    assert action == "modify"
    index, chunk, chunk_digest = tampered.payload["buckets"][0]
    original = reply.payload["buckets"][0][1]
    assert chunk is not original and not isinstance(chunk, memoryview)
    assert original.obj is image.data
    assert crypto.digest(chunk) != chunk_digest
    assert messages.Received().add(tampered.payload["buckets"]) == [index]

    # An install group the primary pushes: the first chunk is flipped.
    chunks = tuple(chunk for _, chunk, _ in reply.payload["buckets"])
    mutated = _tamper({"items": ((mu, chunks),)}, rig.world)
    (_, flipped), = mutated["items"]
    assert flipped[0] is not chunks[0] and flipped[1:] == chunks[1:]
    assert crypto.digest(b"".join(flipped)) != mu.theta.h
    assert crypto.digest(b"".join(chunks)) == mu.theta.h


def _small_config(**kwargs):
    return ScenarioConfig(
        name="hashing", vehicles=3, stations=1, bundle_bytes=1_200_000,
        image_count=4, bucket_size=65536, coverage_pct=75, mix_hit=34,
        mix_miss=33, mix_unknown=33, secondaries_per_vehicle=1,
        untrusted_secondaries=True, ignition_period_ms=60_000.0,
        ignition_limit=3, horizon_ms=900_000, **kwargs)


def test_install_log_records_digest_of_installed_bytes():
    built = build_scenario(_small_config())
    flashed = []   # (vin, ecu, software, SHA-256 of the bytes installed)
    for primary in built.vehicles:
        original = primary._install_local

        def install_local(group, primary=primary, original=original):
            for p in group:
                flashed.append((primary.vin, vehicle.PRIMARY_ECU,
                                p.mu.theta.s,
                                hashlib.sha256(b"".join(p.chunks)).digest()))
            original(group)
        primary._install_local = install_local
    for secondaries in built.secondaries.values():
        for ecu in secondaries:
            original = ecu._flash

            def flash(env, items, data_digests, ecu=ecu, original=original):
                for mu, chunks in items:
                    flashed.append((ecu.vin, ecu.ecu, mu.theta.s,
                                    hashlib.sha256(b"".join(chunks)).digest()))
                original(env, items, data_digests)
            ecu._flash = flash
    built.world.run(built.config.horizon_ms)
    log = built.world.install_log
    assert len(log) == 12
    assert sorted((vin, ecu, s, h) for _, vin, ecu, s, _, h in log) \
        == sorted(flashed)
    assert scenario.safety_violations(built) == []


def _count_hashing(monkeypatch, built):
    """Run `built` with `digest` counted at every import site.  Returns the
    bytes hashed that lie inside an image (control-plane digests, over
    signed regions and nonces, are not counted) and the bytes split into
    buckets."""
    images = [item.image.data for item in built.items]
    counts = {"image": 0, "split": 0}
    real_digest, real_split = crypto.digest, messages.split_buckets

    def counting_digest(data):
        if any(data in image for image in images):
            counts["image"] += len(data)
        return real_digest(data)

    def counting_split(data, bucket_size):
        counts["split"] += len(data)
        return real_split(data, bucket_size)

    for module in DIGEST_SITES:
        monkeypatch.setattr(module, "digest", counting_digest)
    monkeypatch.setattr(messages, "split_buckets", counting_split)
    built.world.run(built.config.horizon_ms)
    return counts


def test_each_image_byte_is_hashed_at_most_twice_per_receiving_hop(
        monkeypatch):
    for live_publish in (False, True):
        built = build_scenario(_small_config(live_publish=live_publish))
        counts = _count_hashing(monkeypatch, built)
        monkeypatch.undo()
        delivered = sum(rec.size for rec in built.world.trace
                        if rec.kind in DATA_KINDS)
        assert built.world.install_log and not built.all_alerts()
        # Senders split an image at most once each: the repository serves
        # every image, the station the ones it serves.
        distinct = sum(len(item.image.data) for item in built.items)
        served = sum(len(item.image.data) for item in built.items
                     if item.station_served)
        assert counts["split"] <= distinct + served
        # A receiver hashes each chunk on arrival and the whole image once.
        assert counts["image"] <= 2 * delivered + counts["split"], \
            live_publish
