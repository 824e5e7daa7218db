from dataclasses import replace

import pytest

from helpers import Rig, VIN
from ota_stations import messages as msg
from ota_stations.adversary import AttackRule, _flip
from ota_stations.crypto import KeyPair, digest
from ota_stations.image_repo import RepoError, location_for
from ota_stations.scenario import ScenarioConfig, build_scenario
from ota_stations.simnet import Envelope


def test_location_format():
    assert location_for("repo0", "sw0", 2) == "repo0/sw0/2"


def test_store_validates_producer_signature_and_digest():
    rig = Rig()
    mu, image = rig.make_update("sw0")
    unsigned = msg.UpdateManifest(mu.l, mu.theta, mu.tau)
    with pytest.raises(RepoError):
        rig.repo.store(image, unsigned, "producer0")
    wrong = msg.UpdateImage("sw0", b"different", image.bucket_size)
    with pytest.raises(RepoError):
        rig.repo.store(wrong, mu, "producer0")
    location = rig.repo.store(image, mu, "producer0")
    assert location == mu.l


def _count_image_hashes(monkeypatch, size):
    """The inputs of SHA-256 in `messages` that are `size` bytes long."""
    hashed = []
    real_digest = msg.digest
    monkeypatch.setattr(msg, "digest", lambda data: (
        len(data) == size and hashed.append(data)) or real_digest(data))
    return hashed


def test_warm_memo_never_launders_a_bad_stored_image(monkeypatch):
    rig = Rig()
    mu, image = rig.make_update("sw0", size=200_000)
    hashed = _count_image_hashes(monkeypatch, len(image.data))
    # The image the rig built keeps the digest it computed for the
    # manifest: its store check hashes nothing.
    assert rig.repo.store(image, mu, "producer0") == mu.l
    assert hashed == []
    assert image._digest == mu.theta.h

    flipped = image.data[:-1] + bytes([image.data[-1] ^ 1])
    copy = bytearray(image.data)
    for _ in range(2):
        # A same-length copy with one byte flipped is hashed and refused.
        with pytest.raises(RepoError):
            rig.repo.store(msg.UpdateImage("sw0", flipped, image.bucket_size),
                           mu, "producer0")
        # The genuine bytes in a mutable buffer are hashed, not kept.
        mutable = msg.UpdateImage("sw0", copy, image.bucket_size)
        assert rig.repo.store(mutable, mu, "producer0") == mu.l
    assert [id(data) for data in hashed] == [id(flipped), id(copy)] * 2
    # Neither the mutable image nor its split keeps a digest.
    assert mutable._digest is None
    assert all(chunk_digest.split[1] is None
               for _, _, chunk_digest in mutable.buckets())


def test_image_digest_is_the_digest_of_its_own_bytes(monkeypatch):
    rig = Rig()
    mu, image = rig.make_update("sw0", size=200_000)
    assert image.data_digest == mu.theta.h
    # The adversary's store-image tamper: `replace` carries no digest onto
    # the flipped bytes.
    tampered = replace(image, source=_flip(image.data))
    assert tampered.data_digest == digest(tampered.data) != mu.theta.h
    with pytest.raises(RepoError):
        rig.repo.store(tampered, mu, "producer0")

    # A mutable buffer is hashed on every store, so bytes changed after a
    # store that passed are refused.
    buffer = bytearray(image.data)
    mutable = msg.UpdateImage("sw0", buffer, image.bucket_size)
    hashed = _count_image_hashes(monkeypatch, len(buffer))
    assert rig.repo.store(mutable, mu, "producer0") == mu.l
    buffer[0] ^= 0xFF
    with pytest.raises(RepoError):
        rig.repo.store(mutable, mu, "producer0")
    assert [data is buffer for data in hashed] == [True, True]


def test_tampered_live_publish_is_refused_on_store():
    config = ScenarioConfig(
        name="store-tamper", bundle_bytes=200_000, image_count=2,
        bucket_size=65536, live_publish=True, horizon_ms=600_000.0,
        attacks=(AttackRule("tamper",
                            message_kinds=frozenset({"store_image"})),))
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    kinds = [rec.kind for rec in built.world.trace]
    assert "store_err" in kinds and "store_ok" not in kinds
    assert not built.repo.entries and not built.world.install_log
    # Each built image still keeps the digest of its own bytes.
    assert all(item.image._digest == item.manifest.theta.h
               == digest(item.image.data) for item in built.items)


def test_prior_versions_are_retained():
    rig = Rig()
    mu2, image2 = rig.make_update("sw0", version=2)
    mu3, image3 = rig.make_update("sw0", version=3)
    rig.repo.store(image2, mu2, "producer0")
    rig.repo.store(image3, mu3, "producer0")
    assert rig.repo.entries == {mu2.l: image2, mu3.l: image3}


def _fetch(rig, location, credential, requester="sud0", from_index=0):
    env = Envelope(requester, "repo0", "fetch",
                   {"l": location, "credential": credential,
                    "from_index": from_index},
                   96, rig.link("x"), req_id=rig.world.next_req_id())
    replies = []
    original = type(rig.repo).reply
    rig.repo.reply = lambda e, kind, payload, size: (
        replies.append((kind, payload)),
        original(rig.repo, e, kind, payload, size))
    rig.repo.on_fetch(env)
    return replies[0]


def test_fetch_with_producer_manifest_credential():
    rig = Rig()
    mu, image = rig.make_update("sw0", size=200_000)
    rig.repo.store(image, mu, "producer0")
    kind, payload = _fetch(rig, mu.l, mu)
    assert kind == "fetch_ok"
    data = msg.joined_bytes(payload["buckets"])
    assert data == image.data
    assert payload["total"] == len(image.buckets())


def test_fetch_resume_from_index():
    rig = Rig()
    mu, image = rig.make_update("sw0", size=200_000)  # 4 buckets at 64 KiB
    rig.repo.store(image, mu, "producer0")
    kind, payload = _fetch(rig, mu.l, mu, from_index=2)
    assert kind == "fetch_ok"
    assert [i for i, _, _ in payload["buckets"]] == [2, 3]


def test_fetch_unauthorized_without_valid_credential():
    rig = Rig()
    mu, image = rig.make_update("sw0")
    rig.repo.store(image, mu, "producer0")
    kind, payload = _fetch(rig, mu.l, None)
    assert (kind, payload["reason"]) == ("fetch_err", "unauthorized")
    other_mu, _ = rig.make_update("other")
    kind, payload = _fetch(rig, mu.l, other_mu)  # names another location
    assert payload["reason"] == "unauthorized"


def test_fetch_with_granted_bundle_credential():
    rig = Rig()
    mu, image = rig.make_update("sw0")
    rig.repo.store(image, mu, "producer0")
    key = rig.add_key(f"{VIN}.primary")
    rig.registry.add(KeyPair(VIN, key.public_key, b"", key.scheme))
    bundle = msg.Bundle((mu,), msg.TimestampRecord(5, 1))
    granted = msg.grant_bundle(bundle, VIN, rig.keys["sud.publish"])
    kind, _ = _fetch(rig, mu.l, granted, requester=VIN)
    assert kind == "fetch_ok"
    # The same credential does not authorize a different requester.
    kind, payload = _fetch(rig, mu.l, granted, requester="mallory")
    assert payload["reason"] == "unauthorized"


def test_fetch_not_found():
    rig = Rig()
    mu, image = rig.make_update("sw0")
    kind, payload = _fetch(rig, mu.l, mu)
    assert (kind, payload["reason"]) == ("fetch_err", "not_found")
