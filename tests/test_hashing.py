"""How often image bytes are hashed: the build streams each image's bytes
through SHA-256 once per world, in blocks, and the image keeps that digest;
senders split it once into buckets whose chunks are lazy views and whose
digests are lazy and share the split's chunks and image digest.  Every later
check reads those: the repository's store check reads the image's digest,
an arriving chunk matches its own bucket's digest by identity, and a whole
image that is, in order, every chunk of one split gets the split's
digest.  A bucket digest is computed only to check a
foreign chunk, whose bytes are made for that check.  Installs reuse the
digest of the bytes they install.  Bytes that fail a check are hashed
every time and never kept."""
import hashlib

from helpers import Rig
from ota_stations import (broker, crypto, director, image_repo, messages,
                          scenario, vehicle)
from ota_stations.adversary import Adversary, AttackRule, _tamper
from ota_stations.scenario import ImageSource, ScenarioConfig, build_scenario
from ota_stations.simnet import Envelope

DIGEST_SITES = (crypto, messages, vehicle, broker, director, image_repo,
                scenario)
# Messages that carry image bytes.
DATA_KINDS = ("store_image", "fetch_ok", "serve_ok", "install_group")


def _fetch(rig, mu):
    env = Envelope("sud0", "repo0", "fetch", {"l": mu.l, "credential": mu},
                   96, rig.link("x"), req_id=rig.world.next_req_id())
    sent = []
    rig.repo.reply = lambda e, kind, payload, size: \
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
    received = messages.Received()
    assert received.add(_fetch(rig, mu).payload["buckets"]) == []
    result = messages.assemble_buckets(received, mu, 4)
    assert isinstance(result, messages.Complete)
    assert messages.joined_bytes(result.buckets) == image.data


def test_tampered_chunk_is_a_new_object_and_fails_its_digest():
    rig = Rig()
    mu, image = rig.seed_update("sw0", size=200_000)
    reply = _fetch(rig, mu)
    (action, tampered), = Adversary([AttackRule("tamper")]).intercept(
        rig.world, reply)
    assert action == "modify"
    index, chunk, chunk_digest = tampered.payload["buckets"][0]
    original = reply.payload["buckets"][0][1]
    assert chunk is not original and not isinstance(chunk, messages.Chunk)
    assert original.source is image.source
    assert crypto.digest(chunk) != chunk_digest
    assert messages.Received().add(tampered.payload["buckets"]) == [index]

    # An install group the primary pushes: the first chunk is flipped and
    # keeps its genuine digest.
    buckets = reply.payload["buckets"]
    mutated = _tamper({"items": ((mu, buckets),)})
    (_, flipped), = mutated["items"]
    assert flipped[0][1] is not buckets[0][1]
    assert flipped[0][2] is buckets[0][2]
    assert all(a is b for a, b in zip(flipped[1:], buckets[1:]))
    assert crypto.digest(messages.joined_bytes(flipped)) != mu.theta.h
    assert crypto.digest(messages.joined_bytes(buckets)) == mu.theta.h
    assert messages.image_digest(flipped) != mu.theta.h


def _count_messages_digest(monkeypatch):
    hashed = []
    real_digest = messages.digest
    monkeypatch.setattr(messages, "digest",
                        lambda data: hashed.append(data) or real_digest(data))
    return hashed


def test_chunk_digest_bytes_are_the_chunk_digest():
    data = bytes(range(256)) * 700
    for _, chunk, chunk_digest in messages.split_buckets(data, 65536):
        assert isinstance(chunk_digest, messages.ChunkDigest)
        assert bytes(chunk_digest) == crypto.digest(bytes(chunk))
        assert chunk_digest == crypto.digest(bytes(chunk))
        assert hash(chunk_digest) == hash(crypto.digest(bytes(chunk)))
    assert messages.ChunkDigest((b"", ((), None))) == crypto.digest(b"")


def test_split_hashes_nothing_and_a_bucket_digest_hashes_once(monkeypatch):
    hashed = _count_messages_digest(monkeypatch)
    buckets = messages.split_buckets(b"x" * 200_000, 65536)
    assert hashed == []
    _, chunk, chunk_digest = buckets[0]
    assert chunk_digest == chunk_digest and hashed == []
    assert chunk_digest == messages.ChunkDigest((chunk, ((), None)))
    assert bytes(chunk_digest) == crypto.digest(bytes(chunk))
    # Each of the two digests hashed the chunk once, and keeps the value.
    assert [len(data) for data in hashed] == [len(chunk)] * 2


def test_flipped_bucket_with_its_genuine_digest_costs_two_bucket_hashes(
        monkeypatch):
    rig = Rig()
    mu, _ = rig.seed_update("sw0", size=200_000)
    reply = _fetch(rig, mu)
    (action, tampered), = Adversary([AttackRule("tamper")]).intercept(
        rig.world, reply)
    assert action == "modify"
    genuine = reply.payload["buckets"][0]
    flipped = tampered.payload["buckets"][0]
    assert flipped[2] is genuine[2]
    hashed = _count_messages_digest(monkeypatch)
    received = messages.Received()
    assert received.add(tampered.payload["buckets"]) == [0]
    # The flipped chunk and the bytes of the genuine chunk behind its
    # claimed digest, made for this check, not the whole image.
    assert len(hashed) == 2
    assert hashed[0] is flipped[1]
    assert hashed[1] == bytes(genuine[1])
    assert sorted(received.buckets) == [1, 2, 3]


def test_genuine_chunk_under_a_forged_digest_is_refused():
    rig = Rig()
    mu, _ = rig.seed_update("sw0", size=200_000)
    buckets = _fetch(rig, mu).payload["buckets"]
    index, chunk, chunk_digest = buckets[1]
    genuine = crypto.digest(bytes(chunk))
    forged = genuine[:-1] + bytes([genuine[-1] ^ 1])
    received = messages.Received()
    assert received.add([(index, chunk, forged)]) == [index]
    assert received.add([(index, chunk, genuine)]) == []
    assert chunk_digest == genuine and chunk_digest != forged


def test_warm_memo_never_launders_bad_bytes(monkeypatch):
    rig = Rig()
    mu, _ = rig.seed_update("sw0", size=200_000)
    other_mu, _ = rig.seed_update("xw0", size=200_000)
    buckets = _fetch(rig, mu).payload["buckets"]
    other_buckets = _fetch(rig, other_mu).payload["buckets"]
    # A genuine download verifies from the split's own digests.
    warm = messages.Received()
    assert warm.add(buckets) == []
    assert isinstance(messages.assemble_buckets(warm, mu, 4),
                      messages.Complete)

    index, chunk, chunk_digest = buckets[0]
    mutated = bytes(chunk)[:-1] + bytes([bytes(chunk)[-1] ^ 1])
    # Forging from the genuine value hashes the genuine chunk once, before
    # the checks below are counted.
    genuine = bytes(chunk_digest)
    forged = bytes([genuine[0] ^ 1]) + genuine[1:]
    hashed = _count_messages_digest(monkeypatch)
    for _ in range(2):
        # A mutated copy of a genuine chunk, claiming the genuine digest,
        # is hashed on every check and refused.
        assert messages.Received().add(
            [(index, mutated, chunk_digest)]) == [index]
        # A genuine chunk under a forged `bytes` digest has its bytes made
        # and hashed, since only its own bucket's digest matches it by
        # identity, and is refused.
        assert messages.Received().add([(index, chunk, forged)]) == [index]
    assert [data is mutated for data in hashed] == [True, False] * 2
    assert hashed[1] == hashed[3] == bytes(chunk)

    # Another image's genuine chunks pass their own digests but do not make
    # up this manifest's image.
    mixed = messages.Received()
    assert mixed.add(other_buckets) == []
    assert messages.assemble_buckets(mixed, mu, 4) is None
    assert mixed.buckets == {}
    # An install group whose first chunk was flipped hashes afresh.
    flipped = [(index, mutated, chunk_digest)] + list(buckets[1:])
    assert messages.image_digest(flipped) != mu.theta.h
    assert messages.image_digest(buckets) == mu.theta.h

    # No refused chunk reached the split, nor changed a kept digest.
    chunks, data_digest = chunk_digest.split
    assert data_digest == mu.theta.h and len(chunks) == 4
    assert all(a is b for a, (_, b, _) in zip(chunks, buckets))
    assert bytes(chunk_digest) == genuine


def _distinct_split():
    """A manifest and the buckets of its image, whose chunks all differ."""
    image = messages.UpdateImage("sw0", bytes(range(251)) * 800, 65536)
    mu = messages.UpdateManifest(
        "repo0/sw0/2", messages.MetaRecord(image.data_digest, "primary",
                                           "sw0"),
        messages.TimestampRecord(1, 1))
    return mu, image.buckets()


def test_reordered_split_is_not_given_the_split_digest(monkeypatch):
    mu, buckets = _distinct_split()
    assert len(buckets) == 4 and buckets[1][1] != buckets[2][1]
    swapped = [buckets[0], (1,) + buckets[2][1:], (2,) + buckets[1][1:],
               buckets[3]]
    hashed = _count_messages_digest(monkeypatch)
    received = messages.Received()
    # Every bucket still matches its own digest by identity.
    assert received.add(swapped) == [] and hashed == []
    assert messages.assemble_buckets(received, mu, 4) is None
    assert received.buckets == {}
    assert [len(data) for data in hashed] == [251 * 800]


def test_prefix_of_a_split_is_not_given_the_split_digest():
    mu, buckets = _distinct_split()
    assert messages.image_digest(buckets) == mu.theta.h
    for n in range(1, len(buckets)):
        prefix = buckets[:n]
        assert messages.image_digest(prefix) == crypto.digest(
            messages.joined_bytes(prefix)) != mu.theta.h


def _small_config(**kwargs):
    fields = dict(
        name="hashing", vehicles=3, stations=1, bundle_bytes=1_200_000,
        image_count=4, bucket_size=65536, coverage_pct=75, mix_hit=34,
        mix_miss=33, mix_unknown=33, secondaries_per_vehicle=1,
        untrusted_secondaries=True, ignition_period_ms=60_000.0,
        ignition_limit=3, horizon_ms=900_000)
    return ScenarioConfig(**{**fields, **kwargs})


def _both_image_sizes(**kwargs):
    """`_small_config`'s 300 KB images, each hashed in one block, and two
    1.2 MB ones, each streamed through SHA-256 in two blocks."""
    large = _small_config(bundle_bytes=2_400_000, image_count=2, **kwargs)
    assert large.bundle_bytes // 2 > scenario._IMAGE_BLOCK
    return _small_config(**kwargs), large


def test_install_log_records_digest_of_installed_bytes():
    built = build_scenario(_small_config())
    flashed = []   # (vin, ecu, software, SHA-256 of the bytes installed)
    for primary in built.vehicles:
        original = primary._install_local

        def install_local(group, primary=primary, original=original):
            for p in group:
                flashed.append((primary.vin, vehicle.PRIMARY_ECU,
                                p.mu.theta.s, hashlib.sha256(
                                    messages.joined_bytes(p.buckets)).digest()))
            original(group)
        primary._install_local = install_local
    for secondaries in built.secondaries.values():
        for ecu in secondaries:
            original = ecu._flash

            def flash(env, items, data_digests, ecu=ecu, original=original):
                for mu, buckets in items:
                    flashed.append((ecu.vin, ecu.ecu, mu.theta.s,
                                    hashlib.sha256(messages.joined_bytes(
                                        buckets)).digest()))
                original(env, items, data_digests)
            ecu._flash = flash
    built.world.run(built.config.horizon_ms)
    log = built.world.install_log
    assert len(log) == 12
    assert sorted((vin, ecu, s, h) for _, vin, ecu, s, _, h in log) \
        == sorted(flashed)
    assert scenario.safety_violations(built) == []


def _count_hashing(monkeypatch, config):
    """Build and run `config` with `digest` counted at every import site.
    Returns the scenario, the bytes hashed that lie inside an image
    (control-plane digests, over signed regions and nonces, are not
    counted), those of them hashed inside `World.run`, the bytes split
    into buckets, and how often each image's whole source was hashed."""
    hashed = []
    counts = {"image": 0, "split": 0}
    real_digest, real_split = crypto.digest, messages.split_buckets

    def counting_digest(data):
        hashed.append(data)
        return real_digest(data)

    def counting_split(data, *args):
        counts["split"] += len(data)
        return real_split(data, *args)

    for module in DIGEST_SITES:
        monkeypatch.setattr(module, "digest", counting_digest)
    monkeypatch.setattr(messages, "split_buckets", counting_split)
    built = build_scenario(config)
    built_hashes = len(hashed)
    built.world.run(config.horizon_ms)
    monkeypatch.undo()
    sources = [item.image.source for item in built.items]
    images = [source[:] for source in sources]

    def image_bytes(hashed):
        return sum(len(data) for data in hashed
                   if isinstance(data, ImageSource)
                   or any(data in image for image in images))

    counts["image"] = image_bytes(hashed)
    counts["run_image"] = image_bytes(hashed[built_hashes:])
    counts["whole"] = [sum(data is source for data in hashed)
                       for source in sources]
    return built, counts


def _assert_each_image_hashed_once(built, counts):
    assert counts["whole"] == [1] * len(built.items)
    for item in built.items:
        assert built.truth[item.software][1] == hashlib.sha256(
            item.image.data).digest()


def test_each_image_byte_is_hashed_at_most_twice_per_receiving_hop(
        monkeypatch):
    for live_publish in (False, True):
        built, counts = _count_hashing(
            monkeypatch, _small_config(live_publish=live_publish))
        delivered = sum(rec.size for rec in built.world.trace
                        if rec.kind in DATA_KINDS)
        assert built.world.install_log and not built.all_alerts()
        # Senders split an image at most once each: the repository serves
        # every image, the station the ones it serves.
        distinct = sum(len(item.image.source) for item in built.items)
        served = sum(len(item.image.source) for item in built.items
                     if item.station_served)
        assert counts["split"] <= distinct + served
        # A receiver hashes each chunk on arrival and the whole image once.
        assert counts["image"] <= 2 * delivered + counts["split"], \
            live_publish


def test_each_distinct_image_is_hashed_once_per_world(monkeypatch):
    """Each image is hashed once, streamed by the build for its manifest;
    its split hashes nothing.  The repository's store check (preseeded or
    live-published) reads the image's kept digest, and every receiving hop
    matches the sender's chunks and whole split by identity."""
    for live_publish in (False, True):
        for config in _both_image_sizes(live_publish=live_publish):
            built, counts = _count_hashing(monkeypatch, config)
            assert built.world.install_log and not built.all_alerts()
            distinct = sum(len(item.image.source) for item in built.items)
            assert counts["split"] <= distinct
            assert counts["image"] <= distinct, live_publish
            _assert_each_image_hashed_once(built, counts)


def test_untampered_run_hashes_no_image_byte(monkeypatch):
    for live_publish in (False, True):
        for config in _both_image_sizes(live_publish=live_publish):
            built, counts = _count_hashing(monkeypatch, config)
            assert built.world.install_log and not built.all_alerts()
            assert counts["split"] > 0
            assert counts["run_image"] == 0, live_publish
            _assert_each_image_hashed_once(built, counts)
