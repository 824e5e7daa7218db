import hashlib
import hmac
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ota_stations import (broker, crypto, director, image_repo, messages,
                          scenario, vehicle)
from ota_stations.crypto import (CryptoError, KeyPair, KeyRegistry, PROVIDERS,
                                 RevocationList, SignatureEntry, digest,
                                 revoke, sign, verify)
from ota_stations.scenario import (ScenarioConfig, build_scenario,
                                   collect_report)

DIGEST_SITES = (crypto, messages, vehicle, broker, director, image_repo,
                scenario)


@pytest.fixture(params=["hmac", "ed25519"])
def provider(request):
    return PROVIDERS[request.param]


def test_digest_is_32_bytes_and_stable():
    assert len(digest(b"abc")) == 32
    assert digest(b"abc") == digest(b"abc")
    assert digest(b"abc") != digest(b"abd")


def test_sign_verify_roundtrip(provider):
    key = provider.generate("alice", b"seed")
    registry = KeyRegistry()
    registry.add(key)
    entry = sign(digest(b"payload"), key)
    assert entry.signer_id == "alice"
    assert verify(digest(b"payload"), entry, registry, RevocationList())
    assert not verify(digest(b"other"), entry, registry, RevocationList())


def test_hmac_one_shot_matches_the_hmac_object():
    provider = PROVIDERS["hmac"]
    for seed, payload in ((b"seed", b""), (b"other", b"payload"),
                          (b"", bytes(range(256)) * 3)):
        key = provider.generate("alice", seed)
        payload_digest = digest(payload)
        want = hmac.new(key.private_key, payload_digest,
                        hashlib.sha256).digest()
        assert hmac.digest(key.private_key, payload_digest, "sha256") == want
        assert provider.sign(payload_digest, key) == want
        public = provider.load_public(key.public_key)
        assert provider.verify(payload_digest, public, want)
        assert not provider.verify(payload_digest, public,
                                   bytes([want[0] ^ 1]) + want[1:])


# RFC 4231 section 4 HMAC-SHA-256 test cases 1-7 (key, data, MAC); case 5
# gives the MAC truncated to 128 bits.
RFC_4231 = (
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\x0c" * 20, b"Test With Truncation",
     "a3b6167473100ee06e0c796c2955552b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131, b"This is a test using a larger than block-size key and a "
     b"larger than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
)


def test_prepared_hmac_matches_rfc_4231():
    for key, data, want in RFC_4231:
        mac = crypto._hmac(crypto._hmac_pads(key), data)
        assert len(mac) == 32 and mac.hex().startswith(want)


def test_prepared_hmac_matches_hmac_digest():
    # Keys shorter than, equal to and longer than the 64-byte block; the
    # pads are reused across payloads and left as they were.
    provider = PROVIDERS["hmac"]
    rng = random.Random(4231)
    for size in (0, 32, 64, 65, 200):
        key = rng.randbytes(size)
        pads = crypto._hmac_pads(key)
        pair = KeyPair("k", key, key, "hmac")
        public = provider.load_public(key)
        for n in (0, 1, 32, 55, 64, 65, 1000):
            data = rng.randbytes(n)
            want = hmac.digest(key, data, "sha256")
            assert crypto._hmac(pads, data) == want
            assert crypto._hmac(pads, data) == want
            assert provider.sign(data, pair) == want
            assert provider.verify(data, public, want)
            assert not provider.verify(data, public, bytes([want[0] ^ 1])
                                       + want[1:])


def test_unknown_signer_verifies_false():
    key = PROVIDERS["hmac"].generate("alice", b"seed")
    entry = sign(digest(b"payload"), key)
    assert not verify(digest(b"payload"), entry, KeyRegistry(),
                      RevocationList())


def test_revoked_signer_verifies_false(provider):
    key = provider.generate("alice", b"seed")
    registry = KeyRegistry()
    registry.add(key)
    entry = sign(digest(b"payload"), key)
    crl = revoke(RevocationList(), "alice")
    assert not verify(digest(b"payload"), entry, registry, crl)
    # Other signers are unaffected.
    other = provider.generate("bob", b"seed")
    registry.add(other)
    entry2 = sign(digest(b"payload"), other)
    assert verify(digest(b"payload"), entry2, registry, crl)


def test_revoke_is_idempotent_on_set_but_advances_version():
    crl = RevocationList()
    crl1 = revoke(crl, "alice")
    crl2 = revoke(crl1, "alice")
    assert crl1.revoked == crl2.revoked == frozenset({"alice"})
    assert crl2.version == crl1.version + 1 == 2


def test_duplicate_registration_rejected():
    registry = KeyRegistry()
    key = PROVIDERS["hmac"].generate("alice", b"seed")
    registry.add(key)
    with pytest.raises(CryptoError):
        registry.add(key)


def test_signing_without_private_key_rejected():
    key = KeyPair("alice", b"pub", b"", "hmac")
    with pytest.raises(CryptoError):
        sign(digest(b"x"), key)


def test_key_generation_deterministic_in_seed(provider):
    a = provider.generate("alice", b"seed")
    b = provider.generate("alice", b"seed")
    c = provider.generate("alice", b"other")
    assert a.private_key == b.private_key
    assert a.private_key != c.private_key


def test_cross_signer_signature_rejected(provider):
    registry = KeyRegistry()
    alice = provider.generate("alice", b"seed")
    bob = provider.generate("bob", b"seed")
    registry.add(alice)
    registry.add(bob)
    entry = sign(digest(b"payload"), alice)
    # Claiming bob's identity over alice's signature must fail.
    forged = SignatureEntry("bob", entry.sig)
    assert not verify(digest(b"payload"), forged, registry, RevocationList())


# ---------------------------------------------------------------------------
# Issued signatures and the signing memo
# ---------------------------------------------------------------------------

class CountingProvider:
    """Delegates to a real provider and counts its sign and verify calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sign(self, payload_digest, key):
        self.calls["sign"] += 1
        return self.inner.sign(payload_digest, key)

    def verify(self, payload_digest, public_key, sig):
        self.calls["verify"] += 1
        return self.inner.verify(payload_digest, public_key, sig)


@pytest.fixture
def counting(provider, monkeypatch):
    wrapped = CountingProvider(provider)
    monkeypatch.setitem(crypto.PROVIDERS, provider.scheme, wrapped)
    return wrapped


def _alice(provider):
    key = provider.generate("alice", b"seed")
    registry = KeyRegistry()
    registry.add(key)
    return key, registry


def test_memoised_entry_fails_once_signer_is_revoked(provider):
    key, registry = _alice(provider)
    entry = sign(digest(b"payload"), key)
    assert verify(digest(b"payload"), entry, registry, RevocationList())
    crl = revoke(RevocationList(), "alice")
    assert not verify(digest(b"payload"), entry, registry, crl)
    # Holders of the old list still accept it.
    assert verify(digest(b"payload"), entry, registry, RevocationList())


def test_memoised_sibling_does_not_pass_a_bad_digest_or_signature(provider):
    key, registry = _alice(provider)
    entry = sign(digest(b"payload"), key)
    assert verify(digest(b"payload"), entry, registry, RevocationList())
    assert not verify(digest(b"other"), entry, registry, RevocationList())
    flipped = SignatureEntry("alice",
                             bytes([entry.sig[0] ^ 1]) + entry.sig[1:])
    assert not verify(digest(b"payload"), flipped, registry, RevocationList())
    # Failures are memoised too, and never turn into passes.
    assert not verify(digest(b"payload"), flipped, registry, RevocationList())
    assert verify(digest(b"payload"), entry, registry, RevocationList())


def test_unknown_signer_is_false_even_when_its_triple_is_memoised(provider):
    key, registry = _alice(provider)
    entry = sign(digest(b"payload"), key)
    assert verify(digest(b"payload"), entry, registry, RevocationList())
    stranger = SignatureEntry("carol", entry.sig)
    assert not verify(digest(b"payload"), stranger, registry, RevocationList())


def test_fresh_registry_starts_with_empty_memo(provider):
    # The registry holds no verdict: after own, foreign and failing checks,
    # each of its containers still holds one entry per registered key.
    key, registry = _alice(provider)
    assert all(not held for held in vars(KeyRegistry()).values())
    entry = sign(digest(b"payload"), key)
    copy = KeyPair("alice", key.public_key, key.private_key, key.scheme)
    foreign = sign(digest(b"copy"), copy)
    for _ in range(2):
        assert verify(digest(b"payload"), entry, registry, RevocationList())
        assert not verify(digest(b"other"), entry, registry, RevocationList())
        assert verify(digest(b"copy"), foreign, registry, RevocationList())
    assert {name: len(held) for name, held in vars(registry).items()} == {
        "keys": 1, "_issued": 1, "_loaded": 1}
    # What the registry refers to is the pair's own signing memo.
    assert registry._issued["alice"] is key._signed


def test_provider_verifies_each_triple_once_per_registry(provider, counting):
    # The provider sees no signature the registered pair issued, and sees a
    # foreign one on every check.
    key, registry = _alice(provider)
    entry = sign(digest(b"payload"), key)
    for _ in range(3):
        assert verify(digest(b"payload"), entry, registry, RevocationList())
    assert counting.calls["verify"] == 0
    for calls in (1, 2):
        assert not verify(digest(b"other"), entry, registry, RevocationList())
        assert counting.calls["verify"] == calls
    # Revocation is decided first and costs no provider call.
    assert not verify(digest(b"payload"), entry, registry,
                      revoke(RevocationList(), "alice"))
    assert counting.calls["verify"] == 2
    # An unregistered copy of the pair signs the same bytes, but a digest
    # the registered pair never signed is foreign, whoever signed it.
    copy = KeyPair("alice", key.public_key, key.private_key, key.scheme)
    assert sign(digest(b"payload"), copy) == entry
    foreign = sign(digest(b"copy"), copy)
    for calls in (3, 4):
        assert verify(digest(b"copy"), foreign, registry, RevocationList())
        assert counting.calls["verify"] == calls
    # Every registry of the pair recognises what the pair issued.
    other = KeyRegistry()
    other.add(key)
    assert verify(digest(b"payload"), entry, other, RevocationList())
    assert counting.calls["verify"] == 4


def _provider_verdict(payload_digest, entry, registry, crl):
    """The revocation and lookup rules, then the provider's own check."""
    if entry.signer_id in crl.revoked or entry.signer_id not in registry.keys:
        return False
    public_key, scheme = registry.keys[entry.signer_id]
    provider = PROVIDERS[scheme]
    return provider.verify(payload_digest, provider.load_public(public_key),
                           entry.sig)


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(sorted(PROVIDERS)), seed=st.binary(max_size=8),
       payload=st.binary(max_size=40), other=st.binary(max_size=40),
       bit=st.integers(min_value=0), revoked=st.sets(
           st.sampled_from(["alice", "bob", "carol"])))
def test_recognised_signatures_get_the_providers_verdict(
        scheme, seed, payload, other, bit, revoked):
    provider = PROVIDERS[scheme]
    alice = provider.generate("alice", seed)
    bob = provider.generate("bob", seed)
    registry = KeyRegistry()
    registry.add(alice)
    registry.add(bob)
    own = sign(digest(payload), alice)
    bit %= 8 * len(own.sig)
    flipped = bytearray(own.sig)
    flipped[bit // 8] ^= 1 << bit % 8
    # An unregistered copy of alice's pair, signing a digest that alice's
    # registered pair may never have signed.
    copy = KeyPair("alice", alice.public_key, alice.private_key, scheme)
    cases = [
        (digest(payload), own),
        (digest(other), own),
        (digest(payload), SignatureEntry("alice", bytes(flipped))),
        (digest(payload), SignatureEntry("alice",
                                         sign(digest(payload), bob).sig)),
        (digest(payload), sign(digest(payload), bob)),
        (digest(other), sign(digest(other), copy)),
        (digest(payload), SignatureEntry("carol", own.sig)),
    ]
    for crl in (RevocationList(), RevocationList(frozenset(revoked), 1)):
        for payload_digest, entry in cases:
            assert verify(payload_digest, entry, registry, crl) \
                == _provider_verdict(payload_digest, entry, registry, crl)
    # Both paths are taken: an own signature, and a foreign genuine one.
    assert verify(digest(payload), own, registry, RevocationList())
    assert verify(digest(other), sign(digest(other), copy), registry,
                  RevocationList())


def test_a_pair_whose_halves_do_not_match_refuses_to_sign(provider):
    alice = provider.generate("alice", b"seed")
    bob = provider.generate("bob", b"seed")
    mismatched = KeyPair("alice", bob.public_key, alice.private_key,
                         provider.scheme)
    registry = KeyRegistry()
    registry.add(mismatched)
    with pytest.raises(CryptoError):
        sign(digest(b"payload"), mismatched)
    assert mismatched._signed == {}
    # So no signature of alice's private half is recognised under bob's
    # public half.
    entry = sign(digest(b"payload"), alice)
    assert not verify(digest(b"payload"), entry, registry, RevocationList())


def test_ed25519_key_object_is_kept_and_ignored_by_equality():
    provider = PROVIDERS["ed25519"]
    key = provider.generate("alice", b"seed")
    by_hand = KeyPair("alice", key.public_key, key.private_key, key.scheme)
    # `generate` keeps the private-key object it built the public key from;
    # a pair made by hand builds its own at its first sign.
    kept = key._signer
    assert kept.public_key().public_bytes_raw() == key.public_key
    assert by_hand._signer is None
    first = sign(digest(b"x"), key)
    assert key._signer is kept
    assert by_hand == key and hash(by_hand) == hash(key)
    assert "_signer" not in repr(key)
    # The kept object signs the same bytes as a key that builds its own.
    assert sign(digest(b"x"), key) == first == sign(digest(b"x"), by_hand)
    assert by_hand._signer is not None and by_hand._signer is not kept


def test_provider_signs_each_digest_once_per_key(provider, counting):
    key = provider.generate("alice", b"seed")
    by_hand = KeyPair("alice", key.public_key, key.private_key, key.scheme)
    before = repr(key)
    # `sign` makes no provider call; the first read of the bytes makes one.
    first = sign(digest(b"x"), key)
    assert sign(digest(b"x"), key) is first
    assert counting.calls["sign"] == 0
    sig = first.sig
    assert counting.calls["sign"] == 1
    # No later read or re-sign of the same digest with the key makes another.
    for _ in range(3):
        assert sign(digest(b"x"), key).sig is sig
        assert first.sig is sig
    assert counting.calls["sign"] == 1
    other = sign(digest(b"y"), key)
    assert counting.calls["sign"] == 1
    assert other.sig != sig
    assert counting.calls["sign"] == 2
    # The memo belongs to the key object, not to its value.
    assert sign(digest(b"x"), by_hand) == first
    assert counting.calls["sign"] == 3
    # The bytes equal a fresh provider signature.
    fresh = provider.generate("alice", b"seed")
    assert provider.sign(digest(b"x"), fresh) == sig
    assert provider.verify(digest(b"x"), provider.load_public(key.public_key),
                           first.sig)
    # The memo takes no part in equality, hashing or repr.
    assert by_hand == key and hash(by_hand) == hash(key)
    assert repr(key) == before == repr(fresh)
    assert "_signed" not in repr(key)


def test_registry_memo_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        KeyRegistry({}, {})


# Two vehicles with untrusted secondaries and a station, on Ed25519.
ED25519_CONFIG = ScenarioConfig(
    name="memo", vehicles=2, stations=1, models=1, coverage_pct=100,
    mix_hit=100, bundle_bytes=40_000, image_count=3,
    secondaries_per_vehicle=1, untrusted_secondaries=True,
    crypto="ed25519", ignition_limit=2)


def test_repeated_scenario_does_the_same_crypto_and_codec_work(monkeypatch):
    """Every memo belongs to one world: a second run of the same scenario
    in this process checks, signs, encodes and hashes as much as the
    first."""
    counting = CountingProvider(PROVIDERS["ed25519"])
    monkeypatch.setitem(crypto.PROVIDERS, "ed25519", counting)
    encodes = Counter()
    for cls in (messages.UpdateManifest, messages.Bundle,
                messages.StatusReport):
        def counted_encode(m, encode=cls._encode_region):
            encodes["region"] += 1
            return encode(m)

        monkeypatch.setattr(cls, "_encode_region", counted_encode)
    real_digest = crypto.digest

    def counted_digest(data):
        encodes["sha256_bytes"] += len(data)
        return real_digest(data)

    for module in DIGEST_SITES:
        monkeypatch.setattr(module, "digest", counted_digest)

    def counted_verify(*args):
        encodes["policy_verify"] += 1
        return crypto.verify(*args)

    monkeypatch.setattr(messages, "verify", counted_verify)
    config = ED25519_CONFIG
    work = []
    for _ in range(2):
        counting.calls.clear()
        encodes.clear()
        built = build_scenario(config)
        built.world.run(config.horizon_ms)
        report = collect_report(built)
        work.append((report.install_count, encodes["policy_verify"],
                     dict(counting.calls), encodes["region"],
                     encodes["sha256_bytes"]))
        # Each image keeps its own digest, and every split this world made
        # holds only views of this world's images.
        sources = {id(item.image.source) for item in built.items}
        assert all(item.image._digest == item.manifest.theta.h
                   for item in built.items)
        splits = [chunk_digest.split for item in built.items
                  for _, _, chunk_digest in item.image._buckets or ()]
        assert splits and all(id(chunk.source) in sources
                              and split_digest is not None
                              for chunks, split_digest in splits
                              for chunk in chunks)
    assert work[0] == work[1]
    installs, policy_verifies, calls, regions, hashed = work[0]
    assert installs > 0 and policy_verifies > 0 and calls["sign"] > 0
    # No adversary acts, so every signature checked is one its registered
    # key issued, and none reaches the provider.
    assert "verify" not in calls
    assert regions > 0 and hashed > config.bundle_bytes


def test_unread_signatures_stay_uncomputed_and_verify_once_forced(
        monkeypatch):
    """A run computes only the signatures whose bytes something reads: an
    entry checked only against its registered key's memo, or counted only
    for its wire size, is never computed.  Forced afterwards, every issued
    signature is one the provider accepts."""
    counting = CountingProvider(PROVIDERS["ed25519"])
    monkeypatch.setitem(crypto.PROVIDERS, "ed25519", counting)
    groups = []

    def recorded_sign(payload_digest, key):
        groups.append(sign(payload_digest, key))
        return groups[-1]

    # A primary signs each install group it pushes to a secondary.
    monkeypatch.setattr(vehicle, "sign", recorded_sign)
    built = build_scenario(ED25519_CONFIG)
    built.world.run(ED25519_CONFIG.horizon_ms)
    assert collect_report(built).install_count > 0
    registry = built.trust.registry
    issued = [(signer_id, payload_digest, entry)
              for signer_id, memo in registry._issued.items()
              for payload_digest, entry in memo.items()]
    pending = [entry for _, _, entry in issued if entry._pending is not None]
    assert pending and len(pending) < len(issued)
    assert counting.calls["sign"] == len(issued) - len(pending)
    # Each secondary checks its install group against the primary's memo,
    # so no group signature was computed.
    assert groups and all(entry._pending is not None for entry in groups)
    # Forcing an entry costs one provider call and gives bytes the provider
    # verifies under the registered key.
    provider = counting.inner
    for signer_id, payload_digest, entry in issued:
        public_key, scheme = registry.keys[signer_id]
        assert scheme == "ed25519"
        assert provider.verify(payload_digest,
                               provider.load_public(public_key), entry.sig)
        assert entry._pending is None
    assert counting.calls["sign"] == len(issued)
