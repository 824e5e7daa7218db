import dataclasses
import struct
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ota_stations import adversary, messages as msg
from ota_stations.crypto import (PROVIDERS, Ed25519Provider, HmacProvider,
                                 KeyRegistry, RevocationList, SignatureEntry,
                                 digest, sign)

HMAC = PROVIDERS["hmac"]


def _key(name):
    return HMAC.generate(name, b"test-seed")


def _registry(*keys):
    registry = KeyRegistry()
    for key in keys:
        registry.add(key)
    return registry


# ---------------------------------------------------------------------------
# Canonical encoding: hand-built byte oracle
# ---------------------------------------------------------------------------

def _u64(n):
    return struct.pack(">Q", n)


def _blob(b):
    return struct.pack(">I", len(b)) + b


def _s(text):
    return _blob(text.encode())


def test_timestamp_encoding_matches_hand_built_bytes():
    # A timestamp record is two big-endian u64s, t then v, wherever a signed
    # message carries one.
    tau = msg.TimestampRecord(t=123, v=7)
    ts_bytes = _u64(123) + _u64(7)
    mu = msg.UpdateManifest("repo0/s/2", msg.MetaRecord(digest(b"image"),
                                                        "e", "s"), tau)
    assert msg.signed_region(mu).endswith(ts_bytes)
    bundle = msg.Bundle((mu,), tau)
    expected = (bytes([0x04]) + struct.pack(">I", 1)
                + _blob(msg.canonical_encode(mu)) + ts_bytes)
    assert msg.signed_region(bundle) == expected


def test_meta_encoding_matches_hand_built_bytes():
    # A metadata record is the image digest, ECU, software id and the
    # counted dependency list, in that order, inside a manifest's region.
    h = digest(b"image")
    for deps in ((), ("dep0", "dep1")):
        theta = msg.MetaRecord(h, "ecu1", "sw0", deps)
        mu = msg.UpdateManifest("l", theta, msg.TimestampRecord(1, 1))
        meta_bytes = (_blob(h) + _s("ecu1") + _s("sw0")
                      + struct.pack(">I", len(deps))
                      + b"".join(_s(dep) for dep in deps))
        expected = bytes([0x03]) + _s("l") + meta_bytes + _u64(1) + _u64(1)
        assert msg.signed_region(mu) == expected


def test_manifest_encoding_matches_hand_built_bytes():
    h = digest(b"image")
    theta = msg.MetaRecord(h, "ecu1", "sw0", ("dep0", "dep1"))
    mu = msg.UpdateManifest("repo0/sw0/7", theta,
                            msg.TimestampRecord(t=123, v=7))
    expected = (bytes([0x03]) + _s("repo0/sw0/7")
                + _blob(h) + _s("ecu1") + _s("sw0")
                + struct.pack(">I", 2) + _s("dep0") + _s("dep1")
                + _u64(123) + _u64(7)
                + struct.pack(">I", 0))  # empty signature section
    assert msg.canonical_encode(mu) == expected


@pytest.mark.parametrize("tag", (0x01, 0x02), ids=("timestamp", "meta"))
def test_bare_timestamp_and_meta_tags_do_not_decode(tag):
    # Timestamp and metadata records are fields of a wire message, never a
    # message of their own.
    with pytest.raises(msg.EncodingError, match="unknown tag"):
        msg.decode_message(bytes([tag]) + _u64(123) + _u64(7))


def test_signature_section_outside_signed_region():
    theta = msg.MetaRecord(digest(b"image"), "e", "s")
    mu = msg.UpdateManifest("repo0/s/2", theta, msg.TimestampRecord(2, 2))
    signed = msg.sign_message(mu, _key("producer0"))
    assert msg.signed_region(mu) == msg.signed_region(signed)
    assert msg.payload_digest(mu) == msg.payload_digest(signed)
    assert msg.canonical_encode(mu) != msg.canonical_encode(signed)


def test_grants_and_endorsements_outside_signed_region():
    mu = _manifest("s")
    bundle = msg.Bundle((mu,), msg.TimestampRecord(5, 1))
    granted = msg.grant_bundle(bundle, "engine0", _key("sud.publish"))
    endorsed = msg.endorse_for_ecu(granted, "ecu1", _key("sud.targets"))
    assert msg.payload_digest(bundle) == msg.payload_digest(endorsed)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------

def _manifest(software, version=2, ecu="e", deps=()):
    theta = msg.MetaRecord(digest(software.encode()), ecu, software,
                           tuple(deps))
    return msg.UpdateManifest(f"repo0/{software}/{version}", theta,
                              msg.TimestampRecord(version, version))


names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-",
                min_size=1, max_size=12)
# Any text but surrogates, which UTF-8 cannot encode: mostly non-ASCII.
wide_names = st.text(min_size=1, max_size=12)


@st.composite
def timestamps(draw):
    return msg.TimestampRecord(draw(st.integers(0, 2**40)),
                               draw(st.integers(1, 2**20)))


@st.composite
def metas(draw, text=names):
    s = draw(text)
    deps = draw(st.lists(text.filter(lambda n: n != s), max_size=4,
                         unique=True))
    return msg.MetaRecord(draw(st.binary(min_size=32, max_size=32)),
                          draw(text), s, tuple(deps))


@st.composite
def signature_entries(draw, text=names):
    """An entry made with its bytes, or one that `sign` issued with a fresh
    key of either scheme, whose bytes are computed when first read."""
    name = draw(text)
    scheme = draw(st.sampled_from((None, "hmac", "ed25519")))
    if scheme is None:
        return SignatureEntry(name, draw(st.binary(min_size=1, max_size=64)))
    key = PROVIDERS[scheme].generate(name, draw(st.binary(max_size=8)))
    return sign(digest(draw(st.binary(max_size=16))), key)


@st.composite
def sigmas(draw, text=names):
    return tuple(draw(st.lists(signature_entries(text), max_size=3)))


@st.composite
def manifests(draw, text=names):
    return msg.UpdateManifest(draw(text), draw(metas(text)),
                              draw(timestamps()), draw(sigmas(text)))


@st.composite
def bundles(draw, text=names):
    ms = draw(st.lists(manifests(text), min_size=1, max_size=4))
    keys = {(m.theta.s, m.tau.v) for m in ms}
    if len(keys) != len(ms):
        ms = list({(m.theta.s, m.tau.v): m for m in ms}.values())
    grants = tuple(msg.Grant(draw(text), e) for e in draw(sigmas(text)))
    ecu_sigs = tuple((draw(text), e) for e in draw(sigmas(text)))
    return msg.Bundle(tuple(ms), draw(timestamps()), draw(sigmas(text)),
                      grants, ecu_sigs)


@st.composite
def status_entries(draw, text=names):
    sig = draw(sigmas(text))
    return msg.StatusEntry(draw(text), draw(text), draw(timestamps()),
                           sig[0] if sig else None)


@st.composite
def status_reports(draw, text=names):
    if draw(st.booleans()):
        r = draw(st.binary(min_size=32, max_size=32))
    else:
        r = tuple(draw(st.lists(status_entries(text), max_size=3)))
    bs = tuple(draw(st.lists(bundles(text), max_size=2)))
    return msg.StatusReport(r, draw(timestamps()),
                            draw(st.binary(min_size=16, max_size=16)),
                            draw(sigmas(text)), bs)


@settings(max_examples=150, deadline=None)
@given(st.one_of(manifests(), bundles(), status_reports()))
def test_encoding_round_trip(message):
    encoded = msg.canonical_encode(message)
    assert msg.decode_message(encoded) == message


def _wide_report():
    """A status report whose every id is non-ASCII: an entry, a grant, an
    endorsement and signatures on the report, its bundle and manifest."""
    sig = SignatureEntry("ключ.targets", b"s" * 32)
    mu = msg.UpdateManifest("dépôt/λ/2", msg.MetaRecord(
        digest(b"x"), "ЭБУ", "λ", ("μ",)), msg.TimestampRecord(2, 2), (sig,))
    bundle = msg.Bundle((mu,), msg.TimestampRecord(5, 1), (sig,),
                        (msg.Grant("站点0", sig),), (("ЭБУ", sig),))
    entry = msg.StatusEntry("ЭБУ", "λ", msg.TimestampRecord(1, 1), sig)
    return msg.StatusReport((entry,), msg.TimestampRecord(7, 1), b"n" * 16,
                            (sig,), (bundle,))


@settings(max_examples=200, deadline=None)
@given(st.one_of(manifests(wide_names), bundles(wide_names),
                 status_reports(wide_names), manifests(), bundles(),
                 status_reports()))
@example(_wide_report())
def test_wire_size_is_the_encoded_length(message):
    # A signed message adds its sections' length to its kept region's, so
    # every id counts in UTF-8 bytes, in every section and in the region.
    # The region embeds the wire bytes of the messages a bundle or reply
    # encloses, and so their signatures; the size of the sections reads
    # none: an entry whose bytes are not computed counts at its scheme's
    # length, and no provider signs.
    msg.signed_region(message)
    with mock.patch.object(HmacProvider, "sign", autospec=True,
                           side_effect=HmacProvider.sign) as hmac_sign, \
            mock.patch.object(Ed25519Provider, "sign", autospec=True,
                              side_effect=Ed25519Provider.sign) as ed_sign:
        size = msg.wire_size(message)
    assert hmac_sign.call_count == ed_sign.call_count == 0
    assert size == len(msg.canonical_encode(message))


@settings(max_examples=100, deadline=None)
@given(manifests(), manifests())
def test_encoding_injective(a, b):
    if a != b:
        assert msg.canonical_encode(a) != msg.canonical_encode(b)


# ---------------------------------------------------------------------------
# Signed-region memo
# ---------------------------------------------------------------------------

def _fresh_region(message):
    """The region of an equal message decoded from the wire, so encoded
    anew rather than read from the memo."""
    return msg.signed_region(msg.decode_message(msg.canonical_encode(message)))


def _signed_messages():
    mu = msg.sign_message(_manifest("s"), _key("producer0"))
    bundle = msg.Bundle((mu, _manifest("t")), msg.TimestampRecord(5, 1))
    report = msg.StatusReport((), msg.TimestampRecord(7, 1), b"n" * 16,
                              bundles=(bundle,))
    return mu, bundle, report


@settings(max_examples=150, deadline=None)
@given(st.one_of(manifests(), bundles(), status_reports()))
def test_cached_region_equals_fresh_encoding(message):
    first = msg.signed_region(message)
    assert msg.signed_region(message) == first == _fresh_region(message)


def test_replace_of_cached_message_encodes_afresh():
    changes = ({"l": "repo0/s/3"}, {"tau": msg.TimestampRecord(6, 1)},
               {"nonce": b"m" * 16})
    for message, change in zip(_signed_messages(), changes):
        region = msg.signed_region(message)
        changed = dataclasses.replace(message, **change)
        assert changed._region is None
        assert msg.signed_region(changed) != region
        assert msg.signed_region(changed) == _fresh_region(changed)
        # An appended signature leaves the region as it was: the signed
        # copy shares the very bytes.
        resigned = msg.sign_message(message, _key("other"))
        assert resigned._region is region
        assert msg.signed_region(resigned) == region


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


# A different value for each field of a signed region.
_REGION_CHANGES = {
    msg.UpdateManifest: {
        "l": lambda m: m.l + "x",
        "theta": lambda m: dataclasses.replace(m.theta, h=_flip(m.theta.h)),
        "tau": lambda m: msg.TimestampRecord(m.tau.t + 1, m.tau.v),
    },
    msg.Bundle: {
        "manifests": lambda b: (dataclasses.replace(
            b.manifests[0], l=b.manifests[0].l + "x"),) + b.manifests[1:],
        "tau": lambda b: msg.TimestampRecord(b.tau.t + 1, b.tau.v),
    },
    msg.StatusReport: {
        "r": lambda g: () if isinstance(g.r, bytes) else bytes(32),
        "tau": lambda g: msg.TimestampRecord(g.tau.t + 1, g.tau.v),
        "nonce": lambda g: _flip(g.nonce),
        "bundles": lambda g: g.bundles + (msg.Bundle(
            (_manifest("z"),), msg.TimestampRecord(1, 1)),),
    },
}


@settings(max_examples=150, deadline=None)
@given(st.one_of(manifests(), bundles(), status_reports()), names,
       st.sampled_from(("sign", "grant", "endorse")))
def test_appending_keeps_the_region_and_digest_memo(message, name, append):
    if append == "sign" or not isinstance(message, msg.Bundle):
        result = msg.sign_message(message, _key(name))
    elif append == "grant":
        result = msg.grant_bundle(message, name, _key("sud.publish"))
    else:
        result = msg.endorse_for_ecu(message, name, _key("sud.targets"))
    assert result != message
    assert result._region is message._region is not None
    assert result._payload_digest is not None
    assert msg.payload_digest(result) == digest(_fresh_region(result))
    for field, change in _REGION_CHANGES[type(message)].items():
        changed = dataclasses.replace(result, **{field: change(result)})
        assert changed._region is None and changed._payload_digest is None
        assert msg.payload_digest(changed) != msg.payload_digest(result)
        assert msg.payload_digest(changed) == digest(_fresh_region(changed))


@settings(max_examples=150, deadline=None)
@given(st.one_of(manifests(), bundles(), status_reports()), names,
       st.sampled_from(("sign", "grant", "endorse")))
def test_kept_wire_bytes_equal_a_fresh_encoding(message, name, append):
    # A signed, granted or endorsed copy encodes its own wire bytes: the
    # kept bytes of its source lack the section it appends.
    assert msg.canonical_encode(message) == (message._encode_region()
                                             + message._sections())
    if append == "sign" or not isinstance(message, msg.Bundle):
        result = msg.sign_message(message, _key(name))
    elif append == "grant":
        result = msg.grant_bundle(message, name, _key("sud.publish"))
    else:
        result = msg.endorse_for_ecu(message, name, _key("sud.targets"))
    wire = msg.canonical_encode(result)
    assert wire == result._encode_region() + result._sections()
    assert msg.canonical_encode(result) is wire
    assert msg.wire_size(result) == len(wire)
    assert msg.decode_message(wire) == result
    # A reply joins the kept bytes of the very copy it carries.
    if isinstance(result, msg.Bundle):
        reply = msg.StatusReport((), msg.TimestampRecord(7, 1), b"n" * 16,
                                 bundles=(result,))
        assert msg.decode_message(msg.canonical_encode(reply)).bundles == \
            (result,)


def test_grant_and_endorsement_digests_are_kept_per_subject():
    bundle = msg.Bundle((_manifest("s"),), msg.TimestampRecord(5, 1))
    copy = msg.endorse_for_ecu(msg.grant_bundle(msg.sign_message(
        bundle, _key("sud.snapshot")), "VIN", _key("sud.publish")),
        "ecu1", _key("sud.targets"))
    region = msg.signed_region(bundle)
    # Outside-region copies share the kept digests with their source.
    assert copy._subject_digests is bundle._subject_digests
    assert bundle._subject_digests == {
        b"\x00subVIN": digest(region + b"\x00subVIN"),
        b"\x00ecuecu1": digest(region + b"\x00ecuecu1")}
    trust = _trust(_key("sud.publish"), _key("sud.targets"))
    assert trust.granted(copy, "VIN") and trust.endorsed(copy, "ecu1")
    # A changed region keeps none, and the old grant fails over it.
    changed = dataclasses.replace(copy, tau=msg.TimestampRecord(6, 1))
    assert changed._subject_digests == {}
    assert not trust.granted(changed, "VIN")
    assert not trust.endorsed(changed, "ecu1")


def test_only_fields_outside_the_region_are_replaced_with_the_memo():
    mu = msg.sign_message(_manifest("s"), _key("producer0"))
    with pytest.raises(ValueError, match="outside the signed region"):
        msg.replace_outside_region(mu, l="repo0/s/3")


@settings(max_examples=100, deadline=None)
@given(st.one_of(manifests(), bundles(), status_reports(), status_entries()),
       names, st.sampled_from(("sign", "grant", "endorse")))
def test_signed_copies_equal_a_dataclasses_replace(message, name, append):
    # The signing helpers copy without `dataclasses.replace`; the copy must
    # be what `replace` gives, frozen, and hold its own instance dict.
    if isinstance(message, msg.StatusEntry):
        result = msg.sign_status_entry(message, _key(name))
        expected = dataclasses.replace(message, sig=result.sig)
    elif append == "sign" or not isinstance(message, msg.Bundle):
        result = msg.sign_message(message, _key(name))
        expected = dataclasses.replace(message, sigma=result.sigma)
    elif append == "grant":
        result = msg.grant_bundle(message, name, _key("sud.publish"))
        expected = dataclasses.replace(message, grants=result.grants)
    else:
        result = msg.endorse_for_ecu(message, name, _key("sud.targets"))
        expected = dataclasses.replace(message, ecu_sigs=result.ecu_sigs)
    assert type(result) is type(expected)
    assert result == expected and hash(result) == hash(expected)
    assert repr(result) == repr(expected)
    assert result.__dict__ is not message.__dict__
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.tau = msg.TimestampRecord(1, 1)


def test_adversary_bundle_mutations_change_the_payload_digest():
    live = msg.StatusReport(
        (), msg.TimestampRecord(7, 1), b"n" * 16,
        bundles=(msg.Bundle((_manifest("a"), _manifest("b")),
                            msg.TimestampRecord(5, 1)),))
    donor = msg.StatusReport(
        (), msg.TimestampRecord(6, 1), b"o" * 16,
        bundles=(msg.Bundle((_manifest("c"), _manifest("b")),
                            msg.TimestampRecord(4, 1)),))
    before = msg.payload_digest(live)
    bundle_before = msg.payload_digest(live.bundles[0])
    stripped = adversary._strip_part(live)
    mixed = adversary._mix_bundles(live, [SimpleNamespace(payload=donor)])
    for mutated in (stripped, mixed):
        assert msg.payload_digest(mutated) != before
        assert msg.payload_digest(mutated.bundles[0]) != bundle_before
    assert msg.payload_digest(live) == before


def test_region_memo_leaves_equality_hash_and_repr_alone():
    for cached in _signed_messages():
        msg.signed_region(cached)
        # A wire decode is an equal message with no memo.
        plain = msg.decode_message(msg.canonical_encode(cached))
        assert cached._region is not None and plain._region is None
        assert cached == plain
        assert hash(cached) == hash(plain)
        assert repr(cached) == repr(plain)


def test_encoding_rejects_malformed_values():
    mu = _manifest("s")
    bad_fields = (
        {"tau": msg.TimestampRecord(1, 0)},                    # version < 1
        {"theta": msg.MetaRecord(b"short", "e", "s")},
        {"theta": msg.MetaRecord(digest(b"x"), "e", "s", ("s",))},  # self-dep
        {"theta": msg.MetaRecord(digest(b"x"), "e", "s", ("a", "a"))},  # dup
    )
    for change in bad_fields:
        with pytest.raises(msg.EncodingError):
            msg.canonical_encode(dataclasses.replace(mu, **change))
    with pytest.raises(msg.EncodingError):
        msg.canonical_encode(msg.Bundle((), msg.TimestampRecord(1, 1)))
    with pytest.raises(msg.EncodingError):
        msg.canonical_encode(msg.Bundle((mu, mu), msg.TimestampRecord(1, 1)))
    with pytest.raises(msg.EncodingError):
        msg.canonical_encode(msg.StatusReport((), msg.TimestampRecord(1, 1),
                                              b"shortnonce"))
    with pytest.raises(msg.EncodingError):
        msg.decode_message(msg.canonical_encode(_manifest("s")) + b"\x00")


# ---------------------------------------------------------------------------
# Signing, grants, endorsements
# ---------------------------------------------------------------------------

def _trust(*keys):
    return msg.TrustContext(_registry(*keys), ())


def test_signed_by_requires_every_signer():
    mu = _manifest("s")
    alice, bob = _key("alice"), _key("bob")
    trust = _trust(alice, bob)
    mu = msg.sign_message(mu, alice)
    pd = msg.payload_digest(mu)
    assert trust.signed_by(mu.sigma, {"alice"}, pd)
    assert not trust.signed_by(mu.sigma, {"alice", "bob"}, pd)
    mu = msg.sign_message(mu, bob)
    assert trust.signed_by(mu.sigma, {"alice", "bob"}, pd)
    trust.revoke("bob")
    assert not trust.signed_by(mu.sigma, {"alice", "bob"}, pd)


def test_grant_chain_root_and_delegation():
    publish, engine, station = (_key("sud.publish"), _key("engine0"),
                                _key("station0"))
    trust = _trust(publish, engine, station)
    bundle = msg.Bundle((_manifest("s"),), msg.TimestampRecord(5, 1))

    to_engine = msg.grant_bundle(bundle, "engine0", publish)
    assert trust.granted(to_engine, "engine0")
    assert not trust.granted(to_engine, "station0")

    delegated = msg.grant_bundle(to_engine, "station0", engine)
    assert trust.granted(delegated, "station0")

    # A chain not rooted at the publish role is rejected.
    rogue = msg.grant_bundle(bundle, "station0", engine)
    assert not trust.granted(rogue, "station0")
    # A link signed by the wrong predecessor is rejected.
    skipped = msg.grant_bundle(to_engine, "station0", publish)
    assert not trust.granted(skipped, "station0")


def test_grant_chain_respects_revocation():
    publish, engine = _key("sud.publish"), _key("engine0")
    trust = _trust(publish, engine)
    bundle = msg.Bundle((_manifest("s"),), msg.TimestampRecord(5, 1))
    granted = msg.grant_bundle(
        msg.grant_bundle(bundle, "engine0", publish), "station0", engine)
    assert trust.granted(granted, "station0")
    trust.revoke("engine0")
    assert not trust.granted(granted, "station0")


def test_ecu_endorsement_bound_to_ecu():
    targets = _key("sud.targets")
    trust = _trust(targets)
    bundle = msg.Bundle((_manifest("s"),), msg.TimestampRecord(5, 1))
    endorsed = msg.endorse_for_ecu(bundle, "ecu1", targets)
    assert trust.endorsed(endorsed, "ecu1")
    assert not trust.endorsed(endorsed, "ecu2")


# ---------------------------------------------------------------------------
# Freshness rules
# ---------------------------------------------------------------------------

def test_freshness_rules_truth_table():
    ts = msg.TimestampRecord
    assert msg.assert_fresh(ts(2, 2), ts(1, 1))
    assert not msg.assert_fresh(ts(2, 1), ts(1, 1))   # version not newer
    assert not msg.assert_fresh(ts(1, 2), ts(1, 1))   # time not newer

    # Vehicle status as seen by the director: never version-ahead.
    assert msg.assert_status_fresh_at_sud(ts(2, 1), ts(1, 1))
    assert msg.assert_status_fresh_at_sud(ts(2, 1), ts(1, 2))
    assert not msg.assert_status_fresh_at_sud(ts(2, 3), ts(1, 2))
    assert not msg.assert_status_fresh_at_sud(ts(1, 1), ts(1, 1))

    # Director reply as seen by the vehicle: version gaps tolerated.
    assert msg.assert_status_fresh_at_primary(ts(2, 5), ts(1, 2))
    assert msg.assert_status_fresh_at_primary(ts(2, 2), ts(1, 2))
    assert not msg.assert_status_fresh_at_primary(ts(2, 1), ts(1, 2))
    assert not msg.assert_status_fresh_at_primary(ts(1, 3), ts(1, 2))


# ---------------------------------------------------------------------------
# Bucketed downloads
# ---------------------------------------------------------------------------

def test_split_buckets_concatenation_identity():
    data = bytes(range(256)) * 5
    buckets = msg.split_buckets(data, 100)
    assert msg.joined_bytes(buckets) == data
    assert [i for i, _, _ in buckets] == list(range(len(buckets)))


def _received(buckets):
    received = msg.Received()
    assert received.add(buckets) == []
    return received


def test_assemble_resume_and_complete():
    data = b"x" * 250
    theta = msg.MetaRecord(digest(data), "e", "s")
    mu = msg.UpdateManifest("l", theta, msg.TimestampRecord(2, 2))
    buckets = msg.split_buckets(data, 100)

    partial = _received(buckets[:2])
    assert msg.assemble_buckets(partial, mu, 3) is None
    assert partial.next_missing() == 2 and not partial.complete
    hole = _received([buckets[0], buckets[2]])
    assert msg.assemble_buckets(hole, mu, 3) is None
    assert hole.next_missing() == 1 and not hole.complete
    received = _received(buckets)
    done = msg.assemble_buckets(received, mu, 3)
    assert isinstance(done, msg.Complete) and received.complete
    assert msg.joined_bytes(done.buckets) == data


def test_assemble_detects_corruption():
    data = b"x" * 250
    theta = msg.MetaRecord(digest(data), "e", "s")
    mu = msg.UpdateManifest("l", theta, msg.TimestampRecord(2, 2))
    buckets = msg.split_buckets(data, 100)
    index, chunk, chunk_digest = buckets[1]
    received = msg.Received()
    assert received.add([buckets[0], (index, b"EVIL" + bytes(chunk)[4:],
                                       chunk_digest)]) == [index]
    assert msg.assemble_buckets(received, mu, 3) is None
    assert received.next_missing() == 1 and not received.complete
    # All buckets present but the whole-image digest disagrees: the
    # download restarts from nothing.
    other = _received(msg.split_buckets(b"y" * 250, 100))
    assert msg.assemble_buckets(other, mu, 3) is None
    assert other.buckets == {} and not other.complete


def test_status_entry_signing():
    key = _key("VIN.ecu1")
    registry = _registry(key)
    entry = msg.sign_status_entry(
        msg.StatusEntry("ecu1", "sw0", msg.TimestampRecord(1, 1)), key)
    from ota_stations.crypto import verify
    assert verify(msg.status_entry_digest(entry), entry.sig, registry,
                  RevocationList())
    # The signed entry keeps the digest of a fresh entry of the same tau,
    # and its kept bytes equal a fresh encoding.
    fresh = msg.StatusEntry("ecu1", "sw0", msg.TimestampRecord(1, 1))
    assert entry._digest == msg.status_entry_digest(fresh)
    report = msg.StatusReport((entry, fresh), msg.TimestampRecord(2, 1),
                              b"n" * 16)
    assert msg.decode_message(msg.canonical_encode(report)).r == (entry, fresh)
    assert msg._entry_bytes(entry) == (_s("ecu1") + _s("sw0") + _u64(1)
                                       + _u64(1) + b"\x01"
                                       + _s("VIN.ecu1") + _blob(entry.sig.sig))
