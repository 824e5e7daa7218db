"""Protocol message algebra: metadata records, manifests, bundles, status
reports, update images, canonical byte encoding, the trust context every
actor verifies signatures through, and freshness rules.

Manifests, bundles and status reports are the wire messages; timestamp
and metadata records are encoded only as fields of them.  Each wire message
encodes its own signed region (`_encode_region`) and the sections that
follow it (`_sections`).  Canonical encoding rules: a one-byte type tag,
then fields in declaration order, integers as 8-byte big-endian, strings
UTF-8 with 4-byte big-endian length prefix, byte strings with 4-byte length
prefix, lists as 4-byte count then elements.  Signature entries, download
grants, and per-ECU endorsements are appended AFTER the signed region, so
adding them never changes the digest other parties verify.

Every encoding is kept beside what it encodes, so a status round encodes
only what changed: a wire message keeps its region and its full wire
bytes, and a status entry its own bytes, which each report or reply that
carries the entry joins.  A reply's region joins its bundles' kept wire
bytes.  An instance that appends a signature, grant or endorsement
shares its source's region but encodes its own wire bytes.

Wire bytes are encoded only where they are embedded (a manifest in its
bundle's region, a bundle in a reply's) or decoded.  A wire size
(`wire_size`) is the length of the kept wire bytes, or else the kept
region's length plus the sizes of the sections (`_sections_size`), each
signature counted as 8 bytes, its signer id in UTF-8 and its scheme's
signature length.  So sizing a message encodes no section and reads no
signature bytes, and an entry that `crypto.sign` issued and nothing else
reads is never computed.
"""
from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional, Union

from .crypto import (DIGEST_LEN, PROVIDERS, KeyPair, KeyRegistry,
                     RevocationList, SignatureEntry, digest, revoke, sign,
                     verify)

NONCE_LEN = 16
DEFAULT_BUCKET_SIZE = 1 << 20
MIN_LEN = 11               # a VIN's leading model id (MIN) characters

ROLE_NAMES = ("targets", "snapshot", "timestamp", "root", "publish")
# The director's role signer ids, by role name.
ROLE_IDS = {role: f"sud.{role}" for role in ROLE_NAMES}
# Role signatures every installable manifest carries besides a producer's.
MANIFEST_ROLES = frozenset(ROLE_IDS[r] for r in ("targets", "timestamp",
                                                 "root"))

TAG_MANIFEST = 0x03
TAG_BUNDLE = 0x04
TAG_STATUS = 0x05


class EncodingError(Exception):
    pass


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TimestampRecord:
    t: int  # milliseconds since simulation epoch
    v: int  # version counter, >= 1


@dataclass(frozen=True, slots=True)
class MetaRecord:
    h: bytes               # digest of the update image
    e: str                 # target ECU
    s: str                 # software id
    d: tuple = ()          # ordered dependency list, software ids


@dataclass(frozen=True)
class _WireMessage:
    """A manifest, bundle or status report.  It keeps its signed region, the
    region's digest and its full wire bytes once computed (`signed_region`,
    `payload_digest`, `canonical_encode`).  Its sections after the region
    are its signatures, unless it adds more; `_sections_size` is the length
    of `_sections`, counted without encoding them."""

    _region: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)
    _payload_digest: Optional[bytes] = field(default=None, init=False,
                                             repr=False, compare=False)
    _wire: Optional[bytes] = field(default=None, init=False, repr=False,
                                   compare=False)

    def _sections(self) -> bytes:
        return _enc_sigma(self.sigma)

    def _sections_size(self) -> int:
        return _sigma_size(self.sigma)


@dataclass(frozen=True)
class UpdateManifest(_WireMessage):
    l: str                 # location URI: "<repo_id>/<path>"
    theta: MetaRecord
    tau: TimestampRecord
    sigma: tuple = ()      # SignatureEntry list, append-only

    def _encode_region(self) -> bytes:
        return (bytes([TAG_MANIFEST]) + _s(self.l) + _enc_meta(self.theta)
                + _enc_ts(self.tau))


@dataclass(frozen=True, slots=True)
class Grant:
    """Download-eligibility link: `entry` signs the bundle region bound to
    `subject`.  The first grant is signed by the publish role; later grants
    chain from the previous subject (the engine vouching for a station)."""

    subject: str
    entry: SignatureEntry


@dataclass(frozen=True)
class Bundle(_WireMessage):
    # UpdateManifest, pairwise distinct (s, v): the trigger first, then its
    # dependencies and co-update members, dependencies first.
    manifests: tuple
    tau: TimestampRecord
    sigma: tuple = ()
    grants: tuple = ()     # Grant chain, outside the signed region
    ecu_sigs: tuple = ()   # (ecu_id, SignatureEntry), outside the signed region
    # tag + subject -> the grant or endorsement digest of the region bound
    # to that subject; copies outside the region share this very dict.
    _subject_digests: dict = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    @property
    def trigger(self) -> UpdateManifest:
        """The manifest whose new version the bundle ships.  The director
        lists it first (`Director.resolve_and_bundle`), and every receiver
        keys and checks the bundle's freshness by its software id."""
        return self.manifests[0]

    def _encode_region(self) -> bytes:
        if not self.manifests:
            raise EncodingError("bundle must enclose at least one manifest")
        keys = [(m.theta.s, m.tau.v) for m in self.manifests]
        if len(set(keys)) != len(keys):
            raise EncodingError("bundle manifests not distinct by (s, v)")
        out = bytes([TAG_BUNDLE]) + _count(len(self.manifests))
        for m in self.manifests:
            out += _blob(canonical_encode(m))
        return out + _enc_ts(self.tau)

    def _sections(self) -> bytes:
        out = _enc_sigma(self.sigma)
        out += _count(len(self.grants))
        for g in self.grants:
            out += _s(g.subject) + _enc_sig(g.entry)
        out += _count(len(self.ecu_sigs))
        for ecu, entry in self.ecu_sigs:
            out += _s(ecu) + _enc_sig(entry)
        return out

    def _sections_size(self) -> int:
        size = _sigma_size(self.sigma) + 8
        for g in self.grants:
            size += 4 + len(g.subject.encode("utf-8")) + _sig_size(g.entry)
        for ecu, entry in self.ecu_sigs:
            size += 4 + len(ecu.encode("utf-8")) + _sig_size(entry)
        return size


@dataclass(frozen=True)
class StatusEntry:
    """One ECU's report of one installed software version.  It keeps its
    canonical bytes (`_entry_bytes`) and the digest its signature covers
    (`status_entry_digest`), each once computed."""

    ecu: str
    software: str
    tau: TimestampRecord
    sig: Optional[SignatureEntry] = None  # present when secondaries are untrusted
    _bytes: Optional[bytes] = field(default=None, init=False, repr=False,
                                    compare=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)


@dataclass(frozen=True)
class StatusReport(_WireMessage):
    r: Union[tuple, bytes]  # tuple of StatusEntry, or digest of a prior full R
    tau: TimestampRecord
    nonce: bytes            # 16 bytes, unique per message per sender
    sigma: tuple = ()
    bundles: tuple = ()     # present only in director replies

    def _encode_region(self) -> bytes:
        if len(self.nonce) != NONCE_LEN:
            raise EncodingError("nonce must be 16 bytes")
        if isinstance(self.r, bytes):
            r = b"\x01" + _blob(self.r)
        else:
            r = b"\x00" + _count(len(self.r)) + b"".join(
                map(_entry_bytes, self.r))
        return b"".join((bytes([TAG_STATUS]), r, _enc_ts(self.tau),
                         _blob(self.nonce), _count(len(self.bundles)),
                         *map(_blob, map(canonical_encode, self.bundles))))


@dataclass(frozen=True)
class UpdateImage:
    """An update image: its software id, its byte source and the size of
    the buckets it is served in.

    The source is `bytes`, or a virtual source whose bytes are made only
    when read (`scenario.ImageSource`): a sized object that gives `bytes`
    for a slice and yields its bytes, in blocks, when iterated.  So no image
    needs a buffer that lives as long as the world, and `len(image.source)`
    sizes an image without making its bytes."""

    s: str
    source: object         # bytes, or a virtual byte source
    bucket_size: int = DEFAULT_BUCKET_SIZE
    _buckets: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def data(self) -> bytes:
        """The image's bytes, made on this read and not kept."""
        return self.source[:]

    @property
    def data_digest(self) -> bytes:
        """The digest of the image's bytes, hashed on first use: in one
        call for `bytes`, and streamed block by block through `digest` for
        a virtual source, whose bytes are never whole.  It is kept unless
        the source is a mutable buffer, which is hashed on every call.
        `replace` gives a new instance, which hashes its own bytes.
        `build_scenario` reads it for the manifest, so a built image is
        hashed once, by the build."""
        if self._digest is not None:
            return self._digest
        data_digest = digest(self.source)
        if not isinstance(self.source, (bytearray, memoryview)):
            object.__setattr__(self, "_digest", data_digest)
        return data_digest

    def buckets(self) -> tuple:
        """The image's (index, chunk, chunk digest) buckets, split on first
        use and shared by every later caller.  The chunks are lazy views of
        the source and their digests are lazy (see `split_buckets`).  When
        `data_digest` was computed before the split (the build computes it
        for the manifest), the split carries it as the digest of its whole
        image.  So no receiver hashes a genuine chunk or the image; a bucket
        digest is computed only to check a foreign chunk."""
        if self._buckets is None:
            object.__setattr__(self, "_buckets", tuple(split_buckets(
                self.source, self.bucket_size, self._digest)))
        return self._buckets


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

_TS = struct.Struct(">QQ")
_U32 = struct.Struct(">I")
_count = _U32.pack


def _blob(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def _s(s: str) -> bytes:
    b = s.encode("utf-8")
    return _U32.pack(len(b)) + b


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u64(self) -> int:
        (n,) = struct.unpack_from(">Q", self.data, self.pos)
        self.pos += 8
        return n

    def u32(self) -> int:
        (n,) = struct.unpack_from(">I", self.data, self.pos)
        self.pos += 4
        return n

    def blob(self) -> bytes:
        n = self.u32()
        out = self.data[self.pos:self.pos + n]
        if len(out) != n:
            raise EncodingError("truncated blob")
        self.pos += n
        return out

    def s(self) -> str:
        return self.blob().decode("utf-8")

    def byte(self) -> int:
        b = self.data[self.pos]
        self.pos += 1
        return b

    def done(self) -> bool:
        return self.pos == len(self.data)


def _check_meta(m: MetaRecord) -> None:
    if len(m.h) != DIGEST_LEN:
        raise EncodingError("digest length must be 32")
    if len(set(m.d)) != len(m.d) or m.s in m.d:
        raise EncodingError("dependency list malformed")


def _enc_ts(ts: TimestampRecord) -> bytes:
    if ts.v < 1 or ts.t < 0:
        raise EncodingError(f"bad timestamp record {ts}")
    return _TS.pack(ts.t, ts.v)


def _dec_ts(r: _Reader) -> TimestampRecord:
    return TimestampRecord(r.u64(), r.u64())


def _enc_meta(m: MetaRecord) -> bytes:
    _check_meta(m)
    out = _blob(m.h) + _s(m.e) + _s(m.s) + _count(len(m.d))
    for dep in m.d:
        out += _s(dep)
    return out


def _dec_meta(r: _Reader) -> MetaRecord:
    h = r.blob()
    e = r.s()
    s = r.s()
    d = tuple(r.s() for _ in range(r.u32()))
    return MetaRecord(h, e, s, d)


def _enc_sig(entry: SignatureEntry) -> bytes:
    signer = entry.signer_id.encode("utf-8")
    sig = entry.sig
    return _U32.pack(len(signer)) + signer + _U32.pack(len(sig)) + sig


def _sig_size(entry: SignatureEntry) -> int:
    """`len(_enc_sig(entry))`.  An entry whose bytes are not computed yet
    (`crypto.sign`) is counted at its scheme's signature length, so the
    count computes no signature."""
    pending = entry._pending
    if pending is None:
        sig_len = len(entry.sig)
    else:
        sig_len = PROVIDERS[pending[0].scheme].sig_len
    return 8 + len(entry.signer_id.encode("utf-8")) + sig_len


def _dec_sig(r: _Reader) -> SignatureEntry:
    return SignatureEntry(r.s(), r.blob())


def _enc_sigma(sigma: tuple) -> bytes:
    out = _count(len(sigma))
    for entry in sigma:
        out += _enc_sig(entry)
    return out


def _sigma_size(sigma: tuple) -> int:
    size = 4
    for entry in sigma:
        size += _sig_size(entry)
    return size


def _dec_sigma(r: _Reader) -> tuple:
    return tuple(_dec_sig(r) for _ in range(r.u32()))


def _entry_bytes(entry: StatusEntry) -> bytes:
    """The canonical bytes of a status entry, encoded on first use and kept
    on the entry, so each report or reply that carries it joins them."""
    if entry._bytes is None:
        out = _s(entry.ecu) + _s(entry.software) + _enc_ts(entry.tau)
        if entry.sig is None:
            out += b"\x00"
        else:
            out += b"\x01" + _enc_sig(entry.sig)
        object.__setattr__(entry, "_bytes", out)
    return entry._bytes


def signed_region(msg) -> bytes:
    """Canonical bytes of the signature-covered part of a message.

    Signed messages are frozen, so the region of a manifest, bundle or status
    report is encoded on first use and kept on the instance.  Appending a
    signature, grant or endorsement (`sign_message`, `grant_bundle`,
    `endorse_for_ecu`) leaves the region as it was, so the new instance
    shares these very bytes; a `replace` of any region field gives an
    instance that encodes afresh.
    """
    if msg._region is None:
        object.__setattr__(msg, "_region", msg._encode_region())
    return msg._region


def canonical_encode(msg) -> bytes:
    """Full wire encoding: the signed region followed by the sections.
    It is encoded on first use and kept beside the region; an instance that
    appends a signature, grant or endorsement (`replace_outside_region`)
    encodes its own."""
    if msg._wire is None:
        object.__setattr__(msg, "_wire", signed_region(msg) + msg._sections())
    return msg._wire


def decode_message(data: bytes):
    r = _Reader(data)
    msg = _decode(r)
    if not r.done():
        raise EncodingError("trailing bytes")
    return msg


def _decode(r: _Reader):
    tag = r.byte()
    if tag == TAG_MANIFEST:
        l = r.s()
        theta = _dec_meta(r)
        tau = _dec_ts(r)
        sigma = _dec_sigma(r)
        return UpdateManifest(l, theta, tau, sigma)
    if tag == TAG_BUNDLE:
        manifests = []
        for _ in range(r.u32()):
            manifests.append(decode_message(r.blob()))
        tau = _dec_ts(r)
        sigma = _dec_sigma(r)
        grants = tuple(Grant(r.s(), _dec_sig(r)) for _ in range(r.u32()))
        ecu_sigs = tuple((r.s(), _dec_sig(r)) for _ in range(r.u32()))
        return Bundle(tuple(manifests), tau, sigma, grants, ecu_sigs)
    if tag == TAG_STATUS:
        variant = r.byte()
        if variant == 1:
            rep = r.blob()
        else:
            entries = []
            for _ in range(r.u32()):
                ecu = r.s()
                software = r.s()
                tau_e = _dec_ts(r)
                sig = _dec_sig(r) if r.byte() else None
                entries.append(StatusEntry(ecu, software, tau_e, sig))
            rep = tuple(entries)
        tau = _dec_ts(r)
        nonce = r.blob()
        bundles = tuple(decode_message(r.blob()) for _ in range(r.u32()))
        sigma = _dec_sigma(r)
        return StatusReport(rep, tau, nonce, sigma, bundles)
    raise EncodingError(f"unknown tag {tag:#x}")


def payload_digest(msg) -> bytes:
    """The digest of `signed_region(msg)`.  A manifest, bundle or status
    report keeps it beside its region, hashed on first use, and hands both
    on to each instance that appends a signature, grant or endorsement to
    it (`replace_outside_region`); a `replace` of a region field gives an
    instance that keeps neither."""
    if msg._payload_digest is None:
        object.__setattr__(msg, "_payload_digest", digest(signed_region(msg)))
    return msg._payload_digest


def wire_size(msg) -> int:
    """`len(canonical_encode(msg))`: the length of the kept wire bytes of a
    message that was encoded (embedded in a region), else counted from the
    kept region and the sizes of the sections, which encodes no section
    and reads no signature bytes (`_sig_size`)."""
    if msg._wire is not None:
        return len(msg._wire)
    return len(msg._region or signed_region(msg)) + msg._sections_size()


# ---------------------------------------------------------------------------
# Signing helpers
# ---------------------------------------------------------------------------

# The fields of a signed message that lie outside its signed region.
_OUTSIDE_REGION = frozenset(("sigma", "grants", "ecu_sigs"))


def replace_outside_region(msg, **outside):
    """`msg` with some of `sigma`, `grants` and `ecu_sigs` replaced.

    Those fields lie outside the signed region, as TUF and Uptane keep
    signatures outside the "signed" part of their metadata, so the new
    instance shares `msg`'s region bytes, payload digest and, for a bundle,
    its kept grant and endorsement digests.  Any other field raises
    ValueError: changing it would change the region.  The copy skips
    `__init__`, which validates nothing: its dict is `msg`'s plus the
    replaced fields and the kept digest, without `msg`'s wire bytes, whose
    sections differ."""
    if not _OUTSIDE_REGION.issuperset(outside):
        raise ValueError(f"not outside the signed region: {sorted(outside)}")
    # A kept digest implies a kept region; computing one keeps both.
    region_digest = msg._payload_digest or payload_digest(msg)
    copy = object.__new__(type(msg))
    copy.__dict__.update(msg.__dict__, _payload_digest=region_digest,
                         _wire=None, **outside)
    return copy


def sign_message(msg, key: KeyPair):
    """Append the signer's entry; prior entries are never removed."""
    entry = sign(payload_digest(msg), key)
    return replace_outside_region(msg, sigma=msg.sigma + (entry,))


def _subject_digest(bundle: Bundle, tag: bytes, subject: str) -> bytes:
    """The digest of the bundle region bound to `subject` under `tag`,
    hashed on first use and kept beside the region."""
    bound = tag + subject.encode()
    kept = bundle._subject_digests.get(bound)
    if kept is None:
        kept = bundle._subject_digests[bound] = digest(
            signed_region(bundle) + bound)
    return kept


def _grant_digest(bundle: Bundle, subject: str) -> bytes:
    return _subject_digest(bundle, b"\x00sub", subject)


def grant_bundle(bundle: Bundle, subject: str, key: KeyPair) -> Bundle:
    """Append a download grant for `subject`, signed by `key`."""
    entry = sign(_grant_digest(bundle, subject), key)
    return replace_outside_region(
        bundle, grants=bundle.grants + (Grant(subject, entry),))


def _ecu_digest(bundle: Bundle, ecu: str) -> bytes:
    return _subject_digest(bundle, b"\x00ecu", ecu)


def endorse_for_ecu(bundle: Bundle, ecu: str, key: KeyPair) -> Bundle:
    entry = sign(_ecu_digest(bundle, ecu), key)
    return replace_outside_region(
        bundle, ecu_sigs=bundle.ecu_sigs + ((ecu, entry),))


def status_entry_digest(entry: StatusEntry) -> bytes:
    """The digest an entry's signature covers, hashed on first use and kept
    on the entry, and handed on to the entry that `sign_status_entry`
    gives."""
    if entry._digest is None:
        object.__setattr__(entry, "_digest", digest(
            b"\x00tau" + _s(entry.ecu) + _s(entry.software)
            + _enc_ts(entry.tau)))
    return entry._digest


def sign_status_entry(entry: StatusEntry, key: KeyPair) -> StatusEntry:
    entry_digest = status_entry_digest(entry)
    signed = StatusEntry(entry.ecu, entry.software, entry.tau,
                         sign(entry_digest, key))
    object.__setattr__(signed, "_digest", entry_digest)
    return signed


# ---------------------------------------------------------------------------
# Trust context
# ---------------------------------------------------------------------------

class TrustContext:
    """What every actor of one world trusts: the registered keys, the
    producers, and the current revocation list.

    One context is shared by all actors of a world, so a revocation reaches
    every verifier at once.  Each rule below is the only copy of itself;
    freshness and no-regress checks stay with the actor that holds the state
    they compare against.
    """

    def __init__(self, registry: KeyRegistry, producer_ids):
        self.registry = registry
        self.producer_ids = frozenset(producer_ids)
        self.crl = RevocationList()

    def revoke(self, signer_id: str) -> None:
        self.crl = revoke(self.crl, signer_id)

    def signed_by(self, sigma, required, payload_digest_: bytes) -> bool:
        """True iff every required signer has a verifying, non-revoked entry
        in `sigma` over `payload_digest_`."""
        for signer_id in required:
            for e in sigma:
                if e.signer_id == signer_id and verify(
                        payload_digest_, e, self.registry, self.crl):
                    break
            else:
                return False
        return True

    def verify_manifest(self, mu: UpdateManifest,
                        roles=MANIFEST_ROLES) -> bool:
        """At least one producer signed `mu`, and every producer signer and
        every one of `roles` has a verifying entry."""
        producers = {e.signer_id for e in mu.sigma} & self.producer_ids
        return bool(producers) and self.signed_by(
            mu.sigma, producers.union(roles), payload_digest(mu))

    def granted(self, bundle: Bundle, requester: str) -> bool:
        """True iff a grant chain rooted at the publish role reaches
        `requester`.

        Each link must verify over the bundle region bound to its subject,
        and each non-root link must be signed by the previous subject's key.
        """
        expected_signer = ROLE_IDS["publish"]
        for g in bundle.grants:
            if not self.signed_by((g.entry,), (expected_signer,),
                                  _grant_digest(bundle, g.subject)):
                return False
            if g.subject == requester:
                return True
            expected_signer = g.subject
        return False

    def verify_bundle(self, bundle: Bundle, requester: str) -> bool:
        """Granted to `requester` and signed by the snapshot role."""
        return self.granted(bundle, requester) and self.signed_by(
            bundle.sigma, (ROLE_IDS["snapshot"],), payload_digest(bundle))

    def endorsed(self, bundle: Bundle, ecu: str) -> bool:
        """The targets role endorsed `bundle` for `ecu`."""
        entries = [entry for tagged, entry in bundle.ecu_sigs if tagged == ecu]
        return self.signed_by(entries, (ROLE_IDS["targets"],),
                              _ecu_digest(bundle, ecu))


# ---------------------------------------------------------------------------
# Freshness rules
# ---------------------------------------------------------------------------

def assert_fresh(new: TimestampRecord, last: TimestampRecord) -> bool:
    """Strictly newer in both time and version (publishing-side rule)."""
    return new.t > last.t and new.v > last.v


def assert_status_fresh_at_sud(new: TimestampRecord,
                               last: TimestampRecord) -> bool:
    """Director-side status freshness: the vehicle must never claim a status
    version newer than the director's own."""
    return new.t > last.t and new.v <= last.v


def assert_status_fresh_at_primary(new: TimestampRecord,
                                   last: TimestampRecord) -> bool:
    """Vehicle-side reply freshness; version gaps are tolerated."""
    return new.t > last.t and new.v >= last.v


# ---------------------------------------------------------------------------
# Bucketed downloads
# ---------------------------------------------------------------------------

def split_buckets(data, bucket_size: int,
                  data_digest: Optional[bytes] = None):
    """Fixed-size chunks with per-bucket digests; concatenation is identity.

    `data` is an image's byte source (see `UpdateImage`).  Each chunk is a
    lazy `Chunk` view of it, which holds no bytes, so an image's bytes are
    made only where something reads them.  Receivers keep these very chunk
    objects.  No chunk is hashed here: each bucket's digest is a lazy
    `ChunkDigest` of its chunk, and all of them share the split's (chunks,
    `data_digest`) pair, so a receiver accepts the sender's own chunk by
    identity (`Received.add`) and the sender's whole image by that digest
    (`image_digest`).  `data_digest` is the digest of `data` when `data` is
    immutable, and None otherwise or when unknown.  A chunk the adversary
    changes is a new object, so it is hashed and compared with the value
    its genuine bucket hashes.  The split refers to the source, never to
    the image holding it.  Chunks and digests are built in C (`map`, `zip`),
    with no interpreted step per chunk.
    """
    if bucket_size < 1:
        raise ValueError("bucket_size must be >= 1")
    size = len(data)
    starts = range(0, max(size, 1), bucket_size)
    chunks = tuple(map(Chunk, zip(repeat(data), starts,
                                  chain(starts[1:], (size,)))))
    split = (chunks, data_digest)
    return list(zip(range(len(chunks)), chunks,
                    map(ChunkDigest, zip(chunks, repeat(split)))))


class Chunk(tuple):
    """Bytes `start` to `stop` of a byte source, as a (source, start, stop)
    triple, made only when read: `bytes(chunk)` slices the source, and
    `len(chunk)` is the count of those bytes.

    One type serves virtual and `bytes` sources alike.  It is a tuple only
    so that a split builds its chunks in C; `bucket_bytes` reads the bounds
    in C too, since `len` would call `__len__` once per chunk."""

    __slots__ = ()
    source = property(operator.itemgetter(0))
    start = property(operator.itemgetter(1))
    stop = property(operator.itemgetter(2))

    def __bytes__(self) -> bytes:
        source, start, stop = self
        return source[start:stop]

    def __len__(self) -> int:
        return self.stop - self.start


class ChunkDigest(tuple):
    """The digest of one split chunk, as a (chunk, split) pair: the chunk,
    and the (chunks, digest of their concatenation) pair of the split it
    came from.  The value is hashed on first use and kept.

    It equals itself without hashing, so a receiver's check of a sender's
    own bucket costs nothing.  Compared with `bytes` or with another
    `ChunkDigest`, it compares `value`, which makes the chunk's bytes and
    hashes them once.  `bytes()` gives that value.  Like `Chunk`, it is a
    tuple only so that a split builds it in C.
    """

    chunk = property(operator.itemgetter(0))
    split = property(operator.itemgetter(1))
    _value: Optional[bytes] = None

    @property
    def value(self) -> bytes:
        if self._value is None:
            self._value = digest(bytes(self.chunk))
        return self._value

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, ChunkDigest):
            return self.value == other.value
        if isinstance(other, bytes):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bytes__(self):
        return self.value


_chunk_of = operator.itemgetter(1)  # the chunk of a bucket
_start_of = operator.itemgetter(1)  # the start of a chunk
_stop_of = operator.itemgetter(2)   # the stop of a chunk


def bucket_bytes(buckets) -> int:
    """The chunk bytes of (index, chunk, chunk digest) `buckets`, whose
    chunks are a sender's `Chunk`s, summed in C from their bounds, with no
    interpreted step per bucket."""
    return (sum(map(_stop_of, map(_chunk_of, buckets)))
            - sum(map(_start_of, map(_chunk_of, buckets))))


def joined_bytes(buckets) -> bytes:
    """The concatenated bytes of the chunks of (index, chunk, digest)
    `buckets`, made here."""
    return b"".join(map(bytes, map(_chunk_of, buckets)))


def image_digest(buckets) -> bytes:
    """The digest of the concatenated chunks of (index, chunk, digest)
    `buckets`: the split's digest, unhashed, when the chunks are in order
    every chunk of one split (by identity: `==` would compare their
    bounds), else computed over their joined bytes."""
    if buckets and type(buckets[0][2]) is ChunkDigest:
        chunks, data_digest = buckets[0][2].split
        if data_digest is not None and len(chunks) == len(buckets) \
                and all(map(operator.is_, chunks, map(_chunk_of, buckets))):
            return data_digest
    return digest(joined_bytes(buckets))


@dataclass(frozen=True, slots=True)
class Complete:
    """A verified download, as `assemble_buckets` returns it: its in-order
    buckets, which are the sender's chunk objects (read-only views, never a
    joined copy), and the digest of their concatenation."""

    buckets: tuple         # (index, chunk, chunk digest), in index order
    data_digest: bytes


class Received:
    """The verified buckets of one download, by bucket index.

    A download (`simnet.Actor.fetch_image`) adds each reply's buckets, and
    checks each chunk against its digest: a sender's own split chunk
    matches its own bucket's digest by identity, with no hashing; any other
    chunk has its bytes made and hashed, and so has the genuine chunk
    behind the digest it claims (once, on that bucket's `ChunkDigest`).  A
    bucket whose chunk does not match its digest is not kept, and a later
    bucket for an index replaces the earlier one.  A kept bucket is the
    sender's own (index, chunk, digest) tuple, so its chunk stays a view of
    the sender's image source, and no bytes are made for it.  The download
    then calls `assemble_buckets`, which sets `complete` once the image
    completes, and empties `buckets` when all are present but wrong.
    """

    __slots__ = ("buckets", "complete")

    def __init__(self):
        self.buckets: dict = {}   # index -> (index, chunk, chunk digest)
        self.complete = False

    def add(self, buckets) -> list:
        """Keep every (index, chunk, chunk digest) bucket whose chunk matches
        its digest; return the indexes of those that do not."""
        bad = []
        for bucket in buckets:
            index, chunk, chunk_digest = bucket
            if (type(chunk_digest) is ChunkDigest
                    and chunk_digest.chunk is chunk) \
                    or digest(bytes(chunk)) == chunk_digest:
                self.buckets[index] = bucket
            else:
                bad.append(index)
        return bad

    def next_missing(self) -> int:
        i = 0
        while i in self.buckets:
            i += 1
        return i


def assemble_buckets(received: Received, mu: UpdateManifest,
                     total: int) -> Optional[Complete]:
    """Check that the in-order buckets of `received`, whose chunks were
    verified on arrival, make up the image of `mu`, of `total` buckets.

    Returns Complete, holding the verified buckets themselves, and marks
    `received` complete once every bucket is present and the full-package
    digest matches the manifest.  For a sender's whole split that digest is
    the split's own (`image_digest`), and the chunks are never joined; any
    other set of chunks is joined and hashed.  Otherwise returns None: with
    a bucket missing, the download resumes at `received.next_missing()`;
    with all present but the digest wrong, `received` is emptied, and the
    download restarts at bucket 0.
    """
    next_missing = received.next_missing()
    if next_missing < total:
        return None
    buckets = tuple(received.buckets[i] for i in range(next_missing))
    data_digest = image_digest(buckets)
    if data_digest != mu.theta.h:
        received.buckets = {}
        return None
    received.complete = True
    return Complete(buckets, data_digest)
