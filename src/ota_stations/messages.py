"""Protocol message algebra: metadata records, manifests, bundles, status
reports, update images, canonical byte encoding, the trust context every
actor verifies signatures through, and freshness rules.

Canonical encoding rules: fields in declaration order, integers as 8-byte
big-endian, strings UTF-8 with 4-byte big-endian length prefix, byte strings
with 4-byte length prefix, lists as 4-byte count then elements.  Signature
entries, download grants, and per-ECU endorsements are appended AFTER the
signed region, so adding them never changes the digest other parties verify.
"""
from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Optional, Union

from .crypto import (DIGEST_LEN, KeyPair, KeyRegistry, RevocationList,
                     SignatureEntry, digest, revoke, sign, verify)

NONCE_LEN = 16
DEFAULT_BUCKET_SIZE = 1 << 20
MIN_LEN = 11               # a VIN's leading model id (MIN) characters

ROLE_NAMES = ("targets", "snapshot", "timestamp", "root", "publish")
# The director's role signer ids, by role name.
ROLE_IDS = {role: f"sud.{role}" for role in ROLE_NAMES}
# Role signatures every installable manifest carries besides a producer's.
MANIFEST_ROLES = frozenset(ROLE_IDS[r] for r in ("targets", "timestamp",
                                                 "root"))

TAG_TS = 0x01
TAG_META = 0x02
TAG_MANIFEST = 0x03
TAG_BUNDLE = 0x04
TAG_STATUS = 0x05


class EncodingError(Exception):
    pass


class IntegrityError(Exception):
    pass


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimestampRecord:
    t: int  # milliseconds since simulation epoch
    v: int  # version counter, >= 1


@dataclass(frozen=True)
class MetaRecord:
    h: bytes               # digest of the update image
    e: str                 # target ECU
    s: str                 # software id
    d: tuple = ()          # ordered dependency list, software ids


@dataclass(frozen=True)
class UpdateManifest:
    l: str                 # location URI: "<repo_id>/<path>"
    theta: MetaRecord
    tau: TimestampRecord
    sigma: tuple = ()      # SignatureEntry list, append-only
    _region: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)
    _payload_digest: Optional[bytes] = field(default=None, init=False,
                                             repr=False, compare=False)


@dataclass(frozen=True)
class Grant:
    """Download-eligibility link: `entry` signs the bundle region bound to
    `subject`.  The first grant is signed by the publish role; later grants
    chain from the previous subject (the engine vouching for a station)."""

    subject: str
    entry: SignatureEntry


@dataclass(frozen=True)
class Bundle:
    manifests: tuple       # UpdateManifest, ordered, pairwise distinct (s, v)
    tau: TimestampRecord
    sigma: tuple = ()
    grants: tuple = ()     # Grant chain, outside the signed region
    ecu_sigs: tuple = ()   # (ecu_id, SignatureEntry), outside the signed region
    _region: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)
    _payload_digest: Optional[bytes] = field(default=None, init=False,
                                             repr=False, compare=False)


@dataclass(frozen=True)
class StatusEntry:
    ecu: str
    software: str
    tau: TimestampRecord
    sig: Optional[SignatureEntry] = None  # present when secondaries are untrusted


@dataclass(frozen=True)
class StatusReport:
    r: Union[tuple, bytes]  # tuple of StatusEntry, or digest of a prior full R
    tau: TimestampRecord
    nonce: bytes            # 16 bytes, unique per message per sender
    sigma: tuple = ()
    bundles: tuple = ()     # present only in director replies
    _region: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)
    _payload_digest: Optional[bytes] = field(default=None, init=False,
                                             repr=False, compare=False)


# The messages that keep their signed region and its digest once computed.
_SIGNED = (UpdateManifest, Bundle, StatusReport)


@dataclass(frozen=True)
class UpdateImage:
    s: str
    data: bytes
    bucket_size: int = DEFAULT_BUCKET_SIZE
    _buckets: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def data_digest(self) -> bytes:
        """The digest of `data`, hashed on first use.  It is kept only when
        `data` is immutable `bytes`; any other buffer is hashed on every
        call.  `replace` gives a new instance, which hashes its own bytes.

        `build_scenario` calls this for an image of at least 1 MiB on its
        one helper thread, right after generating the image, and joins that
        thread before it reads the digest for the manifest.  Either thread
        hashes through this module's `digest` binding, so a traced or
        counted `digest` sees every image hash, and a read that finds no
        kept digest hashes the bytes itself."""
        if self._digest is not None:
            return self._digest
        data_digest = digest(self.data)
        if type(self.data) is bytes:
            object.__setattr__(self, "_digest", data_digest)
        return data_digest

    def buckets(self) -> tuple:
        """The image's (index, chunk, chunk digest) buckets, split on first
        use and shared by every later caller.  The chunks are read-only
        views of `data` and their digests are lazy (see `split_buckets`).
        When `data_digest` was computed before the split (the build computes
        it for the manifest), the split carries it as the digest of its
        whole image.  So no receiver hashes a genuine chunk or the image;
        a bucket digest is computed only to check a foreign chunk."""
        if self._buckets is None:
            object.__setattr__(self, "_buckets", tuple(split_buckets(
                self.data, self.bucket_size, self._digest)))
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
    return (_U32.pack(len(signer)) + signer + _U32.pack(len(entry.sig))
            + entry.sig)


def _dec_sig(r: _Reader) -> SignatureEntry:
    return SignatureEntry(r.s(), r.blob())


def _enc_sigma(sigma: tuple) -> bytes:
    out = _count(len(sigma))
    for entry in sigma:
        out += _enc_sig(entry)
    return out


def _dec_sigma(r: _Reader) -> tuple:
    return tuple(_dec_sig(r) for _ in range(r.u32()))


def signed_region(msg) -> bytes:
    """Canonical bytes of the signature-covered part of a message.

    Signed messages are frozen, so the region of a manifest, bundle or status
    report is encoded on first use and kept on the instance.  Appending a
    signature, grant or endorsement (`sign_message`, `grant_bundle`,
    `endorse_for_ecu`) leaves the region as it was, so the new instance
    shares these very bytes; a `replace` of any region field gives an
    instance that encodes afresh.
    """
    if isinstance(msg, _SIGNED):
        if msg._region is None:
            object.__setattr__(msg, "_region", _encode_region(msg))
        return msg._region
    return _encode_region(msg)


def _encode_region(msg) -> bytes:
    if isinstance(msg, TimestampRecord):
        return bytes([TAG_TS]) + _enc_ts(msg)
    if isinstance(msg, MetaRecord):
        return bytes([TAG_META]) + _enc_meta(msg)
    if isinstance(msg, UpdateManifest):
        return (bytes([TAG_MANIFEST]) + _s(msg.l) + _enc_meta(msg.theta)
                + _enc_ts(msg.tau))
    if isinstance(msg, Bundle):
        if not msg.manifests:
            raise EncodingError("bundle must enclose at least one manifest")
        keys = [(m.theta.s, m.tau.v) for m in msg.manifests]
        if len(set(keys)) != len(keys):
            raise EncodingError("bundle manifests not distinct by (s, v)")
        out = bytes([TAG_BUNDLE]) + _count(len(msg.manifests))
        for m in msg.manifests:
            body = signed_region(m) + _enc_sigma(m.sigma)
            out += _blob(body)
        return out + _enc_ts(msg.tau)
    if isinstance(msg, StatusReport):
        if len(msg.nonce) != NONCE_LEN:
            raise EncodingError("nonce must be 16 bytes")
        out = bytes([TAG_STATUS])
        if isinstance(msg.r, bytes):
            out += b"\x01" + _blob(msg.r)
        else:
            out += b"\x00" + _count(len(msg.r))
            for entry in msg.r:
                out += _s(entry.ecu) + _s(entry.software) + _enc_ts(entry.tau)
                if entry.sig is None:
                    out += b"\x00"
                else:
                    out += b"\x01" + _enc_sig(entry.sig)
        out += _enc_ts(msg.tau) + _blob(msg.nonce)
        out += _count(len(msg.bundles))
        for b in msg.bundles:
            out += _blob(canonical_encode(b))
        return out
    raise EncodingError(f"unencodable message {type(msg).__name__}")


def _enc_sections(msg) -> bytes:
    """The sections of a manifest, bundle or status report that follow its
    signed region: its signatures, then a bundle's grants and endorsements."""
    out = _enc_sigma(msg.sigma)
    if isinstance(msg, Bundle):
        out += _count(len(msg.grants))
        for g in msg.grants:
            out += _s(g.subject) + _enc_sig(g.entry)
        out += _count(len(msg.ecu_sigs))
        for ecu, entry in msg.ecu_sigs:
            out += _s(ecu) + _enc_sig(entry)
    return out


def canonical_encode(msg) -> bytes:
    """Full wire encoding: signed region followed by the signature section."""
    region = signed_region(msg)
    if isinstance(msg, _SIGNED):
        return region + _enc_sections(msg)
    return region


def decode_message(data: bytes):
    r = _Reader(data)
    msg = _decode(r)
    if not r.done():
        raise EncodingError("trailing bytes")
    return msg


def _decode(r: _Reader):
    tag = r.byte()
    if tag == TAG_TS:
        return _dec_ts(r)
    if tag == TAG_META:
        return _dec_meta(r)
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
    if isinstance(msg, _SIGNED):
        if msg._payload_digest is None:
            object.__setattr__(msg, "_payload_digest",
                               digest(signed_region(msg)))
        return msg._payload_digest
    return digest(signed_region(msg))


def wire_size(msg) -> int:
    """`len(canonical_encode(msg))`.  A manifest, bundle or status report
    adds its encoded sections' length to its kept region's, so its region
    is not copied into a new encoding; others are encoded."""
    if isinstance(msg, _SIGNED):
        return len(signed_region(msg)) + len(_enc_sections(msg))
    return len(canonical_encode(msg))


# ---------------------------------------------------------------------------
# Signing helpers
# ---------------------------------------------------------------------------

# The fields of a signed message that lie outside its signed region.
_OUTSIDE_REGION = frozenset(("sigma", "grants", "ecu_sigs"))


def replace_outside_region(msg, **outside):
    """`msg` with some of `sigma`, `grants` and `ecu_sigs` replaced.

    Those fields lie outside the signed region, as TUF and Uptane keep
    signatures outside the "signed" part of their metadata, so the new
    instance shares `msg`'s region bytes and payload digest.  Any other
    field raises ValueError: changing it would change the region.  The copy
    skips `__init__`, which validates nothing: its dict is `msg`'s plus the
    replaced fields and the kept digest, as `dataclasses.replace` would give
    with the memo."""
    if not _OUTSIDE_REGION.issuperset(outside):
        raise ValueError(f"not outside the signed region: {sorted(outside)}")
    # A kept digest implies a kept region; computing one keeps both.
    region_digest = msg._payload_digest or payload_digest(msg)
    copy = object.__new__(type(msg))
    copy.__dict__.update(msg.__dict__, _payload_digest=region_digest,
                         **outside)
    return copy


def sign_message(msg, key: KeyPair):
    """Append the signer's entry; prior entries are never removed."""
    entry = sign(payload_digest(msg), key)
    return replace_outside_region(msg, sigma=msg.sigma + (entry,))


def _grant_digest(bundle: Bundle, subject: str) -> bytes:
    return digest(signed_region(bundle) + b"\x00sub" + subject.encode())


def grant_bundle(bundle: Bundle, subject: str, key: KeyPair) -> Bundle:
    """Append a download grant for `subject`, signed by `key`."""
    entry = sign(_grant_digest(bundle, subject), key)
    return replace_outside_region(
        bundle, grants=bundle.grants + (Grant(subject, entry),))


def _ecu_digest(bundle: Bundle, ecu: str) -> bytes:
    return digest(signed_region(bundle) + b"\x00ecu" + ecu.encode())


def endorse_for_ecu(bundle: Bundle, ecu: str, key: KeyPair) -> Bundle:
    entry = sign(_ecu_digest(bundle, ecu), key)
    return replace_outside_region(
        bundle, ecu_sigs=bundle.ecu_sigs + ((ecu, entry),))


def status_entry_digest(entry: StatusEntry) -> bytes:
    return digest(b"\x00tau" + _s(entry.ecu) + _s(entry.software)
                  + _enc_ts(entry.tau))


def sign_status_entry(entry: StatusEntry, key: KeyPair) -> StatusEntry:
    return StatusEntry(entry.ecu, entry.software, entry.tau,
                       sign(status_entry_digest(entry), key))


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

def split_buckets(data: bytes, bucket_size: int,
                  data_digest: Optional[bytes] = None):
    """Fixed-size chunks with per-bucket digests; concatenation is identity.

    Each chunk is a read-only `memoryview` slice of `data`, not a copy, and
    the image's immutable `bytes` is the view's `.obj`.  Receivers keep
    these very chunk objects, so an image's bytes exist once per world:
    every holder refers to the buffer the producer generated.  No chunk is
    hashed here: each bucket's digest is a lazy `ChunkDigest` of its chunk,
    and all of them share the split's (chunks, `data_digest`) pair, so a
    receiver accepts the sender's own chunk by identity (`Received.add`)
    and the sender's whole image by that digest (`image_digest`).
    `data_digest` is the digest of `data` when `data` is immutable `bytes`,
    and None otherwise or when unknown.  A chunk the adversary changes is a new object, so it is
    hashed and compared with the value its genuine bucket hashes.  The
    split refers to the bytes, never to the image holding them.
    """
    if bucket_size < 1:
        raise ValueError("bucket_size must be >= 1")
    view = memoryview(data).toreadonly()
    chunks = tuple(view[i:i + bucket_size]
                   for i in range(0, max(len(data), 1), bucket_size))
    split = (chunks, data_digest)
    return [(i, chunk, ChunkDigest(chunk, split))
            for i, chunk in enumerate(chunks)]


class ChunkDigest:
    """The digest of one split chunk, hashed on first use and kept, and the
    (chunks, digest of their concatenation) pair of the split it came from.

    It equals itself without hashing, so a receiver's check of a sender's
    own bucket costs nothing.  Compared with `bytes` or with another
    `ChunkDigest`, it compares `value`, which hashes the chunk once.
    `bytes()` gives that value.
    """

    __slots__ = ("chunk", "split", "_value")

    def __init__(self, chunk, split: tuple = ((), None)):
        self.chunk = chunk
        self.split = split
        self._value: Optional[bytes] = None

    @property
    def value(self) -> bytes:
        if self._value is None:
            self._value = digest(self.chunk)
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


def image_digest(buckets) -> bytes:
    """The digest of the concatenated chunks of (index, chunk, digest)
    `buckets`: the split's digest, unhashed, when the chunks are in order
    every chunk of one split (by identity: `==` would compare a view's
    contents), else computed while the chunks are joined."""
    if buckets and isinstance(buckets[0][2], ChunkDigest):
        chunks, data_digest = buckets[0][2].split
        if data_digest is not None and len(chunks) == len(buckets) \
                and all(map(operator.is_, chunks,
                            (chunk for _, chunk, _ in buckets))):
            return data_digest
    return digest(b"".join(chunk for _, chunk, _ in buckets))


@dataclass(frozen=True)
class Complete:
    """A verified download: its in-order buckets, which are the sender's
    chunk objects (read-only views, never a joined copy), and the digest of
    their concatenation."""

    buckets: tuple         # (index, chunk, chunk digest), in index order
    data_digest: bytes


@dataclass(frozen=True)
class Resume:
    next_index: int


class Received:
    """The verified buckets of one download, by bucket index.

    Each chunk is checked against its digest when it arrives: a sender's
    own split chunk matches its own bucket's digest by identity, with no
    hashing; any other chunk is hashed, and so is the genuine chunk behind
    the digest it claims (once, on that bucket's `ChunkDigest`).  A bucket
    whose chunk does not match its digest is not kept, and a later bucket
    for an index replaces the earlier one.  A kept bucket is the sender's own (index, chunk, digest)
    tuple, so its chunk stays a view of the sender's image.  `complete`
    turns true once `absorb` has produced a `Complete`.
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
            if (isinstance(chunk_digest, ChunkDigest)
                    and chunk_digest.chunk is chunk) \
                    or digest(chunk) == chunk_digest:
                self.buckets[index] = bucket
            else:
                bad.append(index)
        return bad

    def next_missing(self) -> int:
        i = 0
        while i in self.buckets:
            i += 1
        return i

    def absorb(self, mu: UpdateManifest, reply: dict):
        """Add the buckets of a fetch or serve `reply` and assemble.

        Returns Complete or Resume like `assemble_buckets`.  On an integrity
        failure every kept bucket is dropped and the download restarts at
        bucket 0.
        """
        self.add(reply["buckets"])
        try:
            result = assemble_buckets(self, mu, total=reply["total"])
        except IntegrityError:
            self.buckets = {}
            return Resume(0)
        if isinstance(result, Complete):
            self.complete = True
        return result


def assemble_buckets(buckets_received, mu: UpdateManifest,
                     total: Optional[int] = None):
    """Check that in-order buckets make up the image of `mu`.

    `buckets_received` is a `Received`, whose chunks were verified on
    arrival, or an iterable of (index, chunk, chunk digest) buckets, whose
    chunks are verified here.

    Returns Complete, holding the verified buckets themselves, once every
    bucket is present and the full-package digest matches the manifest.
    For a sender's whole split that digest is the split's own
    (`image_digest`), and the chunks are never joined; any other set of
    chunks is joined and hashed.  Otherwise returns Resume with the first
    missing index.  Raises IntegrityError when a listed chunk does not
    match its digest, or when all buckets are present but the full-package
    digest does not match (restart from bucket 0).
    """
    received = buckets_received
    if not isinstance(received, Received):
        received = Received()
        bad = received.add(buckets_received)
        if bad:
            raise IntegrityError(f"bucket {bad[0]} digest mismatch")
    next_missing = received.next_missing()
    if total is not None and next_missing < total:
        return Resume(next_missing)
    buckets = tuple(received.buckets[i] for i in range(next_missing))
    data_digest = image_digest(buckets)
    if data_digest == mu.theta.h:
        return Complete(buckets, data_digest)
    if total is not None:
        raise IntegrityError("full-package digest mismatch")
    return Resume(next_missing)
