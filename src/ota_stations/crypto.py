"""Signing and hashing providers, role key registry, and revocation list.

Every protocol message carries a list of (signer_id, signature) entries over
the digest of its canonically encoded payload.  Two providers are available:
a deterministic HMAC-based one for simulation/tests (signatures are
reproducible from the seed and verification uses the registered key material
directly, so it offers no real asymmetry) and an Ed25519 one backed by the
`cryptography` package for realistic key handling.  Simulation results must
not depend on which provider is plugged in.

`verify` is the one verification policy for both providers.  The revocation
check and the signer lookup run on every call.  Signing is memoised on each
`KeyPair`, keyed by the payload digest, and the `KeyRegistry` refers to
each registered pair's memo.  HMAC (RFC 2104) and Ed25519 (RFC 8032
section 5.1.6) are deterministic, and a pair without a private half, or
whose public half is not its private half's, refuses at `sign`, so a
signature equal to the one the registered pair issued over the same digest
is one the provider would accept, and it verifies as it is; the very entry
the pair issued verifies without its bytes being read.  So `sign` computes
no signature: the provider computes an entry's bytes when `sig` is first
read (`SignatureEntry`), and they are the bytes it would have given at
`sign`.  An entry that is only verified against its pair's memo, or sized
for the wire (`messages.wire_size`), is never computed.  Only a foreign
signature reaches the provider's `verify`, on every check; the registry
keeps no verdict.  Each key is
prepared once: a `KeyPair` keeps its signing state (`_signer`) and the
`KeyRegistry` keeps each registered key's verifying state (`_loaded`),
which for HMAC are the SHA-256 states of the key's inner and outer pads
(RFC 2104).  A signed message keeps its region bytes and payload digest
(`messages.payload_digest`); signatures, grants and endorsements lie
outside the region, so appending one gives an instance that shares both,
and each region is hashed once per world.  So is each grant and
endorsement digest of a bundle, per subject, and the digest of each status
entry, which the entry keeps.  An image's digest is kept on the image:
`messages.UpdateImage.data_digest`, which the build computes for the
manifest, and the image's split, which carries it
(`messages.split_buckets`).  A built image has no buffer: `digest`
streams its virtual source once, block by block, so each image is hashed
once per world; a sender's own chunk and whole image are recognised by
identity, and a bucket digest is computed only to check a foreign chunk.
`digest` itself keeps no state.  A failed check or a refused input is
never turned into a pass: a signature passes without the provider only
when it is the exact bytes its registered key issued, and an image digest
is kept only with the immutable source it was computed from.

Registries, key pairs and images each belong to one world, so every memo
lives and dies with it; none lives at module level.  Simulated time
charges nothing for computation, so the memos save host time only and
leave every output unchanged.
"""
from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Optional

DIGEST_LEN = 32
_BLOCK = 64                 # SHA-256 block size, bytes


def digest(data) -> bytes:
    """32-byte content digest used everywhere a hash appears on the wire.

    `data` is a buffer, hashed in one call, or an image's virtual byte
    source, which has no buffer and is hashed block by block as it yields
    its bytes (`scenario.ImageSource`), so its bytes are never whole."""
    try:
        return hashlib.sha256(data).digest()
    except TypeError:
        state = hashlib.sha256()
        for block in data:
            state.update(block)
        return state.digest()


@dataclass(frozen=True, slots=True)
class SignatureEntry:
    """A signer id and its signature bytes.

    An entry that `sign` issues holds its key pair and payload digest
    instead (`_pending`), and the provider computes `sig` when it is first
    read: the unset slot falls through to `__getattr__`, which fills it, so
    no later read makes a Python call.  Equality, hashing and repr read
    `sig`, so they compare, hash and show the bytes as for any entry.  A
    class with `__getattr__` gets no specialised attribute reads on
    CPython 3.11, so the hot paths read each field of an entry once."""

    signer_id: str
    sig: bytes
    # (key pair, payload digest) until `sig` is computed, else None
    _pending: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)

    def __getattr__(self, name):
        # Reached only for an unset slot: `sig` of an entry `sign` issued.
        pending = self._pending if name == "sig" else None
        if pending is None:
            raise AttributeError(name)
        key, payload_digest = pending
        sig = PROVIDERS[key.scheme].sign(payload_digest, key)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_pending", None)
        return sig


@dataclass(frozen=True)
class KeyPair:
    signer_id: str
    public_key: bytes
    private_key: bytes
    scheme: str = "hmac"
    # The provider's signing state (`prepare`): the HMAC pads, built at the
    # key's first `sign`, or the Ed25519 private-key object, kept by
    # `generate` (or built at the first `sign` of a pair made by hand).
    _signer: object = field(default=None, init=False, repr=False,
                            compare=False)
    # payload digest -> the SignatureEntry this key made over it
    _signed: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)


class CryptoError(Exception):
    pass


class HmacProvider:
    """Deterministic keyed-hash provider for simulation runs.

    Key material doubles as the "public" key, so anyone holding the registry
    could forge signatures; forgery in the simulator is modeled explicitly by
    the adversary instead.  Not for production use.

    A key's HMAC-SHA256 (RFC 2104) starts from its inner and outer SHA-256
    states, prepared once per key (`_hmac_pads`): on the `KeyPair` for
    signing, and by `KeyRegistry` for verifying (`load_public`).
    """

    scheme = "hmac"
    sig_len = 32

    def generate(self, signer_id: str, seed: bytes) -> KeyPair:
        secret = hashlib.sha256(b"key:" + seed + signer_id.encode()).digest()
        return KeyPair(signer_id, secret, secret, self.scheme)

    def load_public(self, public_key: bytes) -> tuple:
        return _hmac_pads(public_key)

    def prepare(self, key: KeyPair) -> None:
        """Keep `key`'s signing state; a pair whose public half is not its
        private half refuses."""
        if key.public_key != key.private_key:
            raise CryptoError(f"{key.signer_id}: public key is not its "
                              f"private key")
        object.__setattr__(key, "_signer", _hmac_pads(key.private_key))

    def sign(self, payload_digest: bytes, key: KeyPair) -> bytes:
        if key._signer is None:
            self.prepare(key)
        return _hmac(key._signer, payload_digest)

    def verify(self, payload_digest: bytes, public, sig: bytes) -> bool:
        """`public` is `load_public` of the registered key."""
        return hmac.compare_digest(_hmac(public, payload_digest), sig)


def _hmac_pads(key: bytes) -> tuple:
    """The SHA-256 states of `key`'s inner and outer pads (RFC 2104), as
    the `hmac` module's own fallback builds them."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return (hashlib.sha256(key.translate(hmac.trans_36)),
            hashlib.sha256(key.translate(hmac.trans_5C)))


def _hmac(pads: tuple, data: bytes) -> bytes:
    """HMAC-SHA256 of `data` from the prepared `pads` of its key."""
    inner, outer = pads
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class Ed25519Provider:
    """Asymmetric provider; private keys never leave the KeyPair.

    The `cryptography` package is imported only where a key object is
    built (`generate`, `load_public`, `prepare`), so signing and verifying
    run no import statement."""

    scheme = "ed25519"
    sig_len = 64

    def generate(self, signer_id: str, seed: bytes) -> KeyPair:
        from cryptography.hazmat.primitives.asymmetric import ed25519

        raw = hashlib.sha256(b"key:" + seed + signer_id.encode()).digest()
        priv = ed25519.Ed25519PrivateKey.from_private_bytes(raw)
        key = KeyPair(signer_id, priv.public_key().public_bytes_raw(), raw,
                      self.scheme)
        object.__setattr__(key, "_signer", priv)
        return key

    def load_public(self, public_key: bytes) -> tuple:
        """The public-key object and the exception its check raises."""
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric import ed25519

        return (ed25519.Ed25519PublicKey.from_public_bytes(public_key),
                InvalidSignature)

    def prepare(self, key: KeyPair) -> None:
        """Keep `key`'s private-key object; a pair whose public half is not
        its private half's refuses."""
        from cryptography.hazmat.primitives.asymmetric import ed25519

        priv = ed25519.Ed25519PrivateKey.from_private_bytes(key.private_key)
        if priv.public_key().public_bytes_raw() != key.public_key:
            raise CryptoError(f"{key.signer_id}: public key is not its "
                              f"private key's")
        object.__setattr__(key, "_signer", priv)

    def sign(self, payload_digest: bytes, key: KeyPair) -> bytes:
        if key._signer is None:
            self.prepare(key)
        return key._signer.sign(payload_digest)

    def verify(self, payload_digest: bytes, public, sig: bytes) -> bool:
        """`public` is `load_public` of the registered key."""
        public_key, invalid = public
        try:
            public_key.verify(sig, payload_digest)
            return True
        except invalid:
            return False


PROVIDERS = {"hmac": HmacProvider(), "ed25519": Ed25519Provider()}


def sign(payload_digest: bytes, key: KeyPair) -> SignatureEntry:
    """`key`'s entry over `payload_digest`, one per digest and key.

    A key without a private half, or whose halves do not match, refuses
    here.  The provider computes the entry's bytes when `sig` is first
    read; both schemes are deterministic, so they are the bytes it would
    give now, and an entry nobody reads costs no provider call."""
    if not key.private_key:
        raise CryptoError(f"no private key for {key.signer_id}")
    entry = key._signed.get(payload_digest)
    if entry is None:
        if key._signer is None:
            PROVIDERS[key.scheme].prepare(key)
        entry = key._signed[payload_digest] = object.__new__(SignatureEntry)
        object.__setattr__(entry, "signer_id", key.signer_id)
        object.__setattr__(entry, "_pending", (key, payload_digest))
    return entry


@dataclass(frozen=True)
class RevocationList:
    revoked: frozenset = frozenset()
    version: int = 0


def revoke(crl: RevocationList, signer_id: str) -> RevocationList:
    # Idempotent on the set; the version still advances so observers can
    # order CRL states.
    return RevocationList(crl.revoked | {signer_id}, crl.version + 1)


@dataclass
class KeyRegistry:
    """Public keys by signer id; private halves stay with the owning actor.

    A key is registered only by `add`, which also keeps a reference to the
    pair's signing memo, so `verify` recognises the signatures that pair
    issued.  The registry keeps nothing per signature: each of its
    containers holds one entry per registered key.
    """

    # signer_id -> (public_key, scheme)
    keys: dict = field(default_factory=dict, init=False)
    # signer_id -> the registered pair's `_signed` memo (payload digest ->
    # the SignatureEntry the pair issued over it)
    _issued: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # (public_key, scheme) -> the provider's `load_public` of that key
    _loaded: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def add(self, key: KeyPair) -> None:
        if key.signer_id in self.keys:
            raise CryptoError(f"duplicate signer_id {key.signer_id}")
        self.keys[key.signer_id] = (key.public_key, key.scheme)
        self._issued[key.signer_id] = key._signed


def verify(payload_digest: bytes, entry: SignatureEntry,
           registry: KeyRegistry, crl: RevocationList) -> bool:
    """True iff entry verifies under the registered key and is not revoked.

    Unknown signers verify false rather than raising.  Revocation and the
    signer lookup are checked on every call.  A signature the registered
    pair issued over `payload_digest` then verifies as it is; both schemes
    are deterministic and a pair signs only with its own public half, so
    the provider would give the same verdict.  Any other signature goes to
    the provider, on every call.
    """
    signer_id = entry.signer_id
    if signer_id in crl.revoked:
        return False
    rec = registry.keys.get(signer_id)
    if rec is None:
        return False
    own = registry._issued[signer_id].get(payload_digest)
    if own is not None and (own is entry or own.sig == entry.sig):
        return True
    provider = PROVIDERS[rec[1]]
    public = registry._loaded.get(rec)
    if public is None:
        public = registry._loaded[rec] = provider.load_public(rec[0])
    return provider.verify(payload_digest, public, entry.sig)
