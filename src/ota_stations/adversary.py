"""Scriptable attack injection on links: tampering, spoofing, replay,
rollback, freeze, drops, delays, partial bundles, bundle mixing, and key
compromise.

The adversary runs inline in the event loop as link middleware.  Its only
knowledge is its own tap of intercepted traffic plus any explicitly
compromised keys; adversary actions are events, never errors.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import messages as msg
from .crypto import KeyPair, sign
from .simnet import Envelope, World

ATTACK_KINDS = ("tamper", "spoof", "replay", "rollback", "freeze", "drop",
                "delay", "slow_retrieval", "partial_bundle", "mix_bundles")
# Rules that read the tap of earlier traffic; without one, nothing is kept.
HISTORY_KINDS = frozenset({"replay", "freeze", "rollback", "mix_bundles"})


class ScenarioError(Exception):
    pass


@dataclass
class AttackRule:
    kind: str
    message_kinds: Optional[frozenset] = None   # None matches every kind
    link_cls: Optional[frozenset] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    t_start: float = 0.0
    t_end: float = float("inf")
    delay_ms: float = 0.0

    def matches(self, world: World, env: Envelope) -> bool:
        if not (self.t_start <= world.now < self.t_end):
            return False
        if self.message_kinds is not None and env.kind not in self.message_kinds:
            return False
        if self.link_cls is not None and env.link.profile.cls not in self.link_cls:
            return False
        if self.src is not None and not env.src.startswith(self.src):
            return False
        if self.dst is not None and not env.dst.startswith(self.dst):
            return False
        return True


class Adversary:
    def __init__(self, rules=()):
        self.rules = list(rules)
        self.recorded: dict = {}       # message kind -> list of envelopes
        self._keeps_history = any(rule.kind in HISTORY_KINDS
                                  for rule in self.rules)
        self.compromised: dict = {}    # role label -> KeyPair
        self._compromised_servers: set = set()
        self.events: list = []         # (time, rule kind, message kind)

    # -- key compromise ----------------------------------------------------

    def compromise_key(self, label: str, key: KeyPair) -> KeyPair:
        """Copy a private key into the adversary's keyring.

        The director (SUD) and image repository may not both be compromised
        in one scenario.
        """
        server = None
        if label.startswith("sud"):
            server = "sud"
        elif label.startswith("repo"):
            server = "repo"
        if server is not None:
            other = {"sud": "repo", "repo": "sud"}[server]
            if other in self._compromised_servers:
                raise ScenarioError(
                    "cannot compromise the director and the image "
                    "repository in the same scenario")
            self._compromised_servers.add(server)
        self.compromised[label] = key
        return key

    def _forge_key(self) -> Optional[KeyPair]:
        if self.compromised:
            return next(iter(self.compromised.values()))
        return None

    # -- interception ------------------------------------------------------

    def intercept(self, world: World, env: Envelope):
        """Yield (action, value) pairs; the transport applies them in order."""
        if self._keeps_history:
            self.recorded.setdefault(env.kind, []).append(env)
        actions = []
        for rule in self.rules:
            if not rule.matches(world, env):
                continue
            act = self._apply(rule, env)
            if act is None:
                continue
            self.events.append((world.now, rule.kind, env.kind))
            actions.append(act)
            if act[0] in ("drop", "delay"):
                break
            if act[0] == "modify":
                env = act[1]
        return actions

    def _apply(self, rule: AttackRule, env: Envelope):
        """The rule's action on `env`, or None when it cannot act on it."""
        kind = rule.kind
        if kind == "drop":
            return ("drop", None)
        if kind == "delay":
            return ("delay", rule.delay_ms)
        if kind == "slow_retrieval":
            return ("delay", rule.delay_ms or 60_000.0)
        payload = size = None
        if kind == "tamper":
            payload = _tamper(env.payload)
        elif kind == "spoof":
            payload = _spoof(env.payload, self._forge_key())
        elif kind in ("replay", "freeze", "rollback"):
            history = self.recorded.get(env.kind, [])
            old = (_oldest_version(history, exclude=env) if kind == "rollback"
                   else history[0] if len(history) >= 2 else None)
            if old is not None:
                payload, size = old.payload, old.size
        elif kind == "partial_bundle":
            payload = _strip_part(env.payload)
        elif kind == "mix_bundles":
            payload = _mix_bundles(env.payload,
                                   self.recorded.get(env.kind, []))
        if payload is None:
            return None
        return ("modify", replace_env(env, payload, size))


def replace_env(env: Envelope, payload, size: Optional[int] = None) -> Envelope:
    return Envelope(env.src, env.dst, env.kind, payload,
                    env.size if size is None else size, env.link,
                    req_id=env.req_id, reply_to=env.reply_to,
                    attempt=env.attempt)


# ---------------------------------------------------------------------------
# Payload mutators
# ---------------------------------------------------------------------------

def _flip(data) -> bytes:
    """`data`'s bytes with the first one flipped.  `data` is `bytes` or a
    chunk, whose bytes are made here."""
    data = bytes(data)
    if not data:
        return data
    return bytes([data[0] ^ 0xFF]) + data[1:]


def _flip_first_bucket(buckets) -> list:
    """The buckets with the first one's chunk flipped; its genuine digest
    is kept."""
    index, chunk, chunk_digest = buckets[0]
    return [(index, _flip(chunk), chunk_digest)] + list(buckets[1:])


def _tamper(payload):
    """Flip payload bytes without fixing any signature."""
    if isinstance(payload, dict):
        if payload.get("buckets"):
            return {**payload,
                    "buckets": _flip_first_bucket(payload["buckets"])}
        if payload.get("items"):
            mu, buckets = payload["items"][0]
            items = [(mu, _flip_first_bucket(buckets))]
            return {**payload, "items": items + list(payload["items"][1:])}
        if "bundle" in payload and isinstance(payload["bundle"], msg.Bundle):
            return {**payload, "bundle": _tamper_bundle(payload["bundle"])}
        if isinstance(payload.get("image"), msg.UpdateImage):
            image = payload["image"]
            return {**payload,
                    "image": replace(image, source=_flip(image.data))}
        return None
    if isinstance(payload, msg.StatusReport):
        return replace(payload,
                       tau=replace(payload.tau, t=payload.tau.t + 1))
    if isinstance(payload, msg.Bundle):
        return _tamper_bundle(payload)
    if isinstance(payload, msg.UpdateManifest):
        return replace(payload, theta=replace(payload.theta,
                                              h=_flip(payload.theta.h)))
    return None


def _tamper_bundle(bundle: msg.Bundle) -> msg.Bundle:
    first = bundle.manifests[0]
    forged = replace(first, theta=replace(first.theta,
                                          h=_flip(first.theta.h)))
    return replace(bundle, manifests=(forged,) + bundle.manifests[1:])


def _spoof(payload, key: Optional[KeyPair]):
    """Re-sign with a non-authorized (or stolen) key."""
    if key is None:
        return None
    if isinstance(payload, (msg.StatusReport, msg.UpdateManifest, msg.Bundle)):
        entry = sign(msg.payload_digest(payload), key)
        return msg.replace_outside_region(payload, sigma=(entry,))
    if isinstance(payload, dict) and isinstance(payload.get("bundle"),
                                                msg.Bundle):
        bundle = payload["bundle"]
        entry = sign(msg.payload_digest(bundle), key)
        return {**payload,
                "bundle": msg.replace_outside_region(bundle, sigma=(entry,))}
    return None


def _payload_tau(payload):
    if isinstance(payload, (msg.StatusReport, msg.Bundle, msg.UpdateManifest)):
        return payload.tau
    if isinstance(payload, dict) and isinstance(payload.get("bundle"),
                                                msg.Bundle):
        return payload["bundle"].tau
    return None


def _oldest_version(history, exclude):
    candidates = [e for e in history
                  if e is not exclude and _payload_tau(e.payload) is not None]
    if not candidates:
        return None
    old = min(candidates, key=lambda e: (_payload_tau(e.payload).v,
                                         _payload_tau(e.payload).t))
    current = _payload_tau(exclude.payload)
    if current is not None and _payload_tau(old.payload).v >= current.v:
        return None
    return old


def _strip_part(payload):
    """Drop a strict subset of a transfer: last bucket, item, or manifest."""
    if isinstance(payload, dict):
        if len(payload.get("buckets") or ()) > 1:
            return {**payload, "buckets": list(payload["buckets"][:-1])}
        if len(payload.get("items") or ()) > 1:
            return {**payload, "items": list(payload["items"][:-1])}
    if isinstance(payload, msg.StatusReport) and payload.bundles:
        bundle = payload.bundles[0]
        if len(bundle.manifests) > 1:
            cut = replace(bundle, manifests=bundle.manifests[:-1])
            return replace(payload, bundles=(cut,) + payload.bundles[1:])
    return None


def _mix_bundles(payload, history):
    """Swap a manifest between the live bundle and a recorded one."""
    def bundle_of(p):
        if isinstance(p, msg.StatusReport) and p.bundles:
            return p.bundles[0]
        if isinstance(p, dict) and isinstance(p.get("bundle"), msg.Bundle):
            return p["bundle"]
        if isinstance(p, msg.Bundle):
            return p
        return None

    live = bundle_of(payload)
    if live is None:
        return None
    donor = None
    for env in history:
        other = bundle_of(env.payload)
        if other is not None and other.manifests != live.manifests:
            donor = other
            break
    if donor is None:
        return None
    mixed = replace(live,
                    manifests=(donor.manifests[0],) + live.manifests[1:])
    if isinstance(payload, msg.StatusReport):
        return replace(payload, bundles=(mixed,) + payload.bundles[1:])
    if isinstance(payload, dict):
        return {**payload, "bundle": mixed}
    return mixed
