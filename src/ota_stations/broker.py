"""Update distribution broker: the update engine (subscription management,
bundle validation, download authorization) and the update stations
(LRU-cached image serving with hit/miss/unknown outcomes).

A station holds each image as its verified (index, chunk, chunk digest)
bucket tuple, whose chunks are lazy views of the repository's image
source, holding no bytes: the tuple it downloaded, or the repository's own
split for an image cached at build.

Non-hit downloads flow station <- image repository over the station cable
after the engine issues a delegated download grant; the engine itself is
control-plane only.
"""
from __future__ import annotations

from collections import OrderedDict

from . import messages as msg
from .crypto import KeyPair, digest, sign
from .simnet import Actor, Envelope, Link, World


class UpdateEngine(Actor):
    def __init__(self, name: str, world: World, trust: msg.TrustContext,
                 key: KeyPair, sud: str, sud_link: Link):
        super().__init__(name, world)
        self.trust = trust
        self.key = key
        self.sud = sud
        self.sud_link = sud_link
        self.subscriptions: dict = {}     # min -> {station: Link}
        self.bundles: dict = {}           # (min, trigger) -> validated Bundle
        self.last_manifest_tau: dict = {} # s -> TimestampRecord
        self.audit_log: list = []

    # -- validation (step 5) ----------------------------------------------

    def validate_bundle(self, bundle: msg.Bundle, min_id: str):
        """Returns None if valid, else a rejection reason."""
        if not self.trust.verify_bundle(bundle, self.name):
            return "auth"
        last = self.bundles.get((min_id, bundle.trigger.theta.s))
        if last is not None and not msg.assert_fresh(bundle.tau, last.tau):
            return "stale"
        for mu in bundle.manifests:
            prev = self.last_manifest_tau.get(mu.theta.s)
            if not self.trust.verify_manifest(mu) or (
                    prev is not None and mu.tau.v < prev.v):
                return f"manifest:{mu.theta.s}"
        return None

    def record(self, bundle: msg.Bundle, min_id: str):
        """Keep `bundle` as the model's latest for its trigger, and its
        bundle and manifest timestamps as the freshness floor."""
        self.bundles[(min_id, bundle.trigger.theta.s)] = bundle
        for mu in bundle.manifests:
            prev = self.last_manifest_tau.get(mu.theta.s)
            if prev is None or mu.tau.v > prev.v:
                self.last_manifest_tau[mu.theta.s] = mu.tau

    def _accept(self, bundle: msg.Bundle, min_id: str):
        self.record(bundle, min_id)
        for station, link in sorted(
                self.subscriptions.get(min_id, {}).items()):
            copy = msg.grant_bundle(bundle, station, self.key)
            self.send(station, "prefetch", {"bundle": copy, "min": min_id},
                      msg.wire_size(copy), link)

    # -- handlers ----------------------------------------------------------

    def on_publish(self, env: Envelope):
        bundle = env.payload["bundle"]
        min_id = env.payload["min"]
        reason = self.validate_bundle(bundle, min_id)
        if reason is None:
            self._accept(bundle, min_id)
            return
        self.audit_log.append(("publish_rejected", min_id, reason))
        if reason == "stale":
            return  # replayed bundle: discard outright
        trigger = bundle.trigger.theta.s if bundle.manifests else None
        self.request(
            self.sud, "manifest_fix", {"min": min_id, "s": trigger}, 96,
            self.sud_link,
            on_reply=lambda r: self._on_fix(r, min_id))

    def _on_fix(self, reply: Envelope, min_id: str):
        if reply.kind != "manifest_fix_ok":
            return
        bundle = reply.payload["bundle"]
        if self.validate_bundle(bundle, min_id) is None:
            self._accept(bundle, min_id)

    def on_authorize(self, env: Envelope):
        min_id = env.payload["min"]
        software = env.payload["s"]
        for (m, trigger), bundle in sorted(self.bundles.items()):
            if m != min_id:
                continue
            if any(mu.theta.s == software for mu in bundle.manifests):
                granted = msg.grant_bundle(bundle, env.src, self.key)
                self.reply(env, "authorize_ok", {"bundle": granted},
                           msg.wire_size(bundle) + 64)
                return
        self.reply(env, "authorize_err", {"reason": "unknown"}, 64)

    def on_subscribe_model(self, env: Envelope):
        """Record the requesting station as a subscriber of the model and
        reply.  The engine itself needs no upstream subscription: the
        build subscribes it to the director for every vehicle model at
        onboarding."""
        min_id = env.payload["min"]
        self.subscriptions.setdefault(min_id, {})[env.src] = env.link
        self.reply(env, "subscribe_model_ok", {"min": min_id}, 64)

    def revoke_station(self, station: str):
        found = False
        for stations in self.subscriptions.values():
            if station in stations:
                del stations[station]
                found = True
        self.audit_log.append(("revoke_station", station, found))


class Station(Actor):
    def __init__(self, name: str, world: World, trust: msg.TrustContext,
                 key: KeyPair, engine: str, engine_link: Link,
                 repo: str, repo_link: Link, capacity_bytes: int):
        super().__init__(name, world)
        self.trust = trust
        self.key = key
        self.engine = engine
        self.engine_link = engine_link
        self.repo = repo
        self.repo_link = repo_link
        self.capacity = capacity_bytes
        self.cache: OrderedDict = OrderedDict()  # (s, v) -> (buckets, bytes)
        self.occupancy = 0
        self.known_models: set = set()
        self.unknown_updates: set = set()  # software ids treated as first-seen
        self.events: list = []             # (time, outcome, software)

    # -- cache -------------------------------------------------------------

    def cache_insert(self, software: str, version: int, buckets: tuple):
        """LRU insert of an image's verified bucket tuple; returns the list
        of evicted software ids.  Images larger than the whole cache are
        served pass-through, uncached.  An insert of a cached (software,
        version) replaces its entry, so its bytes count once, and makes it
        the most recently used."""
        size = msg.bucket_bytes(buckets)
        if size > self.capacity:
            return None
        replaced = self.cache.pop((software, version), None)
        if replaced is not None:
            self.occupancy -= replaced[1]
        evicted = []
        while self.occupancy + size > self.capacity and self.cache:
            (old_s, old_v), (_, old_size) = self.cache.popitem(last=False)
            self.occupancy -= old_size
            evicted.append(old_s)
        self.cache[(software, version)] = (buckets, size)
        self.occupancy += size
        return evicted

    def cache_get(self, software: str, version: int):
        buckets, _ = self.cache.get((software, version), (None, 0))
        if buckets is not None:
            self.cache.move_to_end((software, version))
        return buckets

    # -- prefetch (publishing step 5 tail) ---------------------------------

    def on_prefetch(self, env: Envelope):
        bundle = env.payload["bundle"]
        min_id = env.payload["min"]
        if not self.trust.granted(bundle, self.name):
            return
        self.known_models.add(min_id)
        for mu in bundle.manifests:
            if (mu.theta.s, mu.tau.v) not in self.cache:
                self._fetch_and_cache(mu, bundle)

    def _fetch_and_cache(self, mu, credential, on_done=None, on_error=None):
        """Pull `mu`'s image from the repository, cache its verified
        buckets and pass them on, also when the image is larger than the
        cache (pass-through)."""
        def done(result: msg.Complete):
            self.cache_insert(mu.theta.s, mu.tau.v, result.buckets)
            if on_done is not None:
                on_done(result.buckets)

        self.fetch_image(self.repo, self.repo_link, "fetch",
                         {"l": mu.l, "credential": credential},
                         96 + msg.wire_size(credential), mu, done, on_error)

    # -- vehicle-facing session (step 9) -----------------------------------

    def on_session_open(self, env: Envelope):
        nonce = env.payload["nonce"]
        entry = sign(digest(b"station-auth" + nonce), self.key)
        self.reply(env, "session_ok", {"station": self.name,
                                       "station_sig": entry}, 128)

    def on_serve(self, env: Envelope):
        mu = env.payload["manifest"]
        bundle = env.payload["bundle"]
        min_id = env.payload["min"]
        if not self._vehicle_request_valid(mu, bundle, env.src):
            self.reply(env, "serve_err", {"reason": "refused"}, 64)
            return
        cached = self.cache_get(mu.theta.s, mu.tau.v)
        if cached is not None:
            self._serve_bytes(env, mu, cached, "hit")
            return
        if min_id in self.known_models and mu.theta.s not in self.unknown_updates:
            self._miss_path(env, mu, min_id, "miss")
            return
        # Unknown vehicle model: subscribe before pulling.
        self.request(
            self.engine, "subscribe_model", {"min": min_id}, 96,
            self.engine_link,
            on_reply=lambda r: self._after_subscribe(env, mu, min_id))

    def _after_subscribe(self, env, mu, min_id):
        self.known_models.add(min_id)
        self.unknown_updates.discard(mu.theta.s)
        self._miss_path(env, mu, min_id, "unknown")

    def _miss_path(self, env, mu, min_id, outcome):
        self.request(
            self.engine, "authorize",
            {"min": min_id, "s": mu.theta.s, "v": mu.tau.v}, 96,
            self.engine_link,
            on_reply=lambda r: self._on_authorized(env, mu, outcome, r))

    def _on_authorized(self, env, mu, outcome, reply: Envelope):
        if reply.kind != "authorize_ok":
            self.reply(env, "serve_err", {"reason": "unauthorized"}, 64)
            return
        self._fetch_and_cache(
            mu, reply.payload["bundle"],
            lambda buckets: self._serve_bytes(env, mu, buckets, outcome),
            lambda reason: self.reply(env, "serve_err", {"reason": "fetch"},
                                      64))

    def _vehicle_request_valid(self, mu, bundle, requester: str) -> bool:
        return (self.trust.verify_bundle(bundle, requester)
                and any(msg.payload_digest(m) == msg.payload_digest(mu)
                        for m in bundle.manifests)
                and self.trust.verify_manifest(mu))

    def _serve_bytes(self, env, mu, buckets: tuple, outcome: str):
        self.events.append((self.world.now, outcome, mu.theta.s))
        self.reply_buckets(env, "serve_ok", buckets, outcome=outcome)
