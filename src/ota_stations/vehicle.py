"""Vehicle-side actors: the primary ECU (status reporting, reply
validation, downloads from a station with cellular fallback, install
orchestration) and secondary ECUs (partial verification when the primary
is trusted, full verification plus own liveness timers when it is not).

A primary downloads as stations and the director do (`Actor.fetch_image`):
from its station, one image at a time, and when the station fails, from
the repository over cellular, restarting at bucket 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import messages as msg
from .crypto import KeyPair, digest, sign
from .simnet import Actor, Envelope, Link, World

PRIMARY_ECU = "primary"


def group_digest(items, data_digests) -> bytes:
    """Digest binding an all-or-nothing install group: (manifest, image
    buckets) pairs destined to one ECU, given the digests of their bytes."""
    acc = b"group"
    for (mu, _), data_digest in zip(items, data_digests):
        acc += msg.payload_digest(mu) + data_digest
    return digest(acc)


def kept_entry(kept: dict, ecu: str, software: str, tau: msg.TimestampRecord,
               key: Optional[KeyPair]) -> msg.StatusEntry:
    """The status entry of `software` at `tau` on `ecu`, signed with `key`
    unless it is None.  `kept` belongs to one ECU, which passes the same
    `key` on every call; it holds one entry per (ecu, software), which is
    made, and signed, again only once `tau` changes."""
    entry = kept.get((ecu, software))
    if entry is None or entry.tau != tau:
        entry = msg.StatusEntry(ecu, software, tau)
        if key is not None:
            entry = msg.sign_status_entry(entry, key)
        kept[ecu, software] = entry
    return entry


@dataclass(slots=True)
class PendingItem:
    mu: msg.UpdateManifest
    bundle: msg.Bundle
    # The buckets every download of this item verified.
    received: msg.Received
    # The verified image: the sender's buckets in order, never joined.
    buckets: Optional[tuple] = None
    data_digest: Optional[bytes] = None    # digest of the buckets' bytes
    installed: bool = False
    download: Optional[object] = None      # the download under way, if any


class VehiclePrimary(Actor):
    """Primary ECU; the actor name is the VIN."""

    def __init__(self, vin: str, world: World, trust: msg.TrustContext,
                 key: KeyPair, sud: str, sud_link: Link,
                 repo: str, repo_link: Link, initial: dict, secondaries: dict,
                 station: Optional[str] = None,
                 station_link: Optional[Link] = None,
                 untrusted: bool = False,
                 flash_latency_ms: float = 50.0,
                 status_deadline_ms: Optional[float] = None,
                 image_deadline_ms: Optional[float] = None,
                 ignition_period_ms: Optional[float] = None,
                 ignition_limit: Optional[int] = None,
                 cellular_updates=frozenset()):
        super().__init__(vin, world)
        self.vin = vin
        self.trust = trust
        self.key = key
        self.sud = sud
        self.sud_link = sud_link
        self.repo = repo
        self.repo_link = repo_link
        self.secondaries = dict(secondaries)   # ecu -> (actor name, Link)
        self.station = station
        self.station_link = station_link
        self.untrusted = untrusted
        self.flash_latency_ms = flash_latency_ms
        self.status_deadline_ms = status_deadline_ms
        self.image_deadline_ms = image_deadline_ms
        self.ignition_period_ms = ignition_period_ms
        self.ignition_limit = ignition_limit
        self.cellular_updates = set(cellular_updates)

        # inventory: (ecu, software) -> TimestampRecord; the world's
        # install log keeps each installed image's digest.
        self.inventory: dict = {}
        for s, (ecu, tau) in initial.items():
            self.inventory[(ecu, s)] = tau

        self.last_reply_tau = msg.TimestampRecord(0, 1)
        self.last_full_entries: Optional[tuple] = None
        self.last_r_digest: Optional[bytes] = None
        self._entries: dict = {}               # see `kept_entry`
        self.bundle_tau: dict = {}             # trigger s -> TimestampRecord
        self.pending: dict = {}                # (s, v) -> PendingItem
        self._station_queue: list = []
        self._session_ok = False
        self._fallback_used = False
        self._status_timer = None
        self._image_timer = None
        self._last_status_t = 0
        self._ignitions = 0
        self.alerts: list = []
        self.records: dict = {"ignitions": [], "manifest_done": None,
                              "complete": None}

    # -- alerts ------------------------------------------------------------

    def alert(self, reason: str):
        self.alerts.append((self.world.now, reason))

    # -- status cycle (step 6 onward) --------------------------------------

    def ignition(self):
        if self.ignition_limit is not None \
                and self._ignitions >= self.ignition_limit:
            return
        self._ignitions += 1
        self.records["ignitions"].append(self.world.now)
        if self.ignition_period_ms is not None:
            self.world.schedule(self.ignition_period_ms, self.ignition)
        if self.untrusted and self.secondaries:
            self._gather_secondary_entries()
        else:
            self._send_status(self._own_entries())

    def _own_entries(self) -> tuple:
        key = self.key if self.untrusted else None
        return tuple(kept_entry(self._entries, ecu, s, self.inventory[ecu, s],
                                key) for ecu, s in sorted(self.inventory))

    def _gather_secondary_entries(self):
        collected = [kept_entry(self._entries, PRIMARY_ECU, s, tau, self.key)
                     for (ecu, s), tau in self.inventory.items()
                     if ecu == PRIMARY_ECU]
        waiting = {"n": len(self.secondaries)}

        def one_done(reply: Optional[Envelope]):
            if reply is not None and reply.kind == "report_tau_ok":
                collected.extend(reply.payload["entries"])
            waiting["n"] -= 1
            if waiting["n"] == 0:
                entries = tuple(sorted(
                    collected, key=lambda e: (e.ecu, e.software)))
                self._send_status(entries)

        for ecu in sorted(self.secondaries):
            name, link = self.secondaries[ecu]
            self.request(name, "report_tau", {}, 64, link,
                         on_reply=one_done,
                         on_fail=lambda: one_done(None),
                         timeout_ms=1000.0)

    def _send_status(self, entries: tuple, force_full: bool = False):
        use_digest = (not force_full and self.last_r_digest is not None
                      and entries == self.last_full_entries)
        r = self.last_r_digest if use_digest else entries
        t = max(int(self.world.now) + 1, self._last_status_t + 1)
        self._last_status_t = t
        tau = msg.TimestampRecord(t, self.last_reply_tau.v)
        nonce = self.world.rng.randbytes(msg.NONCE_LEN)
        gamma = msg.StatusReport(r, tau, nonce)
        gamma = msg.sign_message(gamma, self.key)
        sent_digest = None if use_digest else msg.payload_digest(gamma)
        expect_nonce = digest(b"echo" + nonce)[:msg.NONCE_LEN]
        self._arm_status_deadline()
        self.request(self.sud, "status", gamma, msg.wire_size(gamma),
                     self.sud_link,
                     on_reply=lambda rep: self._on_status_reply(
                         rep, entries, sent_digest, expect_nonce))

    def _arm_status_deadline(self):
        if self.status_deadline_ms is None:
            return
        if self._status_timer is not None:
            self._status_timer.cancel()
        self._status_timer = self.world.schedule(
            self.status_deadline_ms, lambda: self.alert("status_timeout"))

    def _on_status_reply(self, env: Envelope, entries, sent_digest,
                         expect_nonce):
        if env.kind == "status_need_full":
            self._send_status(entries, force_full=True)
            return
        if env.kind != "status_reply":
            return
        gamma = env.payload
        if not isinstance(gamma, msg.StatusReport):
            return
        if not self.trust.signed_by(gamma.sigma, (msg.ROLE_IDS["timestamp"],),
                                    msg.payload_digest(gamma)):
            return  # leave the deadline armed
        if not msg.assert_status_fresh_at_primary(
                gamma.tau, self.last_reply_tau) or gamma.nonce != expect_nonce:
            return
        self.last_reply_tau = gamma.tau
        if self._status_timer is not None:
            self._status_timer.cancel()
            self._status_timer = None
        if sent_digest is not None:
            self.last_full_entries = entries
            self.last_r_digest = sent_digest

        fresh = []
        for bundle in gamma.bundles:
            if not self._validate_bundle(bundle):
                continue
            self.bundle_tau[bundle.trigger.theta.s] = bundle.tau
            for mu in bundle.manifests:
                if self._wanted(mu):
                    fresh.append((mu, bundle))
        self._relay_to_secondaries(gamma)
        if self.records["manifest_done"] is None and (fresh or gamma.bundles):
            self.records["manifest_done"] = self.world.now
        if fresh:
            for mu, bundle in fresh:
                self.pending[(mu.theta.s, mu.tau.v)] = PendingItem(
                    mu, bundle, msg.Received())
            self._arm_image_deadline()
            self._start_downloads()

    def _wanted(self, mu: msg.UpdateManifest) -> bool:
        key = (mu.theta.s, mu.tau.v)
        if key in self.pending:
            return False
        have = self.inventory.get((mu.theta.e, mu.theta.s))
        return have is None or mu.tau.v > have.v

    def _validate_bundle(self, bundle: msg.Bundle) -> bool:
        if not self.trust.verify_bundle(bundle, self.vin):
            return False
        last = self.bundle_tau.get(bundle.trigger.theta.s)
        if last is not None and bundle.tau.v <= last.v:
            return False
        for mu in bundle.manifests:
            have = self.inventory.get((mu.theta.e, mu.theta.s))
            if not self.trust.verify_manifest(mu) or (
                    have is not None and mu.tau.v < have.v):
                return False  # never regress an ECU
        return True

    def _relay_to_secondaries(self, gamma: msg.StatusReport):
        if not self.untrusted:
            return
        for ecu in sorted(self.secondaries):
            name, link = self.secondaries[ecu]
            self.send(name, "relay_reply", {"report": gamma},
                      msg.wire_size(gamma), link)

    # -- downloads (steps 8-9) ---------------------------------------------

    def _start_downloads(self):
        idle = not self._station_queue   # else the station is downloading
        for key in sorted(self.pending):
            item = self.pending[key]
            if item.buckets is not None or item.download is not None \
                    or item in self._station_queue:
                continue
            if self.station is None or key[0] in self.cellular_updates:
                self._cellular(item)
            else:
                self._station_queue.append(item)
        if idle and self._station_queue:
            self._open_session()

    def _open_session(self):
        if self._session_ok:
            self._station_next()
            return
        nonce = self.world.rng.randbytes(msg.NONCE_LEN)
        self.request(self.station, "session_open", {"nonce": nonce}, 96,
                     self.station_link,
                     on_reply=lambda r: self._on_session(r, nonce),
                     on_fail=lambda: self._session_failed())

    def _on_session(self, env: Envelope, nonce: bytes):
        if env.kind != "session_ok" or not self.trust.signed_by(
                (env.payload["station_sig"],), (self.station,),
                digest(b"station-auth" + nonce)):
            self._session_failed()
            return
        self._session_ok = True
        self._station_next()

    def _session_failed(self):
        # Revoked or unreachable station: everything queued goes cellular.
        queue, self._station_queue = self._station_queue, []
        for item in queue:
            self._cellular(item)

    def _station_next(self):
        """Download the head of the station queue; once it completes or
        the station fails it (and it goes cellular), the next."""
        if not self._station_queue:
            return
        item = self._station_queue[0]

        def finished(result: Optional[msg.Complete]):
            if item in self._station_queue:
                self._station_queue.remove(item)
            if result is not None:
                self._image_complete(item, result)
            elif item.buckets is None:
                self._cellular(item)
            self._station_next()

        item.download = self.fetch_image(
            self.station, self.station_link, "serve",
            {"manifest": item.mu, "bundle": item.bundle,
             "min": self.vin[:msg.MIN_LEN]},
            96 + msg.wire_size(item.bundle), item.mu, finished,
            lambda reason: finished(None), received=item.received)

    def _cellular(self, item: PendingItem):
        """(Re)start `item`'s download from the repository at bucket 0; its
        earlier download makes no further request."""
        if item.download is not None:
            item.download.cancel()
        item.received.buckets = {}
        item.download = self.fetch_image(
            self.repo, self.repo_link, "fetch",
            {"l": item.mu.l, "credential": item.bundle},
            96 + msg.wire_size(item.bundle), item.mu,
            lambda result: self._image_complete(item, result),
            received=item.received)

    # -- install push (step 10) --------------------------------------------

    def _image_complete(self, item: PendingItem, result: msg.Complete):
        if item.buckets is not None:
            return  # already completed by another download
        item.buckets = result.buckets
        item.data_digest = result.data_digest
        item.download = None  # frees the finished download
        ecu = item.mu.theta.e
        group = [p for p in self.pending.values()
                 if p.bundle is item.bundle and p.mu.theta.e == ecu]
        if any(p.buckets is None for p in group):
            return
        if ecu == PRIMARY_ECU:
            self.world.schedule(self.flash_latency_ms,
                                lambda: self._install_local(group))
        else:
            self._push_group(ecu, item.bundle, group)

    def _install_local(self, group):
        for p in group:
            self.inventory[(PRIMARY_ECU, p.mu.theta.s)] = p.mu.tau
            self.world.install_log.append(
                (self.world.now, self.vin, PRIMARY_ECU, p.mu.theta.s,
                 p.mu.tau.v, p.data_digest))
            p.installed = True
        self._check_complete()

    def _push_group(self, ecu, bundle, group):
        name, link = self.secondaries[ecu]
        ordered = sorted(group, key=lambda p: p.mu.theta.s)
        items = tuple((p.mu, p.buckets) for p in ordered)
        entry = sign(group_digest(items, [p.data_digest for p in ordered]),
                     self.key)
        size = sum(msg.bucket_bytes(p.buckets) for p in ordered) + 256
        self.request(name, "install_group",
                     {"bundle": bundle, "items": items, "group_sig": entry},
                     size, link,
                     on_reply=lambda r: self._on_install_reply(ecu, group, r))

    def _on_install_reply(self, ecu, group, env: Envelope):
        if env.kind != "install_ok":
            return  # secondary's own deadline raises the alert if needed
        for p in group:
            self.inventory[(ecu, p.mu.theta.s)] = p.mu.tau
            p.installed = True
        self._check_complete()

    def _check_complete(self):
        if all(p.installed for p in self.pending.values()):
            self.records["complete"] = self.world.now
            if self._image_timer is not None:
                self._image_timer.cancel()
                self._image_timer = None

    # -- deadlines ---------------------------------------------------------

    def _arm_image_deadline(self):
        if self.image_deadline_ms is None:
            return
        if self._image_timer is not None:
            self._image_timer.cancel()
        self._image_timer = self.world.schedule(self.image_deadline_ms,
                                                self._image_deadline_fired)

    def _image_deadline_fired(self):
        stuck = [p for p in self.pending.values() if not p.installed]
        if not stuck:
            return
        if not self._fallback_used:
            # One cellular retry round before declaring failure.
            self._fallback_used = True
            self._station_queue = []
            for item in stuck:
                if item.buckets is None:
                    self._cellular(item)
            self._arm_image_deadline()
            return
        self.alert("image_timeout")


class SecondaryEcu(Actor):
    """Secondary ECU; the actor name is '<vin>.<ecu>'."""

    def __init__(self, vin: str, ecu: str, world: World,
                 trust: msg.TrustContext, key: KeyPair,
                 initial: dict, untrusted: bool = False,
                 flash_latency_ms: float = 50.0,
                 status_deadline_ms: Optional[float] = None,
                 image_deadline_ms: Optional[float] = None):
        super().__init__(f"{vin}.{ecu}", world)
        self.vin = vin
        self.ecu = ecu
        self.trust = trust
        self.key = key
        self.untrusted = untrusted
        self.flash_latency_ms = flash_latency_ms
        self.status_deadline_ms = status_deadline_ms
        self.image_deadline_ms = image_deadline_ms
        self.installed: dict = dict(initial)   # s -> (tau, digest or None)
        self.primary_id = f"{vin}.primary"
        self.last_reply_tau = msg.TimestampRecord(0, 1)
        self._entries: dict = {}               # see `kept_entry`
        self._status_timer = None
        self._image_timer = None
        self.alerts: list = []

    def alert(self, reason: str):
        self.alerts.append((self.world.now, reason))

    # -- status relay ------------------------------------------------------

    def on_report_tau(self, env: Envelope):
        key = self.key if self.untrusted else None
        entries = [kept_entry(self._entries, self.ecu, s, self.installed[s][0],
                              key) for s in sorted(self.installed)]
        if self.untrusted and self.status_deadline_ms is not None:
            if self._status_timer is not None:
                self._status_timer.cancel()
            self._status_timer = self.world.schedule(
                self.status_deadline_ms,
                lambda: self.alert("status_relay_timeout"))
        self.reply(env, "report_tau_ok", {"entries": tuple(entries)}, 128)

    def on_relay_reply(self, env: Envelope):
        gamma = env.payload.get("report")
        if not isinstance(gamma, msg.StatusReport):
            return
        if self.untrusted and not self.trust.signed_by(
                gamma.sigma, (msg.ROLE_IDS["timestamp"],),
                msg.payload_digest(gamma)):
            return
        if not msg.assert_status_fresh_at_primary(gamma.tau,
                                                  self.last_reply_tau):
            return
        self.last_reply_tau = gamma.tau
        if self._status_timer is not None:
            self._status_timer.cancel()
            self._status_timer = None
        if self._expects_updates(gamma) and self.image_deadline_ms is not None:
            if self._image_timer is not None:
                self._image_timer.cancel()
            self._image_timer = self.world.schedule(
                self.image_deadline_ms,
                lambda: self.alert("install_timeout"))

    def _expects_updates(self, gamma: msg.StatusReport) -> bool:
        for bundle in gamma.bundles:
            for mu in bundle.manifests:
                if mu.theta.e != self.ecu:
                    continue
                have = self.installed.get(mu.theta.s)
                if have is None or mu.tau.v > have[0].v:
                    return True
        return False

    # -- install (step 10) -------------------------------------------------

    def on_install_group(self, env: Envelope):
        bundle = env.payload["bundle"]
        items = env.payload["items"]
        entry = env.payload["group_sig"]
        # Each image's digest is its split's own when the primary's buckets
        # are the sender's whole split, and is computed here otherwise; the
        # group signature, the manifest check and the install log all use
        # these digests of the same bytes.
        data_digests = [msg.image_digest(buckets) for _, buckets in items]
        reason = self._validate_group(bundle, items, data_digests, entry)
        if reason is not None:
            self.reply(env, "install_err", {"reason": reason}, 64)
            return
        self.world.schedule(self.flash_latency_ms,
                            lambda: self._flash(env, items, data_digests))

    def _validate_group(self, bundle, items, data_digests,
                        entry) -> Optional[str]:
        if not self.trust.signed_by((entry,), (self.primary_id,),
                                    group_digest(items, data_digests)):
            return "primary_auth"
        if not items:
            return "empty"
        if self.untrusted:
            reason = self._full_verification(bundle, items)
            if reason is not None:
                return reason
        for (mu, _), data_digest in zip(items, data_digests):
            if mu.theta.e != self.ecu:
                return "wrong_ecu"
            if data_digest != mu.theta.h:
                return "integrity"
            have = self.installed.get(mu.theta.s)
            if have is not None and mu.tau.v <= have[0].v:
                return "stale"
        return None

    def _full_verification(self, bundle, items) -> Optional[str]:
        if not isinstance(bundle, msg.Bundle):
            return "no_bundle"
        if not self.trust.signed_by(bundle.sigma, (msg.ROLE_IDS["snapshot"],),
                                    msg.payload_digest(bundle)):
            return "bundle_auth"
        if not self.trust.endorsed(bundle, self.ecu):
            return "no_endorsement"
        enclosed = {msg.payload_digest(m) for m in bundle.manifests}
        for mu, _ in items:
            if msg.payload_digest(mu) not in enclosed:
                return "not_in_bundle"
            if not self.trust.verify_manifest(mu):
                return "manifest_auth"
        return None

    def _flash(self, env: Envelope, items, data_digests):
        for (mu, _), data_digest in zip(items, data_digests):
            self.installed[mu.theta.s] = (mu.tau, data_digest)
            self.world.install_log.append(
                (self.world.now, self.vin, self.ecu, mu.theta.s,
                 mu.tau.v, data_digest))
        if self._image_timer is not None:
            self._image_timer.cancel()
            self._image_timer = None
        self.reply(env, "install_ok",
                   {"ecu": self.ecu,
                    "software": tuple(sorted(mu.theta.s for mu, _ in items))},
                   128)
