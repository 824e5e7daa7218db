"""OEM software update director: fleet inventory, producer-manifest
ingestion, dependency resolution and bundling, pub/sub publication, and
status-report handling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import messages as msg
from .crypto import digest
from .simnet import Actor, Envelope, Link, World

VIN_LEN = 17


class DirectorError(Exception):
    pass


class DependencyCycleError(DirectorError):
    pass


@dataclass
class FleetRecord:
    vin: str
    min: str
    l_e: dict = field(default_factory=dict)   # ecu -> list of signed manifests
    last_tau: msg.TimestampRecord = msg.TimestampRecord(0, 1)
    last_r_digest: Optional[bytes] = None
    last_full_r: Optional[tuple] = None
    seen_nonces: set = field(default_factory=set)
    reported: dict = field(default_factory=dict)  # (ecu, s) -> TimestampRecord


def resolve_update_set(trigger: str, deps: dict, installed: set,
                       groups=()) -> list:
    """Software ids shipped with `trigger`: the transitive dependencies not
    yet installed plus every member of any co-update group containing a
    selected id.  Returned dependencies-first; cycles raise."""
    roots = [trigger]
    for group in groups:
        if trigger in group:
            roots.extend(sorted(set(group) - {trigger}))
    order: list = []
    state: dict = {}  # 0 visiting, 1 done
    stack = [(None, iter(roots))]  # the depth-first path, below the roots
    while stack:
        s, todo = stack[-1]
        for dep in todo:
            if state.get(dep) == 1 or (s is not None and dep != trigger
                                       and dep in installed):
                continue
            if dep in state:
                raise DependencyCycleError(f"dependency cycle through {dep}")
            state[dep] = 0
            stack.append((dep, iter(deps.get(dep, ()))))
            break
        else:
            stack.pop()
            if s is not None:
                state[s] = 1
                order.append(s)
    return order


class Director(Actor):
    """Single-threaded actor; one simnet event per state transition."""

    def __init__(self, name: str, world: World, trust: msg.TrustContext,
                 role_keys: dict, repo: str, repo_link: Link,
                 co_update_groups=(), untrusted_secondaries: bool = False):
        super().__init__(name, world)
        self.trust = trust
        self.role_keys = role_keys            # role name -> KeyPair
        self.repo = repo
        self.repo_link = repo_link
        self.co_update_groups = [frozenset(g) for g in co_update_groups]
        self.untrusted_secondaries = untrusted_secondaries

        self.fleet: dict = {}                 # vin -> FleetRecord
        self.catalog: dict = {}               # s -> list of signed manifests
        self.software_ecu: dict = {}          # s -> ecu
        self.min_config: dict = {}            # min -> {s: (ecu, TimestampRecord)}
        self.subscribers: dict = {}           # min -> {subscriber: Link}
        self.bundles: dict = {}               # (min, s) -> snapshot-signed Bundle
        self._bundle_versions: dict = {}      # (min, s) -> last bundle version
        self.audit_log: list = []

    # -- fleet -------------------------------------------------------------

    def register_vehicle(self, vin: str, initial: dict) -> FleetRecord:
        """`initial` maps software id -> (ecu, TimestampRecord)."""
        if len(vin) != VIN_LEN:
            raise DirectorError(f"VIN must be {VIN_LEN} characters")
        if vin in self.fleet:
            raise DirectorError(f"duplicate VIN {vin}")
        record = FleetRecord(vin, vin[:msg.MIN_LEN])
        for s, (ecu, tau) in initial.items():
            record.l_e.setdefault(ecu, [])
            record.reported[(ecu, s)] = tau
        self.fleet[vin] = record
        self.min_config.setdefault(record.min, dict(initial))
        return record

    def quality_assurance(self, manifest: msg.UpdateManifest) -> bool:
        # Pre-signing QA hook; modeled as always passing.
        return True

    # -- ingestion (publishing steps 2-4) ----------------------------------

    def on_producer_manifest(self, env: Envelope):
        mu = env.payload
        producer = env.src
        reason = self._precheck(mu, producer)
        if reason is not None:
            self.reply(env, "manifest_rejected", {"reason": reason}, 64)
            return
        # The fetched bytes hash to mu.theta.h once the download completes.
        self.fetch_image(
            self.repo, self.repo_link, "fetch", {"l": mu.l, "credential": mu},
            96, mu, on_done=lambda done: self._ingested(env, mu),
            on_error=lambda reason: self.reply(
                env, "manifest_rejected", {"reason": reason}, 64),
            timeout_ms=30_000.0, retries=1)

    def _precheck(self, mu: msg.UpdateManifest, producer: str):
        if producer not in self.trust.producer_ids:
            return "unknown_producer"
        if not self.trust.signed_by(mu.sigma, (producer,),
                                    msg.payload_digest(mu)):
            return "auth"
        last = self._last_tau(mu.theta.s)
        if last is not None and not msg.assert_fresh(mu.tau, last):
            return "stale"
        known_ecu = self.software_ecu.get(mu.theta.s)
        if known_ecu is not None and known_ecu != mu.theta.e:
            return "ecu_mismatch"
        if not self.quality_assurance(mu):
            return "qa"
        return None

    def _last_tau(self, software: str):
        entries = self.catalog.get(software)
        if entries:
            return entries[-1].tau
        for config in self.min_config.values():
            if software in config:
                return config[software][1]
        return None

    def _ingested(self, env: Envelope, mu: msg.UpdateManifest):
        signed = self.accept_manifest(mu)
        self.reply(env, "manifest_accepted", {"s": mu.theta.s,
                                              "v": mu.tau.v}, 64)
        self._bundle_and_publish(signed)

    def accept_manifest(self, mu: msg.UpdateManifest) -> msg.UpdateManifest:
        """Append the targets, timestamp, and root role signatures and store
        the manifest in the catalog and fleet inventory."""
        signed = mu
        for role in ("targets", "timestamp", "root"):
            signed = msg.sign_message(signed, self.role_keys[role])
        self.catalog.setdefault(mu.theta.s, []).append(signed)
        self.software_ecu[mu.theta.s] = mu.theta.e
        for record in self.fleet.values():
            if mu.theta.s in self.min_config.get(record.min, {}):
                record.l_e.setdefault(mu.theta.e, []).append(signed)
        return signed

    def _dep_graph(self) -> dict:
        return {s: entries[-1].theta.d
                for s, entries in self.catalog.items() if entries}

    def resolve_and_bundle(self, trigger: str, min_id: str) -> Optional[msg.Bundle]:
        config = self.min_config.get(min_id, {})
        if trigger not in config:
            return None
        installed = set()
        for s, (ecu, ref_tau) in config.items():
            entries = self.catalog.get(s)
            if not entries or entries[-1].tau.v <= ref_tau.v:
                installed.add(s)
        selected = resolve_update_set(trigger, self._dep_graph(), installed,
                                      self.co_update_groups)
        manifests = []
        for s in selected:
            entries = self.catalog.get(s)
            if not entries:
                # Missing dependency manifest: defer bundling until ingested.
                self.audit_log.append(("bundle_deferred", trigger, s))
                return None
            manifests.append(entries[-1])
        version = self._bundle_versions.get((min_id, trigger), 0) + 1
        self._bundle_versions[(min_id, trigger)] = version
        tau = msg.TimestampRecord(int(self.world.now) + 1, version)
        bundle = msg.Bundle(tuple(manifests), tau)
        bundle = msg.sign_message(bundle, self.role_keys["snapshot"])
        self.bundles[(min_id, trigger)] = bundle
        return bundle

    def _bundle_and_publish(self, signed: msg.UpdateManifest):
        for min_id in sorted(self.min_config):
            bundle = self.resolve_and_bundle(signed.theta.s, min_id)
            if bundle is None:
                continue
            for subscriber, link in sorted(
                    self.subscribers.get(min_id, {}).items()):
                copy = self.publish_bundle(bundle, subscriber)
                self.send(subscriber, "publish",
                          {"bundle": copy, "min": min_id},
                          msg.wire_size(copy), link)

    def publish_bundle(self, bundle: msg.Bundle, subscriber: str) -> msg.Bundle:
        """Per-subscriber copy carrying a publish-role download grant."""
        if subscriber not in self.trust.registry.keys:
            self.audit_log.append(("unknown_subscriber", subscriber))
            raise DirectorError(f"unknown subscriber {subscriber}")
        return msg.grant_bundle(bundle, subscriber, self.role_keys["publish"])

    # -- subscriptions -----------------------------------------------------

    def on_subscribe(self, env: Envelope):
        min_id = env.payload["min"]
        self.subscribers.setdefault(min_id, {})[env.src] = env.link
        copies = [self.publish_bundle(b, env.src)
                  for (m, s), b in sorted(self.bundles.items()) if m == min_id]
        payload = {"min": min_id, "bundles": copies}
        self.reply(env, "subscribe_ok", payload,
                   64 + sum(msg.wire_size(c) for c in copies))

    def on_manifest_fix(self, env: Envelope):
        key = (env.payload["min"], env.payload["s"])
        bundle = self.bundles.get(key)
        if bundle is None:
            self.reply(env, "manifest_fix_err", {"reason": "unknown"}, 64)
            return
        copy = self.publish_bundle(bundle, env.src)
        self.reply(env, "manifest_fix_ok", {"bundle": copy},
                   msg.wire_size(copy))

    # -- status handling (step 7) ------------------------------------------

    def on_status(self, env: Envelope):
        gamma = env.payload
        vin = env.src
        record = self.fleet.get(vin)
        if record is None:
            return
        if not self.trust.signed_by(gamma.sigma, (f"{vin}.primary",),
                                    msg.payload_digest(gamma)):
            return  # silent discard
        if not msg.assert_status_fresh_at_sud(gamma.tau, record.last_tau):
            return
        if gamma.nonce in record.seen_nonces:
            return
        entries = gamma.r
        if isinstance(entries, bytes):
            if record.last_r_digest != entries or record.last_full_r is None:
                # No stored R to match the digest against: ask for a full R.
                self.reply(env, "status_need_full", {}, 64)
                return
            entries = record.last_full_r
        else:
            if self.untrusted_secondaries and not self._entries_verified(
                    vin, entries):
                return
        record.seen_nonces.add(gamma.nonce)

        reply_bundles = self._newer_bundles(record, entries)
        for ecu, s, tau in ((e.ecu, e.software, e.tau) for e in entries):
            prev = record.reported.get((ecu, s))
            if prev is None or tau.v >= prev.v:
                record.reported[(ecu, s)] = tau

        reply_tau = msg.TimestampRecord(int(self.world.now) + 1,
                                        gamma.tau.v + 1)
        # Echo nonce: binds the reply to this exact report so a replayed
        # reply from any other exchange is rejected by the vehicle.
        nonce = digest(b"echo" + gamma.nonce)[:msg.NONCE_LEN]
        reply = msg.StatusReport(gamma.r, reply_tau, nonce,
                                 bundles=tuple(reply_bundles))
        reply = msg.sign_message(reply, self.role_keys["timestamp"])
        record.last_tau = msg.TimestampRecord(gamma.tau.t, reply_tau.v)
        if not isinstance(gamma.r, bytes):
            record.last_full_r = tuple(gamma.r)
            record.last_r_digest = digest(msg.signed_region(
                msg.StatusReport(gamma.r, gamma.tau, gamma.nonce)))
        self.reply(env, "status_reply", reply, msg.wire_size(reply))

    def _entries_verified(self, vin: str, entries) -> bool:
        return all(entry.sig is not None and self.trust.signed_by(
            (entry.sig,), (f"{vin}.{entry.ecu}",),
            msg.status_entry_digest(entry)) for entry in entries)

    def _newer_bundles(self, record: FleetRecord, entries):
        reported = {e.software: e.tau for e in entries}
        out = []
        seen = set()
        for (min_id, trigger), bundle in sorted(self.bundles.items()):
            if min_id != record.min or id(bundle) in seen:
                continue
            trigger_mu = next(m for m in bundle.manifests
                              if m.theta.s == trigger)
            have = reported.get(trigger)
            if have is None:
                have = self.min_config[min_id].get(trigger, (None, None))[1]
            if have is not None and trigger_mu.tau.v <= have.v:
                continue
            copy = self.publish_bundle(bundle, record.vin)
            if self.untrusted_secondaries:
                ecus = sorted({m.theta.e for m in bundle.manifests})
                for ecu in ecus:
                    copy = msg.endorse_for_ecu(copy, ecu,
                                               self.role_keys["targets"])
            seen.add(id(bundle))
            out.append(copy)
        return out

    # -- inspection --------------------------------------------------------

    def export_inventory(self) -> str:
        lines = []
        for vin in sorted(self.fleet):
            record = self.fleet[vin]
            for ecu in sorted(record.l_e):
                for mu in record.l_e[ecu]:
                    lines.append(f"{vin} {ecu} {mu.theta.s} "
                                 f"v{mu.tau.v} t{mu.tau.t}")
        return "\n".join(lines) + "\n"
