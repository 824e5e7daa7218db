"""Scenario construction and measurement: config parsing, topology wiring,
fleet bootstrapping, metrics collection, the bandwidth cost model, and the
ground-truth validators used by the property suites.

Config file format (line-oriented, diff-friendly):

    # comment
    [scenario]
    seed = 7
    vehicles = 10
    coverage_pct = 100
    [attack]
    kind = drop
    message_kinds = status_reply
    t_end = 60000

Every `key = value` line under a non-attack section header sets the
ScenarioConfig field of that name.  Each [attack] section declares one
attack rule.  Unknown keys are rejected before the simulation starts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import queue
import struct
import threading
from dataclasses import dataclass, fields
from typing import Optional

from . import messages as msg
from .adversary import ATTACK_KINDS, Adversary, AttackRule
from .broker import Station, UpdateEngine
from .crypto import PROVIDERS, KeyPair, KeyRegistry
# Unused here; perfbench/tracer.py counts hashing by patching `digest` by
# name in every module that imports it.
from .crypto import digest  # noqa: F401
from .director import Director
from .image_repo import ImageRepo, location_for
from .simnet import (CELLULAR, ENGINE_CABLE, IN_VEHICLE, STATION_WIRE, Actor,
                     Link, LinkProfile, World)
from .vehicle import PRIMARY_ECU, SecondaryEcu, VehiclePrimary


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    horizon_ms: float = 4_000_000.0
    crypto: str = "hmac"

    vehicles: int = 1
    stations: int = 1
    models: int = 1
    producers: int = 1
    secondaries_per_vehicle: int = 1

    image_count: int = 5
    bundle_bytes: int = 100_000_000
    bucket_size: int = msg.DEFAULT_BUCKET_SIZE
    coverage_pct: int = 100
    mix_hit: int = 100
    mix_miss: int = 0
    mix_unknown: int = 0
    cache_capacity_bytes: int = 1_000_000_000

    cellular_mbps: float = 5.0
    cellular_latency_ms: float = 30.0
    wire_mbps: float = 100.0
    wire_latency_ms: float = 2.0
    cable_mbps: float = 100.0
    cable_latency_ms: float = 5.0
    backhaul_mbps: float = 10.0
    backhaul_latency_ms: float = 10.0
    invehicle_mbps: float = 100.0
    invehicle_latency_ms: float = 1.0

    untrusted_secondaries: bool = False
    live_publish: bool = False
    flash_latency_ms: float = 50.0
    status_deadline_ms: Optional[float] = None
    image_deadline_ms: Optional[float] = None
    ignition_period_ms: Optional[float] = None
    ignition_limit: Optional[int] = None
    first_ignition_ms: float = 100.0
    ignition_stagger_ms: float = 0.0
    publish_at_ms: float = 50.0

    attacks: tuple = ()
    compromise: tuple = ()         # signer ids handed to the adversary
    revocations: tuple = ()        # (signer id, time ms)

    def validate(self):
        def need(cond, what):
            if not cond:
                raise ConfigError(what)

        need(self.vehicles >= 1, "vehicles must be >= 1")
        need(self.stations >= 0, "stations must be >= 0")
        need(self.models >= 1, "models must be >= 1")
        need(self.producers >= 1, "producers must be >= 1")
        need(self.secondaries_per_vehicle >= 0,
             "secondaries_per_vehicle must be >= 0")
        need(self.image_count >= 1, "image_count must be >= 1")
        need(self.bundle_bytes >= self.image_count,
             "bundle_bytes must cover at least one byte per image")
        need(self.bucket_size >= 1, "bucket_size must be >= 1")
        need(0 <= self.coverage_pct <= 100, "coverage_pct must be 0..100")
        need(self.coverage_pct == 0 or self.stations >= 1,
             "station coverage requires at least one station")
        need(self.mix_hit + self.mix_miss + self.mix_unknown == 100,
             "cache mix percentages must sum to 100")
        need(self.cache_capacity_bytes >= 0, "cache capacity must be >= 0")
        for attr in ("cellular_mbps", "wire_mbps", "cable_mbps",
                     "backhaul_mbps", "invehicle_mbps"):
            need(getattr(self, attr) > 0, f"{attr} must be positive")
        need(self.horizon_ms > 0, "horizon_ms must be positive")
        need(self.crypto in PROVIDERS, f"unknown crypto provider {self.crypto}")
        for rule in self.attacks:
            need(rule.kind in ATTACK_KINDS,
                 f"unknown attack kind {rule.kind}")
        return self


# ---------------------------------------------------------------------------
# Config text format
# ---------------------------------------------------------------------------

_FIELDS = {f.name: f for f in fields(ScenarioConfig)}
_ATTACK_KEYS = ("kind", "message_kinds", "link_cls", "src", "dst",
                "t_start", "t_end", "delay_ms")


def _parse_scalar(raw: str, annotation: str):
    raw = raw.strip()
    if annotation in ("Optional[float]", "Optional[int]"):
        if raw.lower() in ("none", ""):
            return None
        return float(raw) if "float" in annotation else int(raw)
    if annotation == "int":
        return int(raw)
    if annotation == "float":
        return float(raw)
    if annotation == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {raw!r}")
    if annotation == "str":
        return raw
    raise ConfigError(f"unsupported field type {annotation}")


def parse_config(text: str) -> ScenarioConfig:
    values: dict = {}
    attacks: list = []
    current_attack: Optional[dict] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if current_attack is not None:
                attacks.append(current_attack)
                current_attack = None
            if section == "attack":
                current_attack = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if current_attack is not None:
            if key not in _ATTACK_KEYS:
                raise ConfigError(f"line {lineno}: unknown attack key {key}")
            current_attack[key] = raw
            continue
        f = _FIELDS.get(key)
        if f is None:
            raise ConfigError(f"line {lineno}: unknown key {key}")
        if key in ("attacks", "compromise", "revocations"):
            if key == "compromise":
                values[key] = tuple(v.strip() for v in raw.split(",") if v.strip())
                continue
            raise ConfigError(f"line {lineno}: {key} not settable inline")
        values[key] = _parse_scalar(raw, str(f.type))
    if current_attack is not None:
        attacks.append(current_attack)
    if attacks:
        values["attacks"] = tuple(_build_attack(a) for a in attacks)
    return ScenarioConfig(**values).validate()


def _build_attack(raw: dict) -> AttackRule:
    if "kind" not in raw:
        raise ConfigError("attack section requires a kind")
    kinds = raw.get("message_kinds")
    link_cls = raw.get("link_cls")
    return AttackRule(
        kind=raw["kind"],
        message_kinds=frozenset(k.strip() for k in kinds.split(","))
        if kinds else None,
        link_cls=frozenset(c.strip() for c in link_cls.split(","))
        if link_cls else None,
        src=raw.get("src"), dst=raw.get("dst"),
        t_start=float(raw.get("t_start", 0.0)),
        t_end=float(raw.get("t_end", "inf")),
        delay_ms=float(raw.get("delay_ms", 0.0)))


def format_config(config: ScenarioConfig) -> str:
    """Canonical text rendering; parse(format(c)) == c for rule-free configs."""
    lines = ["[scenario]"]
    for f in fields(ScenarioConfig):
        if f.name in ("attacks", "revocations"):
            continue
        value = getattr(config, f.name)
        if f.name == "compromise":
            if not value:
                continue
            value = ",".join(value)
        lines.append(f"{f.name} = {value}")
    for rule in config.attacks:
        lines.append("[attack]")
        lines.append(f"kind = {rule.kind}")
        if rule.message_kinds:
            lines.append("message_kinds = " + ",".join(sorted(rule.message_kinds)))
        if rule.link_cls:
            lines.append("link_cls = " + ",".join(sorted(rule.link_cls)))
        if rule.src:
            lines.append(f"src = {rule.src}")
        if rule.dst:
            lines.append(f"dst = {rule.dst}")
        if rule.t_start:
            lines.append(f"t_start = {rule.t_start}")
        if rule.t_end != float("inf"):
            lines.append(f"t_end = {rule.t_end}")
        if rule.delay_ms:
            lines.append(f"delay_ms = {rule.delay_ms}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Actors created only at scenario level
# ---------------------------------------------------------------------------

class Producer(Actor):
    """Software producer: stores the image, announces the manifest, and
    retries rejected announcements with backoff.  Exhausting the retry
    budget raises the producer's alert so a stalled publication is never
    silent."""

    RETRY_BUDGET = 10
    RETRY_BACKOFF_MS = 20_000.0
    REPLY_TIMEOUT_MS = 60_000.0

    def __init__(self, name: str, world: World, key: KeyPair,
                 repo: str, repo_link: Link, sud: str, sud_link: Link):
        super().__init__(name, world)
        self.key = key
        self.repo = repo
        self.repo_link = repo_link
        self.sud = sud
        self.sud_link = sud_link
        self.alerts: list = []

    def publish(self, mu: msg.UpdateManifest, image: msg.UpdateImage,
                attempt: int = 0):
        self.request(
            self.repo, "store_image",
            {"image": image, "manifest": mu, "producer": self.name},
            len(image.data) + 256, self.repo_link,
            on_reply=lambda r: self._announce(mu, image, attempt)
            if r.kind == "store_ok" else self._retry(mu, image, attempt),
            on_fail=lambda: self._retry(mu, image, attempt),
            timeout_ms=self.REPLY_TIMEOUT_MS)

    def _announce(self, mu, image, attempt: int):
        self.request(self.sud, "producer_manifest", mu, msg.wire_size(mu),
                     self.sud_link,
                     on_reply=lambda r: self._settle(mu, image, attempt, r),
                     on_fail=lambda: self._retry(mu, image, attempt),
                     timeout_ms=self.REPLY_TIMEOUT_MS)

    def _settle(self, mu, image, attempt: int, reply):
        if reply.kind == "manifest_accepted":
            return
        if reply.payload.get("reason") == "stale":
            return  # a same-or-newer version already made it in
        self._retry(mu, image, attempt)

    def _retry(self, mu, image, attempt: int):
        if attempt >= self.RETRY_BUDGET:
            self.alerts.append((self.world.now,
                                f"publish_failed:{mu.theta.s}"))
            return
        self.world.schedule(self.RETRY_BACKOFF_MS,
                            lambda: self.publish(mu, image, attempt + 1))


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------

@dataclass
class SoftwareItem:
    software: str
    ecu: str
    version: int
    image: msg.UpdateImage             # split at the world's bucket size
    manifest: msg.UpdateManifest       # producer-signed
    station_served: bool
    mix_label: str                     # hit | miss | unknown


@dataclass
class Scenario:
    config: ScenarioConfig
    world: World
    trust: msg.TrustContext
    keys: dict
    repo: ImageRepo
    director: Director
    engine: Optional[UpdateEngine]
    stations: list
    producers: list
    vehicles: list
    secondaries: dict                  # vin -> list of SecondaryEcu
    items: list                        # SoftwareItem
    truth: dict                        # software -> (version, digest)
    adversary: Optional[Adversary]

    def revoke_now(self, signer_id: str):
        self.trust.revoke(signer_id)
        if self.engine is not None:
            self.engine.revoke_station(signer_id)

    def vehicle_alerted(self, vehicle: VehiclePrimary) -> bool:
        """Whether the vehicle's primary or any of its secondaries alerted."""
        return bool(vehicle.alerts) or any(
            s.alerts for s in self.secondaries[vehicle.vin])

    def all_alerts(self):
        out = []
        for vehicle in self.vehicles:
            out.extend((vehicle.vin, PRIMARY_ECU, t, reason)
                       for t, reason in vehicle.alerts)
        for vin, secondaries in self.secondaries.items():
            for secondary in secondaries:
                out.extend((vin, secondary.ecu, t, reason)
                           for t, reason in secondary.alerts)
        for producer in self.producers:
            out.extend((producer.name, "-", t, reason)
                       for t, reason in producer.alerts)
        return out


def _min_for(model: int) -> str:
    return f"MODEL{model:06d}"


def _vin_for(model: int, serial: int) -> str:
    return _min_for(model) + f"{serial:06d}"


def _mix_labels(config: ScenarioConfig, served_count: int) -> list:
    n_hit = round(served_count * config.mix_hit / 100)
    n_miss = round(served_count * config.mix_miss / 100)
    labels = (["hit"] * n_hit + ["miss"] * n_miss)
    labels += ["unknown"] * (served_count - len(labels))
    return labels[:served_count]


_IMAGE_RUN = 4096  # keyed bytes drawn for one image; each run ends in its offset


def _image_bytes(key: bytes, size: int) -> bytes:
    """`size` image bytes that depend on `key` alone.

    SHAKE-128 draws one run of `min(size, 4 KiB)` bytes from the key, and
    the run is tiled to `size` by doubling buffer copies.  The last 8 bytes
    of every 4 KiB run are then the run's offset, big-endian, written as 8
    strided byte columns, so no two runs of one image are equal, nor two
    buckets that hold a whole run.  The keyed bytes come first, so images
    shorter than a run differ by key.  The bytes are written into one
    buffer of exactly `size` bytes, which `getvalue` hands over without a
    copy: the build's peak holds each image once.
    """
    first = _IMAGE_RUN - 8  # where run 0's offset stamp starts
    offsets = range(0, size - first, _IMAGE_RUN)
    # Packed before the buffer exists, so the transient tuple of offsets
    # never adds to a peak that holds the image.
    stamps = struct.pack(f">{len(offsets)}Q", *offsets)
    run = hashlib.shake_128(key).digest(min(size, _IMAGE_RUN))
    out = io.BytesIO()
    out.seek(size - 1)
    out.write(b"\0")  # sizes the buffer once, to exactly `size` bytes
    with out.getbuffer() as buf:
        filled = len(run)
        buf[:filled] = run
        while filled < size:
            n = min(filled, size - filled)
            buf[filled:filled + n] = buf[:n]
            filled += n
        for b in range(8):
            count = len(range(first + b, size, _IMAGE_RUN))
            buf[first + b::_IMAGE_RUN] = stamps[b:8 * count:8]
    return out.getvalue()


# Images this large are hashed on the build's helper thread while the
# next one is generated; handing a smaller one over costs more than it saves.
_HASH_AHEAD_BYTES = 1 << 20


def _hash_ahead(todo: queue.SimpleQueue, taken: threading.Semaphore):
    """The build's helper thread: for each image put on `todo` until None,
    release `taken`, then compute and keep the image's `data_digest`.

    A failed hash is left to the manifest's read of `data_digest`, which
    hashes on the build's thread and raises any error that persists; so
    the helper takes every image, and the build never waits on it forever.
    """
    for image in iter(todo.get, None):
        taken.release()
        with contextlib.suppress(Exception):
            image.data_digest


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Build the world of `config`: keys, actors, links, images, signed
    manifests and the fleet, preseeded unless `live_publish` is set.

    Images are generated one after another on this thread.  Each image of
    at least 1 MiB is handed, as soon as its bytes exist, to one helper
    thread that computes its `data_digest` (`hashlib` releases the GIL)
    while this thread generates the next; the hand-over waits until the
    helper has taken the image.  That thread is started, before the first
    image is generated, only when some image is that large, and is joined
    before any manifest is built, also on error.  The manifests then read
    each image's `data_digest`; an image the helper did not hash is hashed
    there, so the result never depends on the helper.  While the helper
    hashes, this thread makes no call that `perfbench/tracer.py` wraps, so
    spans and counts stay exact.  Nothing after the join, and nothing in
    `World.run`, uses a second thread.
    """
    config.validate()
    world = World(seed=config.seed)
    provider = PROVIDERS[config.crypto]
    registry = KeyRegistry()
    keys: dict = {}
    seed_bytes = str(config.seed).encode()

    def make_key(signer_id: str) -> KeyPair:
        key = provider.generate(signer_id, seed_bytes)
        registry.add(key)
        keys[signer_id] = key
        return key

    def profile(mbps: float, latency: float, cls: str) -> LinkProfile:
        return LinkProfile(mbps * 1e6, latency, cls)

    cellular = Link("cellular", profile(config.cellular_mbps,
                                        config.cellular_latency_ms, CELLULAR))
    cable = lambda tag: Link(tag, profile(config.cable_mbps,
                                          config.cable_latency_ms,
                                          ENGINE_CABLE))
    backhaul = lambda tag: Link(tag, profile(config.backhaul_mbps,
                                             config.backhaul_latency_ms,
                                             ENGINE_CABLE))

    producer_ids = {f"producer{i}" for i in range(config.producers)}
    for pid in sorted(producer_ids):
        make_key(pid)
    role_keys = {role: make_key(msg.ROLE_IDS[role]) for role in msg.ROLE_NAMES}
    trust = msg.TrustContext(registry, producer_ids)

    repo = ImageRepo("repo0", world, trust)
    director = Director("sud0", world, trust, role_keys,
                        repo="repo0", repo_link=cable("sud-repo"),
                        untrusted_secondaries=config.untrusted_secondaries)

    engine = None
    stations: list = []
    if config.stations > 0:
        engine_key = make_key("engine0")
        engine = UpdateEngine("engine0", world, trust, engine_key,
                              sud="sud0", sud_link=cable("engine-sud"))
        for i in range(config.stations):
            sid = f"station{i}"
            station = Station(sid, world, trust, make_key(sid),
                              engine="engine0",
                              engine_link=cable(f"{sid}-engine"),
                              repo="repo0", repo_link=backhaul(f"{sid}-repo"),
                              capacity_bytes=config.cache_capacity_bytes)
            stations.append(station)

    # -- software catalog and ground truth --------------------------------
    ecus = [PRIMARY_ECU] + [f"ecu{j}"
                            for j in range(1, config.secondaries_per_vehicle + 1)]
    per_image = config.bundle_bytes // config.image_count
    served_count = round(config.image_count * config.coverage_pct / 100)
    labels = _mix_labels(config, served_count)
    sizes = [per_image] * (config.image_count - 1)
    sizes.append(config.bundle_bytes - sum(sizes))
    images: list = []
    helper = None
    if max(sizes) >= _HASH_AHEAD_BYTES:
        # Started before the first image is generated, so that it waits on
        # `todo` by the first hand-over and then wakes on an idle CPU.  A
        # thread started at the hand-over would first run on this thread's
        # CPU while this thread waits, which can move this thread to
        # another CPU for the rest of the build and the run.
        todo, taken = queue.SimpleQueue(), threading.Semaphore(0)
        helper = threading.Thread(target=_hash_ahead, args=(todo, taken))
        helper.start()
    try:
        for i, size in enumerate(sizes):
            software = f"sw{i}"
            data = _image_bytes(b"image:" + seed_bytes + software.encode(),
                                size)
            image = msg.UpdateImage(software, data, config.bucket_size)
            images.append(image)
            if size >= _HASH_AHEAD_BYTES:
                todo.put(image)
                # Wait, without the GIL, until the helper has taken the
                # image: were this thread in a long buffer copy when the
                # helper needs the GIL to start the hash, the helper would
                # wait out the interpreter's 5 ms switch interval.  A hash
                # that outlasts the next image's generation ends while this
                # thread waits here again, so it too finds the GIL free.
                taken.acquire()
    finally:
        if helper is not None:
            todo.put(None)
            helper.join()
    items: list = []
    truth: dict = {}
    for i, image in enumerate(images):
        software = image.s
        ecu = ecus[i % len(ecus)]
        version = 2
        location = location_for("repo0", software, version)
        data_digest = image.data_digest
        theta = msg.MetaRecord(data_digest, ecu, software)
        mu = msg.UpdateManifest(location, theta,
                                msg.TimestampRecord(2, version))
        producer = sorted(producer_ids)[i % len(producer_ids)]
        mu = msg.sign_message(mu, keys[producer])
        served = i < served_count
        items.append(SoftwareItem(software, ecu, version, image, mu, served,
                                  labels[i] if served else "cellular"))
        truth[software] = (version, data_digest)

    # -- fleet -------------------------------------------------------------
    initial = {item.software: (item.ecu, msg.TimestampRecord(1, 1))
               for item in items}
    vehicles: list = []
    secondaries: dict = {}
    cellular_updates = {item.software for item in items
                       if not item.station_served}
    for i in range(config.vehicles):
        model = i % config.models
        vin = _vin_for(model, i)
        primary_key = make_key(f"{vin}.primary")
        # The bare VIN aliases the primary key so grant subjects resolve.
        registry.add(KeyPair(vin, primary_key.public_key, b"",
                             primary_key.scheme))
        director.register_vehicle(vin, initial)
        station_name = None
        station_link = None
        if stations and config.coverage_pct > 0:
            station_name = stations[i % len(stations)].name
            station_link = Link(f"wire-{vin}",
                                profile(config.wire_mbps,
                                        config.wire_latency_ms, STATION_WIRE))
        vehicle_secondaries = {}
        secondary_actors = []
        for ecu in ecus[1:]:
            key = make_key(f"{vin}.{ecu}")
            link = Link(f"bus-{vin}-{ecu}",
                        profile(config.invehicle_mbps,
                                config.invehicle_latency_ms, IN_VEHICLE))
            secondary = SecondaryEcu(
                vin, ecu, world, trust, key,
                initial={item.software: (msg.TimestampRecord(1, 1), None)
                         for item in items if item.ecu == ecu},
                untrusted=config.untrusted_secondaries,
                flash_latency_ms=config.flash_latency_ms,
                status_deadline_ms=config.status_deadline_ms,
                image_deadline_ms=config.image_deadline_ms)
            secondary_actors.append(secondary)
            vehicle_secondaries[ecu] = (secondary.name, link)
        vehicle = VehiclePrimary(
            vin, world, trust, primary_key,
            sud="sud0", sud_link=cellular, repo="repo0", repo_link=cellular,
            initial=initial,
            secondaries=vehicle_secondaries,
            station=station_name, station_link=station_link,
            untrusted=config.untrusted_secondaries,
            flash_latency_ms=config.flash_latency_ms,
            status_deadline_ms=config.status_deadline_ms,
            image_deadline_ms=config.image_deadline_ms,
            ignition_period_ms=config.ignition_period_ms,
            ignition_limit=config.ignition_limit,
            cellular_updates=cellular_updates)
        vehicles.append(vehicle)
        secondaries[vin] = secondary_actors

    # -- subscriptions (onboarding-time wiring, both modes) ----------------
    model_mins = sorted({v.vin[:msg.MIN_LEN] for v in vehicles})
    if engine is not None:
        for min_id in model_mins:
            director.subscribers.setdefault(min_id, {})["engine0"] = \
                engine.sud_link
            for station in stations:
                engine.subscriptions.setdefault(min_id, {})[station.name] = \
                    station.engine_link

    producers: list = []
    if config.live_publish:
        for i in range(config.producers):
            producer = Producer(f"producer{i}", world, keys[f"producer{i}"],
                                repo="repo0", repo_link=cable(f"prod{i}-repo"),
                                sud="sud0", sud_link=cable(f"prod{i}-sud"))
            producers.append(producer)
        for i, item in enumerate(items):
            producer = producers[i % len(producers)]
            world.schedule(config.publish_at_ms + i,
                           lambda p=producer, m=item.manifest, im=item.image:
                           p.publish(m, im))
    else:
        _preseed(repo, director, engine, stations, items, model_mins)

    adversary = None
    if config.attacks or config.compromise:
        adversary = Adversary(config.attacks)
        for label in config.compromise:
            if label not in keys:
                raise ConfigError(f"cannot compromise unknown key {label}")
            adversary.compromise_key(label, keys[label])
        world.adversary = adversary

    scenario = Scenario(config, world, trust, keys, repo,
                        director, engine, stations, producers, vehicles,
                        secondaries, items, truth, adversary)
    for signer_id, at_ms in config.revocations:
        world.schedule(at_ms, lambda s=signer_id: scenario.revoke_now(s))
    for i, vehicle in enumerate(vehicles):
        world.schedule(config.first_ignition_ms
                       + i * config.ignition_stagger_ms, vehicle.ignition)
    return scenario


def _preseed(repo, director, engine, stations, items, model_mins):
    """Run publishing steps 1-5 at build time so measurements start at the
    vehicle download phase."""
    for item in items:
        producer = sorted({e.signer_id for e in item.manifest.sigma})[0]
        repo.store(item.image, item.manifest, producer)
        director.accept_manifest(item.manifest)
    for min_id in model_mins:
        for item in items:
            bundle = director.resolve_and_bundle(item.software, min_id)
            if bundle is None or engine is None:
                continue
            engine.record(director.publish_bundle(bundle, "engine0"), min_id)
    for station in stations:
        for min_id in model_mins:
            station.known_models.add(min_id)
        for item in items:
            if not item.station_served:
                continue
            if item.mix_label == "hit":
                station.cache_insert(item.software, item.version,
                                     item.image.buckets())
            elif item.mix_label == "unknown":
                station.unknown_updates.add(item.software)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VehicleRow:
    vin: str
    ignition_ms: Optional[float]
    manifest_ms: Optional[float]     # time from ignition to validated reply
    download_ms: Optional[float]     # time from ignition to all installs
    alert: bool


@dataclass(frozen=True)
class MetricsReport:
    name: str
    seed: int
    horizon_reached: bool
    rows: tuple
    bytes_by_class: dict
    cache_counts: dict
    alert_count: int
    install_count: int

    @property
    def download_times(self) -> list:
        return [row.download_ms for row in self.rows
                if row.download_ms is not None]

    @property
    def mean_download_ms(self) -> Optional[float]:
        times = self.download_times
        return sum(times) / len(times) if times else None

    def csv_lines(self):
        yield "section,key,value"
        yield f"scenario,name,{self.name}"
        yield f"scenario,seed,{self.seed}"
        yield f"scenario,horizon_reached,{int(self.horizon_reached)}"
        yield f"scenario,install_count,{self.install_count}"
        yield f"scenario,alert_count,{self.alert_count}"
        mean = self.mean_download_ms
        yield ("scenario,mean_download_ms,"
               + (f"{mean:.3f}" if mean is not None else ""))
        for cls in sorted(self.bytes_by_class):
            yield f"bytes,{cls},{self.bytes_by_class[cls]}"
        for outcome in sorted(self.cache_counts):
            yield f"cache,{outcome},{self.cache_counts[outcome]}"
        for row in self.rows:
            def fmt(value):
                return f"{value:.3f}" if value is not None else ""
            yield (f"vehicle,{row.vin},ignition={fmt(row.ignition_ms)};"
                   f"manifest={fmt(row.manifest_ms)};"
                   f"download={fmt(row.download_ms)};alert={int(row.alert)}")

    def to_csv(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.csv_lines():
                fh.write(line + "\n")


def collect_report(scenario: Scenario) -> MetricsReport:
    world = scenario.world
    bytes_by_class: dict = {}
    for rec in world.trace:
        bytes_by_class[rec.link_cls] = \
            bytes_by_class.get(rec.link_cls, 0) + rec.size
    cache_counts = {"hit": 0, "miss": 0, "unknown": 0}
    for station in scenario.stations:
        for _, outcome, _ in station.events:
            cache_counts[outcome] = cache_counts.get(outcome, 0) + 1
    rows = []
    for vehicle in scenario.vehicles:
        ignitions = vehicle.records["ignitions"]
        t0 = ignitions[0] if ignitions else None
        manifest = vehicle.records["manifest_done"]
        complete = vehicle.records["complete"]
        rows.append(VehicleRow(
            vehicle.vin, t0,
            manifest - t0 if (manifest is not None and t0 is not None) else None,
            complete - t0 if (complete is not None and t0 is not None) else None,
            scenario.vehicle_alerted(vehicle)))
    return MetricsReport(
        name=scenario.config.name, seed=scenario.config.seed,
        horizon_reached=world.horizon_reached, rows=tuple(rows),
        bytes_by_class=bytes_by_class, cache_counts=cache_counts,
        alert_count=len(scenario.all_alerts()),
        install_count=len(world.install_log))


def run_scenario(config: ScenarioConfig,
                 csv_path: Optional[str] = None) -> MetricsReport:
    scenario = build_scenario(config)
    scenario.world.run(config.horizon_ms)
    report = collect_report(scenario)
    if csv_path is not None:
        report.to_csv(csv_path)
    return report


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def bandwidth_cost(report: MetricsReport, rate: float):
    """(cellular cost at `rate` per byte, cellular share of the vehicle-facing
    traffic).  Backhaul and in-vehicle traffic are not metered."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    cellular = report.bytes_by_class.get(CELLULAR, 0)
    wire = report.bytes_by_class.get(STATION_WIRE, 0)
    total = cellular + wire
    relative = cellular / total if total else 0.0
    return rate * cellular, relative


# ---------------------------------------------------------------------------
# Ground-truth validators
# ---------------------------------------------------------------------------

def safety_violations(scenario: Scenario) -> list:
    """Install-log entries whose bytes or version differ from what the
    producers published, or that regress an ECU."""
    out = []
    latest: dict = {}
    for time, vin, ecu, software, version, image_digest \
            in scenario.world.install_log:
        truth = scenario.truth.get(software)
        if truth is None:
            out.append(f"{time:.1f} {vin}.{ecu} installed unpublished "
                       f"{software}")
            continue
        true_version, true_digest = truth
        if image_digest != true_digest:
            out.append(f"{time:.1f} {vin}.{ecu} {software} bytes differ "
                       f"from published image")
        if version != true_version:
            out.append(f"{time:.1f} {vin}.{ecu} {software} version "
                       f"{version} != published {true_version}")
        prev = latest.get((vin, ecu, software), 1)
        if version < prev:
            out.append(f"{time:.1f} {vin}.{ecu} {software} regressed "
                       f"{prev} -> {version}")
        latest[(vin, ecu, software)] = max(prev, version)
    return out


def liveness_failures(scenario: Scenario) -> list:
    """Vehicles with an applicable published update that neither installed
    nor raised an alert before the horizon."""
    installed = {(vin, ecu, software): version
                 for _, vin, ecu, software, version, _
                 in scenario.world.install_log}
    out = []
    producer_alerted = any(p.alerts for p in scenario.producers)
    for item in scenario.items:
        published = bool(scenario.director.catalog.get(item.software))
        if not published:
            # Publication itself was prevented; the producer's retry budget
            # must have raised the alarm.
            if not producer_alerted:
                out.append(f"{item.software} v{item.version} never "
                           f"published and no alert")
            continue
        for vehicle in scenario.vehicles:
            if scenario.vehicle_alerted(vehicle):
                continue
            got = installed.get((vehicle.vin, item.ecu, item.software))
            if got is None or got < item.version:
                out.append(f"{vehicle.vin} missing {item.software} "
                           f"v{item.version} with no alert")
    return out


def false_alarms(scenario: Scenario) -> list:
    return [f"{vin}.{ecu} {reason} at {t:.1f}"
            for vin, ecu, t, reason in scenario.all_alerts()]
