"""Shared fixture plumbing: a small hand-wired world with one repository,
one director, and helper constructors for signed artifacts, and a small
scenario that takes every download path."""
from __future__ import annotations

import threading

from ota_stations import messages as msg
from ota_stations.crypto import PROVIDERS, KeyRegistry
from ota_stations.director import Director
from ota_stations.image_repo import ImageRepo, location_for
from ota_stations.scenario import ScenarioConfig
from ota_stations.simnet import ENGINE_CABLE, Link, LinkProfile, World

HMAC = PROVIDERS["hmac"]
VIN = "MODEL000000000001"


class Rig:
    def __init__(self, seed=1, untrusted=False, co_update_groups=()):
        self.world = World(seed=seed)
        self.registry = KeyRegistry()
        self.keys = {}
        self.trust = msg.TrustContext(self.registry, {"producer0"})
        self.add_key("producer0")
        self.role_keys = {r: self.add_key(msg.ROLE_IDS[r])
                          for r in msg.ROLE_NAMES}
        self.repo = ImageRepo("repo0", self.world, self.trust)
        self.director = Director(
            "sud0", self.world, self.trust, self.role_keys,
            repo="repo0", repo_link=self.link("sud-repo"),
            co_update_groups=co_update_groups,
            untrusted_secondaries=untrusted)

    def add_key(self, name):
        key = HMAC.generate(name, b"rig")
        self.registry.add(key)
        self.keys[name] = key
        return key

    def link(self, tag, mbps=100.0, latency=1.0):
        return Link(tag, LinkProfile(mbps * 1e6, latency, ENGINE_CABLE))

    def make_update(self, software, version=2, ecu="primary", deps=(),
                    size=1000):
        data = bytes((software + str(version)).encode() * 1)[:1] * size
        location = location_for("repo0", software, version)
        # As `build_scenario` does, the image hashes its buffer once and
        # keeps the digest.
        image = msg.UpdateImage(software, data, 65536)
        theta = msg.MetaRecord(image.data_digest, ecu, software, tuple(deps))
        mu = msg.UpdateManifest(location, theta,
                                msg.TimestampRecord(version, version))
        mu = msg.sign_message(mu, self.keys["producer0"])
        return mu, image

    def seed_update(self, software, version=2, ecu="primary", deps=(),
                    size=1000):
        mu, image = self.make_update(software, version, ecu, deps, size)
        self.repo.store(image, mu, "producer0")
        return self.director.accept_manifest(mu), image


def mixed_config(**kwargs) -> ScenarioConfig:
    """Three vehicles with one secondary each and four 300 kB images: one a
    station cache hit, one a miss, one unknown to the station, and one over
    cellular, over three ignitions.  `kwargs` override any field."""
    fields = dict(
        name="memory-mix", vehicles=3, stations=1, bundle_bytes=1_200_000,
        image_count=4, bucket_size=65536, coverage_pct=75, mix_hit=34,
        mix_miss=33, mix_unknown=33, secondaries_per_vehicle=1,
        ignition_period_ms=60_000.0, ignition_limit=3, horizon_ms=900_000)
    return ScenarioConfig(**{**fields, **kwargs})


def count_thread_starts(monkeypatch) -> list:
    """Record every `threading.Thread` started until `monkeypatch` undoes
    it; returns the list the threads are appended to."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started
