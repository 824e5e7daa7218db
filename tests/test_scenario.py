import hashlib
import random
import threading

import pytest

from helpers import count_thread_starts
from ota_stations import messages, scenario
from ota_stations.adversary import AttackRule
from ota_stations.scenario import (ConfigError, ImageSource, ScenarioConfig,
                                   _mix_labels, bandwidth_cost,
                                   build_scenario, parse_config,
                                   run_scenario)


# ---------------------------------------------------------------------------
# Config text format
# ---------------------------------------------------------------------------

def test_parse_reads_every_field_kind():
    text = """
    [scenario]
    name = rt
    seed = 9
    vehicles = 3
    stations = 2
    coverage_pct = 50
    mix_hit = 40
    mix_miss = 30
    mix_unknown = 30
    untrusted_secondaries = true
    status_deadline_ms = 30000
    image_deadline_ms = none
    ignition_limit = 4
    compromise = station0
    [attack]
    kind = tamper
    message_kinds = serve_ok
    t_start = 10
    t_end = 500
    [attack]
    kind = delay
    delay_ms = 250
    """
    assert parse_config(text) == ScenarioConfig(
        name="rt", seed=9, vehicles=3, stations=2, coverage_pct=50,
        mix_hit=40, mix_miss=30, mix_unknown=30, untrusted_secondaries=True,
        status_deadline_ms=30_000.0, ignition_limit=4,
        compromise=("station0",),
        attacks=(AttackRule("tamper", message_kinds=frozenset({"serve_ok"}),
                            t_start=10.0, t_end=500.0),
                 AttackRule("delay", delay_ms=250.0)))


def test_parse_handles_comments_blanks_and_sections():
    text = """
    [scenario]
    # a comment
    name = demo   # trailing comment
    vehicles = 2

    [attack]
    kind = drop
    dst = sud0
    """
    config = parse_config(text)
    assert config.name == "demo"
    assert config.vehicles == 2
    assert config.attacks[0].kind == "drop"
    assert config.attacks[0].dst == "sud0"


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown key warp"):
        parse_config("name = x\nwarp = 9\n")
    # Request timeouts and retries are each request's own, not config keys.
    # The links, the one producer, the first ignition and the flash latency
    # are constants, so a config that sets one fails instead of being
    # ignored.
    for key in ("request_timeout_ms", "request_retries", "cellular_mbps",
                "cellular_latency_ms", "wire_mbps", "wire_latency_ms",
                "cable_mbps", "cable_latency_ms", "backhaul_mbps",
                "backhaul_latency_ms", "invehicle_mbps",
                "invehicle_latency_ms", "producers", "first_ignition_ms",
                "flash_latency_ms"):
        with pytest.raises(ConfigError, match=f"line 2: unknown key {key}$"):
            parse_config(f"name = x\n{key} = 1\n")
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="unknown attack key"):
        parse_config("[attack]\nkind = drop\nwhom = x\n")


def test_validation_rules():
    with pytest.raises(ConfigError, match="sum to 100"):
        ScenarioConfig(mix_hit=50, mix_miss=0, mix_unknown=0).validate()
    with pytest.raises(ConfigError, match="at least one station"):
        ScenarioConfig(coverage_pct=50, stations=0).validate()
    with pytest.raises(ConfigError, match="unknown crypto"):
        ScenarioConfig(crypto="rot13").validate()
    with pytest.raises(ConfigError, match="unknown attack kind"):
        ScenarioConfig(attacks=(AttackRule("teleport"),)).validate()


@pytest.mark.parametrize("field, value", [
    ("ignition_period_ms", 0.0), ("ignition_period_ms", -5.0),
    ("status_deadline_ms", 0.0), ("image_deadline_ms", -1.0),
    ("ignition_stagger_ms", -1.0), ("publish_at_ms", -1.0),
    ("revocations", (("station0", -1.0),)), ("ignition_limit", -1),
    ("attacks", (AttackRule("delay", frozenset({"status_reply"}),
                            delay_ms=-500.0),)),
    ("attacks", (AttackRule("delay", delay_ms=float("nan")),)),
])
def test_validation_refuses_a_delay_that_stalls_or_reverses_the_clock(
        field, value):
    # A zero ignition period reschedules each ignition at +0 forever, so
    # this world would never reach its horizon; a negative delay schedules
    # an event in the past.  No world is built here.
    config = ScenarioConfig(vehicles=1, coverage_pct=0, image_count=1,
                            bundle_bytes=1000, horizon_ms=1000.0,
                            **{field: value})
    with pytest.raises(ConfigError, match="must be"):
        config.validate()


def test_mix_labels_cover_all_served_items():
    config = ScenarioConfig(mix_hit=40, mix_miss=30, mix_unknown=30)
    labels = _mix_labels(config, 10)
    assert len(labels) == 10
    assert labels.count("hit") == 4
    assert labels.count("miss") == 3
    assert labels.count("unknown") == 3


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _small(seed=3):
    return ScenarioConfig(name="det", seed=seed, bundle_bytes=500_000,
                          image_count=3, vehicles=2, coverage_pct=50,
                          mix_hit=100, secondaries_per_vehicle=1,
                          horizon_ms=600_000)


def test_same_config_and_seed_give_identical_csv_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(_small(), csv_path=str(a))
    run_scenario(_small(), csv_path=str(b))
    assert a.read_bytes() == b.read_bytes()
    assert b.read_bytes().startswith(b"section,key,value\n")


def test_different_seed_changes_the_trace():
    lines = [tuple(run_scenario(_small(seed)).csv_lines()) for seed in (3, 4)]
    assert lines[0] != lines[1]


# ---------------------------------------------------------------------------
# Image bytes
# ---------------------------------------------------------------------------

def _images(**fields) -> list:
    config = ScenarioConfig(vehicles=1, coverage_pct=0, **fields)
    return [item.image.data for item in build_scenario(config).items]


@pytest.mark.parametrize("size", [1, 7, 8, 9, 4095, 4096, 4097, 65536,
                                  65537, 1_000_003])
def test_image_bytes_have_exactly_the_asked_size(size):
    source = ImageSource(b"image:0sw0", size)
    data = source[:]
    assert type(data) is bytes and len(data) == len(source) == size
    assert sum(len(block) for block in source) == size


def _reference_image_bytes(key: bytes, size: int) -> bytes:
    """The slow model of `ImageSource`: one keyed 4 KiB run, tiled, and
    each run's last 8 bytes overwritten by its offset, one run at a time."""
    run = hashlib.shake_128(key).digest(min(size, 4096))
    out = bytearray()
    while len(out) < size:
        out += run[:size - len(out)]
    for start in range(0, size, 4096):
        stamp = start + 4088
        if stamp < size:
            data = start.to_bytes(8, "big")[:size - stamp]
            out[stamp:stamp + len(data)] = data
    return bytes(out)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 4087, 4088, 4089, 4095, 4096,
                                  4097, 8184, 8191, 8192, 65537, 1_000_003,
                                  2_100_000])
def test_image_bytes_equal_the_reference_model(size):
    # The whole image, its blocks as a digest streams them, and slices
    # that start and end on either side of run and block boundaries.
    key = b"image:0sw0"
    source = ImageSource(key, size)
    reference = _reference_image_bytes(key, size)
    assert source[:] == reference
    blocks = [bytes(block) for block in source]
    assert all(len(block) <= scenario._IMAGE_BLOCK for block in blocks)
    assert b"".join(blocks) == reference
    cuts = sorted({min(max(cut, 0), size) for edge in (
        4088, 4096, 8192, scenario._IMAGE_BLOCK, size)
        for cut in (edge - 9, edge - 1, edge, edge + 1)} | {0, size})
    for start in cuts:
        for stop in cuts:
            assert source[start:stop] == reference[start:stop], (start, stop)


def test_the_build_draws_at_most_one_run_per_image(monkeypatch):
    drawn = []
    shake_128 = hashlib.shake_128

    class Counting:
        def __init__(self, key):
            self.xof = shake_128(key)

        def digest(self, n):
            drawn.append(n)
            return self.xof.digest(n)

    monkeypatch.setattr(hashlib, "shake_128", Counting)
    # The build reads each image once, to stream it through SHA-256, and
    # an image of 3 blocks is one read.
    built = build_scenario(ScenarioConfig(vehicles=1, coverage_pct=0,
                                          image_count=4,
                                          bundle_bytes=12_000_003))
    assert len(drawn) == len(built.items) == 4
    assert all(n <= 4096 for n in drawn)


def test_image_bytes_depend_on_seed_and_software_alone():
    assert ImageSource(b"k", 70_000)[:] == ImageSource(b"k", 70_000)[:]
    first = _images(seed=5, bundle_bytes=300_000, image_count=3)
    assert _images(seed=5, bundle_bytes=300_000, image_count=3) == first
    # A different seed changes every image, and the images of one world,
    # named sw0..sw2, differ from each other.
    other = _images(seed=6, bundle_bytes=300_000, image_count=3)
    assert all(a != b for a, b in zip(first, other))
    assert len(set(first)) == 3


def test_one_byte_images_of_one_world_differ():
    # Keyed bytes come first, so an image shorter than a run is keyed
    # bytes alone; were the offset stamp first, every such image would be
    # the zero offset.
    images = _images(bundle_bytes=5, image_count=5)
    assert all(len(data) == 1 for data in images)
    assert len(set(images)) == 5


@pytest.mark.parametrize("bucket_size", [4_096, 8_192, 32_768, 65_536,
                                         262_144])
def test_no_two_buckets_of_a_built_image_are_equal(bucket_size):
    # Each image is 1 MB, 245 tiles of its 4 KiB keyed run; only the
    # offset stamps tell the runs apart.
    config = ScenarioConfig(vehicles=1, coverage_pct=0, image_count=2,
                            bundle_bytes=2_000_000, bucket_size=bucket_size)
    for item in build_scenario(config).items:
        chunks = [bytes(chunk) for _, chunk, _ in item.image.buckets()]
        assert len(chunks) > 1 and len(set(chunks)) == len(chunks)


def test_the_build_draws_nothing_from_the_world_rng():
    # Only vehicle nonces consume the world's stream.
    config = ScenarioConfig(seed=11, vehicles=2, bundle_bytes=200_000,
                            coverage_pct=50, mix_hit=100)
    built = build_scenario(config)
    assert built.world.rng.getstate() == random.Random(config.seed).getstate()


# ---------------------------------------------------------------------------
# Threads
# ---------------------------------------------------------------------------

def test_small_images_start_no_thread(monkeypatch):
    # Below 8 MiB of images a build hashes them on its own thread, and a
    # run is single-threaded.  4 MB is cellular_fleet's build.
    started = count_thread_starts(monkeypatch)
    for bundle_bytes in (2_000_000, 2_400_000, 4_000_000):
        config = ScenarioConfig(vehicles=1, coverage_pct=0, image_count=2,
                                bundle_bytes=bundle_bytes)
        built = build_scenario(config)
        built.world.run(config.horizon_ms)
        assert len(built.world.install_log) == 2
    assert started == []


def test_a_build_leaves_no_thread_running():
    # 9 MB of images are hashed on two threads, 2.4 MB on one.
    before = threading.active_count()
    for bundle_bytes in (2_400_000, 9_000_000):
        built = build_scenario(ScenarioConfig(vehicles=1, coverage_pct=0,
                                              image_count=2,
                                              bundle_bytes=bundle_bytes))
        assert threading.active_count() == before
        assert [len(item.image.source) for item in built.items] \
            == [bundle_bytes // 2] * 2


def test_a_failed_image_hash_fails_the_build_and_keeps_no_digest(
        monkeypatch):
    # 9 MB of images are hashed on two threads.  Whichever thread hashes
    # sw1, its failure reaches the caller, the helper is joined, and no
    # image keeps a digest other than its SHA-256.
    class HashFailed(Exception):
        pass

    real_digest = messages.digest
    images = []
    real_digest_images = scenario._digest_images

    def failing_digest(data):
        if isinstance(data, ImageSource) and data.key.endswith(b"sw1"):
            raise HashFailed
        return real_digest(data)

    def recording_digest_images(built_images):
        images.extend(built_images)
        real_digest_images(built_images)

    monkeypatch.setattr(messages, "digest", failing_digest)
    monkeypatch.setattr(scenario, "_digest_images", recording_digest_images)
    before = threading.active_count()
    with pytest.raises(HashFailed):
        build_scenario(ScenarioConfig(vehicles=1, coverage_pct=0,
                                      image_count=2, bundle_bytes=9_000_000))
    assert threading.active_count() == before
    assert [image.s for image in images] == ["sw0", "sw1"]
    assert images[1]._digest is None
    assert images[0]._digest in (None, hashlib.sha256(images[0].data).digest())


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def test_cost_rate_must_be_positive():
    report = run_scenario(_small())
    with pytest.raises(ValueError):
        bandwidth_cost(report, 0.0)
    with pytest.raises(ValueError):
        bandwidth_cost(report, -1.0)


def test_cost_scales_linearly_with_rate():
    report = run_scenario(_small())
    cost1, rel1 = bandwidth_cost(report, 1e-9)
    cost2, rel2 = bandwidth_cost(report, 2e-9)
    assert cost2 == pytest.approx(2 * cost1)
    assert rel1 == rel2


def test_relative_cost_is_one_without_stations():
    config = ScenarioConfig(name="cell", bundle_bytes=500_000, image_count=2,
                            coverage_pct=0, stations=0, horizon_ms=600_000)
    report = run_scenario(config)
    _, relative = bandwidth_cost(report, 1e-9)
    assert relative == 1.0
    assert report.install_count == 2


def test_relative_cost_is_small_with_full_coverage():
    report = run_scenario(_small())
    _, relative = bandwidth_cost(report, 1e-9)
    assert relative < 0.5
