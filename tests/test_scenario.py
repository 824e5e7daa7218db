import contextlib
import faulthandler
import hashlib
import random
import threading

import pytest

from ota_stations import messages, scenario
from ota_stations.adversary import AttackRule
from ota_stations.scenario import (ConfigError, ScenarioConfig,
                                   _image_bytes, _mix_labels, bandwidth_cost,
                                   build_scenario, format_config,
                                   parse_config, run_scenario)


# ---------------------------------------------------------------------------
# Config text format
# ---------------------------------------------------------------------------

def test_parse_format_round_trip():
    config = ScenarioConfig(
        name="rt", seed=9, vehicles=3, stations=2, coverage_pct=50,
        mix_hit=40, mix_miss=30, mix_unknown=30, untrusted_secondaries=True,
        status_deadline_ms=30_000.0, ignition_limit=4,
        compromise=("station0",),
        attacks=(AttackRule("tamper", message_kinds=frozenset({"serve_ok"}),
                            t_start=10.0, t_end=500.0),
                 AttackRule("delay", delay_ms=250.0)))
    assert parse_config(format_config(config)) == config


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
    data = _image_bytes(b"image:0sw0", size)
    assert type(data) is bytes and len(data) == size


def _reference_image_bytes(key: bytes, size: int) -> bytes:
    """The slow model of `_image_bytes`: one keyed 4 KiB run, tiled, and
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
                                  4097, 8184, 8191, 8192, 65537, 1_000_003])
def test_image_bytes_equal_the_reference_model(size):
    key = b"image:0sw0"
    assert _image_bytes(key, size) == _reference_image_bytes(key, size)


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
    images = _images(image_count=4, bundle_bytes=3_000_003)
    assert len(drawn) == len(images) == 4
    assert all(n <= 4096 for n in drawn)


def test_image_bytes_depend_on_seed_and_software_alone():
    assert _image_bytes(b"k", 70_000) == _image_bytes(b"k", 70_000)
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
# The build's helper thread
# ---------------------------------------------------------------------------

def _two_large_images(**fields) -> ScenarioConfig:
    config = ScenarioConfig(vehicles=1, coverage_pct=0, image_count=2,
                            bundle_bytes=2_400_000, **fields)
    assert config.bundle_bytes // 2 >= scenario._HASH_AHEAD_BYTES
    return config


def _count_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@contextlib.contextmanager
def _no_hang(seconds: float = 60):
    """End the test process with every thread's traceback should the block
    not finish in time: a build that waits forever on its helper."""
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_large_images_are_hashed_on_one_helper_thread(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    hashed_on = []
    digest = messages.digest

    def recording_digest(data):
        if len(data) >= scenario._HASH_AHEAD_BYTES:
            hashed_on.append(threading.get_ident())
        return digest(data)

    monkeypatch.setattr(messages, "digest", recording_digest)
    built = build_scenario(_two_large_images())
    assert len(started) == 1
    assert hashed_on == [started[0].ident] * 2
    assert hashed_on[0] != threading.get_ident()
    for item in built.items:
        assert item.manifest.theta.h == hashlib.sha256(
            item.image.data).digest()


def test_small_images_start_no_thread(monkeypatch):
    # The largest images of the other benchmark workloads: 1,000,000 B
    # (attack_suite) lies just under the threshold.
    started = _count_thread_starts(monkeypatch)
    built = build_scenario(ScenarioConfig(
        vehicles=1, coverage_pct=0, image_count=2, bundle_bytes=2_000_000))
    assert started == []
    assert all(len(item.image.data) == 1_000_000 for item in built.items)


def test_a_build_leaves_no_thread_running():
    before = threading.active_count()
    built = build_scenario(_two_large_images())
    assert threading.active_count() == before
    assert [len(item.image.data) for item in built.items] == [1_200_000] * 2


def test_a_failed_build_joins_its_helper_thread(monkeypatch):
    # The second large image fails while the first may still be hashed; the
    # error propagates and the helper is joined.
    made = []
    image_bytes = scenario._image_bytes

    def failing_image_bytes(key, size):
        made.append(size)
        if len(made) == 2:
            raise RuntimeError("no second image")
        return image_bytes(key, size)

    monkeypatch.setattr(scenario, "_image_bytes", failing_image_bytes)
    before = threading.active_count()
    with _no_hang(), pytest.raises(RuntimeError, match="no second image"):
        build_scenario(_two_large_images())
    assert made == [1_200_000] * 2
    assert threading.active_count() == before


def test_a_failed_helper_thread_changes_no_digest(monkeypatch):
    # Every hash on the helper fails.  The manifests read each image's
    # digest, and one the helper did not keep is hashed there.
    digest = messages.digest
    failed = []

    def failing_off_the_main_thread(data):
        if threading.current_thread() is not threading.main_thread():
            failed.append(data)
            raise MemoryError("helper failed")
        return digest(data)

    monkeypatch.setattr(messages, "digest", failing_off_the_main_thread)
    with _no_hang():
        built = build_scenario(_two_large_images())
    assert failed == [item.image.data for item in built.items]
    for item in built.items:
        assert item.manifest.theta.h == hashlib.sha256(
            item.image.data).digest()
        assert built.truth[item.software][1] == item.manifest.theta.h


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
