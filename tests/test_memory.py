"""Memory stays bounded: a built image's bytes are made only when read and
kept by no one, every holder keeps lazy views of its source, and a finished
request leaves nothing behind for the cycle collector.  What a run keeps
does not grow with how long it lasts."""
import gc
import importlib.util
import tracemalloc
import types
import weakref
from collections import Counter, deque
from pathlib import Path

import pytest

from ota_stations import crypto, messages, scenario, simnet
from ota_stations.adversary import AttackRule
from ota_stations.scenario import ImageSource, ScenarioConfig, build_scenario
from ota_stations.suites import family_config
from ota_stations.vehicle import PendingItem


def _cellular_config(vehicles: int) -> ScenarioConfig:
    return ScenarioConfig(
        name="memory", vehicles=vehicles, stations=1, coverage_pct=0,
        bundle_bytes=2_000_000, image_count=2, bucket_size=65536,
        secondaries_per_vehicle=1)


def _run_peak(config: ScenarioConfig) -> int:
    """Peak bytes allocated during `World.run`, above what was live before."""
    built = build_scenario(config)
    gc.collect()
    tracemalloc.start()
    try:
        built.world.run(config.horizon_ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built.world.install_log) == config.vehicles * config.image_count
    return peak


def test_peak_memory_does_not_grow_with_fleet_size():
    # Each vehicle downloads and installs 2 MB; keeping views of the
    # repository's bytes instead of copies makes 14 more vehicles cost less
    # than one image.
    growth = _run_peak(_cellular_config(16)) - _run_peak(_cellular_config(2))
    assert growth < 1_000_000, growth


def _mixed_config(**kwargs) -> ScenarioConfig:
    return ScenarioConfig(
        name="memory-mix", vehicles=3, stations=1, bundle_bytes=1_200_000,
        image_count=4, bucket_size=65536, coverage_pct=75, mix_hit=34,
        mix_miss=33, mix_unknown=33, secondaries_per_vehicle=1,
        ignition_period_ms=60_000.0, ignition_limit=3, horizon_ms=900_000,
        **kwargs)


def _reachable(roots):
    """Every object reachable from `roots`, following closures but not
    modules or classes."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))


def _large_bytes(roots, min_len: int) -> list:
    """Every bytes object of at least `min_len` bytes reachable from
    `roots`."""
    return [obj for obj in _reachable(roots)
            if isinstance(obj, (bytes, bytearray)) and len(obj) >= min_len]


def _traced_peak(fn) -> int:
    """Peak bytes allocated while `fn()` runs, above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_an_image_is_generated_without_a_second_copy():
    # Hashing streams an image's bytes one block at a time: a 10 MB image
    # never exists whole.  At most the block last hashed, the next one
    # and the runs it is joined from are alive.
    source = ImageSource(b"image:0sw0", 10_000_000)
    peak = _traced_peak(lambda: crypto.digest(source))
    assert peak < 3 * scenario._IMAGE_BLOCK + 128 * 1024, peak


def test_a_build_with_large_images_holds_each_image_once():
    # At most once: the build hashes each image from its virtual source
    # and keeps its digest, not its bytes, so no image is held at all.
    config = ScenarioConfig(
        name="memory-build", vehicles=2, stations=1, bundle_bytes=2_400_000,
        image_count=2, bucket_size=65536, secondaries_per_vehicle=1)
    peak = _traced_peak(lambda: build_scenario(config))
    assert peak < 3 * scenario._IMAGE_BLOCK + 256 * 1024, peak


def _workload(name: str) -> list:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name](0)


def test_building_station_mix_peaks_under_4_mb():
    # 100 MB of images, 10 MB each, streamed through SHA-256 in 124 KiB
    # blocks; everything else the build makes is small.
    config, = _workload("station_mix")
    built = []
    peak = _traced_peak(lambda: built.append(build_scenario(config)))
    assert sum(len(item.image.source) for item in built[0].items) \
        == 100_000_000
    assert peak < 4_000_000, peak


def _count_image_reads(monkeypatch) -> list:
    """The (source, start, stop) of every read of a virtual image source."""
    reads = []
    getitem = ImageSource.__getitem__

    def counting_getitem(source, index):
        data = getitem(source, index)
        start, stop, _ = index.indices(len(source))
        reads.append((source, start, stop))
        return data

    monkeypatch.setattr(ImageSource, "__getitem__", counting_getitem)
    return reads


def test_image_bytes_are_shared_by_every_holder(monkeypatch):
    # Every holder keeps lazy views of the repository's image sources, and
    # an untampered run makes no image byte: no image bytes object or
    # buffer of a bucket or more is reachable from an actor afterwards.
    built = build_scenario(_mixed_config())
    kept, pushed = [], []
    # A primary drops an item once it installs, so the chunks it keeps are
    # read as each image completes.
    for primary in built.vehicles:
        def image_complete(item, result, original=primary._image_complete):
            original(item, result)
            kept.extend(chunk for _, chunk, _ in item.buckets)
        primary._image_complete = image_complete
    for secondaries in built.secondaries.values():
        for ecu in secondaries:
            def on_install_group(env, ecu=ecu,
                                 original=ecu.on_install_group):
                pushed.extend(chunk for _, buckets in env.payload["items"]
                              for _, chunk, _ in buckets)
                original(env)
            ecu.on_install_group = on_install_group
    reads = _count_image_reads(monkeypatch)
    runs = []
    image_runs = scenario._image_runs
    monkeypatch.setattr(scenario, "_image_runs",
                        lambda *args: runs.append(args) or image_runs(*args))
    built.world.run(built.config.horizon_ms)
    monkeypatch.undo()
    assert len(built.world.install_log) == 12 and not built.all_alerts()
    assert reads == [] and runs == []

    sources = {id(item.image.source) for item in built.items}
    cached = [chunk for station in built.stations
              for buckets, _ in station.cache.values()
              for _, chunk, _ in buckets]
    assert cached and kept and pushed
    for chunk in cached + kept + pushed:
        assert isinstance(chunk, messages.Chunk)
        assert id(chunk.source) in sources

    assert _large_bytes(list(built.world.actors.values()),
                        built.config.bucket_size) == []


def test_a_tampered_run_makes_bytes_only_for_the_chunks_it_flips_or_checks(
        monkeypatch):
    # The adversary flips the first chunk of each image reply, and the
    # receiver refuses it by making and hashing the genuine chunk's bytes
    # once.  No other image byte is made.
    config = _mixed_config(attacks=(AttackRule(
        "tamper", message_kinds=frozenset({"fetch_ok", "serve_ok"}),
        t_end=200_000.0),))
    built = build_scenario(config)
    reads = _count_image_reads(monkeypatch)
    built.world.run(config.horizon_ms)
    monkeypatch.undo()
    flips = sum(rule == "tamper" for _, rule, _ in built.adversary.events)
    assert flips > 0 and reads
    bucket = config.bucket_size
    assert all(start % bucket == 0 and stop == min(start + bucket, len(source))
               for source, start, stop in reads)
    # One read per flip, and one per genuine chunk whose digest a flip
    # made a receiver compute, once.
    genuine = {(id(source), start) for source, start, _ in reads}
    assert len(reads) == flips + len(genuine)


def test_finished_run_leaves_every_link_empty():
    # A run that ends before its horizon has completed every flow, and no
    # link keeps the heap entry, finish tag or callback of one.
    built = build_scenario(_mixed_config())
    built.world.run(built.config.horizon_ms)
    assert not built.world.horizon_reached
    links = [obj for obj in _reachable(built.world.actors.values())
             if isinstance(obj, simnet.Link)]
    assert {link.profile.cls for link in links} == {
        simnet.CELLULAR, simnet.ENGINE_CABLE, simnet.STATION_WIRE,
        simnet.IN_VEHICLE}
    assert all(link._count == 0 and link._flows == []
               for link in links)


def test_finished_requests_leave_no_reference_cycles():
    # With live publishing the director ingests each image through
    # `Actor.fetch_image`; every request and download is finished by the
    # end of the run and must be freed by reference counting alone, and so
    # must everything else the run made.
    built = build_scenario(_mixed_config(live_publish=True))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        built.world.run(built.config.horizon_ms)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(built.world.install_log) == 12
    leaked = [obj for obj in garbage
              if isinstance(obj, (messages.Received, simnet._Pending,
                                  simnet._Download))
              or (isinstance(obj, types.FunctionType)
                  and obj.__module__ == simnet.__name__)]
    assert leaked == []
    assert garbage == [], garbage[:10]


def test_an_image_and_its_split_form_no_reference_cycle():
    # The split refers to the image's bytes, never to the image, so an image
    # whose buckets a download still keeps is freed by reference counting
    # alone, and the kept buckets still carry the image's digest.
    gc.collect()
    gc.disable()
    try:
        image = messages.UpdateImage("sw0", bytes(range(251)) * 800, 65536)
        data_digest = image.data_digest
        received = messages.Received()
        assert received.add(image.buckets()) == []
        alive = weakref.ref(image)
        del image
        assert alive() is None
    finally:
        gc.enable()
    buckets = tuple(received.buckets[i] for i in range(4))
    assert messages.image_digest(buckets) == data_digest


def _kept_state(ignitions: int, live_publish: bool) -> Counter:
    """Entries in every container an actor, a director's fleet record, or
    the world's key registry holds after a run of `ignitions` per vehicle,
    by (class, attribute)."""
    config = ScenarioConfig(
        vehicles=20, stations=1, coverage_pct=50, bundle_bytes=1_000_000,
        image_count=5, ignition_period_ms=10_000, ignition_limit=ignitions,
        live_publish=live_publish)
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    assert not built.world.horizon_reached
    holders = [built.trust.registry]
    for actor in built.world.actors.values():
        holders += (actor, *getattr(actor, "fleet", {}).values())
    sizes = Counter()
    for holder in holders:
        for name, value in vars(holder).items():
            if isinstance(value, (dict, list, set, deque)):
                sizes[type(holder).__name__, name] += len(value)
    return sizes


def test_a_finished_run_keeps_fewer_than_100_objects_per_vehicle():
    # What the build and the run leave live, with the collector on.  A
    # vehicle keeps its inventory, last status exchange and bundle copies,
    # but no installed item, ignition log or manifest history: 82.8 tracked
    # objects per vehicle on Python 3.11 and 92.9 on 3.10.
    config = ScenarioConfig(
        name="live-set", vehicles=320, stations=1, coverage_pct=0,
        bundle_bytes=1_000_000, image_count=5)
    gc.collect()
    before = len(gc.get_objects())
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    gc.collect()
    per_vehicle = (len(gc.get_objects()) - before) / config.vehicles
    assert len(built.world.install_log) == 5 * config.vehicles
    assert per_vehicle < 100, per_vehicle


@pytest.mark.parametrize("live_publish", [False, True])
def test_kept_state_does_not_grow_with_run_length(live_publish):
    # No record of past status exchanges or ignitions is kept, and the trace
    # is output.  The key registry keeps one entry per key
    # and no verdict; each key pair's signing memo (`KeyPair._signed`) is
    # also the registry's record of what that key issued, and still grows.
    short, long = _kept_state(10, live_publish), _kept_state(40, live_publish)
    registry = [{name: n for (cls, name), n in sizes.items()
                 if cls == "KeyRegistry"} for sizes in (short, long)]
    assert registry[0]["keys"] > 0 and registry[1] == registry[0], registry
    grown = {key: (short[key], n) for key, n in long.items()
             if n > short[key]}
    assert grown == {}


def test_no_actor_keeps_a_reply_to_the_directors_retried_fetches():
    # The director's repository `fetch` is the one request made with a
    # retry budget.  A slow-retrieval attack delays its replies past the
    # 30 s timeout, so it is sent again and the repository answers each
    # sending anew; once the run ends no actor holds a reply.
    config = family_config(0, "slow_retrieval")
    assert config.live_publish
    built = build_scenario(config)
    repo = built.world.actors["repo0"]
    fetched = Counter()
    on_fetch = repo.on_fetch
    repo.on_fetch = lambda env: (fetched.update([(env.src, env.attempt)]),
                                 on_fetch(env))
    built.world.run(config.horizon_ms)
    del repo.on_fetch
    assert not built.world.horizon_reached
    director = built.director.name
    assert fetched[director, 0] and fetched[director, 1], fetched
    roots = [value for actor in built.world.actors.values()
             for name, value in vars(actor).items() if name != "world"]
    assert [obj for obj in _reachable(roots)
            if isinstance(obj, simnet.Envelope)
            and obj.reply_to is not None] == []


def test_a_finished_download_is_dropped():
    # Once an item's group installs, the primary drops the item, and with it
    # its buckets, its `Received` and its finished `_Download`.
    built = build_scenario(_mixed_config())
    built.world.run(built.config.horizon_ms)
    assert len(built.world.install_log) == 12 and not built.all_alerts()
    assert all(primary.pending == {} for primary in built.vehicles)
    assert [obj for obj in _reachable(built.world.actors.values())
            if isinstance(obj, (PendingItem, messages.Received,
                                simnet._Download))] == []
