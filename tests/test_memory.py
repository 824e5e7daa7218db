"""Memory stays bounded: an image's bytes exist once per world, every holder
keeps read-only views of them, and a finished request leaves nothing
behind for the cycle collector.  What a run keeps does not grow with how
long it lasts."""
import gc
import tracemalloc
import types
import weakref
from collections import Counter, deque

import pytest

from ota_stations import messages, simnet
from ota_stations.scenario import ScenarioConfig, _image_bytes, build_scenario
from ota_stations.suites import family_config


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
    """Every object reachable from `roots`, following closures and views
    but not modules or classes."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, memoryview):
            stack.append(obj.obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))


def _large_bytes(roots, min_len: int) -> list:
    """Every bytes object of at least `min_len` bytes reachable from
    `roots`."""
    return [obj for obj in _reachable(roots)
            if isinstance(obj, (bytes, bytearray)) and len(obj) >= min_len]


def test_an_image_is_generated_without_a_second_copy():
    # The build holds every image of a world at once, so a transient second
    # copy while one image is made (a `join(...)[:size]` that copies, an
    # int round trip) would show in the build's peak RSS.
    size = 10_000_000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        data = _image_bytes(b"image:0sw0", size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == size
    assert peak - before < size + 128 * 1024, peak - before


def test_a_build_with_large_images_holds_each_image_once():
    # Both images are hashed on the build's helper thread.  tracemalloc
    # traces every thread, so a copy of an image made there, or kept by the
    # thread, would add 1.2 MB to the peak; the rest of this build (keys,
    # actors, manifests, the thread itself) takes about 60 KB.
    config = ScenarioConfig(
        name="memory-build", vehicles=2, stations=1, bundle_bytes=2_400_000,
        image_count=2, bucket_size=65536, secondaries_per_vehicle=1)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        built = build_scenario(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sizes = [len(item.image.data) for item in built.items]
    assert sizes == [1_200_000] * 2
    assert peak - before < sum(sizes) + 256 * 1024, peak - before - sum(sizes)


def test_image_bytes_are_shared_by_every_holder():
    built = build_scenario(_mixed_config())
    pushed = []
    for secondaries in built.secondaries.values():
        for ecu in secondaries:
            def on_install_group(env, ecu=ecu,
                                 original=ecu.on_install_group):
                pushed.extend(chunk for _, buckets in env.payload["items"]
                              for _, chunk, _ in buckets)
                original(env)
            ecu.on_install_group = on_install_group
    built.world.run(built.config.horizon_ms)
    assert len(built.world.install_log) == 12 and not built.all_alerts()

    images = {id(item.image.data) for item in built.items}
    cached = [chunk for station in built.stations
              for buckets, _ in station.cache.values()
              for _, chunk, _ in buckets]
    kept = [chunk for primary in built.vehicles
            for item in primary.pending.values()
            for _, chunk, _ in item.buckets]
    assert cached and kept and pushed
    for chunk in cached + kept + pushed:
        assert isinstance(chunk, memoryview) and chunk.readonly
        assert id(chunk.obj) in images

    smallest = min(len(item.image.data) for item in built.items)
    held = _large_bytes(list(built.world.actors.values()), smallest)
    assert held and all(id(data) in images for data in held)


def test_finished_run_leaves_every_link_empty():
    # A run that ends before its horizon has completed every flow, and no
    # link keeps the finish tag, the tag group or the callback of one.
    built = build_scenario(_mixed_config())
    built.world.run(built.config.horizon_ms)
    assert not built.world.horizon_reached
    links = [obj for obj in _reachable(built.world.actors.values())
             if isinstance(obj, simnet.Link)]
    assert {link.profile.cls for link in links} == {
        simnet.CELLULAR, simnet.ENGINE_CABLE, simnet.STATION_WIRE,
        simnet.IN_VEHICLE}
    assert all(link._count == 0 and link._tags == [] and link._flows == {}
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
    by (class, attribute).  A vehicle's `records` are output, and are left
    out."""
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
            if isinstance(value, (dict, list, set, deque)) \
                    and name != "records":
                sizes[type(holder).__name__, name] += len(value)
    return sizes


@pytest.mark.parametrize("live_publish", [False, True])
def test_kept_state_does_not_grow_with_run_length(live_publish):
    # No record of past status exchanges is kept.  The trace and each vehicle's
    # ignition times are output.  The key registry keeps one entry per key
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
    # Once an item's image is complete, its `_Download`, and the closure
    # cycle through the item, are freed.
    built = build_scenario(_mixed_config())
    built.world.run(built.config.horizon_ms)
    items = [item for primary in built.vehicles
             for item in primary.pending.values()]
    assert items and all(item.buckets is not None for item in items)
    assert [item for item in items if item.download is not None] == []
