"""Memory stays bounded: an image's bytes exist once per world, every holder
keeps read-only views of them, and a finished request leaves nothing
behind for the cycle collector."""
import gc
import tracemalloc
import types

from ota_stations import messages, simnet
from ota_stations.scenario import ScenarioConfig, build_scenario


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


def _large_bytes(roots, min_len: int) -> list:
    """Every bytes object of at least `min_len` bytes reachable from
    `roots`, following closures and views but not modules or classes."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            if len(obj) >= min_len:
                found.append(obj)
        elif isinstance(obj, memoryview):
            stack.append(obj.obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))
    return found


def test_image_bytes_are_shared_by_every_holder():
    built = build_scenario(_mixed_config())
    pushed = []
    for secondaries in built.secondaries.values():
        for ecu in secondaries:
            def on_install_group(env, ecu=ecu,
                                 original=ecu.on_install_group):
                pushed.extend(chunk for _, chunks in env.payload["items"]
                              for chunk in chunks)
                original(env)
            ecu.on_install_group = on_install_group
    built.world.run(built.config.horizon_ms)
    assert len(built.world.install_log) == 12 and not built.all_alerts()

    images = {id(item.image.data) for item in built.items}
    cached = [chunk for station in built.stations
              for entry in station.cache.values()
              for _, chunk, _ in entry.buckets()]
    kept = [chunk for primary in built.vehicles
            for item in primary.pending.values() for chunk in item.chunks]
    assert cached and kept and pushed
    for chunk in cached + kept + pushed:
        assert isinstance(chunk, memoryview) and chunk.readonly
        assert id(chunk.obj) in images

    smallest = min(len(item.image.data) for item in built.items)
    held = _large_bytes(list(built.world.actors.values()), smallest)
    assert held and all(id(data) in images for data in held)


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
