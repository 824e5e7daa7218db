"""Single-fault sweep: a run that loses, or delivers twice, any one
transmission still installs only published software, installs every update
or alerts, and a duplicate raises no alarm.  The fault is made by wrapping
`World._transmit` on the world instance.

`problems` also takes a set of transmissions, for CI's sweep of every pair
of drops of the mixed config, which is too slow for Tier-1.  A failing
pair `(i, j)` replays as a test: `assert problems("mixed", (i, j),
"drop") == []`."""
import pytest

from helpers import mixed_config
from ota_stations.scenario import (ScenarioConfig, build_scenario,
                                   false_alarms, liveness_failures,
                                   safety_violations)

# The property suites' deadlines (`suites.family_config`).
DEADLINES = dict(status_deadline_ms=30_000.0, image_deadline_ms=120_000.0)

CONFIGS = {
    # 144 transmissions: every download path, over twelve ignitions.
    "mixed": (mixed_config(ignition_limit=12, **DEADLINES), 144),
    # 10 transmissions: one vehicle, one image the station must fetch.
    "station_miss": (ScenarioConfig(
        name="station-miss", image_count=1, bundle_bytes=100_000,
        secondaries_per_vehicle=0, coverage_pct=100, mix_hit=0,
        mix_miss=100, **DEADLINES), 10),
}


def _run(config: ScenarioConfig, indexes=(), fault: str = ""):
    """Run `config`, dropping or duplicating (`fault`) each transmission
    whose 0-based position is in `indexes`; returns the scenario and the
    transmissions made."""
    built = build_scenario(config)
    world = built.world
    transmit = world._transmit
    count = 0

    def faulty(env):
        nonlocal count
        count += 1
        if count - 1 in indexes:
            if fault == "drop":
                return
            transmit(env)
        transmit(env)

    world._transmit = faulty
    world.run(config.horizon_ms)
    return built, count


def problems(name: str, indexes, fault: str) -> list:
    """The safety and liveness failures of `CONFIGS[name]` with `fault`
    made at each of `indexes`, and its false alarms under a duplicate."""
    built, _ = _run(CONFIGS[name][0], frozenset(indexes), fault)
    found = safety_violations(built) + liveness_failures(built)
    if fault == "duplicate":
        found += false_alarms(built)
    return found


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_single_drop_or_duplicate_is_safe_and_live(name):
    config, transmissions = CONFIGS[name]
    clean, count = _run(config)
    assert count == transmissions
    assert clean.world.install_log and not clean.all_alerts()
    failures = []
    for index in range(count):
        for fault in ("drop", "duplicate"):
            found = problems(name, {index}, fault)
            if found:
                failures.append((index, fault, found))
    assert failures == []
