import pytest

from helpers import Rig
from ota_stations import messages as msg
from ota_stations.adversary import (Adversary, AttackRule, ScenarioError,
                                    _mix_bundles, _oldest_version,
                                    _strip_part, _tamper)
from ota_stations.crypto import digest
from ota_stations.scenario import (ScenarioConfig, build_scenario,
                                   liveness_failures, safety_violations)
from ota_stations.simnet import CELLULAR, Envelope, World


def _env(kind="status", src="a", dst="b", payload=None, link=None):
    rig = Rig()
    return Envelope(src, dst, kind, payload, 64, link or rig.link("l"))


# ---------------------------------------------------------------------------
# Rule matching
# ---------------------------------------------------------------------------

def test_rule_matches_on_kind_endpoints_and_window():
    world = World(seed=1)
    env = _env(kind="status", src="MODEL000000000001", dst="sud0")
    assert AttackRule("drop").matches(world, env)
    assert AttackRule("drop", message_kinds=frozenset({"status"})) \
        .matches(world, env)
    assert not AttackRule("drop", message_kinds=frozenset({"serve"})) \
        .matches(world, env)
    assert AttackRule("drop", src="MODEL").matches(world, env)
    assert not AttackRule("drop", dst="station").matches(world, env)
    world.now = 50.0
    assert not AttackRule("drop", t_start=100.0).matches(world, env)
    assert AttackRule("drop", t_start=0.0, t_end=60.0).matches(world, env)
    assert not AttackRule("drop", t_end=50.0).matches(world, env)


def test_rule_matches_on_link_class():
    world = World(seed=1)
    env = _env()
    cls = env.link.profile.cls
    assert AttackRule("drop", link_cls=frozenset({cls})).matches(world, env)
    assert not AttackRule("drop", link_cls=frozenset({CELLULAR})) \
        .matches(world, env) or cls == CELLULAR


# ---------------------------------------------------------------------------
# Interception actions
# ---------------------------------------------------------------------------

def test_drop_and_delay_actions():
    world = World(seed=1)
    adv = Adversary([AttackRule("delay", delay_ms=500.0),
                     AttackRule("drop")])
    actions = adv.intercept(world, _env())
    # First matching rule short-circuits.
    assert actions == [("delay", 500.0)]
    assert adv.events[0][1] == "delay"


def test_replay_requires_history_and_replays_first_seen():
    world = World(seed=1)
    adv = Adversary([AttackRule("replay")])
    first = _env(payload="old")
    assert adv.intercept(world, first) == []
    actions = adv.intercept(world, _env(payload="new"))
    (action, replayed), = actions
    assert action == "modify"
    assert replayed.payload == "old"


def test_recorded_tap_groups_by_kind():
    world = World(seed=1)
    # A replay rule reads the tap; its window keeps it from firing here.
    adv = Adversary([AttackRule("replay", t_start=1e9)])
    adv.intercept(world, _env(kind="status"))
    adv.intercept(world, _env(kind="serve"))
    adv.intercept(world, _env(kind="status"))
    assert len(adv.recorded["status"]) == 2
    assert len(adv.recorded["serve"]) == 1


def test_tap_is_kept_only_for_rules_that_read_it():
    world = World(seed=1)
    for kinds, keeps in ((("drop", "tamper", "spoof", "delay"), False),
                         (("replay",), True), (("freeze",), True),
                         (("rollback",), True), (("mix_bundles",), True)):
        adv = Adversary([AttackRule(kind, t_start=1e9) for kind in kinds])
        adv.intercept(world, _env(kind="status"))
        assert bool(adv.recorded) == keeps, kinds


def test_sud_and_repo_compromise_is_rejected():
    rig = Rig()
    adv = Adversary([])
    adv.compromise_key("sud.timestamp", rig.keys["sud.timestamp"])
    with pytest.raises(ScenarioError):
        adv.compromise_key("repo0", rig.keys["producer0"])
    adv.compromise_key("station0", rig.add_key("station0"))  # fine


# ---------------------------------------------------------------------------
# Payload mutators
# ---------------------------------------------------------------------------

def test_tamper_flips_bucket_bytes_but_not_their_digest():
    chunk = b"payload-bytes"
    payload = {"buckets": [(0, chunk, digest(chunk))], "total": 1}
    mutated = _tamper(payload)
    index, flipped, d = mutated["buckets"][0]
    assert flipped != chunk and d == digest(chunk)
    assert digest(flipped) != d    # receivers can detect the flip


def test_tamper_rewrites_bundle_manifest_digest():
    rig = Rig()
    mu, _ = rig.make_update("sw0")
    bundle = msg.Bundle((mu,), msg.TimestampRecord(5, 1))
    mutated = _tamper(bundle)
    assert mutated.manifests[0].theta.h != mu.theta.h
    assert mutated.sigma == bundle.sigma     # signature left stale


def test_strip_part_removes_strict_subset_only():
    chunk = b"x"
    buckets = [(i, chunk, digest(chunk)) for i in range(3)]
    stripped = _strip_part({"buckets": buckets, "total": 3})
    assert len(stripped["buckets"]) == 2
    assert _strip_part({"buckets": buckets[:1], "total": 1}) is None


def test_rollback_picks_strictly_older_version():
    rig = Rig()
    old_mu, _ = rig.make_update("sw0", version=2)
    new_mu, _ = rig.make_update("sw0", version=5)
    history = [_env(payload=old_mu), _env(payload=new_mu)]
    live = _env(payload=new_mu)
    chosen = _oldest_version(history, exclude=live)
    assert chosen.payload.tau.v == 2
    # Nothing older than the live version: no rollback possible.
    assert _oldest_version([_env(payload=new_mu)], _env(payload=old_mu)) is None


def test_mix_bundles_swaps_a_manifest_from_history():
    rig = Rig()
    mu_a, _ = rig.make_update("alpha")
    mu_b, _ = rig.make_update("beta")
    live = msg.Bundle((mu_a,), msg.TimestampRecord(5, 1))
    donor = msg.Bundle((mu_b,), msg.TimestampRecord(4, 1))
    mixed = _mix_bundles(live, [_env(payload=donor)])
    assert mixed.manifests[0].theta.s == "beta"


# ---------------------------------------------------------------------------
# End to end: attacks never corrupt installs
# ---------------------------------------------------------------------------

def _attacked(kind, **rule_kwargs):
    rule = AttackRule(kind, **rule_kwargs)
    config = ScenarioConfig(
        name=f"attack-{kind}", bundle_bytes=400_000, image_count=2,
        coverage_pct=100, seed=7, status_deadline_ms=30_000.0,
        image_deadline_ms=120_000.0, horizon_ms=900_000.0,
        attacks=(rule,))
    scenario = build_scenario(config)
    scenario.world.run(horizon_ms=config.horizon_ms)
    return scenario


def test_tampered_serve_traffic_is_never_installed():
    scenario = _attacked("tamper",
                         message_kinds=frozenset({"serve_ok", "fetch_ok"}),
                         t_end=60_000.0)
    assert safety_violations(scenario) == []
    assert liveness_failures(scenario) == []


def test_dropped_replies_raise_alert_not_corruption():
    scenario = _attacked("drop", message_kinds=frozenset({"status_reply"}))
    assert safety_violations(scenario) == []
    assert liveness_failures(scenario) == []
    assert any(v.alerts for v in scenario.vehicles)
