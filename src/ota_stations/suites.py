"""Randomized property suites: safety (no ECU ever installs bytes or
versions the producers did not publish), liveness (every applicable update
installs or raises an alert, and clean runs never alert), and the
per-attack detection matrix.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .adversary import AttackRule
from .scenario import (ScenarioConfig, build_scenario, false_alarms,
                       liveness_failures, safety_violations)

SUITE_NAMES = ("safety", "liveness", "attacks")

# Attack families: kind label -> (rules builder, compromised keys, revocations)
_DATA_KINDS = frozenset({"fetch_ok", "serve_ok", "publish", "prefetch",
                         "install_group"})
_REPLY_KINDS = frozenset({"status_reply"})


def _attack_family(label: str, rng: random.Random):
    window = (0.0, float("inf"))
    if rng.random() < 0.5:
        # Transient attack: the adversary gives up mid-run.
        window = (0.0, rng.uniform(60_000.0, 180_000.0))
    t0, t1 = window
    rules, compromise, revocations = [], (), ()
    if label == "tamper":
        rules = [AttackRule("tamper", _DATA_KINDS | _REPLY_KINDS,
                            t_start=t0, t_end=t1)]
    elif label == "spoof":
        compromise = ("station0",)
        rules = [AttackRule("spoof", _REPLY_KINDS | {"publish"},
                            t_start=t0, t_end=t1)]
    elif label == "replay":
        rules = [AttackRule("replay", _REPLY_KINDS | {"status", "publish"},
                            t_start=t0, t_end=t1)]
    elif label == "rollback":
        rules = [AttackRule("rollback",
                            _REPLY_KINDS | {"publish", "install_group"},
                            t_start=t0, t_end=t1)]
    elif label == "freeze":
        rules = [AttackRule("freeze", _REPLY_KINDS, t_start=t0, t_end=t1)]
    elif label == "drop":
        rules = [AttackRule("drop",
                            frozenset({"status", "status_reply", "fetch_ok",
                                       "serve_ok"}),
                            t_start=t0, t_end=t1)]
    elif label == "slow_retrieval":
        rules = [AttackRule("slow_retrieval",
                            frozenset({"fetch_ok", "serve_ok"}),
                            t_start=t0, t_end=t1,
                            delay_ms=rng.uniform(30_000.0, 90_000.0))]
    elif label == "partial_bundle":
        rules = [AttackRule("partial_bundle",
                            _REPLY_KINDS | {"publish", "fetch_ok",
                                            "install_group"},
                            t_start=t0, t_end=t1)]
    elif label == "mix_bundles":
        rules = [AttackRule("mix_bundles", _REPLY_KINDS | {"publish"},
                            t_start=t0, t_end=t1)]
    elif label == "compromise_key":
        # Stolen station key, then CRL revocation; vehicles must reject the
        # station and fall back to the cellular path.
        compromise = ("station0",)
        revocations = (("station0", rng.uniform(10.0, 5_000.0)),)
        rules = [AttackRule("spoof", frozenset({"serve_ok", "session_ok"}))]
    else:
        raise ValueError(f"unknown attack label {label}")
    return tuple(rules), compromise, revocations


ATTACK_LABELS = ("tamper", "spoof", "replay", "rollback", "freeze", "drop",
                 "slow_retrieval", "partial_bundle", "mix_bundles",
                 "compromise_key")


def family_config(seed: int, attack_label: Optional[str] = None,
                  adversary_free: bool = False) -> ScenarioConfig:
    """Small randomized scenario; deterministic in `seed`."""
    rng = random.Random(seed * 2654435761 % (1 << 31))
    coverage = rng.choice((0, 50, 100))
    mix_hit = rng.choice((0, 50, 100))
    mix_miss = rng.choice((0, 100 - mix_hit))
    attacks, compromise, revocations = ((), (), ())
    if attack_label is not None and not adversary_free:
        attacks, compromise, revocations = _attack_family(attack_label, rng)
    return ScenarioConfig(
        name=f"suite-{attack_label or 'clean'}-{seed}",
        seed=seed,
        horizon_ms=900_000.0,
        vehicles=rng.randint(1, 2),
        stations=1,
        models=1,
        secondaries_per_vehicle=rng.randint(0, 2),
        image_count=rng.randint(1, 3),
        bundle_bytes=rng.choice((64_000, 256_000, 1_000_000)),
        bucket_size=32_768,
        coverage_pct=coverage,
        mix_hit=mix_hit, mix_miss=mix_miss,
        mix_unknown=100 - mix_hit - mix_miss,
        cache_capacity_bytes=4_000_000,
        untrusted_secondaries=rng.random() < 0.5,
        live_publish=rng.random() < 0.5,
        status_deadline_ms=30_000.0,
        image_deadline_ms=120_000.0,
        ignition_period_ms=60_000.0,
        ignition_limit=12,
        publish_at_ms=rng.uniform(10.0, 2_000.0),
        attacks=attacks, compromise=compromise, revocations=revocations)


@dataclass
class SuiteRow:
    label: str
    runs: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class SuiteResult:
    name: str
    rows: list

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def table(self) -> str:
        lines = [f"suite: {self.name}"]
        for row in self.rows:
            verdict = "PASS" if row.passed else "FAIL"
            lines.append(f"  {row.label:<24} runs={row.runs:<5} {verdict}")
            for failure in row.failures[:5]:
                lines.append(f"    {failure}")
            if len(row.failures) > 5:
                lines.append(f"    ... {len(row.failures) - 5} more")
        return "\n".join(lines)


def _run_one(config: ScenarioConfig):
    scenario = build_scenario(config)
    scenario.world.run(config.horizon_ms)
    return scenario


def _row(label: str, seeds, config_for, checks) -> SuiteRow:
    """Run `config_for(seed)` for every seed; each (prefix, check) of
    `checks` adds one failure line per problem it finds in the run."""
    row = SuiteRow(label, 0)
    for seed in seeds:
        scenario = _run_one(config_for(seed))
        row.runs += 1
        for prefix, check in checks:
            row.failures.extend(f"seed={seed} {prefix}{problem}"
                                for problem in check(scenario))
    return row


def _attack_rows(seeds, label_format: str, checks) -> list:
    """One row per attack family, labelled `label_format.format(label)`."""
    return [_row(label_format.format(label), seeds,
                 lambda seed, label=label: family_config(seed, label), checks)
            for label in ATTACK_LABELS]


def run_safety_suite(seeds=range(200)) -> SuiteResult:
    return SuiteResult("safety", _attack_rows(
        seeds, "{}", [("", safety_violations)]))


def run_liveness_suite(seeds=range(50)) -> SuiteResult:
    clean = _row("clean: all install, no alerts", seeds,
                 lambda seed: family_config(seed, adversary_free=True),
                 [("", liveness_failures), ("false alarm: ", false_alarms)])
    return SuiteResult("liveness", [clean] + _attack_rows(
        seeds, "adversarial ({}): install or alert",
        [("", liveness_failures)]))


def run_attacks_suite(seeds=range(50)) -> SuiteResult:
    """Detection matrix: per attack kind, no effect on installed software
    and no silent prevention."""
    return SuiteResult("attacks", _attack_rows(
        seeds, "{}", [("effect: ", safety_violations),
                      ("silent: ", liveness_failures)]))


def run_property_suite(name: str, seeds=None) -> SuiteResult:
    """Run suite `name` over `seeds`, or over the suite's own default."""
    run = {"safety": run_safety_suite, "liveness": run_liveness_suite,
           "attacks": run_attacks_suite}.get(name)
    if run is None:
        raise ValueError(f"unknown suite {name}; choose from {SUITE_NAMES}")
    return run() if seeds is None else run(seeds)
