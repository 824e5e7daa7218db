#!/usr/bin/env python3
"""Golden-output gate: SHA-256 digests of the simulator's outputs, pinned in
golden.json.

A digest covers `world.trace_csv_rows()` followed by `report.csv_lines()`
and must match byte for byte.  Two sets are pinned:

- `workloads`: every scenario of each benchmark workload at seed 0, which
  run.py checks on every repetition;
- `golden_set`: the acceptance-test configs plus 6 seeds x 10 attack
  labels, checked one-shot by test_golden.py.

    python3 perfbench/golden.py --write          # re-pin (behaviour change)
    python3 perfbench/golden.py --print-workloads  # digests as JSON

A change that alters simulated behaviour on purpose re-pins with --write.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"


def _setup_path():
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def golden_set_configs() -> list:
    """The acceptance-test configs and 6 seeds x the 10 attack labels."""
    _setup_path()
    import dataclasses

    from ota_stations.scenario import ScenarioConfig
    from ota_stations.suites import ATTACK_LABELS, family_config

    def big(coverage, **kwargs):
        return ScenarioConfig(
            name=f"accept-cov{coverage}", bundle_bytes=100_000_000,
            image_count=5, coverage_pct=coverage, mix_hit=100,
            horizon_ms=4_000_000.0, **kwargs)

    def mix(hit, miss, unknown):
        return dataclasses.replace(
            big(100), name=f"accept-mix{hit}-{miss}-{unknown}",
            mix_hit=hit, mix_miss=miss, mix_unknown=unknown)

    def clients(n, coverage):
        return ScenarioConfig(
            name=f"accept-n{n}-cov{coverage}", bundle_bytes=10_000_000,
            image_count=5, vehicles=n,
            stations=max(1, n // 2) if coverage else 1,
            coverage_pct=coverage, mix_hit=100, horizon_ms=4_000_000.0)

    configs = [big(c) for c in (0, 25, 50, 75, 100)]
    configs += [mix(100, 0, 0), mix(0, 100, 0), mix(0, 0, 100)]
    configs += [clients(n, 0) for n in (1, 5, 10, 20)]
    configs += [clients(n, 100) for n in (1, 20)]
    configs += [family_config(seed, label) for seed in range(6)
                for label in ATTACK_LABELS]
    return configs


def digests_of(configs) -> list:
    _setup_path()
    from ota_stations.scenario import build_scenario, collect_report
    from workloads import output_digest

    out = []
    for config in configs:
        built = build_scenario(config)
        built.world.run(config.horizon_ms)
        out.append(output_digest(built.world, collect_report(built)))
        del built
        gc.collect()
    return out


def workload_digests() -> dict:
    _setup_path()
    from workloads import WORKLOADS

    return {name: digests_of(make(0)) for name, make in WORKLOADS.items()}


def golden_set_digests() -> dict:
    configs = golden_set_configs()
    return dict(zip((c.name for c in configs), digests_of(configs)))


def mismatches(expected: dict, actual: dict) -> list:
    return [key for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--print-workloads", action="store_true")
    args = parser.parse_args(argv)

    if args.print_workloads:
        print(json.dumps(workload_digests(), sort_keys=True))
        return 0
    current = {"workloads": workload_digests(),
               "golden_set": golden_set_digests()}
    GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, current['workloads'].values()))} "
          f"workload and {len(current['golden_set'])} golden-set digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
