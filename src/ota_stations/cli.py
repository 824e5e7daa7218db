"""Command line entry point: run one scenario, sweep station coverage,
client count or cache outcome mix, run a property suite, or evaluate the
bandwidth cost model.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .scenario import (ConfigError, MetricsReport, ScenarioConfig,
                       bandwidth_cost, parse_config, run_scenario)
from .suites import SUITE_NAMES, run_property_suite


def _load_config(args) -> ScenarioConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    else:
        config = ScenarioConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "horizon", None) is not None:
        overrides["horizon_ms"] = args.horizon
    if overrides:
        config = dataclasses.replace(config, **overrides).validate()
    return config


def _print_report(report: MetricsReport):
    for line in report.csv_lines():
        print(line)


def _cmd_run(args) -> int:
    report = run_scenario(_load_config(args), csv_path=args.csv)
    _print_report(report)
    return 0


# Sweep parameter -> its default values.
SWEEPS = {"coverage": "0,25,50,75,100", "clients": "1,5,10,20",
          "mix": "hit,miss,unknown,cellular"}
# Cache outcome -> (mix_hit, mix_miss, mix_unknown) serving it to every
# station-served update.
_MIXES = {"hit": (100, 0, 0), "miss": (0, 100, 0), "unknown": (0, 0, 100)}


def _swept(base: ScenarioConfig, param: str, value: str) -> ScenarioConfig:
    if param == "coverage":
        return dataclasses.replace(base, coverage_pct=int(value))
    if param == "clients":
        clients = int(value)
        return dataclasses.replace(base, vehicles=clients, stations=max(
            base.stations, max(1, clients // 2)))
    if value == "cellular":
        return dataclasses.replace(base, coverage_pct=0)
    if value not in _MIXES:
        raise ConfigError(f"unknown mix {value}; choose from "
                          + ", ".join(SWEEPS["mix"].split(",")))
    hit, miss, unknown = _MIXES[value]
    return dataclasses.replace(base, mix_hit=hit, mix_miss=miss,
                               mix_unknown=unknown)


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    lines = [f"{args.param},mean_download_ms,cellular_bytes,alerts"]
    for value in (args.values or SWEEPS[args.param]).split(","):
        value = value.strip()
        report = run_scenario(_swept(base, args.param, value).validate())
        mean = report.mean_download_ms
        lines.append(f"{value},{mean:.3f}" if mean is not None
                     else f"{value},")
        lines[-1] += (f",{report.bytes_by_class.get('cellular', 0)}"
                      f",{report.alert_count}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_suite(args) -> int:
    seeds = range(args.seeds) if args.seeds is not None else None
    result = run_property_suite(args.name, seeds)
    print(result.table())
    return 0 if result.passed else 1


def _cmd_cost(args) -> int:
    report = run_scenario(_load_config(args), csv_path=args.csv)
    cost, relative = bandwidth_cost(report, args.rate)
    print(f"cellular_bytes,{report.bytes_by_class.get('cellular', 0)}")
    print(f"station_bytes,{report.bytes_by_class.get('station_wire', 0)}")
    print(f"cost,{cost:.6f}")
    print(f"relative_cost,{relative:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ota-stations",
        description="Station-assisted vehicle software update simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="scenario config file")
        p.add_argument("--seed", metavar="N", type=int, default=None)
        p.add_argument("--csv", metavar="PATH", default=None,
                       help="write results to this CSV file")
        p.add_argument("--horizon", metavar="MS", type=float, default=None,
                       help="simulation horizon in milliseconds")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="sweep coverage, client count or cache outcome mix")
    common(p_sweep)
    p_sweep.add_argument("--param", choices=tuple(SWEEPS),
                         default="coverage")
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated sweep values (default: "
                         + "; ".join(f"{name} {values}" for name, values
                                     in SWEEPS.items()) + ")")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_suite = sub.add_parser("suite", help="run a property suite")
    p_suite.add_argument("name", choices=SUITE_NAMES)
    p_suite.add_argument("--seeds", type=int, default=None,
                         help="number of seeds per family")
    p_suite.set_defaults(fn=_cmd_suite)

    p_cost = sub.add_parser("cost", help="bandwidth cost of a scenario")
    common(p_cost)
    p_cost.add_argument("--rate", type=float, default=1e-6,
                        help="cellular price per byte")
    p_cost.set_defaults(fn=_cmd_cost)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
