#!/usr/bin/env python3
"""Run every workload, each in its own process and one after another, and
print every metric by name with its unit, workload, sample count, median
and quartiles, the correctness counts, the model outputs, the per-layer
trace and the workload-separation predictions.

    python3 perfbench/report.py                      # seed 0, then traced
    python3 perfbench/report.py --seeds 0-9 --no-trace

With one seed, the end-to-end figures are the samples within that run
(repetitions, or scenarios for the scenario percentiles).  With several
seeds, they are the per-run values across seeds, with their spread (the
interquartile range over the median) beside the bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    for line in lines:
        if line.startswith("FAILED"):
            print(line)
    stats = next(json.loads(line[len("stats "):]) for line in lines
                 if line.startswith("stats "))
    return {"result": json.loads(lines[-1]), "stats": stats}


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_end_to_end(runs: dict, bench: dict):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("\n== end-to-end metrics (untraced) ==")
    single = all(len(by_seed) == 1 for by_seed in runs.values())
    if single:
        print("value: the run's metric; n, median, q1, q3: the samples behind "
              "it (repetitions, or scenarios for the percentiles)")
        print(f"{'workload':<15} {'metric':<16} {'unit':<5} {'value':>11} "
              f"{'n':>4} {'median':>11} {'q1':>11} {'q3':>11}")
    else:
        print("n runs, one per seed; spread = (q3 - q1) / median")
        print(f"{'workload':<15} {'metric':<16} {'unit':<5} {'n':>4} "
              f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} bound")
    for workload, by_seed in runs.items():
        seeds = sorted(by_seed)
        for name in bounds:
            if single:
                s = by_seed[seeds[0]]["stats"]["end_to_end"][name]
                print(f"{workload:<15} {name:<16} {s['unit']:<5} "
                      f"{fmt(s['value']):>11} {s['n']:>4} "
                      f"{fmt(s['median']):>11} {fmt(s['q1']):>11} "
                      f"{fmt(s['q3']):>11}")
                continue
            values = [by_seed[k]["result"]["metrics"][name]["value"]
                      for k in seeds]
            unit = by_seed[seeds[0]]["result"]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            sp = spread(values)
            bound = bounds[name]
            verdict = "ok" if sp < bound / 3 else \
                "within bound" if sp <= bound else "WIDER THAN BOUND"
            print(f"{workload:<15} {name:<16} {unit:<5} {len(values):>4} "
                  f"{fmt(med):>11} {fmt(q1):>11} {fmt(q3):>11} "
                  f"{sp:>7.3f} {bound} {verdict}")
    print("\n== correctness ==")
    for workload, by_seed in runs.items():
        ops = sum(r["result"]["attempted"] for r in by_seed.values())
        failed = sum(r["result"]["failed"] for r in by_seed.values())
        print(f"{workload:<15} runs={len(by_seed)} ops={ops} "
              f"ops_failed={failed}")


def print_model(runs: dict):
    print("\n== model outputs (simulated; a speed-only change must leave "
          "every one identical) ==")
    for workload, by_seed in runs.items():
        seed = min(by_seed)
        for key, value in by_seed[seed]["stats"]["model"].items():
            print(f"{workload:<15} seed={seed} {key} = {value}")


def print_layers(traces: dict) -> list:
    print("\n== per-layer metrics (traced run) ==")
    names = list(next(iter(traces.values()))["result"]["metrics"])
    print(f"{'metric':<36} {'unit':<6} "
          + " ".join(f"{w:>15}" for w in traces))
    for name in names:
        unit = next(iter(traces.values()))["result"]["metrics"][name]["unit"]
        cells = " ".join(
            f"{fmt(t['result']['metrics'][name]['value']):>15}"
            for t in traces.values())
        print(f"{name:<36} {unit:<6} {cells}")
    print("untraced: " + ", ".join(
        next(iter(traces.values()))["stats"]["untraced"]))
    return predictions(traces)


def predictions(traces: dict) -> list:
    """The workload separations the layer -> end-to-end predictions rest on."""
    def metric(workload, name):
        return traces[workload]["result"]["metrics"][name]["value"]

    def largest(workload, group):
        shares = dict(traces[workload]["stats"]["run_shares"])
        together = sum(shares.pop(name, 0.0) for name in group)
        return together, max(shares.values(), default=0.0)

    out = []
    if {"cellular_fleet", "station_mix"} <= set(traces):
        a = metric("cellular_fleet", "simnet.pushes_per_msg")
        b = metric("station_mix", "simnet.pushes_per_msg")
        out.append((a >= 50 * b, f"simnet.pushes_per_msg cellular_fleet "
                                 f"{a:.4g} >= 50 x station_mix {b:.4g}"))
    if "station_mix" in traces:
        own, other = largest("station_mix", ("crypto.digest",))
        out.append((own > other, f"station_mix: crypto.digest self time "
                                 f"{own:.3f} of run_s is the largest share "
                                 f"(next {other:.3f})"))
    if "status_storm" in traces:
        own, other = largest("status_storm", ("crypto.sign", "crypto.verify"))
        out.append((own > other, f"status_storm: sign+verify self time "
                                 f"{own:.3f} of run_s is the largest share "
                                 f"(next {other:.3f})"))
    for workload in traces:
        if workload != "attack_suite":
            calls = metric(workload, "adversary.intercept_calls")
            out.append((calls == 0, f"{workload}: adversary.intercept_calls "
                                    f"= {calls:g} (0 outside attack_suite)"))
    print("\n== predictions ==")
    for ok, text in out:
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    for workload, t in traces.items():
        m = t["result"]["metrics"]
        print(f"tracing overhead {workload}: "
              f"{m['trace.overhead_s']['value']:.3f} s on "
              f"{m['trace.untraced_wall_s']['value']:.3f} s untraced")
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)

    runs = {w: {} for w in names}
    traces = {}
    for workload in names:
        for seed in parse_seeds(args.seeds):
            runs[workload][seed] = run_one(workload, seed, args.seconds, 0)
            print(f"ran {workload} seed={seed}", file=sys.stderr)
        if not args.no_trace:
            traces[workload] = run_one(workload, min(runs[workload]),
                                       args.seconds, 1)
    print_end_to_end(runs, bench)
    print_model(runs)
    verdicts = print_layers(traces) if traces else []
    failed = sum(r["result"]["failed"] for by_seed in runs.values()
                 for r in by_seed.values())
    return 1 if failed or not all(ok for ok, _ in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
