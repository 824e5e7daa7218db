#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload station_mix --seed 0 --seconds 30 --trace 0

Run from the repository root.  The simulator is imported from `src/`.  The
workload is repeated for about `--seconds` (at least three times),
and every scenario of every repetition is checked for correctness.

--trace 0 reports the end-to-end metrics, measured untraced.  Other
tenants of a shared machine slow it by up to 2x, in spells that last from
seconds to many minutes.  So each repetition also times two fixed reference
tasks between its scenarios, one interpreted and one SHA-256, and its host
times are divided by its host index: the references' slowdown against
their nominal times, weighted by the workload's share of SHA-256 work
(workloads.SHA_SHARE).  The values read as seconds on a host running at
the nominal speed.  Each scenario's scaled time is then its median over the
repetitions; the simulator is deterministic, so every repetition does the
same work.  From those medians:
setup_s and run_s sum the time in `build_scenario` and `World.run` over
the workload's scenarios, runs_per_s is scenarios built, run and validated
per host second, and scenario_p50_ms / scenario_p95_ms are percentiles over
the scenarios (a one-scenario workload reports its scenario's time for
both).  peak_rss_mb is the process's `ru_maxrss`; run one workload per
process, since the high-water mark carries over.  The index and the
unscaled seconds are printed beside them, not gated.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Spans are
written to .perfbench_out/ when the run ends.

Besides human-readable lines, the output holds one `stats {...}` line with
samples, quartiles, model outputs and checks, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3

# Host-speed reference: two fixed tasks that share no code with the
# simulator, timed between scenarios.  Their nominal times are their
# fastest on the design machine (design.json), so a host running at that
# speed has index 1 and the timings read as its seconds.
PY_NOMINAL_S = 3.8e-3
SHA_NOMINAL_S = 0.87e-3
_SHA_BLOCK = bytes(range(256)) * 4096  # 1 MiB


class _Item:
    __slots__ = ("index", "key", "label")

    def __init__(self, index, key, label):
        self.index, self.key, self.label = index, key, label


def _python_reference():
    """Interpreter-bound work: dict updates, small objects and a heap."""
    table, heap = {}, []
    for i in range(3000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i, _Item(i, key, str(i))))
    while heap:
        heapq.heappop(heap)


def _sha_reference():
    hashlib.sha256(_SHA_BLOCK).digest()


def _summary(values) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


class Batch:
    """One repetition of a workload: timings, digests, checks and the end
    state the per-layer metrics read."""

    def __init__(self):
        self.setup_times: list = []   # per scenario, seconds
        self.run_times: list = []
        self.scenario_s: list = []    # build + run + report + validation
        self.digests: list = []
        self.failures: dict = {}      # scenario index -> problems
        self.model = {"downloads_ms": 0.0, "downloads": 0, "installs": 0,
                      "alerts": 0, "bytes": Counter(), "cache": Counter(),
                      "adversary_actions": Counter()}
        self.state = Counter()
        self.ref_py_s = self.ref_sha_s = 0.0
        self.ref_n = 0

    def time_reference(self, times: int):
        clock = time.perf_counter
        for _ in range(times):
            t0 = clock()
            _python_reference()
            t1 = clock()
            _sha_reference()
            self.ref_py_s += t1 - t0
            self.ref_sha_s += clock() - t1
            self.ref_n += 1

    def host_index(self, sha_share: float) -> float:
        """How much slower than nominal the host ran this repetition, for
        a workload that spends `sha_share` of its time in SHA-256."""
        py = self.ref_py_s / self.ref_n / PY_NOMINAL_S
        sha = self.ref_sha_s / self.ref_n / SHA_NOMINAL_S
        return (1.0 - sha_share) * py + sha_share * sha

    @property
    def run_s(self) -> float:
        return sum(self.run_times)

    @property
    def wall_s(self) -> float:
        return sum(self.scenario_s)

    def observe(self, built, report):
        world = built.world
        m = self.model
        times = report.download_times
        m["downloads_ms"] += sum(times)
        m["downloads"] += len(times)
        m["installs"] += report.install_count
        m["alerts"] += report.alert_count
        m["bytes"].update(report.bytes_by_class)
        m["cache"].update(report.cache_counts)
        s = self.state
        s["msgs"] += len(world.trace)
        s["trace_bytes"] += sum(rec.size for rec in world.trace)
        s["heap_pushes"] += world._seq
        s["served_bytes"] += sum(env.size for actor in world.actors.values()
                                 for env in actor._served.values())
        s["installs"] += len(world.install_log)
        for station in built.stations:
            for _, outcome, _ in station.events:
                s["cache_outcomes"] += 1
                s["cache_hits"] += outcome == "hit"
        adv = built.adversary
        if adv is not None:
            m["adversary_actions"].update(kind for _, kind, _ in adv.events)
            s["attacked_runs"] += 1
            s["idle_runs"] += not adv.events
            s["adversary_actions"] += len(adv.events)
            s["recorded_envelopes"] += sum(map(len, adv.recorded.values()))


def run_batch(configs, pinned=None, tracer=None) -> Batch:
    """Build, run, report and check every scenario once."""
    from ota_stations import scenario
    from workloads import check_scenario, output_digest

    clock = time.perf_counter
    batch = Batch()
    # At least 20 reference timings per repetition, spread over it.
    ref_times = max(1, 10 // len(configs))
    for i, config in enumerate(configs):
        batch.time_reference(ref_times)
        if tracer is not None:
            tracer.scenario_id = i
        t0 = clock()
        built = scenario.build_scenario(config)
        t1 = clock()
        built.world.run(config.horizon_ms)
        t2 = clock()
        report = scenario.collect_report(built)
        problems = check_scenario(config, built, report)
        t3 = clock()
        batch.setup_times.append(t1 - t0)
        batch.run_times.append(t2 - t1)
        batch.scenario_s.append(t3 - t0)
        digest = output_digest(built.world, report)
        batch.digests.append(digest)
        if pinned is not None and digest != pinned[i]:
            problems.append("output digest differs from the pinned value")
        if problems:
            batch.failures[i] = problems
        batch.observe(built, report)
        del built, report
        gc.collect()
    batch.time_reference(ref_times)
    return batch


def check_repeats(batches) -> int:
    """Every repetition must reproduce the first one's outputs exactly."""
    first = batches[0]
    for batch in batches[1:]:
        for i, (a, b) in enumerate(zip(first.digests, batch.digests)):
            if a != b:
                batch.failures.setdefault(i, []).append(
                    "output differs between repetitions")
    # A scenario run counts once, however many checks it failed.
    return sum(len(b.failures) for b in batches)


def end_to_end(batches, sha_share: float) -> tuple:
    """Each repetition's times are divided by its host index; each
    scenario's time is then its median over the repetitions."""
    index = [b.host_index(sha_share) for b in batches]

    def per_scenario(attr):
        scaled = ([t / x for t in getattr(b, attr)]
                  for b, x in zip(batches, index))
        return [statistics.median(times) for times in zip(*scaled)]

    def per_rep(attr):
        return [sum(getattr(b, attr)) / x for b, x in zip(batches, index)]

    setup, run, total = (per_scenario(attr) for attr in
                         ("setup_times", "run_times", "scenario_s"))
    total_ms = [t * 1e3 for t in total]
    p95 = statistics.quantiles(total_ms, n=20, method="inclusive")[18] \
        if len(total_ms) >= 2 else total_ms[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (sum(setup), "s", per_rep("setup_times")),
        "run_s": (sum(run), "s", per_rep("run_times")),
        "runs_per_s": (len(total) / sum(total), "1/s",
                       [len(total) / s for s in per_rep("scenario_s")]),
        "scenario_p50_ms": (statistics.median(total_ms), "ms", total_ms),
        "scenario_p95_ms": (p95, "ms", total_ms),
        "peak_rss_mb": (rss_mb, "MB", [rss_mb]),
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in values.items()}
    # Samples behind each value: repetitions, or scenarios for percentiles.
    stats = {name: {"unit": unit, "value": value, "samples": samples,
                    **_summary(samples)}
             for name, (value, unit, samples) in values.items()}
    # The index and the unscaled host seconds, for reference; not gated.
    host = {"index": _summary(index),
            "unscaled_setup_s": _summary([sum(b.setup_times)
                                          for b in batches]),
            "unscaled_run_s": _summary([b.run_s for b in batches])}
    return metrics, stats, host


def per_layer(tracer, batch: Batch, untraced_wall: float) -> dict:
    calls, own, counts = tracer.calls, tracer.self_s, tracer.counts
    state = batch.state

    def ratio(a, b):
        return a / b if b else 0.0

    run_own = tracer.run_self_s
    values = {
        "simnet.msgs": (state["msgs"], "count"),
        "simnet.heap_pushes": (state["heap_pushes"], "count"),
        "simnet.pushes_per_msg": (ratio(state["heap_pushes"], state["msgs"]),
                                  "ratio"),
        "simnet.loop_self_s": (own["simnet.loop"], "s"),
        "simnet.start_flow_calls": (calls["simnet.start_flow"], "count"),
        "simnet.start_flow_self_s": (own["simnet.start_flow"], "s"),
        "simnet.send_self_s": (own["simnet.send"], "s"),
        "simnet.retransmits": (counts["retransmits"], "count"),
        "simnet.served_retained_mb": (state["served_bytes"] / 1e6, "MB"),
        "crypto.digest_calls": (calls["crypto.digest"], "count"),
        "crypto.digest_mb": (counts["digest_bytes"] / 1e6, "MB"),
        "crypto.digest_self_s": (own["crypto.digest"], "s"),
        "crypto.hashed_per_delivered_byte": (
            ratio(counts["digest_run_bytes"], state["trace_bytes"]), "ratio"),
        "crypto.sign_calls": (calls["crypto.sign"], "count"),
        "crypto.sign_self_s": (own["crypto.sign"], "s"),
        "crypto.verify_calls": (calls["crypto.verify"], "count"),
        "crypto.verify_self_s": (own["crypto.verify"], "s"),
        "crypto.verify_fail_share": (
            ratio(counts["verify_failed"], calls["crypto.verify"]), "ratio"),
        "crypto.verify_per_status": (
            ratio(calls["crypto.verify"], calls["director.on_status"]),
            "ratio"),
        "crypto.digest_run_share": (
            ratio(run_own["crypto.digest"], batch.run_s), "ratio"),
        "crypto.sign_verify_run_share": (
            ratio(run_own["crypto.sign"] + run_own["crypto.verify"],
                  batch.run_s), "ratio"),
        "messages.signed_region_calls": (calls["messages.signed_region"],
                                         "count"),
        "messages.signed_region_self_s": (own["messages.signed_region"], "s"),
        "messages.wire_size_calls": (calls["messages.wire_size"], "count"),
        "messages.wire_size_self_s": (own["messages.wire_size"], "s"),
        "messages.payload_digest_calls": (calls["messages.payload_digest"],
                                          "count"),
        "messages.split_buckets_calls": (calls["messages.split_buckets"],
                                         "count"),
        "messages.split_buckets_mb": (counts["split_bytes"] / 1e6, "MB"),
        "messages.split_buckets_self_s": (own["messages.split_buckets"], "s"),
        "messages.assemble_buckets_calls": (
            calls["messages.assemble_buckets"], "count"),
        "messages.assemble_buckets_self_s": (
            own["messages.assemble_buckets"], "s"),
        "image_repo.store_self_s": (own["image_repo.store"], "s"),
        "image_repo.on_fetch_calls": (calls["image_repo.on_fetch"], "count"),
        "image_repo.on_fetch_self_s": (own["image_repo.on_fetch"], "s"),
        "director.on_status_calls": (calls["director.on_status"], "count"),
        "director.on_status_self_s": (own["director.on_status"], "s"),
        "director.receive_self_s": (own["director.receive"], "s"),
        "director.bundle_self_s": (own["director.bundle"], "s"),
        "broker.on_serve_calls": (calls["broker.on_serve"], "count"),
        "broker.on_serve_self_s": (own["broker.on_serve"], "s"),
        "broker.station_receive_self_s": (own["broker.station_receive"], "s"),
        "broker.engine_receive_self_s": (own["broker.engine_receive"], "s"),
        "broker.cache_inserts": (calls["broker.cache_insert"], "count"),
        "broker.cache_evictions": (counts["cache_evictions"], "count"),
        "broker.cache_hit_share": (
            ratio(state["cache_hits"], state["cache_outcomes"]), "ratio"),
        "vehicle.primary_receive_calls": (calls["vehicle.primary_receive"],
                                          "count"),
        "vehicle.primary_receive_self_s": (own["vehicle.primary_receive"],
                                           "s"),
        "vehicle.secondary_receive_self_s": (
            own["vehicle.secondary_receive"], "s"),
        "vehicle.ignition_self_s": (own["vehicle.ignition"], "s"),
        "vehicle.fetch_requests_per_image": (
            ratio(counts["vehicle_fetch_requests"], state["installs"]),
            "ratio"),
        "adversary.intercept_calls": (calls["adversary.intercept"], "count"),
        "adversary.intercept_self_s": (own["adversary.intercept"], "s"),
        "adversary.actions": (state["adversary_actions"], "count"),
        "adversary.idle_share": (
            ratio(state["idle_runs"], state["attacked_runs"]), "ratio"),
        "adversary.recorded_envelopes": (state["recorded_envelopes"],
                                         "count"),
        "scenario.build_self_s": (own["scenario.build"], "s"),
        "scenario.preseed_self_s": (own["scenario.preseed"], "s"),
        "scenario.collect_report_self_s": (own["scenario.collect_report"],
                                           "s"),
        "scenario.validate_self_s": (own["scenario.validate"], "s"),
        "trace.run_s": (batch.run_s, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (batch.wall_s, "s"),
        "trace.overhead_s": (batch.wall_s - untraced_wall, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {name: {"value": float(v), "unit": unit}
            for name, (v, unit) in values.items()}


def run_shares(tracer, batch: Batch) -> dict:
    """Share of run_s spent in each span name's own code inside World.run."""
    return {name: t / batch.run_s
            for name, t in sorted(tracer.run_self_s.items(),
                                  key=lambda kv: -kv[1])}


def model_outputs(batch: Batch) -> dict:
    m = batch.model
    out = {"mean_download_ms": m["downloads_ms"] / m["downloads"]
           if m["downloads"] else None,
           "installs": m["installs"], "alerts": m["alerts"]}
    out.update({f"bytes.{k}": v for k, v in sorted(m["bytes"].items())})
    out.update({f"cache.{k}": v for k, v in sorted(m["cache"].items())})
    out.update({f"adversary.{k}": v
                for k, v in sorted(m["adversary_actions"].items())})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ota_stations" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from tracer import UNTRACED, Tracer
    from workloads import SHA_SHARE, WORKLOADS

    make_configs = WORKLOADS.get(args.workload)
    if make_configs is None:
        print(f"perfbench: unknown workload {args.workload}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    name = args.workload
    configs = make_configs(args.seed)
    pinned = None
    if args.seed == 0:
        golden = json.loads((HERE / "golden.json").read_text())
        pinned = golden["workloads"][name]

    clock = time.perf_counter
    untraced, traced = [], []
    started = clock()
    if args.trace:
        # Warm-up, so that the overhead compares warm repetitions only.
        warm_up = run_batch(configs, pinned)
    while True:
        t = clock()
        untraced.append(run_batch(configs, pinned))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append((tracer, run_batch(configs, pinned, tracer)))
        # Stop before a repetition that would overrun --seconds.
        elapsed, last = clock() - started, clock() - t
        if elapsed + last > args.seconds \
                and (args.trace or len(untraced) >= MIN_REPS):
            break
    batches = untraced + [b for _, b in traced]
    if args.trace:
        batches.insert(0, warm_up)
    failed = check_repeats(batches)
    attempted = sum(len(b.scenario_s) for b in batches)

    stats = {"workload": name, "seed": args.seed, "trace": args.trace,
             "reps": len(untraced), "scenarios_per_rep": len(configs),
             "attempted": attempted, "failed": failed,
             "model": model_outputs(untraced[0])}
    for batch in batches:
        for index, problems in list(batch.failures.items())[:10]:
            print(f"FAILED {name} #{index} {configs[index].name}: "
                  f"{'; '.join(problems[:3])}")
    print(f"workload {name} seed={args.seed} reps={len(untraced)} "
          f"scenarios/rep={len(configs)} ops={attempted} ops_failed={failed}")
    for key, value in stats["model"].items():
        print(f"  model output {key} = {value}")

    if args.trace:
        wall = statistics.median(b.wall_s for b in untraced)
        per_rep = [per_layer(t, b, wall) for t, b in traced]
        metrics = {k: {"value": statistics.median(m[k]["value"]
                                                  for m in per_rep),
                       "unit": v["unit"]} for k, v in per_rep[0].items()}
        tracer, batch = traced[-1]
        stats["run_shares"] = run_shares(tracer, batch)
        stats["untraced"] = list(UNTRACED)
        for key, m in metrics.items():
            print(f"  layer {key} = {m['value']:.6g} {m['unit']}")
        for key, share in list(stats["run_shares"].items())[:6]:
            print(f"  run share {key} = {share:.3f}")
        print(f"  untraced: {', '.join(UNTRACED)} (called only by tests)")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT_DIR / f"spans-{name}-seed{args.seed}.csv"))
    else:
        metrics, e2e, host = end_to_end(untraced, SHA_SHARE[name])
        stats["end_to_end"], stats["host"] = e2e, host
        for key, s in host.items():
            print(f"  host {key}: median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} (n={s['n']}, not gated)")
        for key, s in e2e.items():
            print(f"  e2e {key} = {s['value']:.6g} {s['unit']} (samples "
                  f"n={s['n']} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g})")
    print("stats " + json.dumps(stats, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
