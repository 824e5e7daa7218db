"""Outside-in tracing: wraps the public functions of each simulator module
from the benchmark's side, so the program under `src/` stays untouched.

Every wrapped call records a span (name, start, end, parent span, scenario
id) and adds to per-name call counts and self time, where self time is the
span's duration minus the time covered by its wrapped children.  A span
stack gives the nesting, which matters because `signed_region` recurses and
`payload_digest` and `wire_size` nest inside it.  Spans are kept in memory
and written out by the caller when the run ends.

`decode_message` is called by no workload (only by tests), so it is not
wrapped and is reported as untraced.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from ota_stations import (adversary, broker, crypto, director, image_repo,
                          messages, scenario, simnet, vehicle)

UNTRACED = ("messages.decode_message",)

# `digest` is imported by name into these modules; each binding is patched.
DIGEST_SITES = (crypto, messages, vehicle, broker, director, image_repo,
                scenario)

RECEIVE_SPAN = {
    director.Director: "director.receive",
    broker.Station: "broker.station_receive",
    broker.UpdateEngine: "broker.engine_receive",
    vehicle.VehiclePrimary: "vehicle.primary_receive",
    vehicle.SecondaryEcu: "vehicle.secondary_receive",
    image_repo.ImageRepo: "image_repo.receive",
    scenario.Producer: "scenario.producer_receive",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.run_self_s = defaultdict(float)   # self time inside World.run
        self.counts = defaultdict(float)
        self.scenario_id = None
        self._stack: list = []                 # [span index, child seconds]
        self._in_run = 0

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return `fn` wrapped in a span.  `name` is a string or a function
        of the receiver giving one; `after(args, result)` counts outcomes."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            label = name if fixed else name(args[0])
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                spans[frame[0]] = (label, start, end, parent, self.scenario_id)
                self.calls[label] += 1
                self.self_s[label] += own
                if self._in_run:
                    self.run_self_s[label] += own
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,scenario\n")
            for name, start, end, parent, sid in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{sid}\n")

    # -- counting hooks ----------------------------------------------------

    def _count_digest(self, args, result):
        n = len(args[0])
        self.counts["digest_bytes"] += n
        if self._in_run:
            self.counts["digest_run_bytes"] += n

    def _count_verify(self, args, result):
        if not result:
            self.counts["verify_failed"] += 1

    def _count_split(self, args, result):
        self.counts["split_bytes"] += len(args[0])

    def _count_insert(self, args, result):
        self.counts["cache_evictions"] += len(result or ())

    def _count_send(self, args, result):
        world, env = args
        if env.attempt > 0:
            self.counts["retransmits"] += 1
        if env.kind in ("fetch", "serve") and env.req_id is not None \
                and isinstance(world.actors.get(env.src),
                               vehicle.VehiclePrimary):
            self.counts["vehicle_fetch_requests"] += 1

    def _run(self, fn):
        def run(*args, **kwargs):
            self._in_run += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_run -= 1
        return run

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block and
        restore the originals afterwards, also on error."""
        saved = []

        def patch(owner, attr, name, after=None, outer=None):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            wrapped = self.wrap(name, original, after)
            setattr(owner, attr, outer(wrapped) if outer else wrapped)
            return wrapped

        try:
            traced_digest = patch(crypto, "digest", "crypto.digest",
                                  self._count_digest)
            for module in DIGEST_SITES[1:]:
                saved.append((module, "digest", module.__dict__["digest"]))
                module.digest = traced_digest
            for provider in (crypto.HmacProvider, crypto.Ed25519Provider):
                patch(provider, "sign", "crypto.sign")
                patch(provider, "verify", "crypto.verify", self._count_verify)

            patch(simnet.World, "run", "simnet.loop", outer=self._run)
            patch(simnet.World, "send", "simnet.send", self._count_send)
            patch(simnet.Link, "start_flow", "simnet.start_flow")
            patch(simnet.Actor, "receive",
                  lambda actor: RECEIVE_SPAN.get(type(actor), "simnet.receive"))

            patch(messages, "signed_region", "messages.signed_region")
            patch(messages, "wire_size", "messages.wire_size")
            patch(messages, "payload_digest", "messages.payload_digest")
            patch(messages, "split_buckets", "messages.split_buckets",
                  self._count_split)
            patch(messages, "assemble_buckets", "messages.assemble_buckets")

            patch(image_repo.ImageRepo, "store", "image_repo.store")
            patch(image_repo.ImageRepo, "on_fetch", "image_repo.on_fetch")
            patch(director.Director, "on_status", "director.on_status")
            for attr in ("accept_manifest", "resolve_and_bundle",
                         "publish_bundle"):
                patch(director.Director, attr, "director.bundle")
            patch(broker.Station, "on_serve", "broker.on_serve")
            patch(broker.Station, "cache_insert", "broker.cache_insert",
                  self._count_insert)
            patch(vehicle.VehiclePrimary, "ignition", "vehicle.ignition")
            patch(adversary.Adversary, "intercept", "adversary.intercept")

            patch(scenario, "build_scenario", "scenario.build")
            patch(scenario, "_preseed", "scenario.preseed")
            patch(scenario, "collect_report", "scenario.collect_report")
            for attr in ("safety_violations", "liveness_failures",
                         "false_alarms"):
                patch(scenario, attr, "scenario.validate")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
