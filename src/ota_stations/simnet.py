"""Deterministic discrete-event network: links with bandwidth/latency
profiles, store-and-forward transfers with max-min fair sharing, timers,
a request/reply layer with bounded retransmission, and the one resumable
image download that vehicles, stations and the director share, whether
they pull from a repository or from a station.

A world's event loop is single-threaded; the build's helper thread, which
hashes a large build's images (`scenario.build_scenario`), is joined before
any event.  So identical (scenario, seed) pairs produce identical event
traces.

Events run in (time, seq) order, where seq is the order in which they were
scheduled: of two events due at the same instant, the one scheduled first
runs first.  A flow start or finish costs O(log n) for the n flows on its
link, which keeps a virtual clock and one heap of its flows (see `Link`),
and O(1) heap pushes; a link arms one finisher, so the heap holds
O(links + timers) entries.  A link completes its flows in finish-tag
order, and a run ends at its last event.  A virtual clock rounds
differently from an update of each flow on its own, so a finish time may
differ from one in its last bits.

One delivered message costs one `Envelope` and one `TraceRecord` row,
beside its heap entries.  A heap entry carries its event's argument, and so
does a flow's one entry on its link's heap: the link calls the world back
with the envelope when the last bit is sent.  A link arms its finisher with
its generation, an int, and a timed request's entry holds its request id
beside its `Timer`.  The world, each link and each actor bind these
callbacks once, so no `partial`, closure or method object is made to carry
a flow, arm a finisher or time a request.
"""
from __future__ import annotations

import heapq
import random
import types
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import messages as msg

CELLULAR = "cellular"
ENGINE_CABLE = "engine_cable"
STATION_WIRE = "station_wire"
IN_VEHICLE = "in_vehicle"

# Re-requests one `Actor.fetch_image` download may make after its first.
FETCH_RETRIES = 8


@dataclass(frozen=True)
class LinkProfile:
    bandwidth_bps: float
    latency_ms: float
    cls: str = CELLULAR

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_ms < 0:
            raise ValueError("latency must be non-negative")


class Link:
    """A contended channel; concurrent flows share bandwidth equally.

    Processor sharing by virtual clock, as in fair queueing (Demers, Keshav
    & Shenker, SIGCOMM 1989; Parekh & Gallager, ToN 1993).  `_v` counts the
    bits sent to each active flow since the link was last empty.  A flow of
    `b` bits started at `_v` gets the finish tag `_v + b`, and its remaining
    bits are its tag minus `_v`.  `_flows` is one heap of (tag, generation
    at start, callback, argument) entries, one per flow; the generation
    grows with every start, so it orders equal tags by start.  A flow start
    or finish adds the bits sent since the last update to `_v`, pushes or
    pops an entry, and reads the first finish from the heap's top: O(log n)
    for n flows.  `_v` goes back to 0 when the link empties.

    A link arms one finisher event, for the flow at the heap's top, with
    the link's generation as its argument; a newer generation disarms any
    earlier one.  So flows complete in tag order, fewest remaining bits
    first, as in the fluid model, and flows with equal tags complete in
    start order.  A link belongs to one world, which it keeps from its
    flows' starts for its finisher.
    """

    def __init__(self, name: str, profile: LinkProfile):
        self.name = name
        self.profile = profile
        self._flows: list = []  # heap of (tag, generation, on_done, arg)
        self._count = 0
        self._v = self._rate = self._last_t = 0.0
        self._gen = 0
        self._world: Optional[World] = None
        # Bound once, so that arming a finisher makes no method object.
        self._finish_cb = self._finish

    def start_flow(self, world: "World", size_bytes: int, on_done: Callable,
                   arg=None):
        """Send `size_bytes` on this link, then call `on_done(arg)`, or
        `on_done()` when `arg` is None."""
        self._world = world
        self._drain(world.now)
        heapq.heappush(self._flows, (self._v + size_bytes * 8, self._gen,
                                     on_done, arg))
        self._count += 1
        self._rebalance(world)

    def _drain(self, now: float):
        """Add to `_v` the bits each flow sent since the last update."""
        if self._count and now != self._last_t:
            self._v += self._rate * ((now - self._last_t) / 1000.0)
        self._last_t = now

    def _rebalance(self, world: "World"):
        self._gen += 1
        if not self._count:
            self._v = 0.0
            return
        rate = self._rate = self.profile.bandwidth_bps / self._count
        bits = self._flows[0][0] - self._v
        if bits < 0.0:  # sent with a rounding surplus
            bits = 0.0
        world._schedule_raw(world.now + bits / rate * 1000.0,
                            self._finish_cb, self._gen)

    def _finish(self, gen: int):
        """The finisher armed at generation `gen`: complete the flow at the
        heap's top unless disarmed."""
        if gen != self._gen:
            return
        _, _, on_done, arg = heapq.heappop(self._flows)
        self._count -= 1
        world = self._world
        self._drain(world.now)
        self._rebalance(world)
        on_done() if arg is None else on_done(arg)


class Timer:
    """A scheduled call's handle; `World.run` drops the call unrun, without
    moving the clock, once its timer is cancelled."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


@dataclass(slots=True)
class Envelope:
    src: str
    dst: str
    kind: str
    payload: object
    size: int
    link: Link
    req_id: Optional[int] = None
    reply_to: Optional[int] = None
    # 0 for a request's first sending, n for its n-th retransmission.
    attempt: int = 0


class TraceRecord(NamedTuple):
    time: float
    src: str
    dst: str
    size: int
    link_cls: str
    kind: str


class World:
    """Event loop, clock, actor registry, and delivery trace."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        # Feeds only the vehicles' request nonces; image bytes are a
        # function of (seed, software) and draw nothing from it.
        self.rng = random.Random(seed)
        self._heap: list = []
        self._seq = 0
        self._req_seq = 0
        self.actors: dict = {}
        self.trace: list = []
        self.adversary = None
        self.horizon_reached = False
        # (time, vin, ecu, software, version, digest of the installed bytes)
        self.install_log: list = []
        # Bound once, so that a message's flow and delivery event make no
        # method object.
        self._arrive_cb = self._arrive
        self._deliver_cb = self._deliver

    # -- scheduling --------------------------------------------------------

    def _schedule_raw(self, at: float, fn: Callable, arg=None,
                      timer: Optional[Timer] = None):
        """Queue `fn(arg)`, or `fn()` when `arg` is None, to run at `at`."""
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn, arg, timer))

    def schedule(self, delay_ms: float, fn: Callable) -> Timer:
        timer = Timer()
        self._schedule_raw(self.now + delay_ms, fn, None, timer)
        return timer

    def add_actor(self, actor: "Actor"):
        if actor.name in self.actors:
            raise ValueError(f"duplicate actor {actor.name}")
        self.actors[actor.name] = actor

    def next_req_id(self) -> int:
        self._req_seq += 1
        return self._req_seq

    # -- message transport -------------------------------------------------

    def send(self, env: Envelope):
        if self.adversary is not None:
            for action, value in self.adversary.intercept(self, env):
                if action == "drop":
                    return
                if action == "delay":
                    self._schedule_raw(self.now + value, self._transmit, env)
                    return
                if action == "modify":
                    env = value
        self._transmit(env)

    def _transmit(self, env: Envelope):
        if env.size <= 0:
            self._arrive(env)
        else:
            env.link.start_flow(self, env.size, self._arrive_cb, env)

    def _arrive(self, env: Envelope):
        """The last bit of `env` is sent: deliver it one latency later."""
        self._schedule_raw(self.now + env.link.profile.latency_ms,
                           self._deliver_cb, env)

    def _deliver(self, env: Envelope):
        # What `TraceRecord(...)` does, without its generated `__new__`'s
        # Python frame.
        self.trace.append(tuple.__new__(TraceRecord, (
            self.now, env.src, env.dst, env.size, env.link.profile.cls,
            env.kind)))
        actor = self.actors.get(env.dst)
        if actor is not None:
            actor.receive(env)

    # -- main loop ---------------------------------------------------------

    def run(self, horizon_ms: Optional[float] = None):
        """Process events in (time, seq) order until quiescent or horizon.

        A reached horizon with live timers is reported via `horizon_reached`,
        not an exception.  A cancelled timer is dropped when it comes due:
        it neither moves the clock nor counts against the horizon.

        A run ends at its last event, and `horizon_reached` means that a
        live event was due after the horizon.  A link's disarmed finisher
        still comes due, but never extends the clock: it was armed for the
        first finish on its link, so every flow then on the link, its own
        included, finishes no earlier.
        """
        while self._heap:
            at, _, fn, arg, timer = heapq.heappop(self._heap)
            if timer is not None and timer.cancelled:
                continue
            if horizon_ms is not None and at > horizon_ms:
                self.horizon_reached = True
                self.now = horizon_ms
                return self.trace
            self.now = at
            fn() if arg is None else fn(arg)
        return self.trace

    def trace_csv_rows(self):
        for rec in self.trace:
            yield (f"{rec.time:.6f}", rec.src, rec.dst, str(rec.size),
                   rec.link_cls, rec.kind)


@dataclass(slots=True)
class _Pending:
    """One outstanding request: the envelope it last sent, and whom to call
    back.

    The actor's `_pending` table is its only owner, and timers refer to it
    by request id, so it (and whatever its callbacks capture) is freed as
    soon as the request is answered or given up.
    """

    env: Envelope
    on_reply: Callable
    on_fail: Optional[Callable]
    timeout: Optional[float]
    retries_left: int
    timer: Optional[Timer] = None


@dataclass(slots=True)
class _Download:
    """One resumable image download (see `Actor.fetch_image`).  Its request
    callbacks are its own bound methods, and it refers to none of its
    requests, so it is freed once its last request is answered.  It has at
    most one request in flight."""

    actor: "Actor"
    dst: str
    link: Link
    kind: str
    payload: dict
    size: int
    mu: object
    on_done: Callable
    on_error: Optional[Callable]
    timeout_ms: Optional[float]
    retries: int
    received: msg.Received
    cancelled: bool = False
    attempts: int = 0   # re-requests made after the first

    def cancel(self):
        """Make no further request; a reply already in flight still counts."""
        self.cancelled = True

    def pull(self):
        self.actor.request(
            self.dst, self.kind,
            dict(self.payload, from_index=self.received.next_missing()),
            self.size, self.link, self.pulled,
            None if self.timeout_ms is None else self.timed_out,
            self.timeout_ms, self.retries)

    def pulled(self, reply: Envelope):
        if reply.kind != self.kind + "_ok":
            self.fail("download")
            return
        if self.received.complete:
            return  # another download into `received` completed it
        payload = reply.payload   # as `Actor.reply_buckets` writes it
        self.received.add(payload["buckets"])
        result = msg.assemble_buckets(self.received, self.mu, payload["total"])
        if result is not None:
            self.on_done(result)
        elif self.attempts >= FETCH_RETRIES:
            self.fail("integrity")
        elif not self.cancelled:
            self.attempts += 1
            self.pull()

    def timed_out(self):
        self.fail("download_failed")

    def fail(self, reason: str):
        if self.on_error is not None and not self.cancelled:
            self.on_error(reason)


class Actor:
    """Single-threaded protocol actor; one state transition per event."""

    # No reply is kept.  Read only by `perfbench/run.py`, whose
    # `simnet.served_retained_mb` sums it, so that metric reads 0.
    _served = types.MappingProxyType({})

    def __init__(self, name: str, world: World):
        self.name = name
        self.world = world
        self._pending: dict = {}
        # Bound once, so that a timed request's timer makes no method object.
        self._timed_out_cb = self._timed_out
        world.add_actor(self)

    # -- dispatch ----------------------------------------------------------

    def receive(self, env: Envelope):
        if env.reply_to is not None:
            pending = self._pending.pop(env.reply_to, None)
            if pending is None:
                return  # late duplicate reply
            if pending.timer is not None:
                pending.timer.cancel()
            pending.on_reply(env)
            return
        handler = getattr(self, "on_" + env.kind, None)
        if handler is not None:
            handler(env)

    # -- sending -----------------------------------------------------------

    def send(self, dst: str, kind: str, payload, size: int, link: Link):
        self.world.send(Envelope(self.name, dst, kind, payload, size, link))

    def request(self, dst: str, kind: str, payload, size: int, link: Link,
                on_reply: Callable, on_fail: Optional[Callable] = None,
                timeout_ms: Optional[float] = None, retries: int = 0):
        """Send request `kind` to `dst` and call `on_reply` with the first
        reply.  With `timeout_ms` None, the default, the request is sent
        once and never times out, and `on_fail` is never called.  Otherwise
        an unanswered request is sent again after `timeout_ms`, at most
        `retries` more times (default none), and then `on_fail` is called,
        if given.  Each sending reaches `dst`'s handler, so retry only a
        request whose handler is idempotent.  Returns the request id."""
        req_id = self.world.next_req_id()
        self._attempt(req_id, _Pending(
            Envelope(self.name, dst, kind, payload, size, link, req_id),
            on_reply, on_fail, timeout_ms, retries))
        return req_id

    def _attempt(self, req_id: int, pending: _Pending):
        world = self.world
        if pending.timeout is not None:
            pending.timer = timer = Timer()
            world._schedule_raw(world.now + pending.timeout,
                                self._timed_out_cb, req_id, timer)
        self._pending[req_id] = pending
        world.send(pending.env)

    def _timed_out(self, req_id: int):
        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            env = pending.env
            pending.env = Envelope(env.src, env.dst, env.kind, env.payload,
                                   env.size, env.link, req_id, None,
                                   env.attempt + 1)
            self._attempt(req_id, pending)
        elif pending.on_fail is not None:
            pending.on_fail()

    def reply(self, env: Envelope, kind: str, payload, size: int):
        """Answer request `env` on the link it came by.  The reply is not
        kept: a retransmission of `env` reaches the handler again, which
        answers it anew."""
        self.world.send(Envelope(self.name, env.src, kind, payload, size,
                                 env.link, None, env.req_id))

    def reply_buckets(self, env: Envelope, kind: str, buckets: tuple, **extra):
        """Answer a download request `env` with `buckets` from its
        `from_index` on and the count of all of them, plus the `extra`
        payload keys; the reply's size is its chunk bytes plus 64."""
        out = buckets[env.payload.get("from_index", 0):]
        self.reply(env, kind, dict(extra, buckets=out, total=len(buckets)),
                   msg.bucket_bytes(out) + 64)

    # -- resumable image download ------------------------------------------

    def fetch_image(self, dst: str, link: Link, kind: str, payload: dict,
                    size: int, mu, on_done: Callable,
                    on_error: Optional[Callable] = None,
                    timeout_ms: Optional[float] = None, retries: int = 0,
                    received: Optional[msg.Received] = None) -> _Download:
        """Download the image of manifest `mu` from `dst`, a repository
        ("fetch") or a station ("serve"); vehicles, stations and the
        director all download this way.  Each request of `kind` is `size`
        bytes: `payload` plus the first bucket index missing from `received`
        (default: a fresh `Received`).  Each `<kind>_ok` reply's buckets are
        verified and kept there; a corrupt image (all buckets present, the
        digest not `mu`'s) restarts at bucket 0.  A download makes at most
        FETCH_RETRIES re-requests, none once cancelled.

        Calls `on_done` with the `Complete` verified image, or `on_error`
        with "download_failed" (request timed out), "download" (refused) or
        "integrity" (retries exhausted).
        """
        if received is None:
            received = msg.Received()
        download = _Download(self, dst, link, kind, payload, size, mu,
                             on_done, on_error, timeout_ms, retries, received)
        download.pull()
        return download
