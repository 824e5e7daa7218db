"""Deterministic discrete-event network: links with bandwidth/latency
profiles, store-and-forward transfers with max-min fair sharing, timers,
a request/reply layer with bounded retransmission, and the one resumable
image download that vehicles, stations and the director share, whether
they pull from a repository or from a station.

A world's event loop is strictly single-threaded, so identical (scenario,
seed) pairs produce identical event traces.  The one other thread a world
ever sees is `build_scenario`'s helper, which hashes large images while the
build generates the next one; it is joined before the build returns, so
before any event runs, and it touches no actor, link or heap.

Events run in (time, seq) order, where seq is the order in which they were
scheduled: of two events due at the same instant, the one scheduled first
runs first.  A flow start or finish costs one pass over its link's flows
plus a `min` and a `max`, and O(1) heap pushes, with results bit-identical
to an update of each flow on its own (see `Link` for why); a link arms one
finisher, so the heap holds O(links + timers) entries.

One delivered message costs one `Envelope`, one `TraceRecord` row and at
most one callable: the `partial` its link calls when the last bit is sent.
A heap entry carries its event's argument, so the delivery and a link's
finisher need no closure, and a timer's entry holds the caller's function
beside its `Timer`, so no timer needs one either.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from . import messages as msg

CELLULAR = "cellular"
ENGINE_CABLE = "engine_cable"
STATION_WIRE = "station_wire"
IN_VEHICLE = "in_vehicle"

# Re-requests one `Actor.fetch_image` download may make after its first.
FETCH_RETRIES = 8

_chunk_of = itemgetter(1)  # the chunk of an (index, chunk, digest) bucket


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

    Each flow start or finish updates every flow, so a link keeps one rate
    and one last-update time, and its flows' remaining bits and callbacks
    in start order.  An update is one list pass plus a `min` and a `max`,
    and O(1) heap pushes.  Correctly rounded `/`, `*` and `+` are monotone,
    so the fewest and most bits give the first and latest finish times bit
    for bit as an update of each flow on its own would.

    One finisher rule: a link arms one finisher event, for the flow that
    finishes first; on a tie, the flow that started first.  A generation
    counter disarms any earlier finisher and keeps an armed one's flow
    index valid.  A finisher per flow would complete the same flow first,
    at the same instant, so traces do not depend on the choice.
    """

    def __init__(self, name: str, profile: LinkProfile):
        self.name = name
        self.profile = profile
        self._bits: list = []
        self._done: list = []
        self._rate = self._last_t = 0.0
        self._gen = 0

    def start_flow(self, world: "World", size_bytes: int, on_done: Callable):
        self._drain(world.now)
        self._bits.append(float(size_bytes * 8))
        self._done.append(on_done)
        self._rebalance(world)

    def _drain(self, now: float):
        """Take from every flow the bits it sent since the last update."""
        if self._bits and now != self._last_t:
            sent = self._rate * ((now - self._last_t) / 1000.0)
            self._bits = [b - sent if b > sent else 0.0 for b in self._bits]
        self._last_t = now

    def _rebalance(self, world: "World"):
        self._gen += 1
        if not self._bits:
            return
        bits, now = self._bits, world.now
        rate = self._rate = self.profile.bandwidth_bps / len(bits)
        low = min(bits)
        at = now + low / rate * 1000.0
        first = bits.index(low)
        if first:  # an earlier flow, with more bits, may round to `at` too
            first = next((i for i in range(first)
                          if now + bits[i] / rate * 1000.0 == at), first)
        latest = now + max(bits) / rate * 1000.0
        if latest > world._latest_eta:
            world._latest_eta = latest
        world._schedule_raw(at, self._finish, (world, first, self._gen))

    def _finish(self, armed: tuple):
        """The armed finisher: complete flow `index` unless disarmed."""
        world, index, gen = armed
        if gen != self._gen:
            return
        del self._bits[index]
        self._drain(world.now)
        self._rebalance(world)
        self._done.pop(index)()


class Timer:
    """A scheduled call's handle; `World.run` sets `fired` just before the
    call, and drops the call unrun, without moving the clock, once its timer
    is cancelled."""

    __slots__ = ("cancelled", "fired")

    def __init__(self):
        self.cancelled = False
        self.fired = False

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
        self.seed = seed
        self._heap: list = []
        self._seq = 0
        self._req_seq = 0
        self.actors: dict = {}
        self.trace: list = []
        self.adversary = None
        self.request_timeout_ms: Optional[float] = None
        self.request_retries: int = 3
        self.horizon_reached = False
        # (time, vin, ecu, software, version, digest of the installed bytes)
        self.install_log: list = []
        # Latest finish time any link has computed, armed or not (see run).
        self._latest_eta = 0.0

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
                    self.schedule(value, partial(self._transmit, env))
                    return
                if action == "modify":
                    env = value
                if action == "inject":
                    for extra in value:
                        self._transmit(extra)
        self._transmit(env)

    def _transmit(self, env: Envelope):
        if env.size <= 0:
            self._arrive(env)
        else:
            env.link.start_flow(self, env.size, partial(self._arrive, env))

    def _arrive(self, env: Envelope):
        """The last bit of `env` is sent: deliver it one latency later."""
        self._schedule_raw(self.now + env.link.profile.latency_ms,
                           self._deliver, env)

    def _deliver(self, env: Envelope):
        self.trace.append(TraceRecord(self.now, env.src, env.dst, env.size,
                                      env.link.profile.cls, env.kind))
        actor = self.actors.get(env.dst)
        if actor is not None:
            actor.receive(env)

    # -- main loop ---------------------------------------------------------

    def run(self, horizon_ms: Optional[float] = None):
        """Process events in (time, seq) order until quiescent or horizon.

        A reached horizon with live timers is reported via `horizon_reached`,
        not an exception.  A cancelled timer is dropped when it comes due:
        it neither moves the clock nor counts against the horizon.

        The run ends at the latest finish time a link has computed, even when
        a rebalance moved that flow's finish earlier: the clock and the
        horizon flag come out as under a finisher per flow, whose superseded
        events stayed queued until their time.
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
            if timer is not None:
                timer.fired = True
            fn() if arg is None else fn(arg)
        if self._latest_eta > self.now:
            if horizon_ms is not None and self._latest_eta > horizon_ms:
                self.horizon_reached = True
                self.now = horizon_ms
            else:
                self.now = self._latest_eta
        return self.trace

    def trace_csv_rows(self):
        for rec in self.trace:
            yield (f"{rec.time:.6f}", rec.src, rec.dst, str(rec.size),
                   rec.link_cls, rec.kind)


@dataclass
class _Pending:
    """One outstanding request: what to resend and whom to call back.

    The actor's `_pending` table is its only owner, and timers refer to it
    by request id, so it (and whatever its callbacks capture) is freed as
    soon as the request is answered or given up.
    """

    dst: str
    kind: str
    payload: object
    size: int
    link: Link
    on_reply: Callable
    on_fail: Optional[Callable]
    timeout: Optional[float]
    retries_left: int
    attempt: int = 0
    timer: Optional[Timer] = None


@dataclass
class _Download:
    """One resumable image download (see `Actor.fetch_image`).  Its request
    callbacks refer to it, and it to none of them, so it is freed once its
    last request is answered."""

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
    retries: Optional[int]
    received: msg.Received
    cancelled: bool = False

    def cancel(self):
        """Make no further request; a reply already in flight still counts."""
        self.cancelled = True

    def pull(self, attempts: int):
        self.actor.request(
            self.dst, self.kind,
            dict(self.payload, from_index=self.received.next_missing()),
            self.size, self.link,
            on_reply=lambda reply: self.pulled(reply, attempts),
            on_fail=lambda: self.fail("download_failed"),
            timeout_ms=self.timeout_ms, retries=self.retries)

    def pulled(self, reply: Envelope, attempts: int):
        if reply.kind != self.kind + "_ok":
            self.fail("download")
            return
        if self.received.complete:
            return  # another download into `received` completed it
        result = self.received.absorb(self.mu, reply.payload)
        if isinstance(result, msg.Complete):
            self.on_done(result)
        elif attempts >= FETCH_RETRIES:
            self.fail("integrity")
        elif not self.cancelled:
            self.pull(attempts + 1)

    def fail(self, reason: str):
        if self.on_error is not None and not self.cancelled:
            self.on_error(reason)


class Actor:
    """Single-threaded protocol actor; one state transition per event."""

    def __init__(self, name: str, world: World):
        self.name = name
        self.world = world
        self._pending: dict = {}
        self._served: dict = {}
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
        if env.req_id is not None and env.req_id in self._served:
            # Retransmitted request: replay the stored reply verbatim.
            self.world.send(self._served[env.req_id])
            return
        handler = getattr(self, "on_" + env.kind, None)
        if handler is not None:
            handler(env)

    # -- sending -----------------------------------------------------------

    def send(self, dst: str, kind: str, payload, size: int, link: Link):
        self.world.send(Envelope(self.name, dst, kind, payload, size, link))

    def request(self, dst: str, kind: str, payload, size: int, link: Link,
                on_reply: Callable, on_fail: Optional[Callable] = None,
                timeout_ms: Optional[float] = None,
                retries: Optional[int] = None):
        req_id = self.world.next_req_id()
        timeout = timeout_ms if timeout_ms is not None \
            else self.world.request_timeout_ms
        budget = retries if retries is not None else self.world.request_retries
        self._attempt(req_id, _Pending(dst, kind, payload, size, link,
                                       on_reply, on_fail, timeout, budget))
        return req_id

    def _attempt(self, req_id: int, pending: _Pending):
        if pending.timeout is not None:
            pending.timer = self.world.schedule(
                pending.timeout, lambda: self._timed_out(req_id))
        self._pending[req_id] = pending
        self.world.send(Envelope(self.name, pending.dst, pending.kind,
                                 pending.payload, pending.size, pending.link,
                                 req_id=req_id, attempt=pending.attempt))
        pending.attempt += 1

    def _timed_out(self, req_id: int):
        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            self._attempt(req_id, pending)
        elif pending.on_fail is not None:
            pending.on_fail()

    def reply(self, env: Envelope, kind: str, payload, size: int,
              link: Optional[Link] = None):
        out = Envelope(self.name, env.src, kind, payload, size,
                       link or env.link, reply_to=env.req_id)
        if env.req_id is not None:
            self._served[env.req_id] = out
        self.world.send(out)

    def reply_buckets(self, env: Envelope, kind: str, buckets: tuple, **extra):
        """Answer a download request `env` with `buckets` from its
        `from_index` on and the count of all of them, plus the `extra`
        payload keys; the reply's size is its chunk bytes plus 64, summed
        in C, with no interpreted step per bucket."""
        out = buckets[env.payload.get("from_index", 0):]
        self.reply(env, kind, dict(extra, buckets=out, total=len(buckets)),
                   sum(map(len, map(_chunk_of, out))) + 64)

    # -- resumable image download ------------------------------------------

    def fetch_image(self, dst: str, link: Link, kind: str, payload: dict,
                    size: int, mu, on_done: Callable,
                    on_error: Optional[Callable] = None,
                    timeout_ms: Optional[float] = None,
                    retries: Optional[int] = None,
                    received: Optional[msg.Received] = None) -> _Download:
        """Download the image of manifest `mu` from `dst`, a repository
        ("fetch") or a station ("serve"); vehicles, stations and the
        director all download this way.  Each request of `kind` is `size`
        bytes: `payload` plus the first bucket index missing from `received`
        (default: a fresh `Received`).  Each `<kind>_ok` reply's buckets are
        verified and kept there; a corrupt image restarts at bucket 0.  A
        download makes at most FETCH_RETRIES re-requests, none once
        cancelled.

        Calls `on_done` with the `Complete` verified image, or `on_error`
        with "download_failed" (request timed out), "download" (refused) or
        "integrity" (retries exhausted).
        """
        if received is None:
            received = msg.Received()
        download = _Download(self, dst, link, kind, payload, size, mu,
                             on_done, on_error, timeout_ms, retries, received)
        download.pull(0)
        return download
