import heapq
import importlib.util
import inspect
import math
import random
from pathlib import Path

import pytest

from ota_stations import messages as msg
from ota_stations.scenario import ScenarioConfig, build_scenario
from ota_stations.simnet import (CELLULAR, Actor, Envelope, Link,
                                 LinkProfile, World)
from ota_stations.suites import ATTACK_LABELS, family_config


def _link(bandwidth_mbps=5.0, latency_ms=30.0):
    return Link("l", LinkProfile(bandwidth_mbps * 1e6, latency_ms, CELLULAR))


class Recorder(Actor):
    def __init__(self, name, world):
        super().__init__(name, world)
        self.got = []

    def on_ping(self, env):
        self.got.append((self.world.now, env.payload))

    def on_ask(self, env):
        self.reply(env, "answer", env.payload, 64)


def test_profile_validation():
    with pytest.raises(ValueError):
        LinkProfile(0, 1)
    with pytest.raises(ValueError):
        LinkProfile(1e6, -1)


def test_transfer_time_matches_arithmetic():
    # 100 MB over 5 Mbps plus 30 ms latency: 100e6*8/5e6 s = 160 s.
    world = World(seed=1)
    sink = Recorder("b", world)
    link = _link(5.0, 30.0)
    world.send(Envelope("a", "b", "ping", None, 100_000_000, link))
    world.run()
    (at, _), = sink.got
    assert at == pytest.approx(160_000.0 + 30.0, abs=1e-6)


def test_zero_size_message_is_latency_only():
    world = World(seed=1)
    sink = Recorder("b", world)
    world.send(Envelope("a", "b", "ping", None, 0, _link(5.0, 30.0)))
    world.run()
    assert sink.got[0][0] == pytest.approx(30.0)


def test_fair_share_two_equal_flows():
    # Two simultaneous 10 Mb flows on a 10 Mbps link each get 5 Mbps and
    # both complete at 2 s, not 1 s.
    world = World(seed=1)
    sink = Recorder("b", world)
    link = _link(10.0, 0.0)
    size = 10_000_000 // 8
    world.send(Envelope("a", "b", "ping", 1, size, link))
    world.send(Envelope("a", "b", "ping", 2, size, link))
    world.run()
    assert [round(t) for t, _ in sink.got] == [2000, 2000]


def test_fair_share_rebalances_on_late_join():
    # Flow 1 runs alone for 1 s (half done), then shares for the rest.
    world = World(seed=1)
    sink = Recorder("b", world)
    link = _link(10.0, 0.0)
    size = 10_000_000 // 8
    world.send(Envelope("a", "b", "ping", 1, size, link))
    world.schedule(500.0, lambda: world.send(
        Envelope("a", "b", "ping", 2, size, link)))
    world.run()
    times = sorted(round(t) for t, _ in sink.got)
    # First flow: 0.5 s alone + 1 s shared; second: 1 s shared + 0.5 s alone
    # after the first finishes.
    assert times == [1500, 2000]


def test_event_order_and_determinism():
    def run(seed):
        world = World(seed=seed)
        sink = Recorder("b", world)
        link = _link(5.0, 10.0)
        for i in range(20):
            size = world.rng.randrange(1, 50_000)
            world.schedule(world.rng.uniform(0, 100),
                           lambda s=size: world.send(
                               Envelope("a", "b", "ping", s, s, link)))
        world.run()
        return [(round(rec.time, 9), rec.size) for rec in world.trace]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_timer_cancellation():
    world = World(seed=1)
    fired = []
    timer = world.schedule(10.0, lambda: fired.append(1))
    world.schedule(5.0, timer.cancel)
    world.run()
    assert not fired and timer.cancelled


def test_horizon_stops_cleanly():
    world = World(seed=1)
    fired = []
    world.schedule(50.0, lambda: fired.append(1))
    world.schedule(500.0, lambda: fired.append(2))
    world.run(horizon_ms=100.0)
    assert fired == [1]
    assert world.horizon_reached
    assert world.now == 100.0


def test_cancelled_timeout_neither_moves_the_clock_nor_reaches_the_horizon():
    # A request answered at 3.0 ms cancels its 60 s timeout; the run ends at
    # the reply, well inside the horizon.
    world = World(seed=1)
    responder = Recorder("b", world)
    responder.on_ask = lambda env: responder.reply(env, "answer", None, 0)

    class Asker(Actor):
        pass

    asker = Asker("a", world)
    answered = []
    asker.request("b", "ask", "q", 0, _link(10.0, 1.5),
                  on_reply=lambda env: answered.append(world.now),
                  on_fail=lambda: answered.append("fail"),
                  timeout_ms=60_000.0)
    world.run(horizon_ms=30_000.0)
    assert answered == [3.0]
    assert not world.horizon_reached
    assert world.now == 3.0


class _Asker(Actor):
    def __init__(self, world):
        super().__init__("a", world)
        self.replies = []


def _held_replies(actor) -> list:
    """Every reply envelope that `actor`'s attributes hold, one container
    deep."""
    held = []
    for value in vars(actor).values():
        values = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple, set)) else (value,))
        held += [v for v in values
                 if isinstance(v, Envelope) and v.reply_to is not None]
    return held


def test_request_reply_and_idempotent_retransmission():
    world = World(seed=1)
    responder = Recorder("b", world)
    asker = _Asker(world)
    link = _link(10.0, 1.0)
    handled = []
    responder.on_ask = lambda env: (handled.append(env.attempt),
                                    Recorder.on_ask(responder, env))
    req_id = asker.request("b", "ask", "q", 64, link,
                           on_reply=lambda env: asker.replies.append(
                               env.payload),
                           on_fail=lambda: None, timeout_ms=100.0, retries=2)
    # A duplicated request envelope reaches the handler again, which
    # answers it anew; the asker takes the first reply, and drops the
    # second as a late duplicate.
    world.send(Envelope("a", "b", "ask", "q", 64, link, req_id=req_id,
                        attempt=1))
    world.run()
    assert handled == [0, 1]
    assert [rec.kind for rec in world.trace].count("answer") == 2
    assert asker.replies == ["q"]
    assert _held_replies(responder) == [] and _held_replies(asker) == []


def test_no_reply_is_kept_when_no_request_is_retried():
    world = World(seed=1)
    responder = Recorder("b", world)
    asker = _Asker(world)
    link = _link(10.0, 1.0)
    asker.request("b", "ask", "q", 64, link,
                  on_reply=lambda env: asker.replies.append(env.payload))
    asker.request("b", "ask", "r", 64, link,
                  on_reply=lambda env: asker.replies.append(env.payload),
                  timeout_ms=100.0)
    world.run()
    assert sorted(asker.replies) == ["q", "r"]
    assert _held_replies(responder) == [] and _held_replies(asker) == []


def test_only_the_reply_to_a_retried_request_is_kept():
    # Beside requests sent without retries, a retried request that arrives
    # twice runs its handler twice; the asker keeps only one reply to it,
    # and the responder keeps none.
    world = World(seed=1)
    responder = Recorder("b", world)
    asker = _Asker(world)
    link = _link(10.0, 1.0)
    handled = []
    responder.on_ask = lambda env: (handled.append(env.payload),
                                    Recorder.on_ask(responder, env))
    retried = asker.request("b", "ask", "q", 64, link,
                            on_reply=lambda env: asker.replies.append(
                                env.payload),
                            timeout_ms=100.0, retries=1)
    world.send(Envelope("a", "b", "ask", "q", 64, link, req_id=retried,
                        attempt=1))
    asker.request("b", "ask", "r", 64, link,
                  on_reply=lambda env: asker.replies.append(env.payload))
    asker.request("b", "ask", "s", 64, link,
                  on_reply=lambda env: asker.replies.append(env.payload),
                  timeout_ms=100.0)
    world.run()
    assert sorted(handled) == ["q", "q", "r", "s"]
    assert sorted(asker.replies) == ["q", "r", "s"]
    assert _held_replies(responder) == [] and _held_replies(asker) == []


def test_a_second_copy_of_an_answered_reply_is_dropped():
    world = World(seed=1)
    Recorder("b", world)
    asker = _Asker(world)
    link = _link(10.0, 1.0)
    req_id = asker.request("b", "ask", "q", 64, link,
                           on_reply=lambda env: asker.replies.append(
                               env.payload))
    world.run()
    assert asker.replies == ["q"]
    world.send(Envelope("b", "a", "answer", "q", 64, link, reply_to=req_id))
    world.run()
    assert asker.replies == ["q"]


def test_request_timeout_retries_then_fails():
    world = World(seed=1)
    # No responder actor exists, so every attempt times out.
    outcomes = []

    class Asker(Actor):
        pass

    asker = Asker("a", world)
    asker.request("nobody", "ask", "q", 64, _link(), on_reply=lambda e: None,
                  on_fail=lambda: outcomes.append("fail"),
                  timeout_ms=10.0, retries=2)
    world.run()
    attempts = [rec for rec in world.trace if rec.kind == "ask"]
    assert len(attempts) == 3  # initial + 2 retries
    assert outcomes == ["fail"]


def test_a_timed_request_is_sent_once_by_default():
    world = World(seed=1)
    outcomes = []
    asker = _Asker(world)
    asker.request("nobody", "ask", "q", 64, _link(), on_reply=lambda e: None,
                  on_fail=lambda: outcomes.append(world.now),
                  timeout_ms=10.0)
    world.run()
    assert [rec.kind for rec in world.trace] == ["ask"]
    assert outcomes == [10.0]


# The requests that may be sent with a retry budget.  A retransmission
# reaches the handler again and no reply is kept, so each handler here must
# be idempotent.  `ImageRepo.on_fetch` only reads: it checks the credential,
# looks up the entry and replies with its buckets.
IDEMPOTENT_RETRIED = {("Director", "ImageRepo", "fetch")}


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_every_retried_request_goes_to_an_idempotent_handler(monkeypatch):
    retried = set()
    signature = inspect.signature(Actor.request)
    original = Actor.request

    def request(self, *args, **kwargs):
        call = signature.bind(self, *args, **kwargs)
        call.apply_defaults()
        if call.arguments["timeout_ms"] is not None \
                and call.arguments["retries"] > 0:
            receiver = self.world.actors.get(call.arguments["dst"])
            retried.add((type(self).__name__, type(receiver).__name__,
                         call.arguments["kind"]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Actor, "request", request)
    configs = [config for workload in _load_workloads().values()
               for config in workload(0)]
    configs += [family_config(0, label) for label in ATTACK_LABELS]
    for config in configs:
        build_scenario(config).world.run(config.horizon_ms)
    assert retried == IDEMPOTENT_RETRIED, retried


def test_trace_csv_rows_shape():
    world = World(seed=1)
    Recorder("b", world)
    world.send(Envelope("a", "b", "ping", None, 10, _link()))
    world.run()
    rows = list(world.trace_csv_rows())
    assert len(rows) == 1
    assert rows[0][1:] == ("a", "b", "10", CELLULAR, "ping")


# ---------------------------------------------------------------------------
# One armed finisher per link
# ---------------------------------------------------------------------------

def test_many_equal_flows_cost_linear_heap_pushes():
    # N equal flows each get bandwidth / N and all complete at N times the
    # time one flow takes alone, as in test_fair_share_two_equal_flows.
    n = 300
    world = World(seed=1)
    sink = Recorder("b", world)
    link = _link(10.0, 0.0)
    size = 10_000_000 // 8
    for i in range(n):
        world.send(Envelope("a", "b", "ping", i, size, link))
    world.run()
    assert world._seq <= 4 * n
    assert [t for t, _ in sink.got] == pytest.approx([n * 1000.0] * n,
                                                     rel=1e-9)
    # Equal flows started at the same instant deliver in start order.
    assert [payload for _, payload in sink.got] == list(range(n))


def test_same_instant_ties_run_in_schedule_order():
    # Both flows finish at exactly 2000 ms.  Events due at one instant run
    # in the order they were scheduled: the timer armed before the flows
    # started fires before either finisher, and the timer armed after them
    # fires after the first finisher but before the second, whose finisher
    # is armed only when the first one completes.
    world = World(seed=1)
    link = _link(10.0, 0.0)
    order = []
    world.schedule(2000.0, lambda: order.append("timer before"))
    for i in range(2):
        link.start_flow(world, 10_000_000 // 8,
                        lambda i=i: order.append((world.now, f"flow {i}")))
    world.schedule(2000.0, lambda: order.append("timer after"))
    world.run()
    assert order == ["timer before", (2000.0, "flow 0"), "timer after",
                     (2000.0, "flow 1")]


def test_run_ends_at_its_last_event():
    # Sharing 10 Mbps, a 10 Mb and a 20 Mb flow finish at 2 s and, once the
    # first is done and the second speeds up, at 3 s.  The clock ends at the
    # last completion, and only a horizon before it counts as reached.
    def run(horizon_ms=None):
        world = World(seed=1)
        sink = Recorder("b", world)
        link = _link(10.0, 0.0)
        world.send(Envelope("a", "b", "ping", 1, 10_000_000 // 8, link))
        world.send(Envelope("a", "b", "ping", 2, 20_000_000 // 8, link))
        world.run(horizon_ms)
        return world, [round(t) for t, _ in sink.got]

    for horizon_ms in (None, 3500.0):
        world, times = run(horizon_ms)
        assert times == [2000, 3000]
        assert world.now == 3000.0 and not world.horizon_reached
    world, times = run(horizon_ms=2500.0)
    assert times == [2000]
    assert world.now == 2500.0 and world.horizon_reached


def test_forged_total_does_not_stall_a_download():
    """A reply's `total` is unsigned: one claiming fewer buckets than the
    download already keeps must not end it without a result."""
    world = World(seed=1)
    data = bytes(range(256)) * 1000
    image = msg.UpdateImage("sw0", data, 65536)      # 4 buckets
    mu = msg.UpdateManifest("repo0/sw0/2",
                            msg.MetaRecord(msg.digest(data), "primary", "sw0"),
                            msg.TimestampRecord(1, 1))

    class Server(Actor):
        def on_fetch(self, env):
            self.reply_buckets(env, "fetch_ok", image.buckets())

    class Forger:
        """Flips bucket 1 of the first reply, so buckets 0, 2 and 3 are
        kept, then claims a total of 1 in the next."""

        replies = 0

        def intercept(self, world, env):
            if env.kind != "fetch_ok":
                return []
            self.replies += 1
            payload = dict(env.payload)
            if self.replies == 1:
                index, chunk, chunk_digest = payload["buckets"][1]
                payload["buckets"] = list(payload["buckets"])
                payload["buckets"][1] = (index, b"x" + bytes(chunk[1:]),
                                         chunk_digest)
            elif self.replies == 2:
                payload["total"] = 1
            return [("modify", Envelope(env.src, env.dst, env.kind, payload,
                                        env.size, env.link,
                                        reply_to=env.reply_to))]

    Server("repo0", world)
    client = Actor("client", world)
    world.adversary = Forger()
    done, errors = [], []
    client.fetch_image("repo0", _link(), "fetch", {}, 96, mu, done.append,
                       errors.append, timeout_ms=60_000.0)
    world.run()
    requests = [rec for rec in world.trace if rec.kind == "fetch"]
    assert world.adversary.replies == 2 and len(requests) == 2
    assert errors == [] and len(done) == 1
    assert isinstance(done[0], msg.Complete)
    assert b"".join(chunk for _, chunk, _ in done[0].buckets) == data


# ---------------------------------------------------------------------------
# A virtual clock and a heap of finish tags, against an update of each flow
# ---------------------------------------------------------------------------

class _ReferenceLink(Link):
    """The reference model of `Link`: each flow keeps its own remaining
    bits, rate, last-update time and finish time, and every start or finish
    updates the flows one at a time."""

    class Flow:
        def __init__(self, size_bits, now, on_done):
            self.remaining_bits = float(size_bits)
            self.rate_bps = 0.0
            self.last_t = self.at = now
            self.on_done = on_done

    def __init__(self, name, profile):
        super().__init__(name, profile)
        self.flows = []

    def start_flow(self, world, size_bytes, on_done):
        self.flows.append(self.Flow(size_bytes * 8, world.now, on_done))
        self._rebalance(world)

    def _rebalance(self, world):
        self._gen += 1
        if not self.flows:
            return
        now = world.now
        rate = self.profile.bandwidth_bps / len(self.flows)
        for flow in self.flows:
            elapsed_s = (now - flow.last_t) / 1000.0
            flow.remaining_bits = max(
                0.0, flow.remaining_bits - flow.rate_bps * elapsed_s)
            flow.last_t = now
            flow.rate_bps = rate
            flow.at = now + flow.remaining_bits / rate * 1000.0
        # Of the flows due first, the one with the fewest bits left; `min`
        # keeps start order among equals.
        first = min(self.flows,
                    key=lambda flow: (flow.at, flow.remaining_bits))
        world._schedule_raw(first.at, self._finisher(world, first, self._gen))

    def _finisher(self, world, flow, gen):
        def fire():
            if gen != self._gen:
                return
            self.flows.remove(flow)
            self._rebalance(world)
            flow.on_done()
        return fire


def _random_flows(rng):
    """Two link bandwidths and flows of (link, start ms, bytes, follow-up
    bytes); starts often share an instant and sizes often repeat.  Some runs
    start late on a very fast link, where flows of different sizes round to
    the same finish time."""
    offset, fast = rng.choice([(0.0, False), (1e9, True)])
    bandwidths = [1e12 if fast and rng.random() < 0.5 else
                  rng.choice([1e6, 3e6, 5e6, rng.uniform(1e5, 1e8)])
                  for _ in range(2)]
    instants = [offset + rng.uniform(0, 50) for _ in range(3)]
    sizes = [rng.randrange(1, 200_000) for _ in range(3)]
    flows = []
    for _ in range(rng.randrange(1, 25)):
        start = rng.choice(instants) if rng.random() < 0.5 \
            else offset + rng.uniform(0, 100)
        size = rng.choice(sizes) if rng.random() < 0.5 \
            else rng.randrange(1, rng.choice([8, 400_000]))
        follow = (rng.randrange(1, 100_000),) if rng.random() < 0.3 else ()
        flows.append((rng.randrange(2), start, size, follow))
    return bandwidths, flows


def _one_flow_sets(rng):
    """Flows on one link that often leave it a single flow, in the format of
    `_random_flows`: back-to-back sends, each started by the last one's
    completion, or a flow joined by a second (1 -> 2 -> 1 flows), whose
    survivor may send one more back to back."""
    bandwidths = [rng.choice([1e6, 3e6, 5e6, rng.uniform(1e5, 1e8)])]
    sizes = [rng.randrange(1, 400_000) for _ in range(rng.randrange(2, 6))]
    if rng.random() < 0.5:
        return bandwidths, [(0, rng.uniform(0, 50), sizes[0],
                             tuple(sizes[1:]))]
    alone_ms = sizes[0] * 8 / bandwidths[0] * 1000.0
    follow = (sizes[2],) if len(sizes) > 2 else ()
    return bandwidths, [(0, 0.0, sizes[0], ()),
                        (0, rng.uniform(0, alone_ms), sizes[1], follow)]


def _run_flows(link_cls, bandwidths, flows):
    """Run `flows` on links of `link_cls`; a flow's follow-ups start on the
    same link one after another, each from the last one's completion
    callback.  Returns every completion as (time, flow), the clock after
    `run` and the number of events."""
    world = World(seed=1)
    links = [link_cls(f"l{i}", LinkProfile(bps, 0.0))
             for i, bps in enumerate(bandwidths)]
    done = []

    def start(n, link, size, follow):
        def on_done():
            done.append((world.now, n))
            if follow:
                start((n, "follow"), link, follow[0], follow[1:])
        link.start_flow(world, size, on_done)

    for n, (i, at, size, follow) in enumerate(flows):
        world.schedule(at, lambda n=n, i=i, size=size, follow=follow:
                       start(n, links[i], size, follow))
    world.run()
    return done, world.now, world._seq


def _assert_within_rounding(actual, expected, seed):
    assert abs(actual - expected) <= 4 * math.ulp(expected), seed


def test_link_matches_reference_model_within_rounding():
    # `Link` adds each update's sent bits to one virtual clock, where the
    # reference subtracts them from each flow, so a time may differ in its
    # last bits (at most 3 ulps over these draws).  Which flows complete, in
    # which order, and the number of events must match exactly.  Each seed
    # also draws flows that leave a link one flow at a time.
    for seed in range(500):
        for draw in (_random_flows, _one_flow_sets):
            bandwidths, flows = draw(random.Random(seed))
            done, now, events = _run_flows(Link, bandwidths, flows)
            want, want_now, want_events = _run_flows(
                _ReferenceLink, bandwidths, flows)
            assert [n for _, n in done] == [n for _, n in want], seed
            assert events == want_events, seed
            for (at, _), (want_at, _) in zip(done, want):
                _assert_within_rounding(at, want_at, seed)
            _assert_within_rounding(now, want_now, seed)
            assert now == done[-1][0], seed


def _bits_left(link):
    """Each flow's remaining bits, in tag order.  A tag's group holds a
    (callback, argument) pair per flow."""
    return [max(tag - link._v, 0.0) for tag in sorted(link._flows)
            for _ in link._flows[tag][::2]]


def _link_is_empty(link):
    return link._count == 0 and link._tags == [] and link._flows == {}


def test_flow_started_as_another_drains():
    # Alone on 3 Mbps, a 1,020-byte flow is due at 2.72 ms, and after 2.72 ms
    # its 8,160 bits were sent with a rounding surplus.  A flow started by a
    # timer at that instant leaves it 0 bits, it completes at once, and the
    # new flow then has the whole link.
    world = World(seed=1)
    link = _link(3.0, 0.0)
    due = 1020 * 8 / 3e6 * 1000.0
    done, bits = [], []

    def start_second():
        link.start_flow(world, 3000, lambda: done.append((world.now, 2)))
        bits.extend(_bits_left(link))

    world.schedule(due, start_second)
    link.start_flow(world, 1020, lambda: done.append((world.now, 1)))
    world.run()
    assert 3e6 * (due / 1000.0) > 1020 * 8
    assert bits == [0.0, 24000.0]
    assert done == [(due, 1), (due + 24000 / 3e6 * 1000.0, 2)]


def test_smaller_later_flow_finishes_first():
    # On 10 Mbps, 10 Mb and 20 Mb flows share from 0 ms; a 1 Mb flow joins
    # at 500 ms and finishes at 800 ms, the 10 Mb flow at 2,100 ms and the
    # 20 Mb flow, alone, at 3,100 ms.  Each callback fires for its own flow.
    world = World(seed=1)
    link = _link(10.0, 0.0)
    done = []

    def start(name, megabits):
        link.start_flow(world, megabits * 1_000_000 // 8,
                        lambda: done.append((name, world.now)))

    start("10 Mb", 10)
    start("20 Mb", 20)
    world.schedule(500.0, lambda: start("1 Mb", 1))
    world.run()
    assert [name for name, _ in done] == ["1 Mb", "10 Mb", "20 Mb"]
    assert [at for _, at in done] == pytest.approx([800.0, 2100.0, 3100.0],
                                                   rel=1e-12)
    assert _link_is_empty(link) and link._v == 0.0


def _changed_slots(before, after):
    """Heap slots whose entry differs, counting slots added or removed."""
    return (sum(a != b for a, b in zip(before, after))
            + abs(len(before) - len(after)))


@pytest.mark.parametrize("n", [20, 1280])
def test_flow_event_changes_logarithmically_many_heap_slots(n):
    # n flows of distinct sizes share a link.  A flow smaller than all of
    # them climbs to the heap's top, and the first finish moves the last tag
    # there and down again: each changes at most 2 * ceil(log2 n) + 2 slots
    # of the tag heap.
    world = World(seed=1)
    link = _link(10.0, 0.0)
    done = []
    for size in random.Random(n).sample(range(2, 100 * n), n):
        link.start_flow(world, size, lambda: done.append(world.now))
    bound = 2 * math.ceil(math.log2(n)) + 2

    before = list(link._tags)
    link.start_flow(world, 1, lambda: done.append(world.now))
    assert _changed_slots(before, link._tags) <= bound
    assert link._tags[0] == 8.0 and len(link._tags) == n + 1

    before = list(link._tags)
    while not done:  # run one live finisher; disarmed ones change nothing
        at, _, fn, arg, _ = heapq.heappop(world._heap)
        world.now = at
        fn(arg)
    assert 0 < _changed_slots(before, link._tags) <= bound
    assert len(link._tags) == n and link._count == n


def test_rounded_tie_goes_to_fewest_bits():
    # At 1e9 ms on a 1 Tbps link, 16 and 8 bits take 3.2e-8 and 1.6e-8 ms,
    # below half a step of the clock: both flows are due at 1e9 ms, and the
    # one with fewer bits completes first although it started second.
    world = World(seed=1)
    link = Link("l", LinkProfile(1e12, 0.0))
    done = []

    def start():
        for name, size in (("2 bytes", 2), ("1 byte", 1)):
            link.start_flow(world, size, lambda name=name: done.append(name))

    world.schedule(1e9, start)
    world.run()
    assert done == ["1 byte", "2 bytes"] and world.now == 1e9


def test_rounded_tie_completes_in_tag_order_then_start_order():
    # At 1e10 ms on a 1 Tbps link, 5 to 1 bytes shared seven ways take at
    # most 2.8e-7 ms, below half a step of the clock (9.5e-7 ms), so all
    # seven flows are due at 1e10 ms.  They complete fewest bytes first, and
    # the three 3-byte flows, which share one tag, in start order.  (At
    # 1e9 ms half a step is 6e-8 ms, and the larger flows would round to
    # later instants.)
    world = World(seed=1)
    link = Link("l", LinkProfile(1e12, 0.0))
    sizes = (5, 4, 3, 2, 1, 3, 3)
    done, tags = [], []

    def start():
        for n, size in enumerate(sizes):
            link.start_flow(world, size,
                            lambda n=n: done.append((n, world.now)))
        tags.extend(link._tags)

    world.schedule(1e10, start)
    world.run()
    assert len(tags) == 5
    assert done == [(n, 1e10) for n in (4, 3, 2, 5, 6, 1, 0)]
    assert world.now == 1e10 and _link_is_empty(link)


def test_ties_anywhere_in_the_heap_complete_in_size_then_start_order():
    # At 1e12 ms half a step of the clock is 6.1e-5 ms, and 40 flows of at
    # most 150 bytes shared on 1 Tbps take at most 4.8e-5 ms: all are due at
    # 1e12 ms and complete by size, equal sizes in start order.  Each
    # completion pops the heap's top, and the heap must stay one.
    world = World(seed=1)
    link = Link("l", LinkProfile(1e12, 0.0))
    sizes = random.Random(3).choices(range(1, 151), k=40)
    done = []

    def on_done(n):
        tags = link._tags
        assert all(tags[(i - 1) // 2] <= tags[i] for i in range(1, len(tags)))
        done.append(n)

    def start():
        for n, size in enumerate(sizes):
            link.start_flow(world, size, lambda n=n: on_done(n))

    world.schedule(1e12, start)
    world.run()
    assert done == sorted(range(len(sizes)), key=lambda n: (sizes[n], n))
    assert world.now == 1e12


def test_run_ends_at_the_instant_of_its_tied_completions():
    # At 1e10 ms on a 1 Tbps link, a 35-byte and a 1-byte flow both round
    # to 1e10 ms; the 1-byte flow completes first, then the 35-byte flow,
    # whose callback starts three 1-byte flows.  They too round to 1e10 ms,
    # and the run ends at its last event, so at 1e10 ms.
    world = World(seed=1)
    link = Link("l", LinkProfile(1e12, 0.0))
    done = []

    def more():
        done.append("35 bytes")
        for n in range(3):
            link.start_flow(world, 1, lambda n=n: done.append(n))

    def start():
        link.start_flow(world, 35, more)
        link.start_flow(world, 1, lambda: done.append("1 byte"))

    world.schedule(1e10, start)
    world.run()
    assert done == ["1 byte", "35 bytes", 0, 1, 2]
    assert world.now == 1e10


# ---------------------------------------------------------------------------
# A flow carries its argument
# ---------------------------------------------------------------------------

def test_flows_with_and_without_an_argument_complete_in_tag_order():
    # A flow started with an argument completes with `on_done(arg)`, one
    # started without with `on_done()`; a falsy argument other than None is
    # still passed.  Mixed on one link, with three flows sharing a tag, they
    # complete in tag order, equal tags in start order, each callback gets
    # exactly its own argument, and the finished link holds no flow.
    world = World(seed=1)
    link = _link(10.0, 0.0)
    sizes = (300, 100, 200, 100, 300, 100, 50)
    args = [object(), None, [], None, object(), None, 0]
    done = []

    for n, (size, arg) in enumerate(zip(sizes, args)):
        if arg is None:
            link.start_flow(world, size, lambda n=n: done.append((n, None)))
        else:
            link.start_flow(world, size,
                            lambda got, n=n: done.append((n, got)), arg)
    world.run()
    order = sorted(range(len(sizes)), key=lambda n: (sizes[n], n))
    assert [n for n, _ in done] == order == [6, 1, 3, 5, 2, 0, 4]
    assert all(got is args[n] for n, got in done)
    assert _link_is_empty(link)


# ---------------------------------------------------------------------------
# The benchmark's entry points
# ---------------------------------------------------------------------------

def test_transport_entry_points_run_once_per_message(monkeypatch):
    # The benchmark's tracer wraps `World.send`, `Link.start_flow` and
    # `Actor.receive` on their classes and counts each call as one message
    # handled.  So in an unattacked run each message is sent through
    # `World.send` once, each message of nonzero size starts one flow, and
    # each delivery to a registered actor is one `Actor.receive`.
    calls = {"send": 0, "start_flow": 0, "receive": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(World, "send")
    counted(Link, "start_flow")
    counted(Actor, "receive")
    config = ScenarioConfig(
        name="entry-points", vehicles=3, stations=1, bundle_bytes=300_000,
        image_count=3, bucket_size=65536, coverage_pct=50,
        secondaries_per_vehicle=1, ignition_period_ms=60_000.0,
        ignition_limit=2)
    built = build_scenario(config)
    built.world.run(config.horizon_ms)
    trace = built.world.trace
    assert not built.world.horizon_reached and built.world.install_log
    assert calls == {
        "send": len(trace),
        "start_flow": sum(rec.size > 0 for rec in trace),
        "receive": sum(rec.dst in built.world.actors for rec in trace)}
