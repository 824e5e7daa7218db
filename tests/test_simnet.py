import pytest

from ota_stations import messages as msg
from ota_stations.simnet import (CELLULAR, Actor, Envelope, Link,
                                 LinkProfile, World)


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
    assert not fired and timer.cancelled and not timer.fired


def test_horizon_stops_cleanly():
    world = World(seed=1)
    fired = []
    world.schedule(50.0, lambda: fired.append(1))
    world.schedule(500.0, lambda: fired.append(2))
    world.run(horizon_ms=100.0)
    assert fired == [1]
    assert world.horizon_reached
    assert world.now == 100.0


def test_request_reply_and_idempotent_retransmission():
    world = World(seed=1)
    responder = Recorder("b", world)

    class Asker(Actor):
        def __init__(self):
            super().__init__("a", world)
            self.replies = []
            self.failures = 0

    asker = Asker()
    link = _link(10.0, 1.0)
    asker.request("b", "ask", "q", 64, link,
                  on_reply=lambda env: asker.replies.append(env.payload),
                  on_fail=lambda: None)
    world.run()
    assert asker.replies == ["q"]

    # A duplicated request envelope is answered from the reply memo, not
    # re-dispatched to the handler.
    first_req = next(e for e in world.trace if e.kind == "ask")
    handler_calls = []
    responder.on_ask = lambda env: handler_calls.append(env)
    responder.receive(Envelope("a", "b", "ask", "q", 64, link, req_id=1))
    world.run()
    assert not handler_calls


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


def test_run_ends_at_latest_finish_estimate():
    # Sharing 10 Mbps, a 10 Mb and a 20 Mb flow are first due at 2 s and
    # 4 s; when the first finishes the second speeds up and finishes at 3 s.
    # The clock still ends at the superseded 4 s estimate, and a horizon
    # before it counts as reached, as under a finisher per flow.
    def run(horizon_ms=None):
        world = World(seed=1)
        sink = Recorder("b", world)
        link = _link(10.0, 0.0)
        world.send(Envelope("a", "b", "ping", 1, 10_000_000 // 8, link))
        world.send(Envelope("a", "b", "ping", 2, 20_000_000 // 8, link))
        world.run(horizon_ms)
        return world, [round(t) for t, _ in sink.got]

    world, times = run()
    assert times == [2000, 3000]
    assert world.now == 4000.0 and not world.horizon_reached
    world, times = run(horizon_ms=3500.0)
    assert times == [2000, 3000]
    assert world.now == 3500.0 and world.horizon_reached


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
            self.reply_buckets(env, "fetch_ok", image.buckets(world.digests))

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
