"""Acceptance criteria, one printed verdict line per criterion.

Run with `python3 -m pytest tests/test_acceptance.py -s` to see the lines.
"""
import dataclasses
import random
from functools import lru_cache

from ota_stations import messages as msg
from ota_stations.crypto import SignatureEntry, digest
from ota_stations.director import resolve_update_set
from ota_stations.scenario import ScenarioConfig, bandwidth_cost, run_scenario
from ota_stations.suites import run_liveness_suite, run_safety_suite


def _verdict(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    return ok


@lru_cache(maxsize=None)
def _report(config: ScenarioConfig):
    return run_scenario(config)


def _big(coverage, **kwargs):
    return ScenarioConfig(
        name=f"accept-cov{coverage}", bundle_bytes=100_000_000, image_count=5,
        coverage_pct=coverage, mix_hit=100, horizon_ms=4_000_000.0, **kwargs)


# ---------------------------------------------------------------------------
# 1. Station coverage cuts download time monotonically
# ---------------------------------------------------------------------------

def test_criterion_1_coverage_reduces_download_time():
    times = [_report(_big(c)).mean_download_ms for c in (0, 25, 50, 75, 100)]
    ratio = times[-1] / times[0]
    monotone = all(a > b for a, b in zip(times, times[1:]))
    ok = ratio <= 0.20 and monotone
    assert _verdict(
        1, f"full coverage download time is {ratio:.3f} of cellular-only "
           f"(<= 0.20) and strictly decreasing across 0/25/50/75/100% "
           f"coverage", ok), times


# ---------------------------------------------------------------------------
# 2. Cache outcome ordering: hit < miss ~ unknown, all < cellular
# ---------------------------------------------------------------------------

def _mix(hit, miss, unknown):
    return dataclasses.replace(
        _big(100), name=f"accept-mix{hit}-{miss}-{unknown}",
        mix_hit=hit, mix_miss=miss, mix_unknown=unknown)


def test_criterion_2_cache_outcome_ordering():
    t_hit = _report(_mix(100, 0, 0)).mean_download_ms
    t_miss = _report(_mix(0, 100, 0)).mean_download_ms
    t_unknown = _report(_mix(0, 0, 100)).mean_download_ms
    t_cellular = _report(_big(0)).mean_download_ms
    gap = abs(t_miss - t_unknown) / t_miss
    ok = t_hit < t_miss and gap <= 0.10 and t_miss < t_cellular
    assert _verdict(
        2, f"hit {t_hit:.0f} ms < miss {t_miss:.0f} ms, unknown within "
           f"{gap:.1%} of miss (<= 10%), and miss < cellular "
           f"{t_cellular:.0f} ms", ok), (t_hit, t_miss, t_unknown, t_cellular)


# ---------------------------------------------------------------------------
# 3. Client scaling: cellular degrades linearly, stations absorb the load
# ---------------------------------------------------------------------------

def _clients(n, coverage):
    return ScenarioConfig(
        name=f"accept-n{n}-cov{coverage}", bundle_bytes=10_000_000,
        image_count=5, vehicles=n, stations=max(1, n // 2) if coverage else 1,
        coverage_pct=coverage, mix_hit=100, horizon_ms=4_000_000.0)


def test_criterion_3_client_scaling():
    counts = (1, 5, 10, 20)
    cellular = {n: _report(_clients(n, 0)).mean_download_ms for n in counts}
    linear_ok = all(
        0.85 <= cellular[n] / (n * cellular[1]) <= 1.15 for n in counts[1:])
    covered = {n: _report(_clients(n, 100)).mean_download_ms
               for n in (1, 20)}
    flat_ok = covered[20] <= 1.5 * covered[1]
    ok = linear_ok and flat_ok
    assert _verdict(
        3, f"cellular-only time grows linearly in client count (+-15%) "
           f"while 20 clients on stations take {covered[20]:.0f} ms "
           f"<= 1.5x one client ({covered[1]:.0f} ms)", ok), (cellular,
                                                              covered)


# ---------------------------------------------------------------------------
# 4. Metered-bandwidth cost collapses with coverage
# ---------------------------------------------------------------------------

def test_criterion_4_relative_cellular_cost():
    _, rel_full = bandwidth_cost(_report(_big(100)), 1e-9)
    _, rel_none = bandwidth_cost(_report(_big(0)), 1e-9)
    ok = rel_full <= 0.001 and rel_none == 1.0
    assert _verdict(
        4, f"cellular share of vehicle download traffic is {rel_full:.2e} "
           f"(<= 0.001) at full coverage and exactly 1.0 without stations",
        ok), (rel_full, rel_none)


# ---------------------------------------------------------------------------
# 5. Safety: 200 seeds x 10 attack kinds, nothing unauthorized installs
# ---------------------------------------------------------------------------

def test_criterion_5_safety_under_attack():
    result = run_safety_suite(range(200))
    runs = sum(row.runs for row in result.rows)
    ok = result.passed and runs >= 2000
    assert _verdict(
        5, f"{runs} attacked runs (200 seeds x {len(result.rows)} attack "
           f"kinds) with zero unauthorized or corrupted installs",
        ok), result.table()


# ---------------------------------------------------------------------------
# 6. Liveness: install or alert, and clean runs never alert
# ---------------------------------------------------------------------------

def test_criterion_6_liveness_and_no_false_alarms():
    result = run_liveness_suite(range(50))
    runs = sum(row.runs for row in result.rows)
    ok = result.passed
    assert _verdict(
        6, f"{runs} runs: every applicable update installs or raises an "
           f"alert, and adversary-free runs raise none", ok), result.table()


# ---------------------------------------------------------------------------
# 7. Oracle equivalence for the derived algorithms
# ---------------------------------------------------------------------------

def _closure_oracle(trigger, deps, installed, groups):
    """Brute-force reachability: expand only through not-yet-installed
    dependencies; co-update group members of the trigger are extra roots."""
    roots = [trigger]
    for group in groups:
        if trigger in group:
            roots.extend(sorted(set(group) - {trigger}))
    include, frontier = set(), list(roots)
    while frontier:
        s = frontier.pop()
        if s in include:
            continue
        include.add(s)
        for dep in deps.get(s, ()):
            if dep == trigger or dep not in installed:
                frontier.append(dep)
    return include


def _random_dag_case(rng):
    n = rng.randint(1, 8)
    nodes = [f"n{i}" for i in range(n)]
    deps = {nodes[i]: tuple(x for x in nodes[:i] if rng.random() < 0.4)
            for i in range(n)}
    trigger = rng.choice(nodes)
    installed = {x for x in nodes if rng.random() < 0.3}
    groups = ()
    if rng.random() < 0.3:
        groups = (frozenset([trigger] + rng.sample(nodes,
                                                   rng.randint(1, n))),)
    return trigger, deps, installed, groups


def _check_dag_cases(count=1000, seed=2024):
    rng = random.Random(seed)
    for _ in range(count):
        trigger, deps, installed, groups = _random_dag_case(rng)
        order = resolve_update_set(trigger, deps, installed, groups)
        if set(order) != _closure_oracle(trigger, deps, installed, groups):
            return False
        if len(set(order)) != len(order):
            return False
        seen = set()
        for s in order:   # not-yet-installed dependencies come first
            if any(d not in seen for d in deps.get(s, ())
                   if d in set(order) and (d == trigger
                                           or d not in installed)):
                return False
            seen.add(s)
    return True


def _check_bucket_cases(count=1000, seed=77):
    rng = random.Random(seed)
    for _ in range(count):
        data = rng.randbytes(rng.randint(1, 200_000))
        bucket_size = rng.choice((1_000, 4_096, 65_536))
        theta = msg.MetaRecord(digest(data), "e", "s")
        mu = msg.UpdateManifest("repo0/s/2", theta, msg.TimestampRecord(2, 2))
        buckets = msg.split_buckets(data, bucket_size)
        shuffled = list(buckets) + [rng.choice(buckets)]  # duplicate one
        rng.shuffle(shuffled)
        received = msg.Received()
        if received.add(shuffled):
            return False
        result = msg.assemble_buckets(received, mu, len(buckets))
        if result is None or msg.joined_bytes(result.buckets) != data:
            return False
    return True


_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_.-"


def _rand_message(rng):
    def name():
        return "".join(rng.choice(_ALPHABET)
                       for _ in range(rng.randint(1, 12)))

    def tau():
        return msg.TimestampRecord(rng.randrange(2**40),
                                   rng.randrange(1, 2**20))

    def sigma():
        return tuple(SignatureEntry(name(), rng.randbytes(rng.randint(1, 64)))
                     for _ in range(rng.randint(0, 3)))

    def meta():
        s = name()
        deps = {name() for _ in range(rng.randint(0, 4))} - {s}
        return msg.MetaRecord(rng.randbytes(32), name(), s, tuple(deps))

    def manifest():
        return msg.UpdateManifest(name(), meta(), tau(), sigma())

    def bundle():
        ms, keys = [], set()
        for _ in range(rng.randint(1, 4)):
            m = manifest()
            if (m.theta.s, m.tau.v) not in keys:
                keys.add((m.theta.s, m.tau.v))
                ms.append(m)
        grants = tuple(msg.Grant(name(), e) for e in sigma())
        ecu_sigs = tuple((name(), e) for e in sigma())
        return msg.Bundle(tuple(ms), tau(), sigma(), grants, ecu_sigs)

    def report():
        if rng.random() < 0.5:
            r = rng.randbytes(32)
        else:
            r = tuple(msg.StatusEntry(
                name(), name(), tau(),
                SignatureEntry(name(), rng.randbytes(32))
                if rng.random() < 0.5 else None)
                for _ in range(rng.randint(0, 3)))
        bundles = tuple(bundle() for _ in range(rng.randint(0, 2)))
        return msg.StatusReport(r, tau(), rng.randbytes(16), sigma(), bundles)

    return rng.choice((manifest, bundle, report))()


def _check_encoding_cases(count=10_000, seed=13):
    rng = random.Random(seed)
    for _ in range(count):
        message = _rand_message(rng)
        if msg.decode_message(msg.canonical_encode(message)) != message:
            return False
    return True


def test_criterion_7_oracle_equivalence():
    dag_ok = _check_dag_cases(1000)
    bucket_ok = _check_bucket_cases(1000)
    encode_ok = _check_encoding_cases(10_000)
    ok = dag_ok and bucket_ok and encode_ok
    assert _verdict(
        7, "1000 dependency closures match a brute-force oracle, 1000 "
           "shuffled bucket reassemblies are byte-identical, and 10000 "
           "random messages survive an encode/decode round trip",
        ok), (dag_ok, bucket_ok, encode_ok)
