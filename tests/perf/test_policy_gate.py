"""Perf gates for the security fast path (the ``perf`` marker).

Two gates keep the PR-5 cached ``check_permission`` walk honest against
the execution-state MAC machinery:

* a within-run ratio gate — phase-conditioned grants must stay within
  10% of the phase-free cached walk, measured back to back in this very
  process;
* a cross-run gate — the cached-walk latency must stay within 10% (plus
  a small absolute guard for scheduler noise) of the best non-smoke
  ``cached_us`` recorded in ``BENCH_security.json`` by full benchmark
  runs.  Skipped until a full run has seeded a baseline.
"""

import contextlib
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _common import bench_baseline  # noqa: E402

from repro.core.launcher import DEFAULT_POLICY  # noqa: E402
from repro.security import access, cache  # noqa: E402
from repro.security.codesource import CodeSource  # noqa: E402
from repro.security.permissions import FilePermission  # noqa: E402
from repro.security.policy import parse_policy  # noqa: E402

pytestmark = pytest.mark.perf

PERM = FilePermission("/home/alice/notes.txt", "read")
LOOP_N = 2000
ROUNDS = 5

PLAIN_TEXT = DEFAULT_POLICY + "\n".join(
    f'grant codeBase "file:/gate/d{i}/*" {{\n'
    f'    permission FilePermission "/home/alice/-", "read,write";\n'
    f'}};'
    for i in range(8))

PHASED_TEXT = DEFAULT_POLICY + "\n".join(
    f'grant codeBase "file:/gate/p{i}/*", phase "steady" {{\n'
    f'    permission FilePermission "/home/alice/-", "read,write";\n'
    f'}};'
    for i in range(8))


def _domains(policy, prefix):
    return [policy.domain_for_code_source(
        CodeSource(f"file:/gate/{prefix}{i}/Cls{i}.class"))
        for i in range(8)]


def _cached_us(domains) -> float:
    """Best-of-ROUNDS mean latency of the warmed cached walk, in us."""
    best = float("inf")
    with contextlib.ExitStack() as stack:
        for domain in domains:
            stack.enter_context(access.stack_frame(domain))
        access.check_permission(PERM)  # warm the memos
        check = access.check_permission
        for _ in range(ROUNDS):
            start = time.perf_counter()
            for _ in range(LOOP_N):
                check(PERM)
            best = min(best, time.perf_counter() - start)
    return best / LOOP_N * 1e6


@pytest.fixture
def pristine_phase_state():
    """Measure against the plain fast path regardless of what earlier
    tests did to the (deliberately sticky) process-wide latch."""
    saved_aware = cache.PHASE_AWARE
    saved_resolver = cache.phase_resolver
    cache.PHASE_AWARE = False
    cache.phase_resolver = None
    yield
    cache.PHASE_AWARE = saved_aware
    cache.phase_resolver = saved_resolver


def test_phase_aware_walk_within_ratio(pristine_phase_state):
    """Within-run gate: phased cached walk <= 1.10x plain cached walk."""
    best_ratio = float("inf")
    for _ in range(3):  # retries absorb scheduler noise
        cache.PHASE_AWARE = False
        cache.phase_resolver = None
        plain_us = _cached_us(_domains(parse_policy(PLAIN_TEXT), "d"))
        cache.phase_resolver = lambda: "steady"
        phased_policy = parse_policy(PHASED_TEXT)  # flips the latch
        assert cache.PHASE_AWARE
        phased_us = _cached_us(_domains(phased_policy, "p"))
        best_ratio = min(best_ratio, phased_us / plain_us)
        if best_ratio <= 1.10:
            break
    assert best_ratio <= 1.10, (
        f"phase-aware cached walk regressed: {best_ratio:.3f}x > 1.10x")


def test_cached_walk_vs_recorded_baseline(pristine_phase_state):
    """Cross-run gate: today's cached walk vs the best full-run record."""
    baseline_us = bench_baseline("security", "cached_vs_cold", "cached_us")
    if baseline_us is None:
        pytest.skip("no non-smoke baseline in BENCH_security.json yet "
                    "(run benchmarks/bench_security.py once)")
    measured_us = min(
        _cached_us(_domains(parse_policy(PLAIN_TEXT), "d"))
        for _ in range(3))
    # 10% relative plus 2us absolute: tiny in-process loops see
    # scheduler noise full benchmark runs average away.
    assert measured_us <= baseline_us * 1.10 + 2.0, (
        f"cached check_permission regressed: {measured_us:.2f}us vs "
        f"recorded baseline {baseline_us:.2f}us (+10% gate)")
