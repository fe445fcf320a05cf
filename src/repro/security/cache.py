"""Shared knobs and telemetry plumbing for the security fast path.

The paper deferred performance tuning (Section 7); this module is the
spine of the epoch-invalidated permission-decision cache that makes the
Section 3.3/5.6 access-control walk cheap:

* :class:`~repro.security.policy.Policy` memoizes the permissions it
  resolves per code source and per user, keyed against a monotonic
  *epoch* that ``add_grant``/``refresh_from`` bump;
* :class:`~repro.security.codesource.ProtectionDomain` keeps a bounded
  ``permission -> bool`` decision memo, revalidated against the policy
  epoch and the static collection's version — never a TTL, so a policy
  change is visible on the very next check;
* the :mod:`repro.security.access` walk skips domains it already
  validated earlier in the same walk.

Everything here is deliberately tiny: a global enable switch (used by the
benchmarks to measure the uncached baseline), the memo bound, and the
counter bundle that wires ``security.cache.{hit,miss,invalidation}`` into
the telemetry hub.
"""

from __future__ import annotations

import contextlib

from repro.telemetry import GLOBAL_HUB

#: Global switch for every caching layer.  Flipped off only by the
#: benchmarks (to time the uncached baseline) and by tests; epoch state
#: keeps advancing while disabled, so re-enabling is always coherent.
ENABLED = True

#: Upper bound on entries in one protection domain's decision memo.  A
#: domain that sees more distinct permissions than this starts over with
#: a fresh memo (simple wholesale replacement — eviction bookkeeping would
#: cost more than the rare reset).
DOMAIN_MEMO_LIMIT = 256

#: Sticky flag: set True the first time any :class:`Policy` sees a grant
#: with a ``phase`` condition (the execution-state MAC).  Checked once per
#: access-control walk, so deployments that never use phase grants pay a
#: single global load per check and nothing else.
PHASE_AWARE = False

#: Injection point: returns the current application's lifecycle phase
#: ("init" / "steady" / "shutdown") or None for host threads.  Installed by
#: ``repro.core.launcher.install_global_hooks``; kept here so the access
#: controller never imports the application layer.
phase_resolver = None


def current_phase():
    """The calling thread's application phase, or None outside any app."""
    resolver = phase_resolver
    if resolver is None:
        return None
    return resolver()


class CacheCounters:
    """The ``security.cache.*`` metric bundle, bound to one registry.

    Created against the process-global hub and re-bound to a VM's own
    registry by ``Policy.bind_telemetry`` at boot.  Rebinding mutates the
    slots in place so protection domains that already captured this
    bundle keep counting into the right registry.
    """

    __slots__ = ("policy_hit", "policy_miss", "domain_hit", "domain_miss",
                 "invalidation")

    def __init__(self, metrics=None):
        self.rebind(metrics if metrics is not None else GLOBAL_HUB.metrics)

    def rebind(self, metrics) -> None:
        self.policy_hit = metrics.counter("security.cache.hit",
                                          layer="policy")
        self.policy_miss = metrics.counter("security.cache.miss",
                                           layer="policy")
        self.domain_hit = metrics.counter("security.cache.hit",
                                          layer="domain")
        self.domain_miss = metrics.counter("security.cache.miss",
                                           layer="domain")
        self.invalidation = metrics.counter("security.cache.invalidation")


#: Fallback bundle for protection domains that have no (epoch-capable)
#: policy behind them; counts into the process-global hub.
GLOBAL_COUNTERS = CacheCounters()


@contextlib.contextmanager
def disabled():
    """Run a block with every security cache bypassed (baseline timing)."""
    global ENABLED
    previous = ENABLED
    ENABLED = False
    try:
        yield
    finally:
        ENABLED = previous
