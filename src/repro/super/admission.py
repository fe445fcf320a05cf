"""Admission control: the VM-wide bounded run queue with per-user quotas.

The paper's resource model (:class:`~repro.core.application.
ResourceLimits`) bounds what one *running* application may consume; it
says nothing about how many applications a VM will agree to run at once.
Under heavy multi-user traffic that missing half is the difference
between graceful degradation and collapse: every ``exec`` succeeds,
every new application starves every older one, and the node falls over
with all of them half-finished.

:class:`AdmissionController` is the other half, riding the same
enforce-and-record conventions as ``ResourceLimits``:

* a **VM-wide capacity** (``max_running``) on concurrently admitted
  launches, with a **bounded wait queue** (``max_queued``) in front of
  it — the run queue is FIFO-fair but never lets one saturated user
  block another user whose quota still has room;
* **per-user quotas** (``per_user_running`` / ``per_user_queued``,
  overridable per user with :meth:`set_user_quota`) so one user cannot
  consume the whole VM — the admission analogue of the Section 5.3 rule
  that permissions attach to *users*, not just code;
* **typed shedding**: when a launch cannot be admitted it either blocks
  up to its deadline (``ExecSpec.admission_timeout``) or fails fast with
  :class:`AdmissionRejected`, whose ``reason`` names the exhausted
  bound; every rejection is counted in telemetry
  (``admission.rejected``).  There is no block-forever mode, so the
  queue cannot deadlock.

Installation is opt-in: ``MultiProcVM.boot(admission=AdmissionPolicy
(...))`` or :meth:`AdmissionController.install`.  Enforcement happens at
the single local launch choke point (``Application`` exec), so remote
launches arriving over the dist protocol are admission-controlled by the
*target* VM — the backpressure signal travels back as a typed error
frame instead of an overloaded node silently keeling over.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.jvm.errors import IllegalStateException


class AdmissionRejected(IllegalStateException):
    """A launch was shed by admission control.

    ``reason`` names the exhausted bound: ``"capacity"`` (saturated and
    the caller declined to wait), ``"timeout"`` (waited out its
    deadline), ``"queue-full"`` / ``"user-queue"`` (wait queue bounds),
    or ``"user-concurrency"`` (per-user running quota).
    """

    def __init__(self, message: str | None = None,
                 reason: str | None = None,
                 user: str | None = None):
        super().__init__(message)
        self.reason = reason
        self.user = user


@dataclass(frozen=True)
class AdmissionPolicy:
    """The bounds one VM enforces at its launch choke point.

    ``None`` disables a bound, mirroring ``ResourceLimits`` semantics.
    """

    max_running: Optional[int] = None
    max_queued: int = 16
    per_user_running: Optional[int] = None
    per_user_queued: Optional[int] = None


class AdmissionTicket:
    """One admitted launch; releasing it frees the slot.

    The exec path attaches :meth:`release` as the application's exit
    hook, so the slot frees exactly when the reaper runs.  Release is
    idempotent (a failed launch releases immediately; the hook then
    no-ops).
    """

    __slots__ = ("_controller", "user", "_released")

    def __init__(self, controller: "AdmissionController", user: str):
        self._controller = controller
        self.user = user
        self._released = False

    def release(self) -> None:
        controller = self._controller
        with controller._cond:
            if self._released:
                return
            self._released = True
        controller._release(self.user)


class _Waiter:
    """One thread queued for admission."""

    __slots__ = ("user", "granted", "abandoned")

    def __init__(self, user: str):
        self.user = user
        self.granted = False
        self.abandoned = False


class AdmissionController:
    """The per-VM run queue: capacity, quotas, and typed shedding."""

    def __init__(self, vm, policy: Optional[AdmissionPolicy] = None,
                 clock=time.monotonic):
        self.vm = vm
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.metrics = vm.telemetry.metrics
        self._clock = clock
        self._cond = threading.Condition()
        self._running_total = 0
        self._running_by_user: dict[str, int] = {}
        self._queue: list[_Waiter] = []
        self._user_quotas: dict[str, AdmissionPolicy] = {}

    def install(self) -> "AdmissionController":
        """Attach to the VM: the exec path consults ``vm.admission``."""
        self.vm.admission = self
        self.metrics.collect(self.collect)
        return self

    def set_user_quota(self, user: str,
                       running: Optional[int] = None,
                       queued: Optional[int] = None) -> None:
        """Override the per-user bounds for one user."""
        self._user_quotas[user] = AdmissionPolicy(
            per_user_running=running, per_user_queued=queued)

    # -- bound resolution ------------------------------------------------------

    def _user_running_bound(self, user: str) -> Optional[int]:
        quota = self._user_quotas.get(user)
        if quota is not None and quota.per_user_running is not None:
            return quota.per_user_running
        return self.policy.per_user_running

    def _user_queued_bound(self, user: str) -> Optional[int]:
        quota = self._user_quotas.get(user)
        if quota is not None and quota.per_user_queued is not None:
            return quota.per_user_queued
        return self.policy.per_user_queued

    def _fits(self, user: str) -> bool:
        """Would admitting ``user`` now respect every running bound?"""
        maximum = self.policy.max_running
        if maximum is not None and self._running_total >= maximum:
            return False
        user_max = self._user_running_bound(user)
        if user_max is not None \
                and self._running_by_user.get(user, 0) >= user_max:
            return False
        return True

    # -- admit / release -------------------------------------------------------

    def _admit_locked(self, user: str) -> AdmissionTicket:
        self._running_total += 1
        self._running_by_user[user] = \
            self._running_by_user.get(user, 0) + 1
        return AdmissionTicket(self, user)

    def _reject(self, user: str, reason: str,
                detail: str) -> AdmissionRejected:
        self.metrics.counter("admission.rejected", reason=reason,
                             user=user).inc()
        return AdmissionRejected(
            f"launch by {user!r} rejected: {detail}",
            reason=reason, user=user)

    def admit(self, user: str,
              timeout: Optional[float] = None) -> AdmissionTicket:
        """Admit a launch by ``user`` or raise :class:`AdmissionRejected`.

        ``timeout=None`` sheds immediately when saturated; a positive
        timeout queues (FIFO) and blocks up to the deadline.  Queue
        bounds are checked *before* queuing, so a full queue sheds
        instantly rather than piling up waiters.
        """
        with self._cond:
            if self._fits(user):
                ticket = self._admit_locked(user)
                self.metrics.counter("admission.admitted", user=user).inc()
                return ticket
            # Saturated.  Quota-limited users shed with their own reason
            # even when they are willing to wait: their bound does not
            # free up because *other* users' launches finish.
            user_max = self._user_running_bound(user)
            if user_max is not None \
                    and self._running_by_user.get(user, 0) >= user_max:
                raise self._reject(
                    user, "user-concurrency",
                    f"user concurrency quota reached ({user_max})")
            if timeout is None or timeout <= 0:
                raise self._reject(
                    user, "capacity",
                    f"VM at capacity ({self.policy.max_running}) and no "
                    f"admission timeout given")
            if len(self._queue) >= self.policy.max_queued:
                raise self._reject(
                    user, "queue-full",
                    f"admission queue full ({self.policy.max_queued})")
            queued_bound = self._user_queued_bound(user)
            if queued_bound is not None:
                mine = sum(1 for w in self._queue if w.user == user)
                if mine >= queued_bound:
                    raise self._reject(
                        user, "user-queue",
                        f"user queue quota reached ({queued_bound})")
            waiter = _Waiter(user)
            self._queue.append(waiter)
            self.metrics.counter("admission.queued", user=user).inc()
            deadline = self._clock() + timeout
            try:
                while not waiter.granted:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        raise self._reject(
                            user, "timeout",
                            f"waited {timeout:.3g}s for a slot")
                    self._cond.wait(remaining)
            finally:
                if waiter.granted:
                    pass  # slot already accounted by the granter
                else:
                    waiter.abandoned = True
                    if waiter in self._queue:
                        self._queue.remove(waiter)
            self.metrics.counter("admission.admitted", user=user).inc()
            return AdmissionTicket(self, user)

    def _release(self, user: str) -> None:
        with self._cond:
            self._running_total -= 1
            count = self._running_by_user.get(user, 0) - 1
            if count > 0:
                self._running_by_user[user] = count
            else:
                self._running_by_user.pop(user, None)
            self._grant_waiters_locked()

    def _grant_waiters_locked(self) -> None:
        """FIFO scan: grant every waiter that now fits.

        Scanning past a blocked waiter keeps one saturated user from
        head-of-line-blocking everyone else; among a single user's
        waiters order is preserved.
        """
        granted_any = False
        for waiter in list(self._queue):
            if not self._fits(waiter.user):
                continue
            self._queue.remove(waiter)
            waiter.granted = True
            self._admit_locked(waiter.user)
            granted_any = True
        if granted_any:
            self._cond.notify_all()

    # -- introspection (procfs reads this) -------------------------------------

    def collect(self) -> dict:
        """The live queue, for the VM's metrics registry."""
        with self._cond:
            return {"admission.running": self._running_total,
                    "admission.waiting": len(self._queue)}

    def stats(self) -> dict:
        total = self.metrics.total
        with self._cond:
            stats = {
                "running": self._running_total,
                "waiting": len(self._queue),
                "by_user": dict(sorted(self._running_by_user.items())),
            }
        stats["admitted"] = int(total("admission.admitted"))
        stats["rejected"] = int(total("admission.rejected"))
        stats["queued_ever"] = int(total("admission.queued"))
        return stats

    def render_text(self) -> str:
        stats = self.stats()
        policy = self.policy
        lines = [
            f"running\t{stats['running']}",
            f"waiting\t{stats['waiting']}",
            f"admitted\t{stats['admitted']}",
            f"rejected\t{stats['rejected']}",
            f"queued_ever\t{stats['queued_ever']}",
            f"max_running\t{policy.max_running or '-'}",
            f"max_queued\t{policy.max_queued}",
            f"per_user_running\t{policy.per_user_running or '-'}",
            f"per_user_queued\t{policy.per_user_queued or '-'}",
        ]
        for user, count in stats["by_user"].items():
            lines.append(f"running.{user}\t{count}")
        return "\n".join(lines) + "\n"
