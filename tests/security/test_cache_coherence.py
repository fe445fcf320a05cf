"""Coherence of the epoch-invalidated permission-decision cache.

The fast path memoizes at three layers (policy resolution, per-domain
decisions, the walk's identity dedupe); the invariant these tests pin
down is that *no stale grant is ever honored*: any check beginning after
``refresh_from``/``add_grant``/``setUser`` completes sees the new truth
on its very first walk — epoch validation, never TTLs.
"""

import threading

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text
from repro.jvm.errors import AccessControlException, IllegalArgumentException
from repro.security import access, cache
from repro.security.codesource import CodeSource, ProtectionDomain
from repro.security.permissions import (
    FilePermission,
    Permissions,
    RuntimePermission,
    SocketPermission,
)
from repro.security.policy import parse_policy

READ_ALICE = FilePermission("/home/alice/notes.txt", "read")

GRANTING = """
grant codeBase "file:/apps/editor/*" {
    permission FilePermission "/home/alice/-", "read,write";
};
"""

REVOKED = """
grant codeBase "file:/apps/editor/*" {
    permission FilePermission "/tmp/-", "read";
};
"""

EDITOR_SOURCE = CodeSource("file:/apps/editor/Editor.class")


def editor_domain(policy):
    return policy.domain_for_code_source(EDITOR_SOURCE)


class TestPolicyEpoch:
    def test_refresh_revokes_on_the_very_next_check(self):
        policy = parse_policy(GRANTING)
        domain = editor_domain(policy)
        with access.stack_frame(domain):
            access.check_permission(READ_ALICE)     # warm every memo
            access.check_permission(READ_ALICE)     # served from memo
            policy.refresh_from(REVOKED)
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)

    def test_refresh_grants_on_the_very_next_check(self):
        policy = parse_policy(REVOKED)
        domain = editor_domain(policy)
        with access.stack_frame(domain):
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)  # warm the deny memo
            policy.refresh_from(GRANTING)
            access.check_permission(READ_ALICE)      # no exception

    def test_add_grant_visible_immediately(self):
        policy = parse_policy(REVOKED)
        domain = editor_domain(policy)
        with access.stack_frame(domain):
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)
            policy.add_grant([FilePermission("/home/alice/-", "read")],
                             code_base="file:/apps/editor/*")
            access.check_permission(READ_ALICE)

    def test_epoch_bumps_on_every_mutation(self):
        policy = parse_policy(GRANTING)
        before = policy.epoch
        policy.add_grant([RuntimePermission("x")], code_base="file:/y/*")
        assert policy.epoch == before + 1
        policy.refresh_from(GRANTING)
        assert policy.epoch == before + 2

    def test_cached_resolution_is_read_only(self):
        """Sharing the memoized Permissions must fail loudly on mutation,
        not silently corrupt every future check."""
        policy = parse_policy(GRANTING)
        granted = policy.permissions_for_code_source(EDITOR_SOURCE)
        assert granted is policy.permissions_for_code_source(EDITOR_SOURCE)
        with pytest.raises(IllegalArgumentException):
            granted.add(RuntimePermission("sneaky"))

    def test_disabled_cache_still_coherent(self):
        with cache.disabled():
            policy = parse_policy(GRANTING)
            domain = editor_domain(policy)
            with access.stack_frame(domain):
                access.check_permission(READ_ALICE)
                policy.refresh_from(REVOKED)
                with pytest.raises(AccessControlException):
                    access.check_permission(READ_ALICE)


class TestUserPathCoherence:
    """Section 5.3: the (user, epoch)-memoized user grants."""

    POLICY = """
    grant codeBase "file:/apps/-" {
        permission UserPermission;
    };
    grant user "alice" {
        permission FilePermission "/home/alice/-", "read,write";
    };
    grant user "bob" {
        permission FilePermission "/home/bob/-", "read,write";
    };
    """

    def test_user_switch_seen_by_next_check(self):
        policy = parse_policy(self.POLICY)
        running_user = ["alice"]
        previous = access.user_permission_resolver
        access.user_permission_resolver = \
            lambda: policy.permissions_for_user(running_user[0])
        try:
            domain = policy.domain_for_code_source(
                CodeSource("file:/apps/editor/Editor.class"))
            with access.stack_frame(domain):
                access.check_permission(READ_ALICE)   # alice: granted
                access.check_permission(READ_ALICE)   # memo hit
                running_user[0] = "bob"               # the setUser moment
                with pytest.raises(AccessControlException):
                    access.check_permission(READ_ALICE)
                access.check_permission(
                    FilePermission("/home/bob/x", "read"))
        finally:
            access.user_permission_resolver = previous

    def test_user_grant_refresh_seen_by_next_check(self):
        policy = parse_policy(self.POLICY)
        previous = access.user_permission_resolver
        access.user_permission_resolver = \
            lambda: policy.permissions_for_user("alice")
        try:
            domain = policy.domain_for_code_source(
                CodeSource("file:/apps/editor/Editor.class"))
            with access.stack_frame(domain):
                access.check_permission(READ_ALICE)
                policy.refresh_from(self.POLICY.replace(
                    "/home/alice/-", "/home/alice/public/-"))
                with pytest.raises(AccessControlException):
                    access.check_permission(READ_ALICE)
        finally:
            access.user_permission_resolver = previous

    def test_set_user_mid_application(self, host, register_app):
        """Full-stack Section 5.2: the running user of a live application
        is reset while it runs; its next check must see the new user's
        grants (no stale user Permissions honored)."""
        alice = host.vm.user_database.lookup("alice")
        bob = host.vm.user_database.lookup("bob")
        phase1_done = threading.Event()
        switched = threading.Event()
        outcome = {}

        def main(jclass, ctx, args):
            alice_perm = FilePermission("/home/alice/diary.txt", "read")
            bob_perm = FilePermission("/home/bob/diary.txt", "read")
            access.check_permission(alice_perm)      # alice: user grant
            access.check_permission(alice_perm)      # memo hit
            phase1_done.set()
            assert switched.wait(10)
            try:
                access.check_permission(alice_perm)
                outcome["stale_grant_honored"] = True
            except AccessControlException:
                outcome["stale_grant_honored"] = False
            access.check_permission(bob_perm)        # bob: user grant
            return 0

        app = host.launch(
            ExecSpec(register_app("UserSwitch", main), [], user=alice))
        assert phase1_done.wait(10)
        app.set_user(bob)   # host thread: fully trusted, like login's
        switched.set()      # do_privileged'd setUser (Section 5.2)
        assert app.wait_for(10) == 0
        assert outcome["stale_grant_honored"] is False


class TestStaticPermissionDomains:
    """Section 6.3 appletviewer domains: static (delegated) grants are
    bound at class-definition time and must be unaffected by policy epoch
    churn."""

    def make_applet_domain(self, policy):
        delegated = Permissions(
            [SocketPermission("applet-host:1-65535", "connect,resolve")])
        return ProtectionDomain(
            CodeSource("http://applet-host/classes/Game.class"),
            permissions=delegated, policy=policy, name="applet:Game")

    def test_static_grants_survive_epoch_bumps(self):
        policy = parse_policy(GRANTING)
        domain = self.make_applet_domain(policy)
        connect_back = SocketPermission("applet-host:6000", "connect")
        with access.stack_frame(domain):
            access.check_permission(connect_back)    # static grant, warm
            for _ in range(3):
                policy.refresh_from(REVOKED)         # epoch churn
                access.check_permission(connect_back)
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)  # never granted

    def test_policy_changes_still_reach_static_domains(self):
        """The memo must revalidate the *policy* half too: a grant added
        for the applet's code source shows up on the next check."""
        policy = parse_policy(GRANTING)
        domain = self.make_applet_domain(policy)
        with access.stack_frame(domain):
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)
            policy.add_grant([FilePermission("/home/alice/-", "read")],
                             code_base="http://applet-host/classes/*")
            access.check_permission(READ_ALICE)

    def test_post_definition_static_add_is_seen(self):
        """The static collection's version is part of the memo stamp."""
        policy = parse_policy(REVOKED)
        domain = self.make_applet_domain(policy)
        with access.stack_frame(domain):
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)
            domain.static_permissions.add(
                FilePermission("/home/alice/-", "read"))
            access.check_permission(READ_ALICE)


class TestWalkDedupe:
    def test_repeated_denying_domain_still_denies(self):
        policy = parse_policy(REVOKED)
        domain = editor_domain(policy)
        with access.stack_frame(domain):
            with access.stack_frame(domain):
                with access.stack_frame(domain):
                    with pytest.raises(AccessControlException):
                        access.check_permission(READ_ALICE)

    def test_distinct_denying_domain_below_granting_one(self):
        """Dedupe is by identity only — a *different* domain lower in the
        stack is still checked and still poisons the walk."""
        policy = parse_policy(GRANTING)
        granting = editor_domain(policy)
        denying = ProtectionDomain(CodeSource("file:/other/X.class"),
                                   Permissions(), name="denying")
        with access.stack_frame(denying):
            with access.stack_frame(granting):
                with pytest.raises(AccessControlException):
                    access.check_permission(READ_ALICE)

    def test_interned_domains_shared_across_app_loaders(self, host):
        """ClassLoader.define_class interns one domain per
        (code_source, policy): two applications defining classes from the
        same code source share one domain, so memo hit rates compound."""
        from repro.core.reload import ApplicationClassLoader
        from repro.jvm.classloading import ClassMaterial

        vm = host.vm
        source = CodeSource("file:/usr/local/java/apps/shared/S.class")
        material = ClassMaterial("apps.Shared", code_source=source)
        material.members["main"] = lambda jclass, ctx, args: 0
        vm.registry.register(material, replace=True)

        loader_a = ApplicationClassLoader(vm.boot_loader, "a")
        loader_b = ApplicationClassLoader(vm.boot_loader, "b")
        class_a = loader_a.define_class(material)
        class_b = loader_b.define_class(material)
        assert class_a is not class_b          # per-loader identity intact
        assert class_a.protection_domain is class_b.protection_domain
        assert vm.policy.interned_domain_count() >= 1


class TestConcurrencySmoke:
    def test_concurrent_checks_during_refresh(self):
        """Threads hammer a permission granted by *every* policy version
        while another thread refreshes in a loop: no check may ever fail,
        and nothing may crash."""
        policy = parse_policy(GRANTING)
        domain = editor_domain(policy)
        always_granted = FilePermission("/home/alice/a.txt", "read")
        stop = threading.Event()
        failures = []

        def checker():
            with access.stack_frame(domain):
                while not stop.is_set():
                    try:
                        access.check_permission(always_granted)
                    except Exception as exc:  # noqa: BLE001
                        failures.append(exc)
                        return

        def refresher():
            variant = GRANTING + REVOKED  # both keep the editor grant
            for index in range(200):
                policy.refresh_from(variant if index % 2 else GRANTING)

        threads = [threading.Thread(target=checker) for _ in range(4)]
        for thread in threads:
            thread.start()
        refresher()
        stop.set()
        for thread in threads:
            thread.join(10)
        assert not failures, failures[:3]

    def test_refresh_result_coherent_after_join(self):
        """Once the refresher is done and checkers restart, the final
        policy is what every walk sees."""
        policy = parse_policy(GRANTING)
        domain = editor_domain(policy)
        for _ in range(50):
            policy.refresh_from(REVOKED)
            policy.refresh_from(GRANTING)
        policy.refresh_from(REVOKED)
        with access.stack_frame(domain):
            with pytest.raises(AccessControlException):
                access.check_permission(READ_ALICE)


class TestCacheTelemetry:
    def test_counters_and_proc_surface(self, host):
        vm = host.vm
        policy = vm.policy
        domain = policy.domain_for_code_source(
            CodeSource("file:/usr/local/java/apps/probe/P.class"))
        probe = FilePermission("/tmp/probe.txt", "read")
        with access.stack_frame(domain):
            access.check_permission(probe)           # miss, then...
            for _ in range(5):
                access.check_permission(probe)       # ...hits
        metrics = vm.telemetry.metrics
        assert metrics.total("security.cache.hit", layer="domain") >= 5
        assert metrics.total("security.cache.miss", layer="domain") >= 1

        text = read_text(host.initial.context(), "/proc/security/cache")
        assert "hits.domain\t" in text
        assert "interned_domains\t" in text
        assert f"policy_epoch\t{policy.epoch}" in text

        vmstat = read_text(host.initial.context(), "/proc/vmstat")
        assert "security.cache.hits\t" in vmstat
        assert "security.cache.invalidations\t" in vmstat

    def test_invalidation_counter_counts_mutations(self, host):
        policy = host.vm.policy
        metrics = host.vm.telemetry.metrics
        before = metrics.total("security.cache.invalidation")
        policy.add_grant([RuntimePermission("probe")],
                         code_base="file:/probe/*")
        assert metrics.total("security.cache.invalidation") == before + 1
