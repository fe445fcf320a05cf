"""Execution-state MAC: phase-conditioned grants in the policy walk.

Phases only advance (``init`` → ``steady`` → ``shutdown``), so a
phase-conditioned grant is a privilege an application can *drop* but
never regain — TOMOYO-style state-dependent access control layered on
the paper's Section 5.3 policy engine.
"""

import pytest

from repro.core.context import current_application
from repro.core.execspec import ExecSpec
from repro.jvm.errors import (
    IllegalArgumentException,
    IllegalStateException,
    SecurityException,
)
from repro.security import cache
from repro.security.permissions import FilePermission
from repro.security.policy import (
    PHASE_INIT,
    PHASE_SHUTDOWN,
    PHASE_STEADY,
    PHASES,
    parse_policy,
)

pytestmark = pytest.mark.policy

PHASED_TEXT = """
grant codeBase "file:/usr/local/java/apps/staged/*", phase "init" {
    permission FilePermission "/zone/bootstrap.cfg", "read";
};
grant codeBase "file:/usr/local/java/apps/staged/*" {
    permission FilePermission "/zone/data.txt", "read";
};
"""


class TestPhaseGrammar:
    def test_parse_render_round_trip(self):
        policy = parse_policy(PHASED_TEXT)
        assert policy.phase_sensitive
        phases = [entry.phase for entry in policy.entries()]
        assert phases == ["init", None]
        reparsed = parse_policy(policy.render())
        assert [entry.phase for entry in reparsed.entries()] == \
            ["init", None]

    def test_phase_selector_fails_closed(self):
        """A phase-conditioned grant matches only its phase — never the
        phaseless (host-thread) context."""
        policy = parse_policy(PHASED_TEXT)
        from repro.security.codesource import CodeSource
        source = CodeSource("file:/usr/local/java/apps/staged/Staged.class")
        conditional = FilePermission("/zone/bootstrap.cfg", "read")
        unconditional = FilePermission("/zone/data.txt", "read")
        assert policy.permissions_for_code_source(
            source, "init").implies(conditional)
        assert not policy.permissions_for_code_source(
            source, "steady").implies(conditional)
        assert not policy.permissions_for_code_source(
            source, None).implies(conditional)
        # The unconditional grant holds in every phase.
        for phase in (None, "init", "steady", "shutdown"):
            assert policy.permissions_for_code_source(
                source, phase).implies(unconditional)

    def test_phase_free_policy_ignores_phase_argument(self):
        policy = parse_policy(
            'grant { permission FilePermission "/x", "read"; };')
        assert not policy.phase_sensitive
        assert policy.permissions_for_code_source(None, "steady").implies(
            FilePermission("/x", "read"))


class TestLifecycle:
    def test_launch_starts_in_init_and_exit_reaches_shutdown(
            self, host, register_app):
        def main(jclass, ctx, args):
            ctx.stdout.println(current_application().phase)
            return 0

        app = host.launch(ExecSpec(register_app("Phaseprobe", main), [],
                                   name="phaseprobe"))
        assert app.wait_for(10) == 0
        assert app.phase == PHASE_SHUTDOWN

    def test_phases_only_advance(self, host, register_app):
        def main(jclass, ctx, args):
            app = current_application()
            assert app.advance_phase(PHASE_STEADY) is True
            assert app.advance_phase(PHASE_STEADY) is False  # idempotent
            try:
                app.advance_phase(PHASE_INIT)
            except IllegalStateException:
                return 0
            return 1

        app = host.launch(
            ExecSpec(register_app("Forward", main), [], name="forward"))
        assert app.wait_for(10) == 0

    def test_unknown_phase_rejected(self, host, register_app):
        def main(jclass, ctx, args):
            try:
                current_application().advance_phase("turbo")
            except IllegalArgumentException:
                return 0
            return 1

        app = host.launch(
            ExecSpec(register_app("Turbo", main), [], name="turbo"))
        assert app.wait_for(10) == 0

    def test_execspec_phase_override(self, host, register_app, capture):
        def main(jclass, ctx, args):
            ctx.stdout.println(current_application().phase)
            return 0

        out = capture()
        class_name = register_app("Presteady", main)
        app = host.launch(ExecSpec(class_name, (), stdout=out.stream,
                                   phase=PHASE_STEADY))
        assert app.wait_for(10) == 0
        assert out.text.strip() == PHASE_STEADY
        assert PHASE_STEADY in PHASES

    def test_stranger_needs_standing_to_advance(self, host, register_app):
        """Another user's application cannot push our phase forward
        without ``modifyApplication`` — the ``destroy`` rule."""
        import time

        def victim_main(jclass, ctx, args):
            deadline = time.monotonic() + 5
            while (current_application().phase == PHASE_INIT
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return 0

        bob = host.vm.user_database.lookup("bob")
        victim = host.launch(ExecSpec(register_app("Victim", victim_main), [],
                                      name="victim"))

        def attacker_main(jclass, ctx, args):
            try:
                victim.advance_phase(PHASE_STEADY)
            except SecurityException:
                victim._advance_phase(PHASE_STEADY)  # unblock the victim
                return 0
            return 1

        attacker = host.launch(
            ExecSpec(register_app("Attacker", attacker_main), [],
                     user=bob, name="attacker"))
        assert attacker.wait_for(10) == 0
        assert victim.wait_for(10) == 0


class TestPhaseEnforcement:
    def test_grant_dropped_on_phase_advance(self, host, register_app):
        """The tentpole behaviour: an init-only grant works during init
        and is gone the moment the application advances — enforced inside
        the cached check_permission walk."""
        host.vm.policy.add_grant(
            [FilePermission("/zone/bootstrap.cfg", "read")],
            code_base="file:/usr/local/java/apps/staged/*",
            phase=PHASE_INIT)
        probe = FilePermission("/zone/bootstrap.cfg", "read")

        def main(jclass, ctx, args):
            sm = ctx.vm.security_manager
            sm.check_permission(probe)  # init: granted
            current_application().advance_phase(PHASE_STEADY)
            try:
                sm.check_permission(probe)
            except SecurityException:
                return 0
            return 1

        app = host.launch(
            ExecSpec(register_app("Staged", main), [], name="staged"))
        assert app.wait_for(10) == 0

    def test_phase_transition_never_bumps_the_epoch(self, host,
                                                    register_app):
        """The PR-5 fast path survives: advancing a phase costs no global
        invalidation — per-phase memos coexist instead."""
        policy = host.vm.policy
        policy.add_grant(
            [FilePermission("/zone/epoch.cfg", "read")],
            code_base="file:/usr/local/java/apps/epochy/*",
            phase=PHASE_INIT)
        epoch_before = policy.epoch

        def main(jclass, ctx, args):
            sm = ctx.vm.security_manager
            sm.check_permission(FilePermission("/zone/epoch.cfg", "read"))
            current_application().advance_phase(PHASE_STEADY)
            current_application().advance_phase(PHASE_SHUTDOWN)
            return 0

        app = host.launch(
            ExecSpec(register_app("Epochy", main), [], name="epochy"))
        assert app.wait_for(10) == 0
        assert policy.epoch == epoch_before

    def test_phase_aware_flag_is_sticky(self, host):
        host.vm.policy.add_grant(
            [FilePermission("/zone/sticky", "read")],
            code_base="file:/opt/sticky/*", phase=PHASE_STEADY)
        assert cache.PHASE_AWARE is True
        assert host.vm.policy.phase_sensitive
