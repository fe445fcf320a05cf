"""Users running Java code (Section 5.2): inheritance and the setUser
privilege."""

import pytest

from repro.core.execspec import ExecSpec
from repro.core.usermodel import become_user, become_user_privileged
from repro.jvm.errors import SecurityException
from repro.security.auth import NULL_USER


def test_initial_application_runs_as_null_user(host):
    """"it might even be some sort of 'null' user for bootstrapping"."""
    assert host.initial.user is NULL_USER


def test_child_inherits_running_user(host, register_app):
    seen = {}

    def child_main(jclass, ctx, args):
        seen["user"] = ctx.user.name
        return 0

    child_class = register_app("UserChild", child_main)

    def parent_main(jclass, ctx, args):
        child = ctx.launch(ExecSpec(child_class, []))
        child.wait_for(5)
        return 0

    parent_class = register_app("UserParent", parent_main)
    alice = host.vm.user_database.lookup("alice")
    parent = host.launch(ExecSpec(parent_class, [], user=alice))
    assert parent.wait_for(5) == 0
    assert seen["user"] == "alice"


def test_ordinary_application_cannot_set_user(host, register_app):
    """"Special privileges are needed to set the user, and these
    privileges are not normally granted to applications."(§5.2)"""
    outcome = {}

    def main(jclass, ctx, args):
        alice = ctx.vm.user_database.lookup("alice")
        try:
            become_user(alice)
            outcome["result"] = "became-alice"
        except SecurityException:
            outcome["result"] = "denied"
        return 0

    app = host.launch(ExecSpec(register_app("Impostor", main)))
    assert app.wait_for(5) == 0
    assert outcome["result"] == "denied"


def test_do_privileged_does_not_help_unprivileged_code(host, register_app):
    """do_privileged asserts the caller's *own* grants; an app without the
    setUser grant gains nothing."""
    outcome = {}

    def main(jclass, ctx, args):
        alice = ctx.vm.user_database.lookup("alice")
        try:
            become_user_privileged(alice)
            outcome["result"] = "became-alice"
        except SecurityException:
            outcome["result"] = "denied"
        return 0

    app = host.launch(ExecSpec(register_app("SneakyImpostor", main)))
    assert app.wait_for(5) == 0
    assert outcome["result"] == "denied"


def test_login_code_source_may_set_user(host, register_app):
    """"All we need to do is grant the login program the privilege to set
    its own user.  This can be done through code source-based security
    policies, since it is the program that is granted the privilege, not
    the user that runs it." (§5.2)"""
    outcome = {}

    def main(jclass, ctx, args):
        alice = ctx.vm.user_database.lookup("alice")
        become_user_privileged(alice)
        outcome["user"] = ctx.app.user.name
        return 0

    # Registered under the login program's code source.
    class_name = register_app(
        "FakeLogin", main,
        code_source="file:/usr/local/java/tools/login/FakeLogin.class")
    app = host.launch(ExecSpec(class_name))
    assert app.wait_for(5) == 0
    assert outcome["user"] == "alice"
    # The privilege belongs to the *program*: it worked even though the
    # app was started by the null user.
    assert app.user.name == "alice"


def test_host_code_may_set_user_directly(host, register_app):
    """Unattached/trusted host frames can administratively set users."""
    def main(jclass, ctx, args):
        from repro.jvm.threads import JThread
        JThread.sleep(30.0)
        return 0

    app = host.launch(ExecSpec(register_app("Administered", main)))
    bob = host.vm.user_database.lookup("bob")
    app.set_user(bob)  # called from the host session: trusted
    assert app.user.name == "bob"
    app.destroy()
    app.wait_for(5)
