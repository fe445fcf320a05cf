"""The login program (Sections 5.2 and 6.2)."""

from repro.core.execspec import ExecSpec
from repro.io.streams import (
    ByteArrayInputStream,
    ByteArrayOutputStream,
    PrintStream,
)
from repro.tools.terminal import TerminalDevice


def scripted_login(mvm, keystrokes, capture=None):
    """Run login against a scripted terminal; returns (app, device).

    Credentials are typed only after the corresponding prompt appears, so
    the echo-off window is exercised exactly as a human session would.
    """
    device = TerminalDevice("login-console")
    mvm.vm.consoles["login-console"] = device
    term_app = mvm.launch(ExecSpec("tools.Terminal", ["login-console"]))
    remaining = list(keystrokes)
    attempts = 0

    def wait_count(needle, count, timeout=5.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if device.transcript().count(needle) >= count:
                return True
            time.sleep(0.01)
        return False

    while remaining:
        attempts += 1
        assert wait_count("login: ", attempts), device.transcript()
        device.type_line(remaining.pop(0))
        if not remaining:
            break
        assert wait_count("Password: ", attempts), device.transcript()
        device.type_line(remaining.pop(0))
        # After a successful login the rest is shell input; type it all.
        if device.wait_for_output("$ ", timeout=1.0):
            for line in remaining:
                device.type_line(line)
            remaining = []
    return term_app, device


class TestAuthenticationFlow:
    def test_successful_login_spawns_shell_as_user(self, host):
        term_app, device = scripted_login(
            host, ["alice", "wonderland", "whoami", "exit"])
        assert device.wait_for_output("logged out"), device.transcript()
        transcript = device.transcript()
        assert "Welcome to the multi-processing JVM." in transcript
        assert "alice@javaos" in transcript  # the shell prompt
        lines = [line for line in transcript.splitlines()
                 if line.strip() == "alice"]
        assert lines, "whoami must print the authenticated user"
        device.hang_up()
        term_app.wait_for(5)

    def test_password_not_echoed(self, host):
        term_app, device = scripted_login(
            host, ["alice", "wonderland", "exit"])
        assert device.wait_for_output("logged out")
        assert "wonderland" not in device.transcript()
        device.hang_up()
        term_app.wait_for(5)

    def test_wrong_password_reprompts(self, host):
        term_app, device = scripted_login(
            host, ["alice", "oops", "alice", "wonderland", "exit"])
        assert device.wait_for_output("logged out"), device.transcript()
        assert "Login incorrect" in device.transcript()
        device.hang_up()
        term_app.wait_for(5)

    def test_three_failures_give_up(self, host):
        term_app, device = scripted_login(
            host, ["alice", "bad1", "alice", "bad2", "alice", "bad3"])
        assert device.wait_for_output("Too many failures"), \
            device.transcript()
        device.hang_up()
        term_app.wait_for(5)

    def test_unknown_user_indistinguishable(self, host):
        term_app, device = scripted_login(
            host, ["mallory", "anything", "alice", "wonderland", "exit"])
        assert device.wait_for_output("logged out")
        assert device.transcript().count("Login incorrect") == 1
        device.hang_up()
        term_app.wait_for(5)


class TestPipeMode:
    def test_login_works_without_a_terminal(self, host):
        """Login falls back to plain stream reads when stdin is a pipe."""
        stdin = ByteArrayInputStream(b"alice\nwonderland\nexit\n")
        sink = ByteArrayOutputStream()
        app = host.launch(
            ExecSpec("tools.Login", [], stdin=stdin,
                     stdout=PrintStream(sink), stderr=PrintStream(sink)))
        assert app.wait_for(10) == 0
        text = sink.to_text()
        assert "logged out" in text
        # Without a terminal there is no echo suppression to test, but the
        # password must still not be *printed* by login itself.
        assert "wonderland" not in text.replace("alice\nwonderland", "")


class TestPrivilege:
    def test_login_runs_as_null_user_until_authentication(self, host):
        """"it doesn't matter which user is running the login program" —
        it starts as the inherited (null) user."""
        term_app, device = scripted_login(host, [])
        assert device.wait_for_output("login: ")
        login_apps = [a for a in host.applications()
                      if a.class_name == "tools.Login"]
        assert login_apps
        assert login_apps[0].user.name == "nobody"
        device.hang_up()
        term_app.wait_for(5)

    def test_shell_inherits_authenticated_user(self, host):
        term_app, device = scripted_login(
            host, ["bob", "builder", "whoami", "exit"])
        assert device.wait_for_output("logged out")
        assert "bob@javaos" in device.transcript()
        device.hang_up()
        term_app.wait_for(5)
