"""Two users logged in simultaneously on two terminals of one JVM —
the multi-user system of Section 2, driven end-to-end."""

import pytest

from repro.core.execspec import ExecSpec
from repro.tools.terminal import TerminalDevice


@pytest.fixture
def consoles(mvm):
    devices = {}
    for name in ("tty1", "tty2"):
        device = TerminalDevice(name)
        mvm.vm.consoles[name] = device
        devices[name] = device
    return devices


def login_on(mvm, device, user, password):
    app = mvm.launch(ExecSpec("tools.Terminal", [device.name]))
    assert device.wait_for_output("login: "), device.transcript()
    device.type_line(user)
    assert device.wait_for_output("Password: "), device.transcript()
    device.type_line(password)
    assert device.wait_for_output("$ "), device.transcript()
    return app


def test_concurrent_sessions_have_independent_identities(host, consoles):
    tty1, tty2 = consoles["tty1"], consoles["tty2"]
    term1 = login_on(host, tty1, "alice", "wonderland")
    term2 = login_on(host, tty2, "bob", "builder")

    tty1.type_line("whoami")
    tty2.type_line("whoami")
    assert tty1.wait_for_output("\nalice\n") or \
        tty1.wait_for_output("alice\n")
    assert tty2.wait_for_output("bob")
    assert "alice@javaos" in tty1.transcript()
    assert "bob@javaos" in tty2.transcript()

    # Cross-user isolation holds concurrently.
    tty1.type_line("cat /home/bob/todo.txt")
    tty2.type_line("cat /home/alice/notes.txt")
    assert tty1.wait_for_output("AccessControlException")
    assert tty2.wait_for_output("AccessControlException")

    # And each can still reach their own data.
    tty1.type_line("cat /home/alice/notes.txt")
    tty2.type_line("cat /home/bob/todo.txt")
    assert tty1.wait_for_output("private notes")
    assert tty2.wait_for_output("todo")

    for tty, app in ((tty1, term1), (tty2, term2)):
        tty.type_line("exit")
        assert tty.wait_for_output("logged out")
        tty.hang_up()
        app.wait_for(5)


def test_sessions_do_not_share_working_directories(host, consoles):
    tty1, tty2 = consoles["tty1"], consoles["tty2"]
    term1 = login_on(host, tty1, "alice", "wonderland")
    term2 = login_on(host, tty2, "bob", "builder")
    tty1.type_line("cd /tmp")
    tty2.type_line("cd /etc")
    tty1.type_line("pwd")
    tty2.type_line("pwd")
    assert tty1.wait_for_output("/tmp")
    assert tty2.wait_for_output("/etc")
    assert "/etc" not in tty1.transcript().replace(
        "alice@javaos:/etc", "")  # alice's prompt never mentions /etc
    for tty, app in ((tty1, term1), (tty2, term2)):
        tty.type_line("exit")
        assert tty.wait_for_output("logged out")
        tty.hang_up()
        app.wait_for(5)


def test_logout_returns_to_login_prompt(host, consoles):
    """The terminal respawns login after a session ends (getty-style)."""
    tty1 = consoles["tty1"]
    term = login_on(host, tty1, "alice", "wonderland")
    tty1.type_line("exit")
    assert tty1.wait_for_output("logged out")
    # A fresh login prompt appears; Bob can take over the same terminal.
    assert tty1.wait_for_output("logged out")
    deadline_ok = tty1.wait_for_output("login: ")
    assert deadline_ok
    count_before = tty1.transcript().count("login: ")
    assert count_before >= 2
    tty1.type_line("bob")
    assert tty1.wait_for_output("Password: ")
    tty1.type_line("builder")
    assert tty1.wait_for_output("bob@javaos")
    tty1.type_line("exit")
    assert tty1.wait_for_output("logged out")
    tty1.hang_up()
    term.wait_for(5)


def test_ps_shows_both_sessions(host, consoles):
    tty1, tty2 = consoles["tty1"], consoles["tty2"]
    term1 = login_on(host, tty1, "alice", "wonderland")
    term2 = login_on(host, tty2, "bob", "builder")
    tty1.type_line("ps")
    assert tty1.wait_for_output("AID USER")
    transcript = tty1.transcript()
    assert "alice" in transcript
    assert "bob" in transcript  # bob's session is visible in the table
    assert transcript.count("shell#") >= 0  # table formatted
    for tty, app in ((tty1, term1), (tty2, term2)):
        tty.type_line("exit")
        assert tty.wait_for_output("logged out")
        tty.hang_up()
        app.wait_for(5)
