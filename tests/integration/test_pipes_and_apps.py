"""Section 6.3's closing sentence, as a test:

"We successfully run multiple instances of the terminal, together with
shells, the Appletviewer, and a number of applications connected through
pipes in our prototype."
"""

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import write_text
from repro.jvm.classloading import ClassMaterial
from repro.security.codesource import CodeSource
from repro.tools.terminal import TerminalDevice


def test_the_whole_menagerie_at_once(mvm):
    """Two terminals with shells, an applet in the viewer, and a pipeline,
    all concurrently in one VM."""
    # -- terminal 1: alice runs a pipeline ---------------------------------
    tty1 = TerminalDevice("tty1")
    tty2 = TerminalDevice("tty2")
    mvm.vm.consoles.update({"tty1": tty1, "tty2": tty2})

    # -- an applet published on the network --------------------------------
    web = mvm.vm.network.add_host("web.example.com")
    applet = ClassMaterial(
        "applets.Spinner",
        code_source=CodeSource(web.code_base() + "applets.Spinner"))
    started = {}

    @applet.member
    def start(jclass, ctx, frame):
        started["yes"] = True

    web.publish_class(applet)

    with mvm.host_session():
        term1 = mvm.launch(ExecSpec("tools.Terminal", ["tty1"]))
        term2 = mvm.launch(ExecSpec("tools.Terminal", ["tty2"]))

        for tty, user, password in ((tty1, "alice", "wonderland"),
                                    (tty2, "bob", "builder")):
            assert tty.wait_for_output("login: ")
            tty.type_line(user)
            assert tty.wait_for_output("Password: ")
            tty.type_line(password)
            assert tty.wait_for_output("$ ")

        write_text(mvm.initial.context(), "/tmp/words.txt",
                   "alpha\nbeta\ngamma\n")
        tty1.type_line("cat /tmp/words.txt | grep a | wc -l")
        assert tty1.wait_for_output("3")

        tty2.type_line("appletviewer --no-wait "
                       "http://web.example.com/classes/applets.Spinner")
        assert tty2.wait_for_output("$ ")
        import time
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and "yes" not in started:
            time.sleep(0.01)
        assert started.get("yes") is True

        # Both shells are still healthy afterwards.
        tty1.type_line("echo one-still-alive")
        tty2.type_line("echo two-still-alive")
        assert tty1.wait_for_output("one-still-alive")
        assert tty2.wait_for_output("two-still-alive")

        for tty, term in ((tty1, term1), (tty2, term2)):
            tty.type_line("exit")
            assert tty.wait_for_output("logged out")
            tty.hang_up()
            term.wait_for(5)


def test_background_job_with_kill_from_shell(host):
    """Launch a long-running app with &, find it with ps, kill it — all
    inside one interactive shell session."""
    from repro.tools.terminal import Terminal, TerminalDevice
    device = TerminalDevice("kill-tty")
    terminal = Terminal(device)
    shell = host.launch(
        ExecSpec("tools.Shell", [], stdin=terminal.input,
                 stdout=terminal.output, stderr=terminal.output))
    assert device.wait_for_output("$ ")
    device.type_line("sleep 30 &")
    device.type_line("ps")
    assert device.wait_for_output("sleep#"), device.transcript()
    sleeper_row = [line for line in device.transcript().splitlines()
                   if "sleep#" in line][0]
    sleeper_id = sleeper_row.split()[0]
    sleeper = host.vm.application_registry.find(int(sleeper_id))
    assert sleeper is not None and sleeper.running
    device.type_line(f"kill {sleeper_id}")
    assert sleeper.wait_for(5) is not None
    assert sleeper.terminated
    device.type_line("exit")
    assert shell.wait_for(10) == 0
    device.hang_up()


def test_shell_exit_cascades_to_background_children(host, capture):
    """A shell's background jobs are its child applications: when the
    shell terminates, its teardown reaps them (the process-group
    analogue)."""
    out = capture()
    shell = host.launch(ExecSpec("tools.Shell", ["-c", "sleep 30 &", "ps"],
                                 stdout=out.stream, stderr=out.stream))
    assert shell.wait_for(10) == 0
    sleeper_rows = [line for line in out.text.splitlines()
                    if "sleep#" in line]
    assert sleeper_rows, out.text
    sleeper_id = int(sleeper_rows[0].split()[0])
    import time
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if host.vm.application_registry.find(sleeper_id) is None:
            break
        time.sleep(0.01)
    assert host.vm.application_registry.find(sleeper_id) is None


def test_io_redirection_chains_across_applications(host, capture):
    """Write with one app, transform with a pipeline, verify with cat."""
    out = capture()
    shell = host.launch(ExecSpec(
        "tools.Shell",
        ["-c",
         "echo 'alpha beta' > /tmp/chain.txt",
         "cat /tmp/chain.txt | wc > /tmp/counts.txt",
         "cat /tmp/counts.txt"],
        stdout=out.stream, stderr=out.stream))
    assert shell.wait_for(10) == 0
    assert out.text.strip() == "1 2 11"


def test_many_concurrent_applications(host, register_app):
    """Stress: a burst of concurrent applications all finish cleanly."""
    from repro.jvm.threads import JThread

    def main(jclass, ctx, args):
        JThread.sleep(0.05)
        return 0

    class_name = register_app("Burst", main)
    apps = [host.launch(ExecSpec(class_name)) for _ in range(25)]
    for app in apps:
        assert app.wait_for(10) == 0
    assert all(app.terminated for app in apps)


def test_deep_application_ancestry(host, register_app):
    """Applications launching applications, five levels deep."""
    depth_reached = []

    def main(jclass, ctx, args):
        depth = int(args[0])
        depth_reached.append(depth)
        if depth < 5:
            child = ctx.launch(ExecSpec("apps.Deep", [str(depth + 1)]))
            child.wait_for(10)
        return 0

    register_app("Deep", main)
    top = host.launch(ExecSpec("apps.Deep", ["1"]))
    assert top.wait_for(15) == 0
    assert sorted(depth_reached) == [1, 2, 3, 4, 5]
