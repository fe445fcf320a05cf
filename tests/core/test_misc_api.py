"""Smaller public-API surfaces: MultiProcVM.run, Application.context,
interactive shell prompts, finalizer drain timeout."""

from repro.core.execspec import ExecSpec
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.tools.terminal import Terminal, TerminalDevice


def test_mvm_run_returns_exit_code(host, register_app):
    class_name = register_app("RunHelper", lambda j, c, a: 7)
    assert host.run(class_name, []) == 7


def test_application_context_reaches_app_state(host, register_app):
    from repro.jvm.threads import JThread

    def main(jclass, ctx, args):
        JThread.sleep(30.0)
        return 0

    app = host.launch(ExecSpec(register_app("CtxApp", main), cwd="/tmp"))
    ctx = app.context()
    assert ctx.app is app
    assert ctx.cwd == "/tmp"
    assert ctx.system.jclass is app.system_class
    app.destroy()
    app.wait_for(5)


def test_interactive_shell_prompt_and_history(host):
    device = TerminalDevice("misc-tty")
    terminal = Terminal(device)
    alice = host.vm.user_database.lookup("alice")
    shell = host.launch(ExecSpec("tools.Shell", [], user=alice,
                                 stdin=terminal.input, stdout=terminal.output,
                                 stderr=terminal.output))
    assert device.wait_for_output("alice@javaos:/$ ")
    device.type_line("echo one")
    assert device.wait_for_output("one\n")
    device.type_line("history")
    assert device.wait_for_output("   1  echo one")
    device.type_line("!!")  # repeats echo one via the terminal history
    assert device.wait_for_output("echo one")
    device.type_line("exit")
    assert shell.wait_for(10) == 0
    device.hang_up()


def test_shell_reports_java_throwable_without_dying(host):
    device = TerminalDevice("misc-tty2")
    terminal = Terminal(device)
    shell = host.launch(ExecSpec("tools.Shell", [],
                                 stdin=terminal.input, stdout=terminal.output,
                                 stderr=terminal.output))
    assert device.wait_for_output("$ ")
    device.type_line("cat /etc/shadow")  # FileNotFound inside the tool
    assert device.wait_for_output("FileNotFoundException")
    device.type_line("echo still-here")
    assert device.wait_for_output("still-here")
    device.type_line("exit")
    assert shell.wait_for(10) == 0
    device.hang_up()


def test_drain_finalizers_timeout_when_stuck(vm):
    from repro.jvm.threads import JThread
    vm.register_finalizer(lambda: JThread.sleep(1.0))
    vm.register_finalizer(lambda: None)
    # The first job sleeps past the deadline: drain must report False.
    assert vm.drain_finalizers(timeout=0.2) is False


def test_run_main_custom_thread_name(vm):
    from repro.jvm.classloading import ClassMaterial
    seen = []
    material = ClassMaterial("misc.Named")
    material.members["main"] = lambda jclass, ctx, args: seen.append(
        __import__("repro.jvm.threads", fromlist=["JThread"])
        .JThread.current().name)
    vm.registry.register(material)
    vm.run_main("misc.Named", [], thread_name="primary")
    assert vm.await_termination(5)
    assert seen == ["primary"]


def test_capture_streams_compose(host, register_app):
    sink = ByteArrayOutputStream()
    stream = PrintStream(sink, auto_flush=False)

    def main(jclass, ctx, args):
        ctx.stdout.print("buffered")
        ctx.stdout.flush()
        return 0

    app = host.launch(ExecSpec(register_app("Buffered", main), stdout=stream))
    assert app.wait_for(10) == 0
    assert sink.to_text() == "buffered"
