#!/usr/bin/env python
"""The Alice-and-Bob editor scenario of Section 5.4 / Feature 7.

Two users run *the same* text editor program inside one JVM.  Each editor
window gets its own per-application event dispatcher thread, so the
Save-File callback runs as the right user and each document lands in the
right home directory — the exact problem the paper's redesign solves.

Run with::

    python examples/multiuser_editor.py
"""

import time

from repro import ClassMaterial, CodeSource, ExecSpec, MultiProcVM
from repro.awt.components import Frame, MenuBar, TextArea
from repro.core.context import current_application_or_none
from repro.io.file import read_text, write_text
from repro.jvm.threads import JThread

EDITOR = ClassMaterial(
    "apps.TextEditor",
    code_source=CodeSource(
        "file:/usr/local/java/apps/texteditor/TextEditor.class"),
    doc="A text editor whose Save File writes to $HOME/document.txt.")


@EDITOR.member
def main(jclass, ctx, args):
    title = args[0]
    frame = Frame(title, name=f"frame-{title}")
    area = TextArea(name=f"text-{title}")
    frame.add(area)
    menu_bar = MenuBar(name=f"menubar-{title}")
    file_menu = menu_bar.add_menu("File", name=f"file-{title}")

    def save_file(event):
        # Resolved from the *dispatching thread* — Section 5.4's point.
        application = current_application_or_none()
        home = application.user.home
        write_text(ctx, f"{home}/document.txt", area.text)
        ctx.stdout.println(
            f"[{title}] saved {len(area.text)} chars to "
            f"{home}/document.txt as {application.user.name}")

    file_menu.add_item("Save File", save_file, name=f"save-{title}")
    frame.set_menu_bar(menu_bar)
    frame.show(ctx.vm.toolkit)
    while True:  # a GUI application lives until destroyed (Section 5.4)
        JThread.sleep(0.5)


def wait_for_window(xserver, title, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        window_id = xserver.find_window(title)
        if window_id is not None:
            return window_id
        time.sleep(0.01)
    raise RuntimeError(f"window {title!r} never appeared")


def main_example() -> None:
    mvm = MultiProcVM.boot()
    mvm.vm.registry.register(EDITOR)
    xserver = mvm.toolkit.xserver

    with mvm.host_session():
        alice = mvm.vm.user_database.lookup("alice")
        bob = mvm.vm.user_database.lookup("bob")
        editor_alice = mvm.launch(ExecSpec("apps.TextEditor", ["alice-editor"],
                                           user=alice, stdout=mvm.vm.out))
        editor_bob = mvm.launch(ExecSpec("apps.TextEditor", ["bob-editor"],
                                         user=bob, stdout=mvm.vm.out))

        window_alice = wait_for_window(xserver, "alice-editor")
        window_bob = wait_for_window(xserver, "bob-editor")

        # The users type into their own windows (via the X server) ...
        xserver.type_text(window_alice, "text-alice-editor",
                          "Dear diary: the JVM is multi-user now.")
        xserver.type_text(window_bob, "text-bob-editor",
                          "TODO: review the new security model.")
        # ... and both pick File > Save File.
        xserver.select_menu_item(window_alice, "save-alice-editor")
        xserver.select_menu_item(window_bob, "save-bob-editor")
        time.sleep(0.3)

        ctx = mvm.initial.context()
        print("\n/home/alice/document.txt:",
              read_text(ctx, "/home/alice/document.txt"))
        print("/home/bob/document.txt:  ",
              read_text(ctx, "/home/bob/document.txt"))
        print("\nDispatcher threads in play:")
        for app in (editor_alice, editor_bob):
            edt = app.event_dispatch_thread
            print(f"  {app.name:<16s} user={app.user.name:<6s} "
                  f"EDT={edt.thread.name} (group {edt.thread.group.name})")

        editor_alice.destroy()
        editor_bob.destroy()
        editor_alice.wait_for(5)
        editor_bob.wait_for(5)

    print("\nShell output from the editors:")
    print(mvm.vm.out.target.to_text())
    mvm.shutdown()


if __name__ == "__main__":
    main_example()
