"""The paper's motivating scenario (Feature 7 / Section 5.4), end to end.

"Assume that two users, Alice and Bob, are running the same program, say a
text editor, within one JVM.  When Alice wants to save her file, she
selects the appropriate menu item. ...  we would like to avoid saving
Bob's file in Alice's directory and vice versa."

We build that text editor as an ordinary local application: a frame with a
text area and a File > Save File menu item whose callback writes the buffer
to ``$HOME/document.txt`` *of the running user resolved inside the
callback*.  With per-application dispatching, each save lands in the right
home; the centralized baseline cannot even attribute the callback.
"""

import time

import pytest

from repro.awt.components import Frame, MenuBar, TextArea
from repro.core.context import current_application_or_none
from repro.core.execspec import ExecSpec
from repro.io.file import read_text, write_text
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import SecurityException
from repro.security.codesource import CodeSource

EDITOR_CLASS = "apps.TextEditor"


def build_editor_material() -> ClassMaterial:
    material = ClassMaterial(
        EDITOR_CLASS,
        code_source=CodeSource(
            "file:/usr/local/java/apps/texteditor/TextEditor.class"),
        doc="The Alice-and-Bob text editor of Section 5.4.")

    @material.member
    def main(jclass, ctx, args):
        title = args[0] if args else "editor"
        frame = Frame(title, name=f"frame-{title}")
        area = TextArea(name=f"text-{title}")
        frame.add(area)
        bar = MenuBar(name=f"menubar-{title}")
        file_menu = bar.add_menu("File", name=f"file-menu-{title}")

        def save_file(event):
            # The running user is derived *from the dispatching thread* —
            # the whole point of Section 5.4.
            application = current_application_or_none()
            home = application.user.home
            write_text(ctx, f"{home}/document.txt", area.text)

        file_menu.add_item("Save File", save_file,
                           name=f"save-item-{title}")
        frame.set_menu_bar(bar)
        frame.show(ctx.vm.toolkit)
        # GUI application: lives until destroyed (Section 5.4 semantics).
        from repro.jvm.threads import JThread
        while True:
            JThread.sleep(0.5)

    return material


@pytest.fixture
def editor(mvm):
    mvm.vm.registry.register(build_editor_material())
    return EDITOR_CLASS


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_alice_and_bob_save_into_their_own_homes(host, editor):
    """The headline: same program, two users, two correct save targets."""
    alice = host.vm.user_database.lookup("alice")
    bob = host.vm.user_database.lookup("bob")
    app_alice = host.launch(ExecSpec(editor, ["alice-editor"], user=alice))
    app_bob = host.launch(ExecSpec(editor, ["bob-editor"], user=bob))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("alice-editor") is not None)
    assert wait_for(lambda: xserver.find_window("bob-editor") is not None)

    # Each user types their own text...
    win_alice = xserver.find_window("alice-editor")
    win_bob = xserver.find_window("bob-editor")
    xserver.type_text(win_alice, "text-alice-editor", "alice's diary")
    xserver.type_text(win_bob, "text-bob-editor", "bob's notes")
    # ... and selects File > Save File.
    xserver.select_menu_item(win_alice, "save-item-alice-editor")
    xserver.select_menu_item(win_bob, "save-item-bob-editor")

    ctx = host.initial.context()
    assert wait_for(lambda: _exists(ctx, "/home/alice/document.txt"))
    assert wait_for(lambda: _exists(ctx, "/home/bob/document.txt"))
    assert read_text(ctx, "/home/alice/document.txt") == "alice's diary"
    assert read_text(ctx, "/home/bob/document.txt") == "bob's notes"

    app_alice.destroy()
    app_bob.destroy()
    app_alice.wait_for(5)
    app_bob.wait_for(5)


def _exists(ctx, path):
    from repro.io.file import JFile
    try:
        return JFile(ctx, path).exists()
    except SecurityException:
        return False


def test_save_callback_is_policy_checked_per_user(host, editor):
    """The save goes through the user-based access control: a save by
    Alice's editor into Bob's home is denied."""
    evil_material = ClassMaterial(
        "apps.EvilEditor",
        code_source=CodeSource(
            "file:/usr/local/java/apps/evileditor/EvilEditor.class"))
    outcome = {}

    @evil_material.member
    def main(jclass, ctx, args):
        try:
            write_text(ctx, "/home/bob/document.txt", "alice was here")
            outcome["result"] = "wrote"
        except SecurityException:
            outcome["result"] = "denied"
        return 0

    host.vm.registry.register(evil_material)
    alice = host.vm.user_database.lookup("alice")
    app = host.launch(ExecSpec("apps.EvilEditor", [], user=alice))
    assert app.wait_for(5) == 0
    assert outcome["result"] == "denied"


def test_editor_keystrokes_update_only_their_own_buffer(host, editor):
    alice = host.vm.user_database.lookup("alice")
    bob = host.vm.user_database.lookup("bob")
    app_alice = host.launch(ExecSpec(editor, ["ed-a"], user=alice))
    app_bob = host.launch(ExecSpec(editor, ["ed-b"], user=bob))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("ed-a") is not None)
    assert wait_for(lambda: xserver.find_window("ed-b") is not None)
    xserver.type_text(xserver.find_window("ed-a"), "text-ed-a", "AAA")
    xserver.type_text(xserver.find_window("ed-b"), "text-ed-b", "B")

    windows_a = host.toolkit.windows_of(app_alice)
    windows_b = host.toolkit.windows_of(app_bob)
    assert wait_for(lambda: windows_a[0].find("text-ed-a").text == "AAA")
    assert wait_for(lambda: windows_b[0].find("text-ed-b").text == "B")
    app_alice.destroy()
    app_bob.destroy()
    app_alice.wait_for(5)
    app_bob.wait_for(5)
