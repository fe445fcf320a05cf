"""Experiment S3: the ported Appletviewer and the applet sandbox (§6.3)."""

import pytest

from repro.core.execspec import ExecSpec
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import SecurityException
from repro.net.sockets import Socket
from repro.security.codesource import CodeSource
from repro.tools.appletviewer import (
    AppletClassLoader,
    load_applet,
    parse_applet_url,
)


@pytest.fixture
def applet_host(mvm):
    """A web host serving a test applet, plus a listener to connect to."""
    fabric = mvm.vm.network
    web = fabric.add_host("web.example.com")
    other = fabric.add_host("other.example.com")
    web.listen(80)
    other.listen(80)

    applet = ClassMaterial(
        "applets.Probe",
        code_source=CodeSource(web.code_base() + "applets.Probe"))
    results: dict = {}
    applet.statics_results = results  # test-side channel

    @applet.member
    def init(jclass, ctx, frame):
        results["init"] = True

    @applet.member
    def start(jclass, ctx, frame):
        results["start"] = True
        # 1. Try to read the running user's file (must be denied even if
        #    a user with grants runs the viewer: no UserPermission).
        try:
            from repro.io.file import read_text
            results["file"] = read_text(ctx, "/home/alice/notes.txt")
        except SecurityException:
            results["file"] = "DENIED"
        # 2. Connect back to the origin host (must be allowed).
        try:
            socket = Socket(ctx, "web.example.com", 80)
            socket.close()
            results["own-host"] = "CONNECTED"
        except SecurityException:
            results["own-host"] = "DENIED"
        # 3. Connect to a third-party host (must be denied).
        try:
            socket = Socket(ctx, "other.example.com", 80)
            socket.close()
            results["other-host"] = "CONNECTED"
        except SecurityException:
            results["other-host"] = "DENIED"

    @applet.member
    def stop(jclass, ctx, frame):
        results["stop"] = True

    @applet.member
    def destroy(jclass, ctx, frame):
        results["destroy"] = True

    web.publish_class(applet)
    return web, results


class TestUrlParsing:
    def test_parse(self):
        assert parse_applet_url("http://h.example.com/classes/a.B") == \
            ("h.example.com", "a.B")

    def test_rejects_non_http(self):
        from repro.jvm.errors import IllegalArgumentException
        with pytest.raises(IllegalArgumentException):
            parse_applet_url("ftp://h/x")
        with pytest.raises(IllegalArgumentException):
            parse_applet_url("http:///x")


class TestSandbox:
    def test_applet_sandbox_rules(self, host, applet_host):
        """The headline experiment: even when *Alice* runs the viewer,
        the applet cannot read Alice's files — but it may connect back to
        its own host, and only to its own host."""
        web, results = applet_host
        alice = host.vm.user_database.lookup("alice")
        app = host.launch(
            ExecSpec("tools.AppletViewer",
                     ["--no-wait", "http://web.example.com/classes/"
                      "applets.Probe"],
                     user=alice))
        assert app.wait_for(10) == 0
        assert results["init"] is True
        assert results["start"] is True
        assert results["file"] == "DENIED", \
            "applets must not exercise the running user's permissions"
        assert results["own-host"] == "CONNECTED"
        assert results["other-host"] == "DENIED"

    def test_viewer_itself_may_read_user_files(self, host, applet_host,
                                               register_app):
        """Contrast: the *viewer* is local code and does get Alice's
        permissions — the sandbox boundary is the class loader."""
        outcome = {}

        def main(jclass, ctx, args):
            from repro.io.file import read_text
            outcome["text"] = read_text(ctx, "/home/alice/notes.txt")
            return 0

        class_name = register_app(
            "ViewerLike", main,
            code_source="file:/usr/local/java/tools/appletviewer/V.class")
        alice = host.vm.user_database.lookup("alice")
        app = host.launch(ExecSpec(class_name, [], user=alice))
        assert app.wait_for(5) == 0
        assert "private notes" in outcome["text"]

    def test_window_close_drives_applet_lifecycle(self, host, applet_host):
        web, results = applet_host
        app = host.launch(
            ExecSpec("tools.AppletViewer",
                     ["http://web.example.com/classes/applets.Probe"]))
        xserver = host.toolkit.xserver
        import time
        deadline = time.monotonic() + 5
        window_id = None
        while time.monotonic() < deadline and window_id is None:
            window_id = xserver.find_window("Applet: applets.Probe")
            time.sleep(0.01)
        assert window_id is not None
        xserver.request_close(window_id)
        assert app.wait_for(10) == 0
        assert results.get("stop") is True
        assert results.get("destroy") is True

    def test_applet_runs_inside_viewer_application(self, host, applet_host):
        web, results = applet_host
        recorded = {}

        @web.fetch_class("applets.Probe").member
        def whose_app(jclass, ctx, frame):
            from repro.core.context import current_application_or_none
            recorded["app"] = current_application_or_none()

        handle_app = host.launch(ExecSpec(
            "tools.AppletViewer",
            ["--no-wait", "http://web.example.com/classes/applets.Probe"]))
        assert handle_app.wait_for(10) == 0


class TestAppletClassLoader:
    def test_loader_defines_with_network_code_source(self, host,
                                                     applet_host):
        web, __ = applet_host
        ctx = host.initial.context()
        loader = AppletClassLoader(ctx.loader, web)
        jclass = loader.load_class("applets.Probe")
        assert jclass.protection_domain.code_source.url.startswith(
            "http://web.example.com/")

    def test_loader_delegates_connect_back_permission(self, host,
                                                      applet_host):
        from repro.security.permissions import SocketPermission
        web, __ = applet_host
        ctx = host.initial.context()
        loader = AppletClassLoader(ctx.loader, web)
        domain = loader.load_class("applets.Probe").protection_domain
        assert domain.implies(
            SocketPermission("web.example.com:80", "connect"))
        assert not domain.implies(
            SocketPermission("other.example.com:80", "connect"))

    def test_system_classes_still_from_parent(self, host, applet_host):
        web, __ = applet_host
        ctx = host.initial.context()
        loader = AppletClassLoader(ctx.loader, web)
        assert loader.load_class("java.lang.SystemProperties") is \
            ctx.loader.load_class("java.lang.SystemProperties")

    def test_missing_applet_class(self, host, applet_host):
        from repro.jvm.errors import ClassNotFoundException
        web, __ = applet_host
        ctx = host.initial.context()
        loader = AppletClassLoader(ctx.loader, web)
        with pytest.raises(ClassNotFoundException):
            loader.load_class("applets.Ghost")


class TestViewerErrors:
    def test_usage_error(self, host, capture):
        out = capture()
        app = host.launch(ExecSpec("tools.AppletViewer", [], stdout=out.stream,
                                   stderr=out.stream))
        assert app.wait_for(5) == 2
        assert "usage" in out.text

    def test_unknown_host_reported(self, host, capture):
        out = capture()
        app = host.launch(
            ExecSpec("tools.AppletViewer",
                     ["--no-wait", "http://ghost.example.com/classes/X"],
                     stdout=out.stream, stderr=out.stream))
        assert app.wait_for(5) == 1
        assert "appletviewer:" in out.text
