#!/usr/bin/env python
"""The Appletviewer sandbox of Section 6.3.

An applet is published on a simulated web host, downloaded by the ported
Appletviewer through its AppletClassLoader, and runs inside the viewer's
application — but under its own network code source:

* it may connect back to its origin host (the delegated permission);
* it may NOT connect anywhere else;
* it may NOT read the running user's files, even though Alice (who has
  those grants) is the one running the viewer — remote code never receives
  ``UserPermission`` under the Section 5.3 policy.

Run with::

    python examples/applet_sandbox.py
"""

from repro import (
    ClassMaterial,
    CodeSource,
    ExecSpec,
    MultiProcVM,
    SecurityException,
)
from repro.io.file import read_text
from repro.net.sockets import Socket


def build_applet(web) -> ClassMaterial:
    applet = ClassMaterial(
        "applets.WeatherApplet",
        code_source=CodeSource(web.code_base() + "applets.WeatherApplet"),
        doc="A mobile-code applet probing the sandbox boundaries.")

    @applet.member
    def init(jclass, ctx, frame):
        ctx.stdout.println("[applet] init: hello from mobile code")

    @applet.member
    def start(jclass, ctx, frame):
        out = ctx.stdout
        # 1. Connect back to the origin host: allowed.
        try:
            socket = Socket(ctx, "web.example.com", 80)
            socket.send_text("GET /weather")
            out.println("[applet] connect-back to web.example.com: OK — "
                        + socket.receive_text(32))
            socket.close()
        except SecurityException as exc:
            out.println(f"[applet] connect-back DENIED?! {exc}")
        # 2. A third-party host: denied.
        try:
            Socket(ctx, "bank.example.com", 443)
            out.println("[applet] connected to bank.example.com?!")
        except SecurityException:
            out.println("[applet] connect to bank.example.com: DENIED "
                        "(as it must be)")
        # 3. The running user's files: denied despite Alice's grants.
        try:
            read_text(ctx, "/home/alice/notes.txt")
            out.println("[applet] read alice's notes?!")
        except SecurityException:
            out.println("[applet] read /home/alice/notes.txt: DENIED "
                        "(no UserPermission for remote code)")

    return applet


def main() -> None:
    mvm = MultiProcVM.boot()
    fabric = mvm.vm.network
    web = fabric.add_host("web.example.com")
    fabric.add_host("bank.example.com").listen(443)
    web.publish_class(build_applet(web))

    # A tiny "weather server" on the applet's origin host.
    listener = web.listen(80)
    from repro.jvm.threads import JThread
    def serve():
        endpoint = listener.accept(timeout=10)
        if endpoint is not None:
            endpoint.input.read(64)
            endpoint.output.write(b"sunny, 21C")
            endpoint.close()
    JThread(target=serve, name="weather-server",
            group=mvm.vm.root_group, daemon=True).start()

    with mvm.host_session():
        alice = mvm.vm.user_database.lookup("alice")
        print("Running the Appletviewer as alice ...\n")
        viewer = mvm.launch(ExecSpec(
            "tools.AppletViewer",
            ["--no-wait",
             "http://web.example.com/classes/applets.WeatherApplet"],
            user=alice, stdout=mvm.vm.out, stderr=mvm.vm.err))
        viewer.wait_for(10)

    print(mvm.vm.out.target.to_text())
    print("Requests the web host saw:", web.request_log)
    mvm.shutdown()


if __name__ == "__main__":
    main()
