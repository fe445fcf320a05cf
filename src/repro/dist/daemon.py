"""The remote-execution daemon: applications spanning JVMs (Section 8).

    "it is conceivable that the notion of an application as a set of
    threads can be extended to include threads of other JVM's, possibly on
    other hosts."

``dist.RexecDaemon`` is an ordinary application (Section 5.1) that listens
on a port of its VM's host.  For each connection it:

1. authenticates the request against *its own* VM's user database
   (Section 5.2 — identity does not travel, credentials do);
2. launches the requested class as a child application running as the
   authenticated user — the remote half of a distributed application;
3. streams the child's stdout/stderr back as frames and reports the exit
   code;
4. honours ``kill`` control frames from the requesting side, so destroying
   the distributed application reaches its remote threads;
5. keeps the connection open after the exit frame and serves the next
   request on it (the client pools connections per ``host:port``).

Privileges: the daemon's code source is granted ``listen``/``accept`` on
its rexec port range plus ``setUser`` (it launches work as other users) —
exactly the login-program pattern: the *program* holds the privilege, not
the user running it.
"""

from __future__ import annotations

from repro.core.application import Application
from repro.core.execspec import ExecSpec
from repro.dist import protocol
from repro.super.admission import AdmissionRejected
from repro.io.streams import PrintStream
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import (
    AuthenticationException,
    ClassNotFoundException,
    IOException,
    JavaThrowable,
    SocketException,
)
from repro.jvm.threads import JThread, checkpoint
from repro.net.sockets import ServerSocket
from repro.security import access
from repro.security.codesource import CodeSource
from repro.security.policy import PHASES

CLASS_NAME = "dist.RexecDaemon"
CODE_SOURCE = CodeSource("file:/usr/local/java/tools/rexecd/RexecDaemon.class")

DEFAULT_PORT = 7100


def _serve_request(ctx, channel, request):
    """Authenticate and launch one request.

    Returns ``(child, waiter)`` — the waiter thread streams the exit
    frame when the child ends — or ``(None, None)`` when an ``err``
    frame was sent instead.
    """
    try:
        user = ctx.vm.user_database.authenticate(
            str(request.get("user", "")), str(request.get("password", "")))
    except AuthenticationException:
        channel.send({"t": "err", "msg": "authentication failed"})
        return None, None
    class_name = str(request.get("class_name", ""))
    args = [str(a) for a in request.get("args", [])]
    # ResourceLimits travel with the request and are enforced *here*, on
    # the executing VM — the client's ceilings survive the network.
    limits = protocol.limits_from_wire(request.get("limits"))
    # Learning mode and a launch-phase override ride along the same way.
    # Junk phases from untrusted requesters are dropped, not fatal.
    record = bool(request.get("record", False))
    phase = request.get("phase")
    if phase is not None and str(phase) not in PHASES:
        phase = None
    # Coalescing frame streams: auto-flush stays off so byte-at-a-time
    # writers pay one frame per newline/threshold, not one per write.
    out_frames = protocol.FrameOutputStream(channel, "o")
    err_frames = protocol.FrameOutputStream(channel, "e")
    stdout = PrintStream(out_frames, auto_flush=False)
    stderr = PrintStream(err_frames, auto_flush=False)
    spec = ExecSpec(class_name, tuple(args), user=user, stdout=stdout,
                    stderr=stderr, limits=limits,
                    record_policy=record, phase=phase)
    try:
        # The daemon asserts its own setUser grant to launch as `user`.
        child = access.do_privileged(lambda: Application._exec_spec(
            spec, vm=ctx.vm, parent=ctx.app))
    except AdmissionRejected as exc:
        # Typed shedding crosses the wire: the requester re-raises it as
        # AdmissionRejected, not a generic RemoteException.
        channel.send({"t": "err", "kind": "admission",
                      "msg": f"admission rejected: {exc}"})
        return None, None
    except (ClassNotFoundException, JavaThrowable) as exc:
        channel.send({"t": "err", "msg": f"launch failed: {exc}"})
        return None, None

    def wait_and_report() -> None:
        code = child.wait_for()
        # Residual coalesced output must hit the wire before the exit
        # frame: on a persistent connection, anything later would bleed
        # into the next request's reply stream.
        try:
            out_frames.flush()
            err_frames.flush()
            channel.send({"t": "x",
                          "code": code if code is not None else -1})
        except IOException:
            pass  # requester hung up; nothing left to report to

    waiter = JThread(target=wait_and_report,
                     name=f"rexec-wait-{child.app_id}", daemon=True)
    waiter.start()
    return child, waiter


def _handle_connection(ctx, socket) -> None:
    """Serve one connection: a request, its kill frames, the next request.

    A single reader loop handles everything the requester sends — the
    request frame, ``kill`` control frames while a child runs, and the
    *next* request after an exit frame (the client pools the
    connection).  Bytes that do not parse as a frame (a JSON line, say)
    end the connection, so such a request is never authenticated or
    launched.
    """
    channel = protocol.FrameChannel(socket.input, socket.output)
    child = None
    waiter = None
    try:
        while True:
            try:
                frame = channel.recv()
            except IOException:
                break
            if frame is None:
                break
            kind = frame.get("t")
            if kind == "kill":
                if child is not None:
                    child.destroy()
                continue
            if kind is not None:
                continue  # unknown control frame: ignore
            # A request frame.  The client only sends one after seeing the
            # previous exit frame, so a live waiter just needs joining.
            if waiter is not None:
                waiter.join()
            child, waiter = _serve_request(ctx, channel, frame)
    finally:
        if waiter is not None:
            waiter.join()
        socket.close()


def build_material() -> ClassMaterial:
    material = ClassMaterial(
        CLASS_NAME, code_source=CODE_SOURCE,
        doc="Remote-execution daemon: the remote half of distributed "
            "applications (§8 future work).")

    @material.member
    def main(jclass, ctx, args):
        port = int(args[0]) if args else DEFAULT_PORT
        server = access.do_privileged(lambda: ServerSocket(ctx, port))
        ctx.stdout.println(f"rexecd: listening on port {port}")
        try:
            while True:
                checkpoint()
                try:
                    socket = server.accept(timeout=0.2)
                except SocketException:
                    continue  # accept timeout: poll the stop flag
                handler = JThread(
                    target=lambda s=socket: _handle_connection(ctx, s),
                    name=f"rexec-conn")
                handler.start()
        finally:
            server.close()

    return material
