"""The ``cluster`` tool: inspect and drive the cluster from the shell.

Usage::

    cluster status
    cluster placements
    cluster exec [-p policy] [-l user] [--password pw] [--untrusted] \\
            class-or-command [args...]

``status`` and ``placements`` render the controller's membership table
and decision log (the same text as ``/proc/cluster/*``).  ``exec``
launches through the cluster scheduler: command names resolve through
the local tool path like ``rsh``, credentials default to the running
user's name plus the ``rsh.password`` application property, and the
launch inherits the cluster's failover behaviour — if the chosen node
dies mid-run, the tool's application simply lands somewhere else.
"""

from __future__ import annotations

from repro.cluster.scheduler import PlacementError
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import (
    IllegalArgumentException,
    RemoteException,
    SecurityException,
)
from repro.security import access
from repro.security.codesource import CodeSource

CLASS_NAME = "tools.Cluster"
CODE_SOURCE = CodeSource("file:/usr/local/java/tools/cluster/Cluster.class")


def build_material() -> ClassMaterial:
    material = ClassMaterial(
        CLASS_NAME, code_source=CODE_SOURCE,
        doc="Cluster control: status, placements, scheduled exec.")

    @material.member
    def main(jclass, ctx, args):
        cluster = ctx.vm.cluster
        if cluster is None:
            ctx.stderr.println("cluster: this VM is not a cluster "
                               "controller")
            return 1
        if not args:
            ctx.stderr.println(
                "usage: cluster status | placements | "
                "exec [-p policy] [-l user] [--password pw] "
                "[--untrusted] command [args...]")
            return 2
        verb, *rest = args

        if verb == "status":
            counts = cluster.registry.counts()
            ctx.stdout.print(cluster.render_nodes())
            ctx.stdout.println(
                f"{counts['live']} live, {counts['suspect']} suspect, "
                f"{counts['dead']} dead; "
                f"{len(cluster.scheduler.placements())} recent placements")
            return 0

        if verb == "placements":
            ctx.stdout.print(cluster.render_placements())
            return 0

        if verb != "exec":
            ctx.stderr.println(f"cluster: unknown subcommand {verb!r}")
            return 2

        user = ctx.user.name if ctx.user is not None else ""
        password = ctx.app.properties.get_property("rsh.password", "") \
            if ctx.app is not None else ""
        policy = "round-robin"
        untrusted = False
        while rest and rest[0].startswith("-"):
            flag = rest.pop(0)
            if flag == "-p" and rest:
                policy = rest.pop(0)
            elif flag == "-l" and rest:
                user = rest.pop(0)
            elif flag == "--password" and rest:
                password = rest.pop(0)
            elif flag == "--untrusted":
                untrusted = True
            else:
                ctx.stderr.println(f"cluster: unknown option {flag}")
                return 2
        if not rest:
            ctx.stderr.println("cluster: exec needs a command")
            return 2
        command, *command_args = rest
        class_name = ctx.vm.tool_path.get(command, command)

        def run():
            # One privileged frame covers the whole launch *and* the wait:
            # a mid-wait failover relaunches under this tool's connect
            # grant, exactly like the original placement.
            from repro.core.execspec import ExecSpec, Placement
            application = ctx.launch(
                ExecSpec(class_name, tuple(command_args), user=user,
                         password=password, stdout=ctx.stdout,
                         stderr=ctx.stderr,
                         placement=Placement.cluster(
                             policy=policy, untrusted=untrusted)))
            try:
                return application.wait_for(30)
            finally:
                application.close()

        try:
            code = access.do_privileged(run)
        except (PlacementError, IllegalArgumentException,
                SecurityException, RemoteException) as exc:
            ctx.stderr.println(f"cluster: {exc}")
            return 1
        return code if code is not None else 1

    return material
