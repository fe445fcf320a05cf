"""Utility applications (Section 6.1: "implemented utility applications
including ls and cat"), plus the process tools a multi-processing VM wants
(``ps``, ``kill``) and a few more standard pieces used by the examples and
benchmarks.

Every utility is ordinary *local application code*: it lives under
``file:/usr/local/java/tools/...``, so by the paper's Section 5.3 policy it
may exercise the permissions of its running user — which is exactly why
``cat /home/alice/notes.txt`` works for Alice and fails for Bob.

All utilities follow the Unix conventions: read stdin when no file
arguments are given (so they compose in pipes), write to stdout, return a
non-zero status on failure.
"""

from __future__ import annotations

from itertools import chain, islice

from repro.io.file import (
    FileInputStream,
    FileOutputStream,
    JFile,
    read_text,
)
from repro.io.streams import LineReader
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import IOException, SecurityException
from repro.jvm.threads import JThread
from repro.security.codesource import CodeSource


def _tool(name: str, doc: str) -> ClassMaterial:
    simple = name.rsplit(".", 1)[-1]
    return ClassMaterial(name, doc=doc, code_source=CodeSource(
        f"file:/usr/local/java/tools/{simple.lower()}/{simple}.class"))


def _fail(ctx, tool: str, exc: Exception) -> int:
    ctx.stderr.println(f"{tool}: {exc}")
    return 1


# --------------------------------------------------------------------------
# ls
# --------------------------------------------------------------------------

ls_material = _tool("tools.Ls", "List directory contents.")


@ls_material.member
def main(jclass, ctx, args):  # noqa: F811 - each material has its own main
    long_format = "-l" in args
    paths = [a for a in args if not a.startswith("-")] or [ctx.cwd]
    status = 0
    for path in paths:
        try:
            jfile = JFile(ctx, path)
            if jfile.is_directory():
                names = jfile.list()
            elif jfile.exists():
                names = [path]
            else:
                ctx.stderr.println(f"ls: {path}: no such file or directory")
                status = 1
                continue
            for name in names:
                if long_format:
                    entry = JFile(ctx, f"{jfile.path}/{name}"
                                  if name != path else path)
                    kind = "d" if entry.is_directory() else "-"
                    ctx.stdout.println(
                        f"{kind} {entry.length():8d} {name}")
                else:
                    ctx.stdout.println(name)
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "ls", exc)
    return status


# --------------------------------------------------------------------------
# cat
# --------------------------------------------------------------------------

cat_material = _tool("tools.Cat", "Concatenate files to standard output.")


@cat_material.member
def main(jclass, ctx, args):  # noqa: F811
    status = 0
    for path in args or [None]:
        try:
            stream = ctx.stdin if path is None \
                else FileInputStream(ctx, path)
            try:
                while chunk := stream.read(8192):
                    ctx.stdout.write(chunk)
                    # The SIGPIPE analogue: the reader has gone.
                    if ctx.stdout.peek_error():
                        return 1
            finally:
                if path is not None:
                    stream.close()
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "cat", exc)
    return status


# --------------------------------------------------------------------------
# echo
# --------------------------------------------------------------------------

echo_material = _tool("tools.Echo", "Print arguments to standard output.")


@echo_material.member
def main(jclass, ctx, args):  # noqa: F811
    if args and args[0] == "-n":
        ctx.stdout.print(" ".join(args[1:]))
    else:
        ctx.stdout.println(" ".join(args))
    return 0


# --------------------------------------------------------------------------
# wc
# --------------------------------------------------------------------------

wc_material = _tool("tools.Wc", "Count lines, words, and bytes.")


@wc_material.member
def main(jclass, ctx, args):  # noqa: F811
    lines_only = "-l" in args
    paths = [a for a in args if not a.startswith("-")]

    def count(data: bytes) -> tuple[int, int, int]:
        text = data.decode("utf-8", errors="replace")
        return (text.count("\n"), len(text.split()), len(data))

    if not paths:
        totals = count(ctx.stdin.read_all())
        ctx.stdout.println(str(totals[0]) if lines_only
                           else f"{totals[0]} {totals[1]} {totals[2]}")
        return 0
    status = 0
    for path in paths:
        try:
            stream = FileInputStream(ctx, path)
            try:
                lines, words, size = count(stream.read_all())
            finally:
                stream.close()
            ctx.stdout.println(
                f"{lines} {path}" if lines_only
                else f"{lines} {words} {size} {path}")
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "wc", exc)
    return status


# --------------------------------------------------------------------------
# head
# --------------------------------------------------------------------------

head_material = _tool("tools.Head", "Print the first lines of input.")


@head_material.member
def main(jclass, ctx, args):  # noqa: F811
    limit = 10
    paths: list[str] = []
    index = 0
    while index < len(args):
        if args[index] == "-n" and index + 1 < len(args):
            limit = int(args[index + 1])
            index += 2
        else:
            paths.append(args[index])
            index += 1
    try:
        if paths:
            stream = FileInputStream(ctx, paths[0])
            try:
                lines = list(islice(chain.from_iterable(
                    LineReader(stream).line_blocks()), max(limit, 0)))
            finally:
                stream.close()
            if lines:
                ctx.stdout.print("\n".join(lines) + "\n")
        else:
            reader = LineReader(ctx.stdin)
            for _ in range(limit):
                line = reader.read_line()
                if line is None:
                    break
                ctx.stdout.println(line)
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "head", exc)
    return 0


# --------------------------------------------------------------------------
# grep
# --------------------------------------------------------------------------

grep_material = _tool("tools.Grep", "Print lines matching a substring.")


@grep_material.member
def main(jclass, ctx, args):  # noqa: F811
    if not args:
        ctx.stderr.println("usage: grep pattern [file...]")
        return 2
    pattern, paths = args[0], args[1:]
    matched = False
    try:
        for path in paths or [None]:
            stream = ctx.stdin if path is None \
                else FileInputStream(ctx, path)
            prefix = f"{path}:" if len(paths) > 1 else ""
            try:
                for block in LineReader(stream).line_blocks():
                    hits = [line for line in block if pattern in line]
                    if not hits:
                        continue
                    matched = True
                    ctx.stdout.print(
                        prefix + f"\n{prefix}".join(hits) + "\n")
                    if ctx.stdout.peek_error():
                        return 1
            finally:
                if path is not None:
                    stream.close()
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "grep", exc)
    return 0 if matched else 1


# --------------------------------------------------------------------------
# whoami / pwd
# --------------------------------------------------------------------------

whoami_material = _tool("tools.Whoami", "Print the running user's name.")


@whoami_material.member
def main(jclass, ctx, args):  # noqa: F811
    ctx.stdout.println(ctx.user.name if ctx.user is not None else "nobody")
    return 0


pwd_material = _tool("tools.Pwd", "Print the current working directory.")


@pwd_material.member
def main(jclass, ctx, args):  # noqa: F811
    ctx.stdout.println(ctx.cwd)
    return 0


# --------------------------------------------------------------------------
# ps / kill — the application table (Section 5.1's lifecycle, made visible)
# --------------------------------------------------------------------------

ps_material = _tool("tools.Ps", "List running applications.")


@ps_material.member
def main(jclass, ctx, args):  # noqa: F811
    long_format = "-l" in args
    telemetry_format = "-t" in args
    registry = ctx.vm.application_registry
    if registry is None:
        ctx.stderr.println("ps: not a multi-processing VM")
        return 1
    try:
        applications = registry.applications()
    except SecurityException as exc:
        return _fail(ctx, "ps", exc)
    header = "  AID USER     STATE      THR NAME"
    if long_format:
        header += "  [threads/streams/windows/children ever]"
    if telemetry_format:
        header += "  [events/denies/rejects]"
    ctx.stdout.println(header)
    hub = ctx.vm.telemetry
    for application in applications:
        row = (f"{application.app_id:5d} {application.user.name:<8s} "
               f"{application.state:<10s} "
               f"{len(application.live_threads()):3d} {application.name}")
        if long_format:
            stats = application.stats
            row += (f"  [{stats['threads']}/{stats['streams']}/"
                    f"{stats['windows']}/{stats['children']}]")
        if telemetry_format:
            dispatched = int(hub.metrics.total(
                "awt.events.dispatched", app=application.name))
            denies = len(hub.audit.denials(app_id=application.app_id))
            rejects = int(hub.metrics.total(
                "limits.rejected", app=application.name))
            row += f"  [{dispatched}/{denies}/{rejects}]"
        ctx.stdout.println(row)
    return 0


vmstat_material = _tool("tools.Vmstat", "Print VM-wide telemetry rollups.")


@vmstat_material.member
def main(jclass, ctx, args):  # noqa: F811
    # Exactly `cat /proc/vmstat`: the read goes through the mount and the
    # caller's FilePermission, so a denied reader is refused here too.
    try:
        ctx.stdout.print(read_text(ctx, "/proc/vmstat"))
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "vmstat", exc)
    return 0


kill_material = _tool("tools.Kill", "Terminate an application by id.")


@kill_material.member
def main(jclass, ctx, args):  # noqa: F811
    if not args:
        ctx.stderr.println("usage: kill app-id...")
        return 2
    registry = ctx.vm.application_registry
    status = 0
    for raw in args:
        try:
            application = registry.find(int(raw))
        except ValueError:
            ctx.stderr.println(f"kill: bad id {raw!r}")
            status = 1
            continue
        if application is None:
            ctx.stderr.println(f"kill: no such application: {raw}")
            status = 1
            continue
        try:
            application.destroy()
        except SecurityException as exc:
            status = _fail(ctx, "kill", exc)
    return status


# --------------------------------------------------------------------------
# sleep / yes — load generators for the benchmarks
# --------------------------------------------------------------------------

sleep_material = _tool("tools.Sleep", "Sleep for the given seconds.")


@sleep_material.member
def main(jclass, ctx, args):  # noqa: F811
    JThread.sleep(float(args[0]) if args else 1.0)
    return 0


yes_material = _tool("tools.Yes", "Repeat a line forever (pipe feeder).")


@yes_material.member
def main(jclass, ctx, args):  # noqa: F811
    from repro.jvm.threads import checkpoint
    word = args[0] if args else "y"
    payload = (word + "\n").encode("utf-8")
    while True:
        checkpoint()
        ctx.stdout.write(payload)
        # PrintStream never throws (Java semantics); a broken pipe shows
        # up as the error flag — the Unix SIGPIPE analogue.
        if hasattr(ctx.stdout, "check_error") and ctx.stdout.check_error():
            return 1


# --------------------------------------------------------------------------
# touch / rm / mkdir / cp / mv
# --------------------------------------------------------------------------

touch_material = _tool("tools.Touch", "Create empty files.")


@touch_material.member
def main(jclass, ctx, args):  # noqa: F811
    status = 0
    for path in args:
        try:
            JFile(ctx, path).create_new_file()
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "touch", exc)
    return status


rm_material = _tool("tools.Rm", "Remove files.")


@rm_material.member
def main(jclass, ctx, args):  # noqa: F811
    status = 0
    for path in args:
        try:
            JFile(ctx, path).delete()
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "rm", exc)
    return status


mkdir_material = _tool("tools.Mkdir", "Create directories.")


@mkdir_material.member
def main(jclass, ctx, args):  # noqa: F811
    status = 0
    for path in args:
        try:
            JFile(ctx, path).mkdir()
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "mkdir", exc)
    return status


cp_material = _tool("tools.Cp", "Copy a file.")


@cp_material.member
def main(jclass, ctx, args):  # noqa: F811
    if len(args) != 2:
        ctx.stderr.println("usage: cp source dest")
        return 2
    try:
        source = FileInputStream(ctx, args[0])
        try:
            sink = FileOutputStream(ctx, args[1])
            try:
                while True:
                    chunk = source.read(8192)
                    if not chunk:
                        break
                    sink.write(chunk)
            finally:
                sink.close()
        finally:
            source.close()
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "cp", exc)
    return 0


mv_material = _tool("tools.Mv", "Rename a file.")


@mv_material.member
def main(jclass, ctx, args):  # noqa: F811
    if len(args) != 2:
        ctx.stderr.println("usage: mv source dest")
        return 2
    try:
        JFile(ctx, args[0]).rename_to(JFile(ctx, args[1]))
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "mv", exc)
    return 0


# --------------------------------------------------------------------------
# backup — Section 5.3's rule 2: "The backup application can read all files."
# --------------------------------------------------------------------------

backup_material = ClassMaterial(
    "apps.Backup",
    doc="Copies a source tree into /var/backup (policy rule 2, §5.3).",
    code_source=CodeSource("file:/usr/local/java/apps/backup/Backup"))


@backup_material.member
def main(jclass, ctx, args):  # noqa: F811
    if not args:
        ctx.stderr.println("usage: backup path...")
        return 2
    copied = 0
    status = 0
    for path in args:
        try:
            source = JFile(ctx, path)
            if source.is_directory():
                names = [f"{source.path}/{n}" for n in source.list()]
            else:
                names = [source.path]
            for name in names:
                child = JFile(ctx, name)
                if child.is_directory():
                    continue
                data = read_text(ctx, name)
                flat = name.strip("/").replace("/", "_")
                from repro.io.file import write_text
                write_text(ctx, f"/var/backup/{flat}", data)
                copied += 1
        except (IOException, SecurityException) as exc:
            status = _fail(ctx, "backup", exc)
    ctx.stdout.println(f"backed up {copied} file(s)")
    return status


# --------------------------------------------------------------------------
# sort / uniq / tee — classic pipeline citizens
# --------------------------------------------------------------------------

sort_material = _tool("tools.Sort", "Sort lines of text.")


@sort_material.member
def main(jclass, ctx, args):  # noqa: F811
    reverse = "-r" in args
    paths = [a for a in args if not a.startswith("-")]
    try:
        if paths:
            lines = []
            for path in paths:
                lines.extend(read_text(ctx, path).splitlines())
        else:
            lines = ctx.stdin.read_all().decode(
                "utf-8", errors="replace").splitlines()
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "sort", exc)
    for line in sorted(lines, reverse=reverse):
        ctx.stdout.println(line)
    return 0


uniq_material = _tool("tools.Uniq", "Drop adjacent duplicate lines.")


@uniq_material.member
def main(jclass, ctx, args):  # noqa: F811
    count_mode = "-c" in args

    def render(count: int, line: str) -> str:
        return f"{count:4d} {line}" if count_mode else line

    previous = None
    count = 0
    # ``previous`` and ``count`` carry over block seams, so a run of
    # duplicates split across two reads still collapses to one line.
    for block in LineReader(ctx.stdin).line_blocks():
        kept = []
        for line in block:
            if line == previous:
                count += 1
                continue
            if previous is not None:
                kept.append(render(count, previous))
            previous, count = line, 1
        if kept:
            ctx.stdout.print("\n".join(kept) + "\n")
            if ctx.stdout.peek_error():
                return 1
    if previous is not None:
        ctx.stdout.println(render(count, previous))
    return 0


tee_material = _tool("tools.Tee", "Copy stdin to stdout and files.")


@tee_material.member
def main(jclass, ctx, args):  # noqa: F811
    append = "-a" in args
    paths = [a for a in args if not a.startswith("-")]
    try:
        sinks = [FileOutputStream(ctx, path, append=append)
                 for path in paths]
    except (IOException, SecurityException) as exc:
        return _fail(ctx, "tee", exc)
    try:
        while True:
            chunk = ctx.stdin.read(8192)
            if not chunk:
                break
            ctx.stdout.write(chunk)
            for sink in sinks:
                sink.write(chunk)
    finally:
        for sink in sinks:
            sink.close()
    return 0


# --------------------------------------------------------------------------
# env / hostname / id / date / true / false
# --------------------------------------------------------------------------

env_material = _tool("tools.Env", "Print application properties and "
                                  "selected system properties.")


@env_material.member
def main(jclass, ctx, args):  # noqa: F811
    app = ctx.app
    if app is not None:
        for key in app.properties.property_names():
            ctx.stdout.println(
                f"{key}={app.properties.get_property(key)}")
    for key in ("java.version", "os.name", "user.name"):
        try:
            ctx.stdout.println(
                f"{key}={ctx.system.get_property(key)}")
        except SecurityException:
            pass
    return 0


hostname_material = _tool("tools.Hostname", "Print the machine name.")


@hostname_material.member
def main(jclass, ctx, args):  # noqa: F811
    ctx.stdout.println(ctx.vm.machine.hostname)
    return 0


id_material = _tool("tools.Id", "Print the running user identity.")


@id_material.member
def main(jclass, ctx, args):  # noqa: F811
    user = ctx.user
    if user is None:
        ctx.stdout.println("uid=nobody")
        return 0
    ctx.stdout.println(f"user={user.name} home={user.home} "
                       f"app={ctx.app.name}")
    return 0


date_material = _tool("tools.Date", "Print the current time (millis).")


@date_material.member
def main(jclass, ctx, args):  # noqa: F811
    ctx.stdout.println(str(ctx.system.current_time_millis()))
    return 0


true_material = _tool("tools.True", "Exit successfully.")


@true_material.member
def main(jclass, ctx, args):  # noqa: F811
    return 0


false_material = _tool("tools.False", "Exit with status 1.")


@false_material.member
def main(jclass, ctx, args):  # noqa: F811
    return 1


# --------------------------------------------------------------------------
# svc — the supervision operator surface
# --------------------------------------------------------------------------

svc_material = _tool("tools.Svc", "Inspect and drive supervised services.")


def _find_service(vm, name):
    """(supervisor, service) owning ``name``, or (None, None)."""
    for supervisor in vm.supervisors.values():
        for service in supervisor.services():
            if service.spec.name == name:
                return supervisor, service
    return None, None


@svc_material.member
def main(jclass, ctx, args):  # noqa: F811
    supervisors = ctx.vm.supervisors
    verb, *rest = args if args else ("status",)

    if verb == "status":
        if not supervisors:
            ctx.stdout.println("svc: no supervisor running")
            return 0
        for name in sorted(supervisors):
            ctx.stdout.print(supervisors[name].render_services())
        return 0

    if verb in ("start", "stop"):
        if not rest:
            ctx.stderr.println(f"svc: {verb} needs a service name")
            return 2
        status = 0
        for service_name in rest:
            supervisor, service = _find_service(ctx.vm, service_name)
            if service is None:
                ctx.stderr.println(
                    f"svc: no such service: {service_name}")
                status = 1
                continue
            if verb == "stop":
                supervisor.stop_service(service_name)
            else:
                supervisor.start_service(service_name)
            ctx.stdout.println(f"{service_name}: {verb} requested")
        return status

    ctx.stderr.println(
        "usage: svc [status] | svc start <service>... | "
        "svc stop <service>...")
    return 2


ALL_MATERIALS = [
    svc_material,
    sort_material, uniq_material, tee_material, env_material,
    hostname_material, id_material, date_material, true_material,
    false_material,
    ls_material, cat_material, echo_material, wc_material, head_material,
    grep_material, whoami_material, pwd_material, ps_material, kill_material,
    vmstat_material,
    sleep_material, yes_material, touch_material, rm_material,
    mkdir_material, cp_material, mv_material, backup_material,
]

COMMANDS = {
    "ls": "tools.Ls", "cat": "tools.Cat", "echo": "tools.Echo",
    "wc": "tools.Wc", "head": "tools.Head", "grep": "tools.Grep",
    "whoami": "tools.Whoami", "pwd": "tools.Pwd", "ps": "tools.Ps",
    "kill": "tools.Kill", "sleep": "tools.Sleep", "yes": "tools.Yes",
    "touch": "tools.Touch", "rm": "tools.Rm", "mkdir": "tools.Mkdir",
    "cp": "tools.Cp", "mv": "tools.Mv", "backup": "apps.Backup",
    "sort": "tools.Sort", "uniq": "tools.Uniq", "tee": "tools.Tee",
    "env": "tools.Env", "hostname": "tools.Hostname", "id": "tools.Id",
    "date": "tools.Date", "true": "tools.True", "false": "tools.False",
    "vmstat": "tools.Vmstat", "svc": "tools.Svc",
}
