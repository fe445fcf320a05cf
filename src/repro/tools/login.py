"""The login program (Section 5.2, Section 6).

    "In our prototype, login-in now works similar to UNIX's login program.
    It has the necessary privileges and resets its own running user-id to be
    the one that it has successfully authenticated.  It then spawns a shell
    (which will have the same running user) and waits for the shell to
    finish.

    Note that it doesn't matter which user is running the login program.
    In fact, it might even be some sort of 'null' user for bootstrapping
    purposes. ...  All we need to do is grant the login program the
    privilege to set its own user.  This can be done through code
    source-based security policies, since it is the *program* that is
    granted the privilege, not the user that runs it."

The default policy grants ``RuntimePermission("setUser")`` to this class's
code source (``file:/usr/local/java/tools/login/*``) and to nothing else;
the reset itself happens inside ``do_privileged`` so only login's own
domain is consulted.
"""

from __future__ import annotations

from repro.core.execspec import ExecSpec
from repro.io.streams import LineReader
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import AuthenticationException
from repro.security import access
from repro.security.codesource import CodeSource
from repro.tools.terminal import Terminal

CLASS_NAME = "tools.Login"
CODE_SOURCE = CodeSource("file:/usr/local/java/tools/login/Login.class")

MAX_ATTEMPTS = 3


def build_material() -> ClassMaterial:
    material = ClassMaterial(CLASS_NAME, code_source=CODE_SOURCE,
                             doc="Authenticates a user and spawns a shell.")

    @material.member
    def main(jclass, ctx, args):
        shell_class = args[0] if args else "tools.Shell"
        terminal = Terminal.from_stream(ctx.stdin)
        reader = None if terminal is not None else LineReader(ctx.stdin)
        for _ in range(MAX_ATTEMPTS):
            if terminal is not None:
                username = terminal.read_string("login: ")
                if username is None:
                    return 1  # hang-up
                password = terminal.read_password()
                if password is None:
                    return 1
            else:
                ctx.stdout.print("login: ")
                username = reader.read_line()
                if username is None:
                    return 1
                ctx.stdout.print("Password: ")
                password = reader.read_line()
                if password is None:
                    return 1
            try:
                user = ctx.vm.user_database.authenticate(
                    username.strip(), password)
            except AuthenticationException:
                # Diagnostics go to the application's own System.err so a
                # redirected stdout transcript stays clean.
                ctx.stderr.println("Login incorrect")
                continue
            # The privileged reset: only login's own code source needs the
            # setUser grant (Section 5.2).
            app = ctx.app
            access.do_privileged(lambda: app.set_user(user))
            _print_motd(jclass, ctx)
            shell = ctx.launch(ExecSpec(shell_class, []))
            shell.wait_for()
            ctx.stdout.println("logged out")
            return 0
        ctx.stderr.println("Too many failures")
        return 1

    @material.member
    def _print_motd(jclass, ctx) -> None:
        """Best-effort message of the day (non-public member)."""
        from repro.io.file import read_text
        from repro.jvm.errors import IOException, SecurityException
        try:
            ctx.stdout.print(read_text(ctx, "/etc/motd"))
        except (IOException, SecurityException):
            pass

    return material
