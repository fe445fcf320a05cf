"""The Bourne-like shell of Section 6.1.

    "As part of our prototype, we implemented a shell for executing Java
    applications.  The shell executes an infinite loop in which it reads in
    a command line (provided by a terminal, see Section 6.2), interprets it,
    and possibly launches one or more applications. ...  The shell that we
    implemented uses pipes between applications and input/output redirection
    (with the syntax borrowed from UNIX)."

The redirection mechanism is implemented *exactly* as the paper describes:

    "in the case of pipes or input/output redirection, the shell temporarily
    changes its own standard input and output streams (to point to the
    appropriate pipe or file streams) before each application is launched.
    This causes the new application to have its input/output streams set to
    nonstandard values.  Afterwards, the shell's streams are re-set to their
    original values."

and so is the stream-ownership rule: the shell opens pipe and file streams,
so "it is the shell's responsibility to close those streams after the
application finishes."

Supported syntax: ``cmd args``, ``|`` pipes, ``<`` / ``>`` / ``>>``
redirection, ``&`` background jobs, ``;`` sequencing, ``&&`` / ``||``
conditional chaining, single/double quotes and backslash escapes, and
``$?`` / ``$USER`` / ``$HOME`` / ``$CWD`` substitution.  Built-ins: ``cd``, ``pwd``, ``exit``/``quit``, ``jobs``,
``history``, ``setprop``, ``getprop``, ``help``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.execspec import ExecSpec
from repro.io.file import FileInputStream, FileOutputStream, JFile
from repro.io.streams import LineReader, PrintStream, make_pipe
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import (
    IllegalArgumentException,
    IOException,
    JavaThrowable,
    SecurityException,
)
from repro.jvm.threads import JThread
from repro.security.codesource import CodeSource
from repro.tools.terminal import Terminal
from repro.unixfs.vfs import VirtualFileSystem

CLASS_NAME = "tools.Shell"
CODE_SOURCE = CodeSource("file:/usr/local/java/tools/shell/Shell.class")

NOT_FOUND_STATUS = 127
SYNTAX_ERROR_STATUS = 2


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_OPERATORS = ("&&", "||", "|", "<", ">>", ">", "&", ";")


@dataclass(frozen=True)
class Token:
    kind: str   # "word" or "op"
    value: str


def tokenize(line: str) -> list[Token]:
    """Split a command line into word and operator tokens."""
    tokens: list[Token] = []
    buffer: list[str] = []
    index, length = 0, len(line)
    in_word = False

    def flush() -> None:
        nonlocal in_word
        if in_word:
            tokens.append(Token("word", "".join(buffer)))
            buffer.clear()
            in_word = False

    while index < length:
        char = line[index]
        if char in " \t":
            flush()
            index += 1
            continue
        if char == "#" and not in_word:
            break  # comment to end of line
        matched_op = None
        for op in _OPERATORS:
            if line.startswith(op, index):
                matched_op = op
                break
        if matched_op is not None:
            flush()
            tokens.append(Token("op", matched_op))
            index += len(matched_op)
            continue
        if char == "\\":
            if index + 1 >= length:
                raise IllegalArgumentException("trailing backslash")
            buffer.append(line[index + 1])
            in_word = True
            index += 2
            continue
        if char in "'\"":
            quote = char
            index += 1
            start = index
            while index < length and line[index] != quote:
                if quote == '"' and line[index] == "\\" \
                        and index + 1 < length:
                    buffer.append(line[start:index])
                    buffer.append(line[index + 1])
                    index += 2
                    start = index
                    continue
                index += 1
            if index >= length:
                raise IllegalArgumentException(f"unterminated {quote} quote")
            buffer.append(line[start:index])
            in_word = True
            index += 1
            continue
        buffer.append(char)
        in_word = True
        index += 1
    flush()
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

@dataclass
class Command:
    argv: list[str] = field(default_factory=list)
    redirect_in: Optional[str] = None
    redirect_out: Optional[str] = None
    append_out: bool = False


@dataclass
class Pipeline:
    commands: list[Command] = field(default_factory=list)
    background: bool = False
    #: None, "and" (run only if the previous pipeline succeeded) or "or"
    #: (run only if it failed) — the shell's && / || chaining.
    condition: Optional[str] = None


def parse(tokens: list[Token]) -> list[Pipeline]:
    """Group tokens into pipelines (split on ``;``/``&&``/``||``/``&``)."""
    pipelines: list[Pipeline] = []
    current = Pipeline()
    command = Command()
    carry_condition: Optional[str] = None

    def end_command() -> None:
        nonlocal command
        if command.argv or command.redirect_in or command.redirect_out:
            current.commands.append(command)
        command = Command()

    def end_pipeline(background: bool = False,
                     next_condition: Optional[str] = None) -> None:
        nonlocal current, carry_condition
        end_command()
        if current.commands:
            current.background = background
            current.condition = carry_condition
            pipelines.append(current)
            carry_condition = next_condition
        elif background:
            raise IllegalArgumentException("syntax error near '&'")
        elif next_condition is not None:
            raise IllegalArgumentException(
                f"syntax error near "
                f"'{'&&' if next_condition == 'and' else '||'}'")
        elif carry_condition is not None:
            raise IllegalArgumentException(
                "syntax error: conditional operator with no right-hand "
                "side")
        current = Pipeline()

    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token.kind == "word":
            command.argv.append(token.value)
        elif token.value == "|":
            end_command()
            if not current.commands:
                raise IllegalArgumentException("syntax error near '|'")
        elif token.value in ("<", ">", ">>"):
            if index + 1 >= len(tokens) or tokens[index + 1].kind != "word":
                raise IllegalArgumentException(
                    f"syntax error: {token.value} needs a file name")
            target = tokens[index + 1].value
            if token.value == "<":
                command.redirect_in = target
            else:
                command.redirect_out = target
                command.append_out = token.value == ">>"
            index += 1
        elif token.value == ";":
            end_pipeline()
        elif token.value == "&":
            end_pipeline(background=True)
        elif token.value == "&&":
            end_pipeline(next_condition="and")
        elif token.value == "||":
            end_pipeline(next_condition="or")
        index += 1
    end_pipeline()
    return pipelines


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------

@dataclass
class Job:
    job_id: int
    pipeline_text: str
    applications: list = field(default_factory=list)
    opened_streams: list = field(default_factory=list)
    done: bool = False


# --------------------------------------------------------------------------
# The shell proper
# --------------------------------------------------------------------------

class Shell:
    """One shell session, bound to an application context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.app = ctx.app
        self.last_status = 0
        self.jobs: list[Job] = []
        self._job_counter = 0
        self.exit_requested = False
        self.terminal = Terminal.from_stream(ctx.stdin)
        self._builtins = {
            "cd": self._builtin_cd,
            "pwd": self._builtin_pwd,
            "exit": self._builtin_exit,
            "quit": self._builtin_exit,
            "jobs": self._builtin_jobs,
            "history": self._builtin_history,
            "setprop": self._builtin_setprop,
            "getprop": self._builtin_getprop,
            "help": self._builtin_help,
        }

    # -- substitution ----------------------------------------------------------

    def _substitute(self, line: str) -> str:
        user = self.app.user if self.app is not None else None
        replacements = {
            "$?": str(self.last_status),
            "$USER": user.name if user is not None else "",
            "$HOME": user.home if user is not None else "/",
            "$CWD": self.ctx.cwd,
        }
        for key, value in replacements.items():
            line = line.replace(key, value)
        return line

    # -- one line --------------------------------------------------------------

    def run_line(self, line: str) -> int:
        """Interpret one command line; returns the resulting status."""
        self._reap_jobs()
        try:
            pipelines = parse(tokenize(self._substitute(line)))
        except IllegalArgumentException as exc:
            self.ctx.stderr.println(f"sh: {exc.message}")
            self.last_status = SYNTAX_ERROR_STATUS
            return self.last_status
        for pipeline in pipelines:
            if self.exit_requested:
                break
            if pipeline.condition == "and" and self.last_status != 0:
                continue
            if pipeline.condition == "or" and self.last_status == 0:
                continue
            self.last_status = self._run_pipeline(pipeline, line)
        return self.last_status

    # -- pipelines ------------------------------------------------------------------

    def _run_pipeline(self, pipeline: Pipeline, text: str) -> int:
        commands = pipeline.commands
        # Single builtin command, no pipe: run in-process.
        if (len(commands) == 1 and not pipeline.background
                and commands[0].argv
                and commands[0].argv[0] in self._builtins
                and commands[0].redirect_in is None
                and commands[0].redirect_out is None):
            return self._builtins[commands[0].argv[0]](commands[0].argv[1:])

        # Resolve every command up front so a typo aborts cleanly.
        class_names: list[str] = []
        for command in commands:
            if not command.argv:
                self.ctx.stderr.println("sh: empty command in pipeline")
                return SYNTAX_ERROR_STATUS
            name = command.argv[0]
            if name in self._builtins:
                self.ctx.stderr.println(
                    f"sh: {name}: builtin not allowed in pipeline/background")
                return SYNTAX_ERROR_STATUS
            class_name = self.ctx.vm.tool_path.get(name, name
                                                   if "." in name else None)
            if class_name is None or class_name not in self.ctx.vm.registry:
                self.ctx.stderr.println(f"sh: {name}: command not found")
                return NOT_FOUND_STATUS
            class_names.append(class_name)

        original = (self.app.stdin, self.app.stdout, self.app.stderr)
        opened: list = []        # streams the shell opened (must close)
        applications = []
        try:
            next_stdin = original[0]
            for index, command in enumerate(commands):
                stdin = next_stdin
                if command.redirect_in is not None:
                    stdin = FileInputStream(self.ctx, command.redirect_in)
                    opened.append(stdin)
                reader_to_close = stdin if stdin is not original[0] \
                    else None
                last = index == len(commands) - 1
                writer_to_close = None
                if not last:
                    pipe_reader, pipe_writer = make_pipe(owner=self.app)
                    stdout = PrintStream(pipe_writer)
                    stdout.owner = self.app
                    next_stdin = pipe_reader
                    opened.extend([pipe_reader, pipe_writer])
                    writer_to_close = stdout
                elif command.redirect_out is not None:
                    sink = FileOutputStream(self.ctx, command.redirect_out,
                                            append=command.append_out)
                    stdout = PrintStream(sink)
                    stdout.owner = self.app
                    opened.extend([sink, stdout])
                    writer_to_close = stdout
                else:
                    stdout = original[1]
                # The paper's launch mechanism: temporarily repoint our own
                # streams, exec (the child inherits), then restore.
                self.app.set_streams(stdin=stdin, stdout=stdout)
                try:
                    application = self.ctx.launch(
                        ExecSpec(class_names[index], command.argv[1:]))
                finally:
                    self.app.set_streams(stdin=original[0],
                                         stdout=original[1])
                application.stage_writer = writer_to_close
                application.stage_reader = reader_to_close
                applications.append(application)
        except (IOException, SecurityException) as exc:
            self.ctx.stderr.println(f"sh: {exc}")
            for stream in opened:
                if not stream.closed:
                    stream.close()
            for application in applications:
                application.destroy()
            return 1

        if pipeline.background:
            self._job_counter += 1
            job = Job(self._job_counter, text.strip(), applications, opened)
            self.jobs.append(job)
            self._watch_job(job)
            self.ctx.stdout.println(
                f"[{job.job_id}] {applications[0].app_id}")
            return 0
        return self._wait_pipeline(applications, opened)

    def _wait_pipeline(self, applications: list, opened: list) -> int:
        """Wait for every stage, with Unix pipe semantics.

        As each stage exits, the shell closes the streams *it* created for
        that stage (its close responsibility, Section 5.1): the stage's
        output writer — so the next stage sees end-of-stream — and the
        stage's input reader — so the *previous* stage gets a broken pipe,
        the SIGPIPE analogue that lets ``yes | head -n 4`` terminate.
        """
        status = 0
        last = applications[-1]
        pending = list(applications)
        while pending:
            for application in list(pending):
                code = application.wait_for(timeout=0.02)
                if code is None:
                    continue
                pending.remove(application)
                if application is last:
                    status = code
                writer = getattr(application, "stage_writer", None)
                if writer is not None and not writer.closed:
                    writer.close()
                reader = getattr(application, "stage_reader", None)
                if reader is not None and not reader.closed:
                    reader.close()
        for stream in opened:
            if not stream.closed:
                stream.close()
        return status

    def _watch_job(self, job: Job) -> None:
        """Background watcher thread (inside the shell's own group)."""
        def body() -> None:
            self._wait_pipeline(job.applications, job.opened_streams)
            job.done = True
        JThread(target=body, name=f"job-{job.job_id}",
                group=self.app.thread_group, daemon=True).start()

    def _reap_jobs(self) -> None:
        for job in [j for j in self.jobs if j.done]:
            self.ctx.stdout.println(f"[{job.job_id}] done "
                                    f"{job.pipeline_text}")
            self.jobs.remove(job)

    # -- builtins ---------------------------------------------------------------------

    def _builtin_cd(self, argv: list[str]) -> int:
        user = self.app.user
        target = argv[0] if argv else (user.home if user else "/")
        path = VirtualFileSystem.normalize(target, self.ctx.cwd)
        try:
            jfile = JFile(self.ctx, path)
            if not jfile.is_directory():
                self.ctx.stderr.println(f"cd: {target}: not a directory")
                return 1
        except (IOException, SecurityException) as exc:
            self.ctx.stderr.println(f"cd: {target}: {exc}")
            return 1
        self.app.set_cwd(path)
        return 0

    def _builtin_pwd(self, argv: list[str]) -> int:
        self.ctx.stdout.println(self.ctx.cwd)
        return 0

    def _builtin_exit(self, argv: list[str]) -> int:
        self.exit_requested = True
        return int(argv[0]) if argv and argv[0].isdigit() else 0

    def _builtin_jobs(self, argv: list[str]) -> int:
        self._reap_jobs()
        for job in self.jobs:
            self.ctx.stdout.println(
                f"[{job.job_id}] running {job.pipeline_text}")
        return 0

    def _builtin_history(self, argv: list[str]) -> int:
        if self.terminal is None:
            return 0
        for index, line in enumerate(self.terminal.history, start=1):
            self.ctx.stdout.println(f"{index:4d}  {line}")
        return 0

    def _builtin_setprop(self, argv: list[str]) -> int:
        if len(argv) != 2:
            self.ctx.stderr.println("usage: setprop key value")
            return 1
        self.app.properties.set_property(argv[0], argv[1])
        return 0

    def _builtin_getprop(self, argv: list[str]) -> int:
        if len(argv) != 1:
            self.ctx.stderr.println("usage: getprop key")
            return 1
        value = self.app.properties.get_property(argv[0])
        if value is None:
            try:
                value = self.ctx.system.get_property(argv[0])
            except SecurityException:
                value = None
        self.ctx.stdout.println(value if value is not None else "")
        return 0

    def _builtin_help(self, argv: list[str]) -> int:
        self.ctx.stdout.println(
            "builtins: " + " ".join(sorted(self._builtins)))
        self.ctx.stdout.println(
            "commands: " + " ".join(sorted(self.ctx.vm.tool_path)))
        return 0

    # -- the interactive loop --------------------------------------------------------

    def prompt(self) -> str:
        user = self.app.user.name if self.app is not None else "?"
        host = self.ctx.vm.machine.hostname.split(".")[0]
        return f"{user}@{host}:{self.ctx.cwd}$ "

    def interactive(self) -> int:
        reader = None if self.terminal is not None \
            else LineReader(self.ctx.stdin)
        while not self.exit_requested:
            if self.terminal is not None:
                line = self.terminal.read_string(self.prompt())
            else:
                line = reader.read_line()
            if line is None:
                break
            if not line.strip():
                continue
            try:
                self.run_line(line)
            except JavaThrowable as exc:
                self.ctx.stderr.println(f"sh: {exc}")
                self.last_status = 1
        return self.last_status if self.exit_requested else 0


def build_material() -> ClassMaterial:
    material = ClassMaterial(
        CLASS_NAME, code_source=CODE_SOURCE,
        doc="Bourne-like shell: pipes, redirection, background jobs (§6.1).")

    @material.member
    def main(jclass, ctx, args):
        shell = Shell(ctx)
        if args and args[0] == "-c":
            status = 0
            for line in args[1:]:
                status = shell.run_line(line)
                if shell.exit_requested:
                    break
            return status
        return shell.interactive()

    return material
