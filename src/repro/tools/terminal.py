"""The Java terminal of Section 6.2.

    "There are a number of reasons for implementing an independent Java
    terminal. ...  there is no standard way to turn off echoing of the
    underlying terminal (needed for password entry), or to provide
    functionality similar to the GNU readline library."

Three layers, matching the paper:

* :class:`TerminalDevice` — the simulated physical console: a keyboard
  buffer the test/user injects into, an output transcript, and the echo
  flag.  This plays the role of the real tty.
* :class:`Terminal` — the Java-side object with "a few methods to read from
  and write to the terminal, and to switch echoing on and off", plus the
  readline-style :meth:`read_string` with a history buffer.
* the ``tools.Terminal`` application — binds a device, points its own
  standard streams at the terminal, and spawns a child (login by default)
  that *inherits* those streams, exactly as described: "applications can
  just read and write to System.in and System.out (which are connected to
  the Java terminal, as inherited from the Terminal application itself)".

Applications that want "more control over the terminal" recover the
terminal object from their standard input via :meth:`Terminal.from_stream`
— and keep working on plain pipes when there is none (the ``cat`` case).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.execspec import ExecSpec
from repro.io.streams import InputStream, OutputStream, PrintStream
from repro.jvm.classloading import ClassMaterial
from repro.sched.timers import wait_until
from repro.security.codesource import CodeSource

CLASS_NAME = "tools.Terminal"
CODE_SOURCE = CodeSource("file:/usr/local/java/tools/terminal/Terminal.class")


class TerminalDevice:
    """The simulated console hardware: keyboard in, transcript out."""

    def __init__(self, name: str = "console"):
        self.name = name
        self._keys: list[str] = []
        self._cond = threading.Condition()
        self._transcript: list[str] = []
        self.echo = True
        self.closed = False

    # -- the human side (tests, examples) ------------------------------------

    def type_text(self, text: str) -> None:
        """The user types ``text`` (echoed to the transcript if echo on)."""
        with self._cond:
            for char in text:
                self._keys.append(char)
                if self.echo:
                    self._transcript.append(char)
            self._cond.notify_all()

    def type_line(self, line: str) -> None:
        self.type_text(line + "\n")

    def transcript(self) -> str:
        """Everything visible on the screen so far."""
        with self._cond:
            return "".join(self._transcript)

    def wait_for_output(self, needle: str, timeout: float = 5.0) -> bool:
        """Poll until ``needle`` appears on the screen (test helper)."""
        from repro.sched.timers import poll_until
        return poll_until(lambda: needle in self.transcript(),
                          timeout=timeout)

    def hang_up(self) -> None:
        """The user disconnects; reads return end-of-stream."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    # -- the terminal side ------------------------------------------------------

    def read_char(self) -> Optional[str]:
        """Block for one keystroke; None when the device is hung up."""
        with self._cond:
            wait_until(self._cond,
                       lambda: self._keys or self.closed)
            if self._keys:
                return self._keys.pop(0)
            return None

    def write_output(self, text: str) -> None:
        with self._cond:
            self._transcript.append(text)

    def set_echo(self, enabled: bool) -> None:
        with self._cond:
            self.echo = enabled


class TerminalInputStream(InputStream):
    """Byte stream over the device keyboard; carries the Terminal handle."""

    def __init__(self, terminal: "Terminal"):
        super().__init__()
        self.terminal = terminal

    def read(self, size: int = -1) -> bytes:
        self._ensure_open()
        char = self.terminal.device.read_char()
        if char is None:
            return b""
        return char.encode("utf-8")


class TerminalOutputStream(OutputStream):
    """Byte stream onto the device screen; carries the Terminal handle."""

    def __init__(self, terminal: "Terminal"):
        super().__init__()
        self.terminal = terminal

    def write(self, payload: bytes) -> None:
        self._ensure_open()
        self.terminal.device.write_output(
            payload.decode("utf-8", errors="replace"))


class Terminal:
    """The terminal object of Section 6.2."""

    def __init__(self, device: TerminalDevice, history_size: int = 100):
        self.device = device
        self.history: list[str] = []
        self.history_size = history_size
        self.input = TerminalInputStream(self)
        self.output = PrintStream(TerminalOutputStream(self))

    # -- echo control (password entry) ------------------------------------------

    def turn_echo_off(self) -> None:
        self.device.set_echo(False)

    def turn_echo_on(self) -> None:
        self.device.set_echo(True)

    # -- basic I/O -----------------------------------------------------------------

    def write(self, text: str) -> None:
        self.device.write_output(text)

    def println(self, text: str = "") -> None:
        self.device.write_output(text + "\n")

    def _read_raw_line(self) -> Optional[str]:
        buffer: list[str] = []
        while True:
            char = self.device.read_char()
            if char is None:
                return "".join(buffer) if buffer else None
            if char == "\n":
                return "".join(buffer)
            if char == "\b":
                if buffer:
                    buffer.pop()
                continue
            buffer.append(char)

    # -- the advanced reader (readline/history, Section 6.2) -------------------------

    def read_string(self, prompt: str = "") -> Optional[str]:
        """Read a line with history expansion (``!!`` and ``!N``).

        Returns None on hang-up.  The shell uses this when connected to a
        terminal, "giving the user features like a history buffer".
        """
        if prompt:
            self.write(prompt)
        line = self._read_raw_line()
        if line is None:
            return None
        expanded = self._expand_history(line)
        if expanded != line:
            self.println(expanded)
        if expanded.strip():
            self.history.append(expanded)
            if len(self.history) > self.history_size:
                self.history.pop(0)
        return expanded

    def _expand_history(self, line: str) -> str:
        stripped = line.strip()
        if stripped == "!!":
            return self.history[-1] if self.history else ""
        if stripped.startswith("!") and stripped[1:].isdigit():
            index = int(stripped[1:]) - 1
            if 0 <= index < len(self.history):
                return self.history[index]
            return ""
        return line

    def read_password(self, prompt: str = "Password: ") -> Optional[str]:
        """Echo-off line read — "the login application uses the
        turnEchoOff method before asking for a password"."""
        self.turn_echo_off()
        try:
            if prompt:
                self.write(prompt)
            line = self._read_raw_line()
        finally:
            self.turn_echo_on()
            self.println()
        return line

    # -- discovery from standard streams --------------------------------------------

    @staticmethod
    def from_stream(stream) -> Optional["Terminal"]:
        """The terminal behind a standard stream, if any.

        "Other applications like cat only use the standard streams, and
        therefore also work if they are not run from a terminal (such as
        when they are used in a pipe)" — for those, this returns None.
        """
        target = stream
        seen = set()
        while target is not None and id(target) not in seen:
            seen.add(id(target))
            terminal = getattr(target, "terminal", None)
            if terminal is not None:
                return terminal
            target = getattr(target, "target", None) \
                or getattr(target, "_out", None)
        return None


def build_material() -> ClassMaterial:
    """The ``tools.Terminal`` application.

    ``args[0]`` names a :class:`TerminalDevice` registered in
    ``vm.consoles``; ``args[1]`` (optional, default ``tools.Login``) is the
    class to spawn connected to the terminal.
    """
    material = ClassMaterial(CLASS_NAME, code_source=CODE_SOURCE,
                             doc="The Java terminal application (§6.2).")

    @material.member
    def main(jclass, ctx, args):
        device_name = args[0] if args else "console"
        child_class = args[1] if len(args) > 1 else "tools.Login"
        device = ctx.vm.consoles.get(device_name)
        if device is None:
            ctx.stderr.println(f"terminal: no such device: {device_name}")
            return 1
        terminal = Terminal(device)
        # Point our own standard streams at the terminal; children inherit.
        ctx.system.set_in(terminal.input)
        ctx.system.set_out(terminal.output)
        ctx.system.set_err(terminal.output)
        while not device.closed:
            child = ctx.launch(ExecSpec(child_class, []))
            child.wait_for()
        return 0

    return material
