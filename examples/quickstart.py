#!/usr/bin/env python
"""Quickstart: boot the multi-processing JVM, log in, use the shell.

Reproduces the paper's basic workflow (Sections 5.2 and 6): a terminal is
attached to the VM, the login program authenticates Alice, a shell is
spawned with her identity, and commands run as applications — with
Section 5.3's user-based access control visibly enforced.

Run with::

    python examples/quickstart.py
"""

from repro import ExecSpec, MultiProcVM, TerminalDevice


def main() -> None:
    mvm = MultiProcVM.boot()
    console = TerminalDevice("console")
    mvm.vm.consoles["console"] = console

    with mvm.host_session():
        terminal_app = mvm.launch(ExecSpec("tools.Terminal", ["console"]))

        # --- the user sits down and logs in -----------------------------
        console.wait_for_output("login: ")
        console.type_line("alice")
        console.wait_for_output("Password: ")
        console.type_line("wonderland")  # not echoed: the terminal's
        console.wait_for_output("$ ")    # echo is off during entry

        # --- a session: applications, pipes, redirection, policy --------
        for command in (
                "whoami",
                "ls /home/alice",
                "cat /home/alice/notes.txt",
                "echo hello multi-processing JVM > /tmp/greeting.txt",
                "cat /tmp/greeting.txt | wc",
                "cat /home/bob/todo.txt",   # denied: bob's home
                "ps",
                "exit",
        ):
            console.type_line(command)
        console.wait_for_output("logged out")
        console.hang_up()
        terminal_app.wait_for(5)

    print(console.transcript())
    mvm.shutdown()
    print("--- VM terminated cleanly ---")


if __name__ == "__main__":
    main()
