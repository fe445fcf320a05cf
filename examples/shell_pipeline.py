#!/usr/bin/env python
"""A scripted shell session: pipes, redirection, and background jobs.

Every stage of every pipeline is a separate *application* (its own thread
group, loader, and System copy) connected through in-VM pipes — the
Section 6.1 machinery, driven non-interactively via ``sh -c``.

Run with::

    python examples/shell_pipeline.py
"""

from repro import ExecSpec, MultiProcVM
from repro.io.file import write_text
from repro.io.streams import ByteArrayOutputStream, PrintStream

SESSION = [
    "echo The multi-processing JVM shell",
    "mkdir /tmp/demo",
    "echo alpha > /tmp/demo/words.txt",
    "echo beta >> /tmp/demo/words.txt",
    "echo gamma >> /tmp/demo/words.txt",
    "cat /tmp/demo/words.txt",
    "cat /tmp/demo/words.txt | grep a | wc -l",
    "cat /tmp/demo/words.txt | wc > /tmp/demo/counts.txt",
    "cat /tmp/demo/counts.txt",
    "ls -l /tmp/demo",
    "sleep 0.2 &",
    "jobs",
    "whoami; pwd",
    "yes spam | head -n 3",
    "echo exit status of the last pipeline: $?",
]


def main() -> None:
    mvm = MultiProcVM.boot()
    with mvm.host_session():
        sink = ByteArrayOutputStream()
        stream = PrintStream(sink)
        alice = mvm.vm.user_database.lookup("alice")
        shell = mvm.launch(ExecSpec("tools.Shell", ["-c", *SESSION],
                                    user=alice, stdout=stream, stderr=stream))
        code = shell.wait_for(30)
        print(sink.to_text())
        print(f"(shell exited with status {code})")
    mvm.shutdown()


if __name__ == "__main__":
    main()
