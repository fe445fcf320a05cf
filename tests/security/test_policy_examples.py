"""Experiment S1: the four example policy rules of Section 5.3, enforced
end-to-end in the multi-processing VM with real files and real users.

    1. All local applications can exercise their respective running users'
       permissions.
    2. The backup application can read all files.
    3. User Alice can access all files in /home/alice.
    4. User Bob can access all files in /home/bob.
"""

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text, write_text
from repro.jvm.errors import SecurityException


def run_reader(mvm, register_app, capture, path, user_name,
               code_source="local"):
    """Launch an app that reads ``path``, running as ``user_name``."""
    out = capture()

    def main(jclass, ctx, args):
        try:
            ctx.stdout.print(read_text(ctx, args[0]))
        except SecurityException as exc:
            ctx.stdout.println(f"DENIED {type(exc).__name__}")
        return 0

    class_name = register_app(f"Reader{user_name.title()}", main,
                              code_source=code_source)
    user = mvm.vm.user_database.lookup(user_name)
    app = mvm.launch(
        ExecSpec(class_name, [path], user=user, stdout=out.stream))
    assert app.wait_for(5) == 0
    return out.text


class TestRule1LocalAppsExerciseUserPermissions:
    def test_local_app_reads_running_users_files(self, host, register_app,
                                                 capture):
        text = run_reader(host, register_app, capture,
                          "/home/alice/notes.txt", "alice")
        assert "private notes" in text

    def test_remote_code_gets_no_user_permissions(self, host, register_app,
                                                  capture):
        """Same user, but the code's origin is remote: no UserPermission,
        so Alice's grants do not apply."""
        text = run_reader(host, register_app, capture,
                          "/home/alice/notes.txt", "alice",
                          code_source="http://remote.example.com/R.class")
        assert "DENIED" in text

    def test_user_permissions_follow_the_running_user(self, host,
                                                      register_app, capture):
        """The *same* local program run by Bob cannot read Alice's files
        (the Section 4 motivation: "When run by Alice, it should be
        allowed to read Alice's files, while when run by Bob it
        shouldn't")."""
        denied = run_reader(host, register_app, capture,
                            "/home/alice/notes.txt", "bob")
        assert "DENIED" in denied
        allowed = run_reader(host, register_app, capture,
                             "/home/bob/todo.txt", "bob")
        assert "todo" in allowed


class TestRule2BackupReadsAllFiles:
    def test_backup_reads_both_homes(self, host, capture):
        out = capture()
        app = host.launch(
            ExecSpec("apps.Backup",
                     ["/home/alice/notes.txt", "/home/bob/todo.txt"],
                     stdout=out.stream, stderr=out.stream))
        assert app.wait_for(5) == 0
        assert "backed up 2 file(s)" in out.text

    def test_backup_content_lands_in_var_backup(self, host, capture):
        out = capture()
        app = host.launch(ExecSpec("apps.Backup", ["/home/alice/notes.txt"],
                                   stdout=out.stream, stderr=out.stream))
        app.wait_for(5)
        ctx = host.initial.context()
        assert "private notes" in read_text(
            ctx, "/var/backup/home_alice_notes.txt")

    def test_backup_cannot_write_elsewhere(self, host, register_app,
                                           capture):
        """Rule 2 grants *read* everywhere, not write."""
        out = capture()

        def main(jclass, ctx, args):
            try:
                write_text(ctx, "/etc/pwned", "data")
                ctx.stdout.println("WROTE")
            except SecurityException:
                ctx.stdout.println("DENIED")
            return 0

        class_name = register_app(
            "EvilBackup", main,
            code_source="file:/usr/local/java/apps/backup/Evil.class")
        app = host.launch(ExecSpec(class_name, [], stdout=out.stream))
        app.wait_for(5)
        assert "DENIED" in out.text


class TestRules3And4UserHomes:
    def test_alice_full_access_to_own_home(self, host, register_app,
                                           capture):
        out = capture()

        def main(jclass, ctx, args):
            write_text(ctx, "/home/alice/scratch.txt", "scratch")
            ctx.stdout.println(read_text(ctx, "/home/alice/scratch.txt"))
            from repro.io.file import JFile
            JFile(ctx, "/home/alice/scratch.txt").delete()
            ctx.stdout.println("cycle-done")
            return 0

        class_name = register_app("AliceHome", main)
        alice = host.vm.user_database.lookup("alice")
        app = host.launch(
            ExecSpec(class_name, [], user=alice, stdout=out.stream,
                     stderr=out.stream))
        assert app.wait_for(5) == 0
        assert "scratch" in out.text
        assert "cycle-done" in out.text

    def test_cross_home_denied_both_directions(self, host, register_app,
                                               capture):
        for user_name, victim in (("alice", "/home/bob/todo.txt"),
                                  ("bob", "/home/alice/notes.txt")):
            text = run_reader(host, register_app, capture, victim,
                              user_name)
            assert "DENIED" in text, (user_name, victim)

    def test_null_user_has_no_home_grants(self, host, register_app,
                                          capture):
        """The bootstrap null user has no policy grants at all."""
        out = capture()

        def main(jclass, ctx, args):
            try:
                read_text(ctx, "/home/alice/notes.txt")
                ctx.stdout.println("READ")
            except SecurityException:
                ctx.stdout.println("DENIED")
            return 0

        class_name = register_app("NobodyReader", main)
        app = host.launch(ExecSpec(class_name, [], stdout=out.stream))
        app.wait_for(5)
        assert "DENIED" in out.text
