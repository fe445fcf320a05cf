"""The utility applications: ls, cat, wc, grep, ps, kill, and friends."""

import time

from repro.core.execspec import ExecSpec
from repro.io.file import read_text, write_text
from repro.io.streams import ByteArrayInputStream, make_pipe


def run_tool(mvm, class_name, args, capture, stdin=None, user=None,
             cwd=None):
    out = capture()
    kwargs = {"stdout": out.stream, "stderr": out.stream}
    if stdin is not None:
        kwargs["stdin"] = stdin
    if user is not None:
        kwargs["user"] = mvm.vm.user_database.lookup(user)
    if cwd is not None:
        kwargs["cwd"] = cwd
    app = mvm.launch(ExecSpec(class_name, args, **kwargs))
    return app.wait_for(10), out.text


class TestLsCat:
    def test_ls_directory(self, host, capture):
        code, text = run_tool(host, "tools.Ls", ["/etc"], capture)
        assert code == 0
        assert "motd" in text.splitlines()

    def test_ls_long_format(self, host, capture):
        __, text = run_tool(host, "tools.Ls", ["-l", "/etc"], capture)
        assert any(line.startswith(("d ", "- ")) for line in
                   text.splitlines())

    def test_ls_missing_path(self, host, capture):
        # /tmp is readable by policy, so the miss surfaces as "not found".
        code, text = run_tool(host, "tools.Ls", ["/tmp/nope"], capture)
        assert code == 1
        assert "no such file" in text

    def test_ls_policy_denied_path(self, host, capture):
        # Outside every grant: denied by the Java policy, not the VFS.
        code, text = run_tool(host, "tools.Ls", ["/nope"], capture)
        assert code == 1
        assert "AccessControlException" in text

    def test_cat_files_and_stdin(self, host, capture):
        write_text(host.initial.context(), "/tmp/c1.txt", "first\n")
        write_text(host.initial.context(), "/tmp/c2.txt", "second\n")
        code, text = run_tool(host, "tools.Cat",
                              ["/tmp/c1.txt", "/tmp/c2.txt"], capture)
        assert code == 0
        assert text == "first\nsecond\n"
        code, text = run_tool(host, "tools.Cat", [], capture,
                              stdin=ByteArrayInputStream(b"piped\n"))
        assert text == "piped\n"

    def test_cat_missing_file_fails(self, host, capture):
        code, text = run_tool(host, "tools.Cat", ["/tmp/ghost"], capture)
        assert code == 1
        assert "FileNotFoundException" in text


class TestTextTools:
    def test_wc_counts(self, host, capture):
        stdin = ByteArrayInputStream(b"a b\nc\n")
        __, text = run_tool(host, "tools.Wc", [], capture, stdin=stdin)
        assert text.strip() == "2 3 6"

    def test_wc_file_and_lines_flag(self, host, capture):
        write_text(host.initial.context(), "/tmp/w.txt", "x\ny\n")
        __, text = run_tool(host, "tools.Wc", ["-l", "/tmp/w.txt"],
                            capture)
        assert text.strip() == "2 /tmp/w.txt"

    def test_head_default_and_n(self, host, capture):
        payload = "".join(f"line{i}\n" for i in range(20)).encode()
        __, text = run_tool(host, "tools.Head", [], capture,
                            stdin=ByteArrayInputStream(payload))
        assert len(text.splitlines()) == 10
        __, text = run_tool(host, "tools.Head", ["-n", "3"], capture,
                            stdin=ByteArrayInputStream(payload))
        assert text.splitlines() == ["line0", "line1", "line2"]

    def test_grep_match_and_status(self, host, capture):
        stdin = ByteArrayInputStream(b"apple\nbanana\npineapple\n")
        code, text = run_tool(host, "tools.Grep", ["apple"], capture,
                              stdin=stdin)
        assert code == 0
        assert text.splitlines() == ["apple", "pineapple"]
        code, __ = run_tool(host, "tools.Grep", ["zzz"], capture,
                            stdin=ByteArrayInputStream(b"abc\n"))
        assert code == 1

    def test_grep_multiple_files_prefixes(self, host, capture):
        ctx = host.initial.context()
        write_text(ctx, "/tmp/g1.txt", "hit\nmiss\n")
        write_text(ctx, "/tmp/g2.txt", "hit too\n")
        __, text = run_tool(host, "tools.Grep",
                            ["hit", "/tmp/g1.txt", "/tmp/g2.txt"], capture)
        assert "/tmp/g1.txt:hit" in text
        assert "/tmp/g2.txt:hit too" in text


class TestIdentityTools:
    def test_whoami(self, host, capture):
        __, text = run_tool(host, "tools.Whoami", [], capture,
                            user="alice")
        assert text.strip() == "alice"

    def test_pwd(self, host, capture):
        __, text = run_tool(host, "tools.Pwd", [], capture, cwd="/etc")
        assert text.strip() == "/etc"


class TestFileTools:
    def test_touch_rm(self, host, capture):
        ctx = host.initial.context()
        code, __ = run_tool(host, "tools.Touch", ["/tmp/t1"], capture)
        assert code == 0
        from repro.io.file import JFile
        assert JFile(ctx, "/tmp/t1").exists()
        code, __ = run_tool(host, "tools.Rm", ["/tmp/t1"], capture)
        assert code == 0
        assert not JFile(ctx, "/tmp/t1").exists()

    def test_mkdir_cp_mv(self, host, capture):
        ctx = host.initial.context()
        run_tool(host, "tools.Mkdir", ["/tmp/d1"], capture)
        write_text(ctx, "/tmp/d1/src.txt", "payload")
        code, __ = run_tool(host, "tools.Cp",
                            ["/tmp/d1/src.txt", "/tmp/d1/dst.txt"],
                            capture)
        assert code == 0
        assert read_text(ctx, "/tmp/d1/dst.txt") == "payload"
        run_tool(host, "tools.Mv",
                 ["/tmp/d1/dst.txt", "/tmp/d1/moved.txt"], capture)
        assert read_text(ctx, "/tmp/d1/moved.txt") == "payload"

    def test_cp_usage_error(self, host, capture):
        code, text = run_tool(host, "tools.Cp", ["only-one"], capture)
        assert code == 2
        assert "usage" in text


class TestProcessTools:
    def test_ps_shows_applications(self, host, capture):
        sleeper = host.launch(ExecSpec("tools.Sleep", ["30"]))
        code, text = run_tool(host, "tools.Ps", [], capture)
        assert code == 0
        assert "AID USER" in text
        assert f"{sleeper.app_id}" in text
        assert "sleep" in text
        sleeper.destroy()
        sleeper.wait_for(5)

    def test_kill_terminates_target(self, host, capture):
        sleeper = host.launch(ExecSpec("tools.Sleep", ["30"]))
        code, __ = run_tool(host, "tools.Kill", [str(sleeper.app_id)],
                            capture)
        assert code == 0
        assert sleeper.wait_for(5) is not None
        assert sleeper.terminated

    def test_kill_bad_arguments(self, host, capture):
        code, text = run_tool(host, "tools.Kill", ["not-a-number"],
                              capture)
        assert code == 1
        code, text = run_tool(host, "tools.Kill", ["99999"], capture)
        assert "no such application" in text

    def test_sleep_sleeps(self, host, capture):
        start = time.monotonic()
        code, __ = run_tool(host, "tools.Sleep", ["0.3"], capture)
        assert code == 0
        assert time.monotonic() - start >= 0.25


class TestYes:
    def test_yes_feeds_pipeline_until_killed(self, host, capture):
        """yes | head — head finishes, the pipe breaks, and the shell's
        teardown stops yes."""
        out = capture()
        app = host.launch(
            ExecSpec("tools.Shell", ["-c", "yes spam | head -n 4"],
                     stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert out.text.splitlines() == ["spam"] * 4


class TestBrokenPipe:
    """A stage whose stdout is gone stops: the SIGPIPE analogue."""

    def _pipeline(self, host, capture, line):
        out = capture()
        app = host.launch(ExecSpec("tools.Shell", ["-c", line],
                                   stdout=out.stream, stderr=out.stream))
        return app.wait_for(10), out.text

    def test_grep_stops_when_head_is_done(self, host, capture):
        code, text = self._pipeline(host, capture,
                                    "yes spam | grep spam | head -n 4")
        assert code == 0
        assert text.splitlines() == ["spam"] * 4

    def test_cat_stops_when_head_is_done(self, host, capture):
        code, text = self._pipeline(host, capture,
                                    "yes spam | cat | head -n 4")
        assert code == 0
        assert text.splitlines() == ["spam"] * 4


class TestBlockLineTools:
    """grep, uniq and head FILE read a block per call and split on
    ``\\n`` only."""

    def test_grep_streams_before_end_of_stream(self, host, capture):
        reader, writer = make_pipe()
        out = capture()
        app = host.launch(ExecSpec("tools.Grep", ["hit"], stdin=reader,
                                   stdout=out.stream, stderr=out.stream))
        writer.write(b"miss\nhit one\n")
        deadline = time.monotonic() + 5.0
        while out.text != "hit one\n" and time.monotonic() < deadline:
            time.sleep(0.005)
        assert out.text == "hit one\n"
        assert app.wait_for(0.05) is None  # still reading, writer open
        writer.write(b"hit two\n")
        writer.close()
        assert app.wait_for(10) == 0
        assert out.text == "hit one\nhit two\n"

    def test_grep_passes_a_2_mib_line_whole(self, host, capture):
        line = "x" * (2 * 1024 * 1024)
        write_text(host.initial.context(), "/tmp/long.txt", line)
        code, text = run_tool(host, "tools.Grep", ["x", "/tmp/long.txt"],
                              capture)
        assert code == 0
        assert text == line + "\n"

    def test_uniq_collapses_runs_across_block_seams(self, host, capture):
        # 20,000 bytes of one line: the run spans three 8 KiB reads.
        stdin = ByteArrayInputStream(b"x\n" * 10000 + b"y\n" + b"x\n")
        __, text = run_tool(host, "tools.Uniq", ["-c"], capture,
                            stdin=stdin)
        assert [line.split() for line in text.splitlines()] == \
            [["10000", "x"], ["1", "y"], ["1", "x"]]

    def test_crlf_file_reads_the_same_as_piped(self, host, capture):
        """A file argument and the same bytes on stdin give the same
        lines: ``\\r`` stays part of the line in both."""
        payload = b"hit one\r\nmiss\rhit two\r\n"
        write_text(host.initial.context(), "/tmp/crlf.txt",
                   payload.decode())
        __, from_file = run_tool(host, "tools.Grep",
                                 ["hit", "/tmp/crlf.txt"], capture)
        __, from_pipe = run_tool(host, "tools.Grep", ["hit"], capture,
                                 stdin=ByteArrayInputStream(payload))
        assert from_file == from_pipe == \
            "hit one\r\nmiss\rhit two\r\n"
        __, head_file = run_tool(host, "tools.Head",
                                 ["-n", "1", "/tmp/crlf.txt"], capture)
        __, head_pipe = run_tool(host, "tools.Head", ["-n", "1"], capture,
                                 stdin=ByteArrayInputStream(payload))
        assert head_file == head_pipe == "hit one\r\n"


class TestSortUniqTee:
    def test_sort_stdin(self, host, capture):
        stdin = ByteArrayInputStream(b"pear\napple\nmango\n")
        __, text = run_tool(host, "tools.Sort", [], capture, stdin=stdin)
        assert text.splitlines() == ["apple", "mango", "pear"]

    def test_sort_reverse_and_files(self, host, capture):
        write_text(host.initial.context(), "/tmp/s.txt", "b\na\nc\n")
        __, text = run_tool(host, "tools.Sort", ["-r", "/tmp/s.txt"],
                            capture)
        assert text.splitlines() == ["c", "b", "a"]

    def test_uniq_adjacent(self, host, capture):
        stdin = ByteArrayInputStream(b"a\na\nb\na\na\na\n")
        __, text = run_tool(host, "tools.Uniq", [], capture, stdin=stdin)
        assert text.splitlines() == ["a", "b", "a"]

    def test_uniq_count(self, host, capture):
        stdin = ByteArrayInputStream(b"x\nx\ny\n")
        __, text = run_tool(host, "tools.Uniq", ["-c"], capture,
                            stdin=stdin)
        assert [line.split() for line in text.splitlines()] == \
            [["2", "x"], ["1", "y"]]

    def test_tee_duplicates_to_file(self, host, capture):
        stdin = ByteArrayInputStream(b"teed\n")
        code, text = run_tool(host, "tools.Tee", ["/tmp/tee.txt"],
                              capture, stdin=stdin)
        assert code == 0
        assert text == "teed\n"
        assert read_text(host.initial.context(), "/tmp/tee.txt") == "teed\n"

    def test_sort_uniq_pipeline(self, host, capture):
        ctx = host.initial.context()
        write_text(ctx, "/tmp/animals.txt", "dog\ncat\ndog\nbird\ncat\n")
        out = capture()
        app = host.launch(
            ExecSpec("tools.Shell",
                     ["-c", "cat /tmp/animals.txt | sort | uniq"],
                     stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert out.text.splitlines() == ["bird", "cat", "dog"]


class TestIdentityAndMisc:
    def test_env_shows_app_properties(self, host, capture):
        out = capture()
        app = host.launch(ExecSpec("tools.Shell",
                                   ["-c", "setprop shape round", "env"],
                                   stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert "java.version=1.2mp-proto" in out.text

    def test_hostname(self, host, capture):
        __, text = run_tool(host, "tools.Hostname", [], capture)
        assert text.strip() == "javaos.example.com"

    def test_id(self, host, capture):
        __, text = run_tool(host, "tools.Id", [], capture, user="bob")
        assert "user=bob" in text
        assert "home=/home/bob" in text

    def test_date_prints_millis(self, host, capture):
        __, text = run_tool(host, "tools.Date", [], capture)
        assert int(text.strip()) > 0

    def test_true_false_statuses(self, host, capture):
        assert run_tool(host, "tools.True", [], capture)[0] == 0
        assert run_tool(host, "tools.False", [], capture)[0] == 1

    def test_true_false_with_conditionals(self, host, capture):
        out = capture()
        app = host.launch(
            ExecSpec("tools.Shell",
                     ["-c", "true && echo yes", "false || echo no"],
                     stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert out.text.splitlines() == ["yes", "no"]


class TestPsLongFormat:
    def test_ps_l_shows_lifetime_stats(self, host, capture):
        sleeper = host.launch(ExecSpec("tools.Sleep", ["30"]))
        code, text = run_tool(host, "tools.Ps", ["-l"], capture)
        assert code == 0
        assert "[threads/streams/windows/children ever]" in text
        sleeper_row = [line for line in text.splitlines()
                       if "sleep#" in line][0]
        assert "[1/0/0/0]" in sleeper_row  # one thread ever, nothing else
        sleeper.destroy()
        sleeper.wait_for(5)

    def test_stats_accumulate(self, host, register_app):
        def main(jclass, ctx, args):
            from repro.io.file import FileOutputStream
            from repro.jvm.threads import JThread
            for index in range(3):
                FileOutputStream(ctx, f"/tmp/stat{index}.txt").close()
            worker = JThread(target=lambda: None, daemon=False)
            worker.start()
            worker.join(2)
            return 0

        app = host.launch(ExecSpec(register_app("StatApp", main)))
        assert app.wait_for(10) == 0
        assert app.stats["streams"] == 3
        assert app.stats["threads"] == 2  # main + one worker


class TestVmstat:
    def test_vmstat_prints_proc_vmstat(self, host, capture):
        code, text = run_tool(host, "tools.Vmstat", [], capture)
        assert code == 0
        assert "apps.launched\t" in text

    def test_vmstat_is_refused_where_cat_is(self, capture):
        """Without a grant to read /proc, ``vmstat`` fails exactly like
        ``cat /proc/vmstat`` and prints no telemetry."""
        from repro.core.launcher import DEFAULT_POLICY, MultiProcVM
        from repro.security.policy import parse_policy
        text = "\n".join(line for line in DEFAULT_POLICY.splitlines()
                         if 'FilePermission "/proc' not in line)
        mvm = MultiProcVM.boot(policy=parse_policy(text))
        try:
            with mvm.host_session():
                cat_code, cat_text = run_tool(
                    mvm, "tools.Cat", ["/proc/vmstat"], capture)
                code, output = run_tool(mvm, "tools.Vmstat", [], capture)
        finally:
            mvm.shutdown()
        assert cat_code == 1
        assert "AccessControlException" in cat_text
        assert code == 1
        assert "AccessControlException" in output
        assert "\t" not in output
