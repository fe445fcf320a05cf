"""Shell execution: pipelines, redirection, jobs, builtins (Section 6.1)."""

import time

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text, write_text
from repro.io.streams import make_pipe


def run_shell(mvm, lines, capture, user=None, cwd=None, timeout=10.0):
    """Run shell lines via ``sh -c`` and return (exit_code, output)."""
    out = capture()
    kwargs = {"stdout": out.stream, "stderr": out.stream}
    if user is not None:
        kwargs["user"] = mvm.vm.user_database.lookup(user)
    if cwd is not None:
        kwargs["cwd"] = cwd
    app = mvm.launch(ExecSpec("tools.Shell", ["-c", *lines], **kwargs))
    code = app.wait_for(timeout)
    return code, out.text


class TestSimpleCommands:
    def test_echo(self, host, capture):
        code, text = run_shell(host, ["echo hello world"], capture)
        assert code == 0
        assert text == "hello world\n"

    def test_echo_n(self, host, capture):
        __, text = run_shell(host, ["echo -n no-newline"], capture)
        assert text == "no-newline"

    def test_command_not_found_status_127(self, host, capture):
        code, text = run_shell(host, ["frobnicate", "echo rc=$?"], capture)
        assert "frobnicate: command not found" in text
        assert "rc=127" in text

    def test_quoting_preserves_arguments(self, host, capture):
        __, text = run_shell(host, ["echo 'a | b' \"c d\""], capture)
        assert text == "a | b c d\n"

    def test_fully_qualified_class_name_runs(self, host, capture):
        code, text = run_shell(host, ["tools.Echo via-class"], capture)
        assert code == 0
        assert text == "via-class\n"

    def test_sequencing_and_status(self, host, capture):
        __, text = run_shell(
            host, ["echo one; echo two ; echo rc=$?"], capture)
        assert text.splitlines() == ["one", "two", "rc=0"]


class TestPipes:
    def test_two_stage_pipeline(self, host, capture):
        code, text = run_shell(host, ["echo a b c | wc"], capture)
        assert code == 0
        assert text.strip() == "1 3 6"

    def test_three_stage_pipeline(self, host, capture):
        write_text(host.initial.context(), "/tmp/pets.txt",
                   "cat\ndog\ncatfish\nbird\n")
        code, text = run_shell(
            host, ["cat /tmp/pets.txt | grep cat | wc -l"], capture)
        assert code == 0
        assert text.strip() == "2"

    def test_pipeline_status_is_last_stage(self, host, capture):
        __, text = run_shell(
            host, ["echo x | grep nomatch", "echo rc=$?"], capture)
        assert "rc=1" in text  # grep without match exits 1

    def test_unknown_command_aborts_whole_pipeline(self, host, capture):
        code, text = run_shell(host, ["echo x | bogus | wc"], capture)
        assert "bogus: command not found" in text


class TestRedirection:
    def test_output_redirect_creates_file(self, host, capture):
        code, __ = run_shell(host, ["echo content > /tmp/out.txt"],
                             capture)
        assert code == 0
        assert read_text(host.initial.context(), "/tmp/out.txt") \
            == "content\n"

    def test_append_redirect(self, host, capture):
        run_shell(host, ["echo one > /tmp/app.txt",
                         "echo two >> /tmp/app.txt"], capture)
        assert read_text(host.initial.context(), "/tmp/app.txt") \
            == "one\ntwo\n"

    def test_input_redirect(self, host, capture):
        write_text(host.initial.context(), "/tmp/in.txt", "x\ny\nz\n")
        __, text = run_shell(host, ["wc -l < /tmp/in.txt"], capture)
        assert text.strip() == "3"

    def test_redirect_to_unwritable_path_reports_error(self, host,
                                                       capture):
        code, text = run_shell(host, ["echo x > /etc/forbidden.txt"],
                               capture)
        assert "sh:" in text

    def test_pipeline_with_both_redirections(self, host, capture):
        write_text(host.initial.context(), "/tmp/nums.txt", "1\n2\n3\n")
        run_shell(host,
                  ["grep 2 < /tmp/nums.txt > /tmp/two.txt"], capture)
        assert read_text(host.initial.context(), "/tmp/two.txt") == "2\n"


class TestBuiltins:
    def test_cd_and_pwd(self, host, capture):
        __, text = run_shell(host, ["pwd", "cd /tmp", "pwd"], capture)
        assert text.splitlines() == ["/", "/tmp"]

    def test_cd_affects_relative_paths(self, host, capture):
        write_text(host.initial.context(), "/tmp/here.txt", "found\n")
        __, text = run_shell(host, ["cd /tmp", "cat here.txt"], capture)
        assert "found" in text

    def test_cd_to_missing_directory(self, host, capture):
        __, text = run_shell(host, ["cd /no/such", "echo rc=$?"], capture)
        assert "cd:" in text
        assert "rc=1" in text

    def test_setprop_getprop(self, host, capture):
        __, text = run_shell(
            host, ["setprop color teal", "getprop color"], capture)
        assert "teal" in text

    def test_getprop_falls_back_to_system_property(self, host, capture):
        __, text = run_shell(host, ["getprop java.version"], capture)
        assert "1.2mp-proto" in text

    def test_help_lists_commands(self, host, capture):
        __, text = run_shell(host, ["help"], capture)
        assert "builtins:" in text
        assert "cd" in text
        assert "ls" in text

    def test_exit_stops_script(self, host, capture):
        code, text = run_shell(host, ["echo before", "exit 3",
                                      "echo after"], capture)
        assert code == 3
        assert "before" in text
        assert "after" not in text

    def test_variables_user_home_cwd(self, host, capture):
        code, text = run_shell(host, ["echo $USER $HOME $CWD"], capture,
                               user="alice", cwd="/tmp")
        assert text.strip() == "alice /home/alice /tmp"


class TestBackgroundJobs:
    def test_background_returns_immediately(self, host, capture):
        start = time.monotonic()
        code, text = run_shell(host, ["sleep 2 &", "echo prompt-back"],
                               capture)
        assert code == 0
        assert time.monotonic() - start < 1.5
        assert "prompt-back" in text
        assert "[1]" in text

    def test_jobs_lists_running_then_done(self, host, capture):
        out = capture()
        app = host.launch(ExecSpec("tools.Shell",
                                   ["-c", "sleep 0.2 &", "jobs", "sleep 0.5",
                                    "jobs"],
                                   stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert "running sleep 0.2 &" in out.text
        assert "done" in out.text

    def test_syntax_error_status(self, host, capture):
        code, text = run_shell(host, ["echo 'unterminated"], capture)
        assert "sh:" in text
        assert code == 2


class TestStreamResponsibility:
    def test_shell_closes_pipe_streams_after_pipeline(self, host,
                                                      capture):
        """Section 5.1: the shell closes the streams it created once the
        application finishes."""
        out = capture()
        app = host.launch(ExecSpec("tools.Shell", ["-c", "echo data | wc"],
                                   stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        # If the shell failed to close the pipe write end, wc would hang
        # forever and wait_for above would time out; reaching here with
        # output proves the close responsibility was honoured.
        assert out.text.strip() == "1 1 5"

    def test_shell_and_child_share_piped_stdin(self, host, capture):
        """Section 5.1: the shell reads one command line from its stdin,
        the child it runs reads the next line from the same stream, and
        the shell resumes after it — so no line read may read ahead."""
        reader, writer = make_pipe()
        writer.write(b"head -n 1\nline-for-head\necho after\n")
        writer.close()
        out = capture()
        app = host.launch(ExecSpec("tools.Shell", [], stdin=reader,
                                   stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert out.text == "line-for-head\nafter\n"


class TestConditionalExecution:
    def test_and_runs_on_success(self, host, capture):
        __, text = run_shell(host, ["echo first && echo second"], capture)
        assert text.splitlines() == ["first", "second"]

    def test_and_skipped_on_failure(self, host, capture):
        __, text = run_shell(
            host, ["grep x /tmp/definitely-missing && echo not-shown"],
            capture)
        assert "not-shown" not in text

    def test_or_runs_on_failure(self, host, capture):
        __, text = run_shell(
            host, ["cat /tmp/definitely-missing || echo recovered"],
            capture)
        assert "recovered" in text

    def test_or_skipped_on_success(self, host, capture):
        __, text = run_shell(host, ["echo fine || echo not-shown"],
                             capture)
        assert "not-shown" not in text

    def test_chain_and_then_or(self, host, capture):
        __, text = run_shell(
            host,
        ["mkdir /tmp/chained && echo made || echo failed"], capture)
        assert "made" in text
        assert "failed" not in text

    def test_failing_chain_falls_through(self, host, capture):
        __, text = run_shell(
            host, ["cat /tmp/nope && echo skipped || echo fallback"],
            capture)
        assert "skipped" not in text
        assert "fallback" in text
