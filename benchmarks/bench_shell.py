"""Experiment C7 — shell pipelines end to end (Section 6.1).

Measures what a user of the multi-processing JVM actually experiences:
the latency of simple commands, of multi-stage pipelines (each stage a
separate application connected by in-VM pipes), and of I/O redirection.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner, bench_mvm  # noqa: E402,F401

from repro.core.execspec import ExecSpec  # noqa: E402
from repro.io.file import write_text  # noqa: E402
from repro.io.streams import ByteArrayOutputStream, PrintStream  # noqa: E402


def run_lines(mvm, lines, expect=None):
    sink = ByteArrayOutputStream()
    app = mvm.launch(
        ExecSpec("tools.Shell", ["-c", *lines],
                 stdout=PrintStream(sink), stderr=PrintStream(sink)))
    assert app.wait_for(30) == 0
    if expect is not None:
        assert expect in sink.to_text(), sink.to_text()


def test_bench_simple_command(benchmark, bench_mvm):
    with bench_mvm.host_session():
        benchmark.pedantic(
            lambda: run_lines(bench_mvm, ["echo ping"], "ping"),
            rounds=20, iterations=1, warmup_rounds=3)
    print(banner("C7: shell round trip, one command (echo)"))
    print(f"mean: {benchmark.stats.stats.mean * 1000:8.2f} ms")


def test_bench_two_stage_pipeline(benchmark, bench_mvm):
    with bench_mvm.host_session():
        benchmark.pedantic(
            lambda: run_lines(bench_mvm, ["echo a b c | wc"], "1 3 6"),
            rounds=20, iterations=1, warmup_rounds=3)
    print(banner("C7: two-stage pipeline (echo | wc)"))
    print(f"mean: {benchmark.stats.stats.mean * 1000:8.2f} ms")


def test_bench_three_stage_pipeline(benchmark, bench_mvm):
    ctx = bench_mvm.initial.context()
    write_text(ctx, "/tmp/bench-words.txt",
               "".join(f"word{i} match\n" if i % 3 == 0 else f"word{i}\n"
                       for i in range(300)))
    with bench_mvm.host_session():
        benchmark.pedantic(
            lambda: run_lines(
                bench_mvm,
                ["cat /tmp/bench-words.txt | grep match | wc -l"], "100"),
            rounds=10, iterations=1, warmup_rounds=2)
    print(banner("C7: three-stage pipeline (cat | grep | wc)"))
    print(f"mean: {benchmark.stats.stats.mean * 1000:8.2f} ms")


def test_bench_redirection(benchmark, bench_mvm):
    with bench_mvm.host_session():
        benchmark.pedantic(
            lambda: run_lines(
                bench_mvm,
                ["echo redirected > /tmp/bench-out.txt",
                 "cat /tmp/bench-out.txt"], "redirected"),
            rounds=10, iterations=1, warmup_rounds=2)
    print(banner("C7: output redirection + read back"))
    print(f"mean: {benchmark.stats.stats.mean * 1000:8.2f} ms")


def test_bench_parse_only(benchmark):
    """The shell's own parsing cost, isolated from application launch."""
    from repro.tools.shell import parse, tokenize
    line = "cat /tmp/a.txt | grep 'needle in hay' | wc -l > /tmp/out & " \
           "echo done"

    def parse_line():
        pipelines = parse(tokenize(line))
        assert len(pipelines) == 2

    benchmark(parse_line)
    print(banner("C7: tokenizer+parser micro-cost"))
    print(f"mean: {benchmark.stats.stats.mean * 1e6:8.2f} us")
