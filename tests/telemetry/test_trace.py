"""Span tracing: cross-application nesting and the JSONL lifecycle trace."""

import json
import time

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text

pytestmark = pytest.mark.telemetry


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def spans(records, name, app=None):
    return [r for r in records
            if r["kind"] == "span" and r["name"] == name
            and (app is None or r["app"] == app)]


class TestSpanNesting:
    def test_exec_nests_across_applications(self, host, register_app):
        """A child's ``app.exec`` span is opened on the *parent's* main
        thread, so the trace shows exec nesting across applications."""
        tracer = host.vm.telemetry.tracer
        tracer.enable()
        try:
            def child_main(jclass, ctx, args):
                return 0

            child_class = register_app("TraceChild", child_main)

            def parent_main(jclass, ctx, args):
                child = ctx.launch(ExecSpec(child_class, [], name="tchild"))
                child.wait_for(5)
                return 0

            parent_class = register_app("TraceParent", parent_main)
            app = host.launch(ExecSpec(parent_class, [], name="tparent"))
            assert app.wait_for(10) == 0
            assert wait_until(
                lambda: spans(tracer.records(), "app.main", "tchild"))

            records = tracer.records()
            parent_exec = spans(records, "app.exec", "tparent")[0]
            parent_main_span = spans(records, "app.main", "tparent")[0]
            child_exec = spans(records, "app.exec", "tchild")[0]
            child_main_span = spans(records, "app.main", "tchild")[0]

            assert parent_main_span["parent"] == parent_exec["span"]
            assert child_exec["parent"] == parent_main_span["span"]
            assert child_main_span["parent"] == child_exec["span"]
        finally:
            tracer.disable()


class TestLifecycleTrace:
    def test_jsonl_round_trip_covers_the_kernel(self, host, register_app,
                                                tmp_path):
        """Acceptance: with tracing on, one exec/waitFor/exit lifecycle
        exports a JSONL trace containing lifecycle spans, an AWT dispatch
        span, and at least one audited security-check event."""
        tracer = host.vm.telemetry.tracer
        tracer.enable()
        try:
            def main(jclass, ctx, args):
                read_text(ctx, "/etc/motd")  # audited file-read check
                return 0

            class_name = register_app("TraceLife", main)
            app = host.launch(ExecSpec(class_name, [], name="tlife"))
            assert app.wait_for(10) == 0
            host.toolkit.dispatcher.invoke_and_wait(lambda: None,
                                                    application=host.initial)
            # The lifecycle span is closed by the reaper, asynchronously.
            assert wait_until(
                lambda: spans(tracer.records(), "app.lifecycle", "tlife"))

            target = tmp_path / "trace.jsonl"
            count = tracer.export_jsonl(str(target))
            lines = target.read_text().splitlines()
            assert len(lines) == count > 0
            records = [json.loads(line) for line in lines]

            assert spans(records, "app.exec", "tlife")
            assert spans(records, "app.main", "tlife")
            lifecycle = spans(records, "app.lifecycle", "tlife")[0]
            assert lifecycle["exit_code"] == 0
            assert [r for r in records if r["kind"] == "event"
                    and r["name"] == "app.exit" and r["app"] == "tlife"]
            assert spans(records, "awt.dispatch")
            checks = [r for r in records if r["kind"] == "event"
                      and r["name"] == "security.check"]
            assert any(c.get("granted") for c in checks)
        finally:
            tracer.disable()

    def test_noop_when_not_recording(self, host):
        """The guarded fast path: no listener, no records."""
        tracer = host.vm.telemetry.tracer
        span = tracer.span("anything", app="x")
        assert span.span_id is None
        span.end()
        assert tracer.records(app="x") == []
