"""The /proc introspection surface and its owning-user gate."""

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text
from repro.jvm.errors import (
    FileNotFoundException,
    IOException,
    SecurityException,
)
from repro.jvm.threads import JThread

pytestmark = pytest.mark.telemetry


def run_probe(host, register_app, probe_name, body, user=None, **kwargs):
    """Run ``body(ctx)`` inside a fresh application; returns its result."""
    outcome = {}

    def main(jclass, ctx, args):
        try:
            outcome["result"] = body(ctx)
        except Exception as exc:  # noqa: BLE001 - relayed to the test
            outcome["error"] = exc
        return 0

    app = host.launch(
        ExecSpec(register_app(probe_name, main), [], user=user, **kwargs))
    assert app.wait_for(10) == 0
    return app, outcome


class TestProcSurface:
    def test_application_reads_its_own_status_and_metrics(self, host,
                                                          register_app):
        alice = host.vm.user_database.lookup("alice")

        def body(ctx):
            me = ctx.app.app_id
            return (read_text(ctx, f"/proc/{me}/status"),
                    read_text(ctx, f"/proc/{me}/metrics"))

        app, outcome = run_probe(host, register_app, "SelfProc", body,
                                 user=alice, name="selfproc")
        assert "error" not in outcome, outcome.get("error")
        status, metrics = outcome["result"]
        assert "Name:\tselfproc" in status
        assert "User:\talice" in status
        assert f"Id:\t{app.app_id}" in status
        assert "app.threads.started{app=selfproc}" in metrics

    def test_other_users_telemetry_looks_absent(self, host, register_app):
        """Feature 3 asymmetry: Bob reading Alice's /proc entry gets
        FileNotFoundException, exactly like her home directory."""
        alice = host.vm.user_database.lookup("alice")
        bob = host.vm.user_database.lookup("bob")

        def park(jclass, ctx, args):
            JThread.sleep(5.0)
            return 0

        target = host.launch(
            ExecSpec(register_app("ParkedApp", park), [], user=alice,
                     name="parked"))

        def body(ctx):
            return read_text(ctx, f"/proc/{target.app_id}/metrics")

        _, outcome = run_probe(host, register_app, "ProcSnoop", body,
                               user=bob)
        assert isinstance(outcome.get("error"), FileNotFoundException)
        target.destroy()
        target.wait_for(5)

    def test_init_may_read_everyone(self, host):
        """The initial application is an ancestor of every application —
        the same rule the system security manager applies to threads."""
        listing = read_text(host.initial.context(), "/proc/vmstat")
        assert "apps.live" in listing
        for application in host.applications():
            text = read_text(host.initial.context(),
                             f"/proc/{application.app_id}/status")
            assert f"Id:\t{application.app_id}" in text

    def test_proc_is_read_only(self, host, register_app):
        alice = host.vm.user_database.lookup("alice")

        def body(ctx):
            from repro.io.file import write_text
            write_text(ctx, f"/proc/{ctx.app.app_id}/metrics", "tamper")

        _, outcome = run_probe(host, register_app, "ProcTamper", body,
                               user=alice)
        assert isinstance(outcome.get("error"),
                          (IOException, SecurityException))

    def test_vmstat_rollup(self, host, register_app):
        def body(ctx):
            return read_text(ctx, "/proc/vmstat")

        _, outcome = run_probe(host, register_app, "VmstatProbe", body)
        text = outcome["result"]
        assert "apps.launched\t" in text
        assert "security.grants\t" in text

    def test_nonexistent_app_dir(self, host):
        with pytest.raises(FileNotFoundException):
            read_text(host.initial.context(), "/proc/999999/status")

    def test_ipc_ring_surface(self, host, register_app):
        """/proc/ipc/ring exposes the ring-pipe rollup, and vmstat carries
        the same counters under the ipc.ring.* prefix."""
        def body(ctx):
            from repro.io.streams import make_pipe
            reader, writer = make_pipe()
            writer.write(b"r" * 4096)
            reader.drain_into(lambda segments: None)
            writer.close()
            reader.close()  # close folds the pipe's counters into the rollup
            return (read_text(ctx, "/proc/ipc/ring"),
                    read_text(ctx, "/proc/vmstat"))

        _, outcome = run_probe(host, register_app, "RingProbe", body)
        ring, vmstat = outcome["result"]
        for key in ("wakeups\t", "suppressed_wakeups\t",
                    "zero_copy_bytes\t", "copies\t"):
            assert key in ring
        zero_copy = dict(line.split("\t") for line
                         in ring.strip().splitlines())["zero_copy_bytes"]
        assert int(zero_copy) >= 4096
        assert "ipc.ring.wakeups\t" in vmstat
        assert "ipc.ring.zero_copy_bytes\t" in vmstat

    def test_sched_surface(self, host, register_app):
        """/proc/sched renders the event-loop's counters, and vmstat
        rolls the same numbers up under the sched.* prefix."""
        def body(ctx):
            return (read_text(ctx, "/proc/sched"),
                    read_text(ctx, "/proc/vmstat"))

        _, outcome = run_probe(host, register_app, "SchedProbe", body)
        sched, vmstat = outcome["result"]
        for key in ("running\t", "tasks.live\t", "tasks.spawned\t",
                    "tasks.completed\t", "switches\t", "timer_fires\t"):
            assert key in sched
        fields = dict(line.split("\t") for line
                      in sched.strip().splitlines())
        # Counters render as integers whether or not the VM has booted
        # its loop yet (a plain-callable main stays on an OS thread).
        assert int(fields["tasks.spawned"]) >= 0
        assert int(fields["switches"]) >= 0
        assert "sched.tasks.live\t" in vmstat
        assert "sched.switches\t" in vmstat

    def test_sched_counts_generator_main(self, host, register_app):
        """A generator main runs as a scheduler task, and /proc/sched
        shows it spawned."""
        outcome = {}

        def main(jclass, ctx, args):
            outcome["sched"] = read_text(ctx, "/proc/sched")
            return 0
            yield  # pragma: no cover - marks this main as a continuation

        app = host.launch(ExecSpec(register_app("SchedGenProbe", main), []))
        assert app.wait_for(10) == 0
        fields = dict(line.split("\t") for line
                      in outcome["sched"].strip().splitlines())
        assert fields["running"] == "1"
        assert int(fields["tasks.spawned"]) >= 1
        assert int(fields["tasks.live"]) >= 1

    def test_dist_transport_surface(self, host, register_app):
        """/proc/dist/transport renders frame and pool counters even on a
        VM that has never opened a pooled channel."""
        def body(ctx):
            return read_text(ctx, "/proc/dist/transport")

        _, outcome = run_probe(host, register_app, "DistProbe", body)
        text = outcome["result"]
        assert "frames.sent\t" in text
        assert "frames.coalesced\t" in text
        assert "pool.hits\t0" in text
        assert "pool.idle\t0" in text
