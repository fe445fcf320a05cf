"""``bench_baseline`` counts only the rows of the bench a gate names;
``record_bench`` stamps every row it writes with the host it ran on."""

import json
import platform
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import _common  # noqa: E402


def _write_runs(root: Path, runs: list) -> None:
    (root / "BENCH_probe.json").write_text(
        json.dumps({"area": "probe", "runs": runs}))


def test_foreign_label_never_becomes_the_baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(_common, "REPO_ROOT", tmp_path)
    _write_runs(tmp_path, [
        {"bench": "cached_vs_cold", "cached_us": 13.7},
        {"bench": "authenticate", "cached_us": 4.6},
        {"bench": "cached_vs_cold", "cached_us": 11.0, "smoke": True},
    ])
    assert _common.bench_baseline("probe", "cached_vs_cold",
                                  "cached_us") == 13.7
    assert _common.bench_baseline("probe", "authenticate",
                                  "cached_us") == 4.6
    assert _common.bench_baseline("probe", "missing", "cached_us") is None


def test_renamed_series_counts_under_either_label(tmp_path, monkeypatch):
    monkeypatch.setattr(_common, "REPO_ROOT", tmp_path)
    _write_runs(tmp_path, [
        {"bench": "vectored_send", "sequential_frames_s": 277000.0},
        {"bench": "frame_send", "sequential_frames_s": 301000.0},
        {"bench": "chunk_throughput", "sequential_frames_s": 900000.0},
    ])
    assert _common.bench_baseline(
        "probe", ("vectored_send", "frame_send"), "sequential_frames_s",
        best="max") == 301000.0
    assert _common.bench_baseline(
        "probe", "vectored_send", "sequential_frames_s",
        best="max") == 277000.0


def test_recorded_row_is_stamped_with_its_host(tmp_path, monkeypatch):
    monkeypatch.setattr(_common, "REPO_ROOT", tmp_path)
    path = _common.record_bench("probe", {"bench": "stamp", "x_us": 1.0})
    assert path == tmp_path / "BENCH_probe.json"
    (row,) = json.loads(path.read_text())["runs"]
    host = row["host"]
    assert row["x_us"] == 1.0
    assert set(host) == {"python", "nproc", "affinity", "cpu_count",
                         "platform", "git_sha"}
    assert host["python"] == platform.python_version()
    assert host["nproc"] >= 1 and host["nproc"] <= host["cpu_count"]
    assert host["platform"] == platform.platform()
    sha = host["git_sha"]
    assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)


def test_smoke_rows_are_not_written(tmp_path, monkeypatch):
    monkeypatch.setattr(_common, "REPO_ROOT", tmp_path)
    path = _common.record_bench("probe", {"bench": "stamp", "smoke": True})
    assert not path.exists()


def test_git_sha_is_none_without_git(tmp_path, monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(_common.subprocess, "run", no_git)
    assert _common._git_sha(tmp_path / "no-git-here") is None
    assert _common.host_stamp(tmp_path / "no-git-here")["git_sha"] is None


def test_cpu_ranges_compact_the_affinity_mask():
    assert _common._cpu_ranges({0, 1, 2, 5, 7, 8}) == "0-2,5,7-8"
    assert _common._cpu_ranges({3}) == "3"
