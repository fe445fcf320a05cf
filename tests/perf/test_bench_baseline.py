"""``bench_baseline`` counts only the rows of the bench a gate names."""

import json
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
