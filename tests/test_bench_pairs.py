"""scripts/bench_pairs.py: interleaved parent/change perfbench runs into
BENCH_<tag>.json."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", autouse=True)
def git_checkout():
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True, check=False)
    if done.returncode:
        pytest.skip("bench_pairs exports commits, and this is not a git checkout")


def test_head_against_head_at_tiny_shapes(tmp_path):
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "HEAD", "--workload",
                           "mr-train-gru", "--pairs", "1", "--seconds", "0.5", "--tiny",
                           "--tag", "t", "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    assert time.perf_counter() - t0 < 15
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    head = result["parent"]["commit"]
    assert result["change"]["commit"] == head and len(head) == 40
    assert (result["workload"], result["tiny"], result["seed"]) == ("mr-train-gru", True, 1)
    assert [(r["side"], r["position"], r["pair"]) for r in result["runs"]] == [
        ("parent", 0, 0), ("change", 1, 0)]
    for run in result["runs"]:
        assert run["exit_code"] == 0 and run["correct"] and run["failed"] == 0
        assert run["env"]["OPENBLAS_NUM_THREADS"] == "1" and "loadavg_1m" in run["env"]
        assert run["checks"]["loss_reference"]
        assert {"train_step_ms_p50", "train_tokens_per_s", "setup_s",
                "peak_rss_mb"} <= set(run["metrics"])
    assert result["pairs"] == [{"pair": 0, "first": "parent"}]
    rss = result["summary"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["pairs"] == 1
    assert set(rss["parent"]) == {"median", "q1", "q3"}
    assert rss["verdict"] in ("better", "worse", "unresolved")
    assert result["summary"]["train_tokens_per_s"]["better"] == "higher"


def test_order_alternates_and_every_run_is_summarized(tmp_path, monkeypatch):
    # Three pairs with perfbench stubbed. The parent goes first in pairs 0
    # and 2, the change in pair 1, and all six runs stay in the file.
    bench = load_script()
    calls = []
    step_ms = {"parent": [10.0, 11.0, 12.0], "change": [8.0, 13.0, 9.0]}

    def fake_run(checkout, args):
        side = Path(checkout).name
        ms = step_ms[side][sum(c == side for c in calls)]
        calls.append(side)
        return 0, 0.1, (f"env nproc=2 OPENBLAS_NUM_THREADS=1\n"
                        f"metric name=train_step_ms_p50 value={ms} unit=ms samples=5\n"
                        f"metric name=train_tokens_per_s value={1000.0 / ms} unit=tokens/s "
                        "samples=5\ncheck name=loss_reference ok=true max_rel_diff=0\n"
                        '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}\n')

    monkeypatch.setattr(bench, "run", fake_run)
    assert bench.main(["HEAD", "HEAD", "--workload", "mr-train-gru", "--pairs", "3",
                       "--tag", "s", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "BENCH_s.json").read_text())
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [p["first"] for p in result["pairs"]] == ["parent", "change", "parent"]
    assert len(result["runs"]) == 6
    step = result["summary"]["train_step_ms_p50"]
    assert step["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert step["change"]["median"] == 9.0
    assert step["wins"] == 2 and step["verdict"] == "better"  # gap 2 > spread 1
    tokens = result["summary"]["train_tokens_per_s"]
    assert tokens["wins"] == 2 and tokens["verdict"] == "better"


def test_summarize_reads_every_rate_higher_is_better():
    # Requests per second, like tokens per second, is better when higher; a
    # time is better when lower.
    bench = load_script()
    runs = [{"side": side, "metrics": {"infer_per_s": rate, "infer_step_ms_p50": 1e3 / rate}}
            for side, rates in (("parent", (100.0, 101.0, 102.0)),
                                ("change", (120.0, 121.0, 122.0)))
            for rate in rates]
    summary = bench.summarize(runs, 3)
    assert summary["infer_per_s"]["better"] == "higher"
    assert summary["infer_per_s"]["verdict"] == "better" and summary["infer_per_s"]["wins"] == 3
    assert summary["infer_step_ms_p50"]["verdict"] == "better"
