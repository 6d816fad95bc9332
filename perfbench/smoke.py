#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny shapes; takes a few seconds.

    python3 perfbench/smoke.py

For every workload, untraced and traced, it runs ``run.py --tiny`` and
asserts that the run passes, that every metric and check is printed by name,
and that the final JSON line holds exactly the metrics BENCHMARK.json
declares, with their units. It also asserts that the benchmark fails,
printing no result, in a directory that holds only BENCHMARK.json and
perfbench/. Exits non-zero on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

HUMAN_METRICS = {
    "train": ["setup_s", "train_tokens_per_s", "train_step_ms_p50", "peak_rss_mb",
              "error_rate"],
    "infer": ["setup_s", "infer_per_s", "infer_ms_p50", "infer_ms_p90",
              "infer_tokens_per_s", "peak_rss_mb", "error_rate"],
}
CHECKS = {
    "train": ["loss_finite", "masked_batch_identity", "loss_reference"],
    "infer": ["probability_in_open_unit_interval", "request_equals_batched_forward",
              "loss_reference"],
}


def fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)


def check_run(name: str, trace: int, declared: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    where = f"{name} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    want = declared["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{where}: metrics {got} != declared {want}"
    assert all(isinstance(v["value"], float) for v in result["metrics"].values()), where

    kind = wl.WORKLOADS[name].kind
    printed = {fields(l)["name"]: fields(l) for l in lines if l.startswith("metric ")}
    for metric in HUMAN_METRICS[kind]:
        assert metric in printed, f"{where}: metric {metric} not printed"
        assert "unit" in printed[metric] and "samples" in printed[metric], where
    checks = {fields(l)["name"]: fields(l)["ok"] for l in lines if l.startswith("check ")}
    for check in CHECKS[kind]:
        assert checks.get(check) == "true", f"{where}: check {check} is {checks.get(check)}"
    layers = {fields(l)["name"]: fields(l) for l in lines if l.startswith("layer ")}
    for module in run.NOT_MEASURED:
        assert layers[module]["status"] == "not_measured", where
    assert any(l.startswith("env nproc=") for l in lines), where
    assert any(l.startswith("corpus V=") for l in lines), where
    if trace:
        for metric in want:
            assert layers[metric]["status"] in ("measured", "not_called"), \
                f"{where}: {metric} is {layers[metric]['status']}"
        if wl.WORKLOADS[name].variant == "gru":
            assert result["metrics"]["layers.same_length_conv.calls"]["value"] == 0, where
    print(f"ok {where}")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "mr-train-gru", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0, "bare directory: benchmark exited 0"
        assert '"metrics"' not in proc.stdout, "bare directory: a result was printed"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok bare directory fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert declared["per_layer"] == dict(run.per_layer_names())
    assert declared["end_to_end"] == dict(run.END_TO_END)
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, declared)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
