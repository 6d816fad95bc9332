"""scripts/op_profile.py: per-node backward time and traced memory of the
first stratified training steps of a perfbench workload."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "op_profile.py"


def fields(line: str) -> dict:
    return dict(item.split("=", 1) for item in line.split()[1:])


FIXED = ("tape_nodes", "grad_norm", "clipped")
# Ops that have a line in every step: the cell's (deep_enhanced's convolution,
# and the scan) and the head's. gru's scan forms x's gradient over the
# upstream gradient, deep_enhanced's in an array of its own.
OPS = {"mr-train-deep_enhanced": {"conv1d_same", "gru_scan", "dense", "bce"},
       "doc-train-gru": {"gru_scan", "dense", "bce"}}


def profile_lines(workload: str = "mr-train-deep_enhanced") -> list[str]:
    done = subprocess.run([sys.executable, str(SCRIPT), "--workload", workload,
                           "--tiny", "--steps", "2"],
                          cwd=ROOT, capture_output=True, text=True, check=False, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(OPS))
def test_node_times_add_up_to_the_timed_backward(workload):
    lines = profile_lines(workload)
    nodes = [fields(line) for line in lines if line.startswith("node ")]
    steps = [fields(line) for line in lines if line.startswith("step ")]
    assert [s["step"] for s in steps] == ["0", "1"]
    for s in steps:
        mine = [n for n in nodes if n["step"] == s["step"]]
        assert OPS[workload] <= {n["op"] for n in mine}
        for n in mine:
            assert float(n["peak_mib"]) >= float(n["live_mib"]) >= 0
        node_ms = sum(float(n["backward_ms"]) for n in mine)
        assert abs(node_ms - float(s["backward_ms"])) <= 0.1 * float(s["backward_ms"]), s
        assert float(s["peak_mib"]) >= max(float(n["peak_mib"]) for n in mine)
    [digests] = [fields(line) for line in lines if line.startswith("sha256 ")]
    assert set(digests) == {"params", "m", "v"}
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())


def test_two_runs_print_the_same_fixed_step_figures():
    # The tape's size, the pre-clip gradient norm and the clip of each step,
    # and the digests after the steps, do not depend on the host's speed.
    runs = []
    for _ in range(2):
        lines = profile_lines()
        steps = [fields(line) for line in lines if line.startswith("step ")]
        assert len(steps) == 2
        for s in steps:
            assert int(s["tape_nodes"]) > 0
            assert float(s["grad_norm"]) > 0 and s["clipped"] in ("0", "1")
        runs.append(([{k: s[k] for k in FIXED} for s in steps],
                     [line for line in lines if line.startswith("sha256 ")]))
    assert runs[0] == runs[1]
