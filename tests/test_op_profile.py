"""scripts/op_profile.py: per-node backward time and traced memory of the
first stratified training steps of a perfbench workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "op_profile.py"


def fields(line: str) -> dict:
    return dict(item.split("=", 1) for item in line.split()[1:])


def test_node_times_add_up_to_the_timed_backward():
    done = subprocess.run([sys.executable, str(SCRIPT), "--workload", "mr-train-deep_enhanced",
                           "--tiny", "--steps", "2"],
                          cwd=ROOT, capture_output=True, text=True, check=False, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    nodes = [fields(line) for line in lines if line.startswith("node ")]
    steps = [fields(line) for line in lines if line.startswith("step ")]
    assert [s["step"] for s in steps] == ["0", "1"]
    for s in steps:
        mine = [n for n in nodes if n["step"] == s["step"]]
        # Every op of the cell has a line: the convolution, the scan, the head.
        assert {"conv1d_same", "gru_scan", "dense", "bce"} <= {n["op"] for n in mine}
        for n in mine:
            assert float(n["peak_mib"]) >= float(n["live_mib"]) >= 0
        node_ms = sum(float(n["backward_ms"]) for n in mine)
        assert abs(node_ms - float(s["backward_ms"])) <= 0.1 * float(s["backward_ms"]), s
        assert float(s["peak_mib"]) >= max(float(n["peak_mib"]) for n in mine)
    [digests] = [fields(line) for line in lines if line.startswith("sha256 ")]
    assert set(digests) == {"params", "m", "v"}
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())

