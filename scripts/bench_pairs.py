#!/usr/bin/env python3
"""Interleaved parent/change runs of one perfbench workload, into BENCH_<tag>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload doc-train-gru \\
        --pairs 10 --seconds 20 --seed 1 [--tiny] [--tag name] [--out dir]

PARENT and CHANGE are git revisions of this repository. Each is exported with
``git archive`` into its own temporary directory, and ``perfbench/run.py`` runs
there, one process per run. Pair i runs the parent first when i is even and
the change first when i is odd, so a host that slows down or speeds up over
the set weighs on both sides alike.

The file holds every run (its ``env`` line, with the host's ``loadavg_1m``,
its ``metric`` and ``check`` lines, exit code and final JSON counts) and, per
metric, each side's median and quartiles, the change's wins over the pairs,
and a verdict: "unresolved" when the gap between the medians is within the
parent's quartile spread (q3 - q1), otherwise "better" or "worse". Nothing
in perfbench/ or BENCHMARK.json is read but perfbench's output. The exit code
is 0 only when every run exited 0.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HIGHER_IS_BETTER = ("_per_s",)  # tokens_per_s, infer_per_s: rates


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract revision rev's tree into dest; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def fields(text: str) -> dict:
    """The key=value items of one perfbench line, after its first word."""
    return dict(item.split("=", 1) for item in text.split()[1:] if "=" in item)


def parse(stdout: str) -> dict:
    """perfbench's env, metric and check lines, and its final JSON counts."""
    env, metrics, checks, final = {}, {}, {}, {}
    for line in stdout.splitlines():
        word = line.split(" ", 1)[0]
        if word == "env":
            env = fields(line)
        elif word == "metric":
            f = fields(line)
            metrics[f["name"]] = None if f["value"] == "n/a" else float(f["value"])
        elif word == "check":
            f = fields(line)
            checks[f["name"]] = f["ok"] == "true"
        elif line.startswith("{"):
            final = json.loads(line)
    return {"env": env, "metrics": metrics, "checks": checks,
            **{k: final.get(k) for k in ("correct", "attempted", "failed")}}


def run(checkout: Path, args) -> tuple[int, float, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=checkout,
                          capture_output=True, text=True, check=False)
    if done.returncode:
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, time.perf_counter() - t0, done.stdout


def quartiles(values: list) -> dict:
    """Median and quartiles, linearly interpolated between order statistics."""
    v = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(v) - 1)
        lo = int(pos)
        return v[lo] + (v[min(lo + 1, len(v) - 1)] - v[lo]) * (pos - lo)

    return {"median": at(0.5), "q1": at(0.25), "q3": at(0.75)}


def summarize(runs: list, n_pairs: int) -> dict:
    names = sorted({name for r in runs for name, v in r["metrics"].items() if v is not None})
    summary = {}
    for name in names:
        sign = -1.0 if name.endswith(HIGHER_IS_BETTER) else 1.0
        side = {s: [r["metrics"].get(name) for r in runs if r["side"] == s]
                for s in ("parent", "change")}
        if any(v is None for vs in side.values() for v in vs):
            continue
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        gap = change["median"] - parent["median"]
        verdict = ("unresolved" if abs(gap) <= parent["q3"] - parent["q1"]
                   else "better" if sign * gap < 0 else "worse")
        summary[name] = {
            "better": "higher" if sign < 0 else "lower",
            "parent": parent, "change": change, "gap": gap,
            "gap_frac": gap / parent["median"] if parent["median"] else None,
            "wins": sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"])),
            "pairs": n_pairs, "verdict": verdict}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tiny", action="store_true", help="perfbench's tiny shapes")
    ap.add_argument("--tag", help="names BENCH_<tag>.json (default: the workload)")
    ap.add_argument("--out", default=".", help="directory of the JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    out = Path(args.out) / f"BENCH_{args.tag or args.workload}.json"

    runs, pairs = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {s: Path(tmp) / s for s in ("parent", "change")}
        commits = {s: export(getattr(args, s), checkouts[s]) for s in checkouts}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pairs.append({"pair": i, "first": order[0]})
            for position, side in enumerate(order):
                code, wall, stdout = run(checkouts[side], args)
                record = {"pair": i, "position": position, "side": side,
                          "commit": commits[side], "exit_code": code, "wall_s": wall,
                          **parse(stdout)}
                runs.append(record)
                shown = " ".join(f"{k}={v:.6g}" for k, v in record["metrics"].items()
                                 if v is not None)
                print(f"pair={i} side={side} exit={code} {shown}", flush=True)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "command": ["python3", "perfbench/run.py"],
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": {"rev": args.change, "commit": commits["change"]},
        "runs": runs, "pairs": pairs, "summary": summarize(runs, len(pairs)),
    }
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, s in result["summary"].items():
        print(f"{name}: {s['parent']['median']:.6g} -> {s['change']['median']:.6g} "
              f"({s['gap_frac'] or 0.0:+.1%}), wins {s['wins']}/{s['pairs']}, {s['verdict']}")
    print(f"wrote {out}")
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
