#!/usr/bin/env python3
"""Run the CI workflow's steps here, as written, without installing the package.

    python3 scripts/ci_local.py [--only PATTERN]

``.github/workflows/tests.yml`` is read with PyYAML. Its one job's ``env`` is
applied, and every ``run:`` block but the Install step's runs in order from
the repository root, under ``bash -e``, as Actions runs a step that names no
``shell:``. A step with its own ``env``, ``shell``, ``working-directory`` or
``if``, or with an expression, stops the script before any step runs: it
could not be run as written.

The Install step (``pip install -e .``) is stood in for: ``src`` goes first
on ``PYTHONPATH``, so every step's ``python`` imports this tree's ``cru``,
and a temporary ``cru`` script, first on ``PATH``, runs ``python -m cru.cli
"$@"`` as the console script would. ``RUNNER_TEMP`` is a temporary directory
removed at the end. No step is changed.

Each step prints one line after its own output: ``ci_local:``, ok or
FAILED, its exit code, its seconds and its name. As in Actions, the steps
after a failed one are skipped, and printed as such. ``--only`` runs the
steps whose name matches the regular expression. The exit code is 0 only
when every step that ran exited 0. The workflow's matrix is not expanded:
the steps run once, under this interpreter.
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
INSTALL = "Install"


def steps_of(workflow: Path) -> tuple[dict, list[dict]]:
    """The job's env and its run steps, but Install's, of a one-job workflow."""
    jobs = yaml.safe_load(workflow.read_text())["jobs"]
    if len(jobs) != 1:
        raise SystemExit(f"{workflow}: expected one job, got {sorted(jobs)}")
    (job,) = jobs.values()
    steps = [s for s in job["steps"] if "run" in s and s.get("name") != INSTALL]
    for step in steps:
        if "${{" in step["run"] or {"env", "shell", "working-directory", "if"} & set(step):
            raise SystemExit(f"{workflow}: step {step.get('name')!r} is not a plain run step")
    return {k: str(v) for k, v in job.get("env", {}).items()}, steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="run only the steps whose name matches this regex")
    args = parser.parse_args(argv)
    job_env, steps = steps_of(WORKFLOW)
    if args.only:
        steps = [s for s in steps if re.search(args.only, s.get("name", s["run"]))]
    failed = False
    with tempfile.TemporaryDirectory(prefix="ci-local-") as tmp:
        bin_dir, runner_temp = Path(tmp) / "bin", Path(tmp) / "runner"
        bin_dir.mkdir()
        runner_temp.mkdir()
        shim = bin_dir / "cru"
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m cru.cli "$@"\n')
        shim.chmod(0o755)
        src = str(ROOT / "src")
        env = {**os.environ, **job_env, "RUNNER_TEMP": str(runner_temp),
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                                             if p)}
        for step in steps:
            name = step.get("name", step["run"].splitlines()[0])
            if failed:
                print(f"ci_local: {'skipped':8}{'':8}{'':>9}  {name}", flush=True)
                continue
            t0 = time.perf_counter()
            code = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=ROOT, env=env).returncode
            failed = code != 0
            print(f"ci_local: {'FAILED' if failed else 'ok':8}exit={code:<3}"
                  f"{time.perf_counter() - t0:8.1f}s  {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
