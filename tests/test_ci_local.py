"""scripts/ci_local.py: the CI workflow's run steps, run here as written."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("ci_local", ROOT / "scripts" / "ci_local.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def step_lines(capfd):
    """The script's step lines, without their prefix; the steps' own output
    is interleaved."""
    return [line.removeprefix("ci_local: ") for line in capfd.readouterr().out.splitlines()
            if line.startswith("ci_local: ")]


def test_a_workflow_step_runs_through_the_cru_shim(capfd):
    # The step calls the console script, which the shim stands in for.
    assert load_script().main(["--only", "^Console script errors"]) == 0
    lines = step_lines(capfd)
    assert len(lines) == 1 and lines[0].split()[:2] == ["ok", "exit=0"], lines
    assert lines[0].endswith("Console script errors exit with one line")


def test_a_failing_step_is_reported_and_stops_the_job(tmp_path, capfd, monkeypatch):
    # Install is not run; each step runs under bash -e, so a failing command
    # fails its step even when a later line succeeds; the job's env reaches
    # every step; and the steps after a failed one are skipped.
    script = load_script()
    monkeypatch.setattr(script, "WORKFLOW", tmp_path / "w.yml")
    script.WORKFLOW.write_text("""
jobs:
  tests:
    env:
      GREETING: "hi"
    steps:
      - uses: actions/checkout@v4
      - name: Install
        run: exit 9
      - name: Reads the env
        run: test "$GREETING" = hi
      - name: Fails midway
        run: |
          false
          true
      - name: After
        run: "true"
""")
    assert script.main([]) == 1
    lines = step_lines(capfd)
    assert [line.split()[0] for line in lines] == ["ok", "FAILED", "skipped"], lines
    assert lines[1].split()[1] == "exit=1" and lines[1].endswith("Fails midway")
    assert lines[2].endswith("After")
