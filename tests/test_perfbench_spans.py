"""The benchmark's span targets: every function that ``perfbench/spans.py``
times must exist. Its tracer records a missing target as absent and the
benchmark run goes on, so a rename would otherwise drop a span silently.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_perfbench_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module in sorted({module for _, module, _ in spans.TARGETS}):
        importlib.import_module(module)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
