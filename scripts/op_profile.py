#!/usr/bin/env python3
"""Per-node backward time and traced memory of the first training steps of one
perfbench workload.

    python3 scripts/op_profile.py --workload mr-train-deep_enhanced --steps 3 \\
        [--seed 1] [--tiny]

The corpus, model and optimizer come from perfbench's own setup
(``train_setup`` in ``perfbench/run.py``, imported, not copied). The steps are
the first k batches of perfbench's stratified order, each one ``train_epoch``
call with perfbench's dropout stream, as a timed step of perfbench's is.
``tracemalloc`` starts after setup, so the figures count only what the steps
allocate. The script prints:

- one ``node`` line per tape node with a backward, per step, in the order the
  backward runs them: the node's backward milliseconds, the traced MiB live
  when it starts, and the traced peak MiB inside it (``tracemalloc.reset_peak()``
  is called just before it runs);
- one ``step`` line per step: its milliseconds, the timed ``Tape.backward``, the
  sum of its nodes' backward times, and the traced MiB live when the step
  starts and its traced peak; then figures that do not depend on the host or
  on how many steps a timed run reaches: the tape's node count when the
  backward starts (counted as perfbench counts ``autodiff.tape_nodes``), and
  ``train_epoch``'s pre-clip gradient norm and whether the step clipped. The
  tape holds an op's output only weakly, so what it holds is the arrays its
  backward closures keep, which the traced figures count;
- one ``sha256`` line: digests of the parameters and of Adam's m and v after
  the steps, which a change that keeps training bit for bit leaves alone.

Times are taken with tracemalloc running, which slows every allocation: compare
them with each other, not with perfbench's untraced step times. The first step
also pays the process's one-time costs, such as numpy's first calls, which
tracemalloc inflates further. Only training workloads have a backward.
"""

import argparse
import hashlib
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py pins BLAS to one thread)
import workloads as wl  # noqa: E402

MIB = 2.0 ** 20


class Profile:
    """Figures of the current step, filled in by the wrapped tape methods."""

    def __init__(self):
        self.start_step()

    def start_step(self) -> None:
        self.nodes = []  # (node id, op, seconds, live bytes, peak bytes)
        self.backward_s = 0.0
        self.tape_nodes = 0
        self.peak = 0
        tracemalloc.reset_peak()

    def fold_peak(self) -> None:
        """Keep the peak since the last reset before it is reset again."""
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])

    def wrap(self, nid: int, op: str, apply):
        def profiled(g, emit):
            self.fold_peak()
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t0 = time.perf_counter()
            apply(g, emit)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            self.peak = max(self.peak, peak)
            self.nodes.append((nid, op, seconds, live, peak))
        return profiled


def instrument(ad, profile: Profile):
    """Wrap every recorded node's backward and time each Tape.backward; return
    a function that undoes both."""
    record, backward = ad.Tape.record, ad.Tape.backward

    def profiled_record(tape, op, inputs, out, apply):
        record(tape, op, inputs, out, apply)
        node = tape.nodes[-1]
        node.apply = profile.wrap(node.nid, op, apply)

    def timed_backward(tape, loss):
        profile.tape_nodes += len(tape)
        t0 = time.perf_counter()
        try:
            backward(tape, loss)
        finally:
            profile.backward_s += time.perf_counter() - t0

    ad.Tape.record, ad.Tape.backward = profiled_record, timed_backward

    def undo():
        ad.Tape.record, ad.Tape.backward = record, backward
    return undo


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[n for n, s in wl.WORKLOADS.items() if s.kind == "train"])
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tiny", action="store_true", help="perfbench's tiny shapes")
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    cru = bench.import_cru()
    import cru.autodiff as ad

    spec = wl.tiny(wl.WORKLOADS[args.workload]) if args.tiny else wl.WORKLOADS[args.workload]
    config = bench.make_config(cru, spec, args.seed)
    with tempfile.TemporaryDirectory(prefix="op_profile-") as tmp:
        corpus_dir = wl.generate(spec, args.seed, Path(tmp))
        _, _, batches, model, optimizer = bench.train_setup(cru, spec, corpus_dir, config,
                                                            args.seed)
    drop_rng = bench.seeded(args.seed, bench._TAG_DROPOUT)
    order = bench.stratified(batches)[:args.steps]
    print("profile", bench.kv(workload=spec.name, seed=args.seed, tiny=int(args.tiny),
                              steps=len(order)))

    tracemalloc.start()
    profile = Profile()
    undo = instrument(ad, profile)
    try:
        for i, batch in enumerate(order):
            live = tracemalloc.get_traced_memory()[0]
            profile.start_step()
            stats = {}
            t0 = time.perf_counter()
            cru.classifier.train_epoch(model, optimizer, [batch], config, drop_rng, stats)
            step_s = time.perf_counter() - t0
            profile.fold_peak()
            for nid, op, seconds, node_live, peak in profile.nodes:
                print("node", bench.kv(step=i, nid=nid, op=op, backward_ms=f"{seconds * 1e3:.3f}",
                                       live_mib=f"{node_live / MIB:.1f}",
                                       peak_mib=f"{peak / MIB:.1f}"))
            node_s = sum(n[2] for n in profile.nodes)
            print("step", bench.kv(step=i, width=batch.ids.shape[1], tokens=int(batch.mask.sum()),
                                   step_ms=f"{step_s * 1e3:.2f}",
                                   backward_ms=f"{profile.backward_s * 1e3:.2f}",
                                   node_backward_ms=f"{node_s * 1e3:.2f}",
                                   live_mib=f"{live / MIB:.1f}",
                                   peak_mib=f"{profile.peak / MIB:.1f}",
                                   tape_nodes=profile.tape_nodes,
                                   grad_norm=repr(stats["grad_norm"]),
                                   clipped=int(stats["clip_frac"] > 0)))
    finally:
        undo()
        tracemalloc.stop()
    params = model.named_params()
    names = sorted(params)
    print("sha256", bench.kv(params=digest(params[n].data for n in names),
                             m=digest(optimizer.m[n] for n in names),
                             v=digest(optimizer.v[n] for n in names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
