#!/usr/bin/env python3
"""Benchmark of the cru package, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mr-train-gru --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process
    python3 perfbench/run.py --record-reference  # rewrite perfbench/reference.json
    python3 perfbench/smoke.py                   # tiny-shape self-test, a few seconds

Each run generates its corpus from --seed into a work directory of the
checkout, sets up the program several times (setup_s is the median), then
runs timed steps for --seconds: a training step is one
``train_epoch(model, optimizer, [batch], ...)`` call, an inference step is
one request (one sentence encoded, batched as a one-row batch and run
through ``forward_batch`` with no tape; one client, closed loop).

With --trace 1 the steps alternate between untraced and traced, and the
run reports per-module self times from span wrappers installed from
outside the package (see spans.py), plus the tracing overhead against the
untraced steps of the same run.

The human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every output check passed.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS and OpenMP are pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"

SETUP_REPEATS = 5
IDENTITY_TOL = 1e-9
# Relative tolerance of the loss-reference check. The reference problem is
# deterministic float64. A change that only reorders sums (im2col, fused
# matmuls, in-place Adam) perturbs results at roundoff: multiplying every
# matmul output by (1 + 1e-15 noise) moved the reference values by at most
# 2e-16 relative. Changing the L2 coefficient by one part in 1e4 moved them
# by 2e-7. The tolerance sits between the two, with margin on both sides.
REFERENCE_RTOL = 1e-9
REFERENCE_SEED = 0
REFERENCE_STEPS = 3
P90_MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the p90

_TAG_INIT, _TAG_SHUFFLE, _TAG_DROPOUT, _TAG_POOL = 11, 12, 13, 14

NOT_MEASURED = {
    "cli": "thin argument layer over the entry points the workloads call",
    "rc_features": "the cloze reader has no workload (out of scope in ROADMAP)",
}

# Per-layer metrics: (name, unit). Setup-phase figures are per setup, step-phase
# figures are means per step (training step or inference request).
SETUP_LAYERS = ["data.load_corpus", "data.build_vocab", "data.encode_corpus",
                "data.batch_and_pad", "checkpoint.load_checkpoint",
                "checkpoint.load_tensors", "classifier.build"]
STEP_LAYERS = ["layers.same_length_conv", "recurrent.prepare", "recurrent.run_sequence",
               "autodiff.backward", "autodiff.take_rows", "layers.dropout_apply",
               "layers.dense_forward", "classifier.bce_loss", "classifier.forward_batch",
               "classifier.train_epoch", "data.encode_corpus", "data.batch_and_pad",
               "optim.l2_penalty", "optim.clip_gradients", "optim.adam_step"]
COUNTS = [("checkpoint.bytes_read", "bytes", "checkpoint.load_tensors"),
          ("layers.same_length_conv.calls", "count", "layers.same_length_conv"),
          ("autodiff.tape_nodes", "count", "autodiff.backward"),
          ("autodiff.tape_bytes", "bytes", "autodiff.backward")]
OPTIM_STATS = [("optim.grad_norm_mean", "norm"), ("optim.clip_frac", "fraction")]
TRACE_STATS = [("trace.self_sum_ratio", "ratio"), ("trace.overhead_frac", "fraction"),
               ("trace.steps", "count")]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [(f"{n}.self_s", "s") for n in SETUP_LAYERS]
    out += [(f"{n}.self_ms", "ms") for n in STEP_LAYERS]
    out += [(n, u) for n, u, _ in COUNTS] + OPTIM_STATS + TRACE_STATS
    return out


END_TO_END = [("setup_s", "s"), ("step_ms_p50", "ms"), ("tokens_per_s", "tokens/s"),
              ("peak_rss_mb", "MB")]


def import_cru():
    """Import cru from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cru" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cru package under {src}")
    sys.path.insert(0, str(src))
    import cru
    import cru.classifier
    import cru.data
    import cru.errors
    import cru.optim

    if Path(cru.__file__).resolve().parent != (src / "cru").resolve():
        sys.exit(f"perfbench: imported cru from {cru.__file__}, not from {src}")
    return cru


def seeded(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def environment() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')}-{info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{v: os.environ[v] for v in THREAD_VARS},
            "loadavg_1m": os.getloadavg()[0]}


def kv(**items) -> str:
    return " ".join(f"{k}={v}" for k, v in items.items())


def make_config(cru, spec: wl.Spec, seed: int):
    return cru.classifier.TrainConfig(
        variant=spec.variant, filter_k=3, embed_dim=spec.dim, hidden_dim=spec.dim,
        fc_dim=spec.fc_dim, batch_size=spec.batch_size, seed=seed,
        vocab_cap=spec.vocab_cap)


def stratified(batches: list) -> list:
    """The batches in an order whose every prefix spans the range of batch costs.

    Step time grows with batch width, and a run times only the first dozen
    or so batches, so a plain shuffled order would make the median step depend
    on which widths happened to come first. Visiting the batches sorted by
    (width, real tokens) at the ranks of the golden-ratio sequence keeps each
    prefix a stratified sample of the whole epoch.
    """
    by_cost = sorted(range(len(batches)),
                     key=lambda i: (batches[i].ids.shape[1], batches[i].mask.sum(), i))
    golden = ((np.arange(len(batches)) + 1) * 0.6180339887498949) % 1.0
    return [batches[by_cost[r]] for r in np.argsort(np.argsort(golden))]


def request_pool(samples: list, size: int, rng: np.random.Generator) -> list:
    """One random sentence from each of `size` equal length strata, shuffled.

    The pool then has the corpus's length distribution on every seed, so the
    mean request cost does not drift with the luck of a small draw.
    """
    by_len = sorted(range(len(samples)), key=lambda i: (len(samples[i].tokens), i))
    edges = np.linspace(0, len(by_len), size + 1).astype(int)
    picks = [by_len[rng.integers(lo, hi)] for lo, hi in zip(edges[:-1], edges[1:])]
    return [samples[i] for i in rng.permutation(picks)]


def pick_probe(encoded: list, size: int) -> list:
    """Samples spread from shortest to longest, so the probe batch is ragged."""
    order = sorted(range(len(encoded)), key=lambda i: (len(encoded[i].ids), i))
    picks = np.linspace(0, len(order) - 1, size).round().astype(int)
    return [encoded[order[i]] for i in picks]


# --------------------------------------------------------------------------
# Timed steps
# --------------------------------------------------------------------------

@dataclass
class Step:
    seconds: float
    tokens: int
    ok: bool
    value: float          # training loss, or the request's probability
    unit: int             # index of the unit of work in the visiting order
    traced: bool
    self_sum: float = 0.0


@dataclass
class Layers:
    """Per-module figures accumulated from the traced steps."""

    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    grad_norms: list = field(default_factory=list)

    def add(self, taken) -> float:
        self_s, calls, counts, norms = taken
        for src, dst in ((self_s, self.self_s), (calls, self.calls), (counts, self.counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        self.grad_norms += norms
        return sum(self_s.values())


def timed_steps(cru, units, work, seconds: float, tracer, layers: Layers) -> list[Step]:
    """Run work(unit) -> (tokens, value) over `units` in a closed loop for `seconds`.

    With a tracer, each unit runs twice, once untraced and once traced, in
    alternating order, so the tracing overhead is measured on equal work.
    A step that raises a CruError (NumericError included) is counted as
    failed and the loop goes on.
    """
    steps: list[Step] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        unit = units[i % len(units)]
        modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
        for traced in modes:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                tokens, value = work(unit)
                ok = True
            except cru.errors.CruError as exc:
                print("step_error", kv(index=i, error=type(exc).__name__), f"message={exc!s:.200}")
                tokens, value, ok = 0, math.nan, False
            step = Step(time.perf_counter() - t0, tokens, ok, value, i, traced)
            if traced:
                tracer.uninstall()
                step.self_sum = layers.add(tracer.take())
            steps.append(step)
        i += 1
    return steps


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    setup_times: list
    steps: list
    peak_rss_mb: float
    checks: list          # (name, ok, detail)
    corpus: dict          # generator statistics
    setup_layers: Layers
    layers: Layers


def train_setup(cru, spec, corpus_dir, config, seed):
    corpus = cru.data.load_corpus(corpus_dir, spec.fmt)
    vocab = cru.data.build_vocab(corpus, spec.vocab_cap)
    encoded = cru.data.encode_corpus(vocab, corpus.samples)
    batches = cru.data.batch_and_pad(encoded, spec.batch_size, rng=seeded(seed, _TAG_SHUFFLE))
    model = cru.classifier.SentimentModel.build(config, len(vocab), seeded(seed, _TAG_INIT))
    optimizer = cru.optim.Adam(model.named_params(), lr=config.lr)
    return vocab, encoded, batches, model, optimizer


def repeat_setup(setup, tracer, layers: Layers):
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        result = None
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = setup()
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
                layers.add(tracer.take())
    return times, result


def identity_check(cru, model, probe) -> tuple[bool, str]:
    """forward_batch on a padded batch equals one-row batches of its rows."""
    batch = cru.data.batch_and_pad(probe, len(probe))[0]
    together = model.forward_batch(batch).data
    alone = np.array([model.forward_batch(cru.data.batch_and_pad([s], 1)[0]).data[0]
                      for s in probe])
    diff = float(np.max(np.abs(together - alone)))
    return diff <= IDENTITY_TOL, kv(max_abs_diff=f"{diff:.3e}", tol=IDENTITY_TOL,
                                    rows=len(probe), width=batch.ids.shape[1])


def run_train(cru, spec, seed, seconds, corpus_dir, tracer) -> Outcome:
    config = make_config(cru, spec, seed)
    setup_layers, layers = Layers(), Layers()
    setup_times, (vocab, encoded, batches, model, optimizer) = repeat_setup(
        lambda: train_setup(cru, spec, corpus_dir, config, seed), tracer, setup_layers)
    drop_rng = seeded(seed, _TAG_DROPOUT)

    def work(batch):
        loss, _ = cru.classifier.train_epoch(model, optimizer, [batch], config, drop_rng)
        return int(batch.mask.sum()), loss

    order = stratified(batches)
    warm = work(order[-1])[1]
    gc.collect()
    steps = timed_steps(cru, order, work, seconds, tracer, layers)
    peak = peak_rss_mb()

    losses = [warm] + [s.value for s in steps if s.ok]
    checks = [("loss_finite", all(math.isfinite(v) for v in losses),
               kv(losses=len(losses), last=f"{losses[-1]:.6f}"))]
    checks.append(("masked_batch_identity",
                   *identity_check(cru, model, pick_probe(encoded, spec.probe_size))))
    widths = [b.ids.shape[1] for b in batches]
    used = [order[s.unit % len(order)].ids.shape[1] for s in steps if not s.traced]
    corpus = dict(V=len(vocab), samples=len(encoded),
                  len_mean=f"{np.mean([len(e.ids) for e in encoded]):.2f}",
                  len_max=max(len(e.ids) for e in encoded),
                  batches=len(batches), batch_width_mean=f"{np.mean(widths):.2f}",
                  timed_batch_width_mean=f"{np.mean(used):.2f}" if used else "n/a")
    return Outcome(setup_times, steps, peak, checks, corpus, setup_layers, layers)


def run_infer(cru, spec, seed, seconds, corpus_dir, work_dir, tracer) -> Outcome:
    # Preparation, outside setup_s: the checkpoint the server will load.
    config = make_config(cru, spec, seed)
    corpus = cru.data.load_corpus(corpus_dir, spec.fmt)
    vocab = cru.data.build_vocab(corpus, spec.vocab_cap)
    ckpt = work_dir / "checkpoint"
    cru.classifier.save_checkpoint(
        ckpt, cru.classifier.SentimentModel.build(config, len(vocab), seeded(seed, _TAG_INIT)),
        config, vocab)
    pool = request_pool(corpus.samples, spec.request_pool, seeded(seed, _TAG_POOL))
    del corpus

    setup_layers, layers = Layers(), Layers()
    setup_times, (model, _, vocab) = repeat_setup(
        lambda: cru.classifier.load_checkpoint(ckpt), tracer, setup_layers)

    def work(sample):
        encoded = cru.data.encode_corpus(vocab, [sample])
        batch = cru.data.batch_and_pad(encoded, 1)[0]
        return len(sample.tokens), float(model.forward_batch(batch).data[0])

    for sample in pool[:5]:
        work(sample)
    gc.collect()
    steps = timed_steps(cru, pool, work, seconds, tracer, layers)
    peak = peak_rss_mb()

    # The same sentences as padded batches, outside the timed region.
    encoded = cru.data.encode_corpus(vocab, pool)
    batched = np.concatenate([model.forward_batch(b).data
                              for b in cru.data.batch_and_pad(encoded, 32)])
    served = [(s.unit % len(pool), s.value) for s in steps if s.ok]
    in_range = all(0.0 < p < 1.0 for _, p in served)
    diff = max((abs(p - batched[j]) for j, p in served), default=0.0)
    checks = [("probability_in_open_unit_interval", in_range, kv(requests=len(served))),
              ("request_equals_batched_forward", diff <= IDENTITY_TOL,
               kv(max_abs_diff=f"{diff:.3e}", tol=IDENTITY_TOL, distinct=len(pool)))]
    lengths = [len(s.tokens) for s in pool]
    corpus_stats = dict(V=len(vocab), samples=spec.n_samples, pool=len(pool),
                        len_mean=f"{np.mean(lengths):.2f}", len_max=max(lengths),
                        batch_width_mean=f"{np.mean(lengths):.2f}")
    return Outcome(setup_times, steps, peak, checks, corpus_stats, setup_layers, layers)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Loss reference
# --------------------------------------------------------------------------

def reference_run(cru, name: str, work_dir: Path) -> dict:
    """Losses and probe probabilities of the workload's cell at the tiny shape."""
    spec = wl.tiny(wl.WORKLOADS[name])
    root = wl.generate(spec, REFERENCE_SEED, work_dir / f"reference-{name}")
    config = make_config(cru, spec, REFERENCE_SEED)
    _, encoded, batches, model, optimizer = train_setup(cru, spec, root, config,
                                                        REFERENCE_SEED)
    drop_rng = seeded(REFERENCE_SEED, _TAG_DROPOUT)
    losses = [cru.classifier.train_epoch(model, optimizer, [b], config, drop_rng)[0]
              for b in batches[:REFERENCE_STEPS]]
    probe = pick_probe(encoded, 4)
    probs = model.forward_batch(cru.data.batch_and_pad(probe, len(probe))[0]).data
    return {"losses": [float(v) for v in losses], "probs": [float(v) for v in probs]}


def reference_check(cru, name: str, work_dir: Path) -> tuple[bool, str]:
    try:
        expected = json.loads(REFERENCE_FILE.read_text())[name]
    except (OSError, ValueError, KeyError):
        return False, kv(error="no_reference_recorded", file=REFERENCE_FILE.name)
    got = reference_run(cru, name, work_dir)
    worst = 0.0
    for key in ("losses", "probs"):
        if len(got[key]) != len(expected[key]):
            return False, kv(error=f"{key}_length_mismatch")
        for g, e in zip(got[key], expected[key]):
            worst = max(worst, abs(g - e) / abs(e))
    return worst <= REFERENCE_RTOL, kv(max_rel_diff=f"{worst:.3e}", rtol=REFERENCE_RTOL,
                                       steps=len(got["losses"]))


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def end_to_end(spec, out: Outcome) -> tuple[dict, list]:
    """JSON metrics plus the workload-named figures for the human lines."""
    good = [s for s in out.steps if s.ok and not s.traced]
    ms = [s.seconds * 1e3 for s in good]
    busy = sum(s.seconds for s in good)
    tokens_per_s = sum(s.tokens for s in good) / busy if busy else math.nan
    p50 = statistics.median(ms) if ms else math.nan
    attempted = len(out.steps)
    failed = sum(not s.ok for s in out.steps)
    metrics = {"setup_s": statistics.median(out.setup_times), "step_ms_p50": p50,
               "tokens_per_s": tokens_per_s, "peak_rss_mb": out.peak_rss_mb}
    rows = [("setup_s", metrics["setup_s"], "s", len(out.setup_times))]
    if spec.kind == "train":
        rows += [("train_tokens_per_s", tokens_per_s, "tokens/s", len(good)),
                 ("train_step_ms_p50", p50, "ms", len(good))]
    else:
        p90 = (statistics.quantiles(ms, n=10)[-1] if len(ms) >= P90_MIN_SAMPLES
               else math.nan)
        rows += [("infer_per_s", len(good) / busy if busy else math.nan, "requests/s",
                  len(good)),
                 ("infer_ms_p50", p50, "ms", len(good)),
                 ("infer_ms_p90", p90, "ms", len(good)),
                 ("infer_tokens_per_s", tokens_per_s, "tokens/s", len(good))]
    rows += [("peak_rss_mb", out.peak_rss_mb, "MB", 1),
             ("error_rate", failed / attempted if attempted else math.nan, "fraction",
              attempted)]
    return metrics, rows


def per_layer(out: Outcome, tracer) -> tuple[dict, dict]:
    """Per-layer values and, for each, 'measured', 'absent' or 'not_called'."""
    traced = [s for s in out.steps if s.traced and s.ok]
    plain = [s for s in out.steps if not s.traced and s.ok]
    n_setup, n_steps = len(out.setup_times), max(len(traced), 1)
    values, status = {}, {}

    def put(name, value, host, called):
        values[name] = value if host not in tracer.absent else 0.0
        status[name] = ("absent" if host in tracer.absent or name in tracer.absent
                        else "measured" if called else "not_called")

    for n in SETUP_LAYERS:
        s = out.setup_layers
        put(f"{n}.self_s", s.self_s.get(n, 0.0) / n_setup, n, n in s.calls)
    for n in STEP_LAYERS:
        s = out.layers
        put(f"{n}.self_ms", s.self_s.get(n, 0.0) * 1e3 / n_steps, n, n in s.calls)
    for name, _, host in COUNTS:
        if name == "checkpoint.bytes_read":
            src, per = out.setup_layers, n_setup
        else:
            src, per = out.layers, n_steps
        raw = src.calls.get(host, 0) if name.endswith(".calls") else src.counts.get(name, 0)
        put(name, raw / per, host, host in src.calls)
    norms = out.layers.grad_norms
    put("optim.grad_norm_mean", float(np.mean([n for n, _ in norms])) if norms else 0.0,
        "optim.clip_gradients", bool(norms))
    put("optim.clip_frac", float(np.mean([n > m for n, m in norms])) if norms else 0.0,
        "optim.clip_gradients", bool(norms))
    untraced = {s.unit: s.seconds for s in plain}
    pairs = [(s, untraced[s.unit]) for s in traced if s.unit in untraced]
    ratio = statistics.median(s.self_sum / base for s, base in pairs) if pairs else 0.0
    overhead = statistics.median(s.seconds / base - 1.0 for s, base in pairs) if pairs else 0.0
    put("trace.self_sum_ratio", ratio, "", bool(traced))
    put("trace.overhead_frac", overhead, "", bool(traced))
    put("trace.steps", float(len(traced)), "", True)
    return values, status


def run_one(args) -> int:
    cru = import_cru()
    spec = wl.WORKLOADS[args.workload]
    if args.tiny:
        spec = wl.tiny(spec)
    env = environment()
    print("env", kv(**env))
    print("workload", kv(name=spec.name, seed=args.seed, seconds=args.seconds,
                         trace=args.trace, tiny=int(args.tiny), kind=spec.kind,
                         variant=spec.variant, d=spec.dim, h=spec.dim, fc=spec.fc_dim,
                         batch=spec.batch_size, threads=1))
    work_dir = ROOT / ".perfbench_work" / f"{spec.name}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        corpus_dir = wl.generate(spec, args.seed, work_dir)
        if spec.kind == "train":
            out = run_train(cru, spec, args.seed, args.seconds, corpus_dir, tracer)
        else:
            out = run_infer(cru, spec, args.seed, args.seconds, corpus_dir, work_dir, tracer)
        out.checks.append(("loss_reference", *reference_check(cru, args.workload, work_dir)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    print("corpus", kv(**out.corpus))
    metrics, rows = end_to_end(spec, out)
    for name, value, unit, samples in rows:
        shown = "n/a" if math.isnan(value) else f"{value:.6g}"
        print("metric", kv(name=name, value=shown, unit=unit, samples=samples))
    if not any(s.ok and not s.traced for s in out.steps):
        out.checks.append(("timed_steps_succeeded", False, "no untraced step succeeded"))
    for name, ok, detail in out.checks:
        print("check", kv(name=name, ok=str(ok).lower()), detail)
    correct = all(ok for _, ok, _ in out.checks)

    if tracer is not None:
        values, status = per_layer(out, tracer)
        units = dict(per_layer_names())
        for name, unit in per_layer_names():
            print("layer", kv(name=name, value=f"{values[name]:.6g}", unit=unit,
                              status=status[name]))
        reported = {n: {"value": values[n], "unit": units[n]} for n, _ in per_layer_names()}
    else:
        # With no successful step there is no figure; correct is false then.
        reported = {n: {"value": metrics[n] if math.isfinite(metrics[n]) else 0.0, "unit": u}
                    for n, u in END_TO_END}
    for name, reason in NOT_MEASURED.items():
        print("layer", kv(name=name, status="not_measured"), f"reason={reason!r}")
    print(json.dumps({"correct": correct, "attempted": len(out.steps),
                      "failed": sum(not s.ok for s in out.steps), "metrics": reported}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def record_reference() -> int:
    """Recompute the loss reference; only for a change to the reference problem."""
    cru = import_cru()
    work_dir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        ref = {name: reference_run(cru, name, work_dir) for name in wl.WORKLOADS}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the smoke test")
    ap.add_argument("--record-reference", action="store_true",
                    help="recompute perfbench/reference.json and exit")
    args = ap.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
