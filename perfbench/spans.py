"""Outside-in span tracing of the ``cru`` package.

``Tracer.install`` rebinds each target function, in every ``cru`` module
that holds a reference to it, to a wrapper that times the call. A span's
self time is its wall time minus the wall time of the spans nested inside
it, so the self times of one step add up to the step's traced wall time.
``Tracer.uninstall`` puts every original back.

A target that cannot be found (a later refactor deleted or renamed it) is
recorded as absent; the run goes on and reports it as such.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute path within the module)
TARGETS = [
    ("data.load_corpus", "cru.data", "load_corpus"),
    ("data.build_vocab", "cru.data", "build_vocab"),
    ("data.encode_corpus", "cru.data", "encode_corpus"),
    ("data.batch_and_pad", "cru.data", "batch_and_pad"),
    ("checkpoint.load_checkpoint", "cru.classifier", "load_checkpoint"),
    ("checkpoint.load_tensors", "cru.checkpoint", "load_tensors"),
    ("classifier.build", "cru.classifier", "SentimentModel.build"),
    ("classifier.forward_batch", "cru.classifier", "SentimentModel.forward_batch"),
    ("classifier.bce_loss", "cru.classifier", "bce_loss"),
    ("classifier.train_epoch", "cru.classifier", "train_epoch"),
    ("layers.same_length_conv", "cru.layers", "same_length_conv"),
    ("layers.dense_forward", "cru.layers", "dense_forward"),
    ("layers.dropout_apply", "cru.layers", "dropout_apply"),
    ("recurrent.run_sequence", "cru.recurrent", "run_sequence"),
    ("recurrent.prepare", "cru.recurrent", "_CellBase.prepare"),
    ("autodiff.take_rows", "cru.autodiff", "take_rows"),
    ("autodiff.backward", "cru.autodiff", "Tape.backward"),
    ("optim.l2_penalty", "cru.optim", "l2_penalty"),
    ("optim.clip_gradients", "cru.optim", "Adam.clip_gradients"),
    ("optim.adam_step", "cru.optim", "Adam.step"),
]


class Tracer:
    def __init__(self):
        self._open: list[list[float]] = []  # child wall time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.grad_norms: list[tuple[float, float]] = []  # (pre-clip norm, max_norm)

    def take(self) -> tuple[dict, dict, dict, list]:
        """Return what was recorded since the last take and start afresh."""
        out = (dict(self.self_s), dict(self.calls), dict(self.counts), self.grad_norms)
        self.reset()
        return out

    # -- hooks: read counts at a span boundary without touching the program --

    def _before_backward(self, args, kwargs) -> None:
        tape = args[0]
        try:
            self.counts["autodiff.tape_nodes"] += len(tape)
        except TypeError:
            self.absent.add("autodiff.tape_nodes")
        try:
            self.counts["autodiff.tape_bytes"] += sum(
                node.tensor.data.nbytes for node in tape.nodes if node.op != "leaf")
        except AttributeError:
            self.absent.add("autodiff.tape_bytes")

    def _before_load_tensors(self, args, kwargs) -> None:
        path = args[0] if args else kwargs.get("path")
        try:
            self.counts["checkpoint.bytes_read"] += os.path.getsize(path)
        except (OSError, TypeError):
            self.absent.add("checkpoint.bytes_read")

    def _after_clip(self, args, kwargs, result) -> None:
        max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
        if isinstance(result, float) and isinstance(max_norm, (int, float)):
            self.grad_norms.append((result, float(max_norm)))
        else:
            self.absent.update(("optim.grad_norm_mean", "optim.clip_frac"))

    # -- patching --

    def _wrap(self, name: str, fn, before=None, after=None):
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            open_spans.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()[0]
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        hooks = {
            "autodiff.backward": (self._before_backward, None),
            "checkpoint.load_tensors": (self._before_load_tensors, None),
            "optim.clip_gradients": (None, self._after_clip),
        }
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.add(name)
                continue
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, before, after))
            else:
                wrapped = self._wrap(name, raw, before, after)
            if owner_path:
                self._patch(owner, attr, wrapped)
                continue
            # A module-level function: rebind it wherever the package imported it.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "cru" or mod_name.startswith("cru."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
