"""Span tracing of ticstream's layers from outside the package.

`Tracer.install` replaces each traced function by a wrapper in the namespace
of the module that calls it, so `ticstream` itself holds no timer code and an
untraced run executes exactly the program's own code. A span is
[layer, start, end, parent index, note]; spans stay in memory. A pool worker
forked while the tracer is installed inherits the wrappers, and writes its
spans to a file in the spill directory each time its stack returns to the top
level, so that the parent can merge them after the pool has finished.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module holding the call site, attribute, layer). A layer is named after the
# module that defines the function; one function may be called from several
# modules, and each call site gets its own wrapper.
SITES = (
    ("datagen", "generate_stream", "datagen.generate_stream"),
    ("datagen", "write_stream", "datagen.write_stream"),
    ("runner", "load_stream", "datagen.load_stream"),
    ("methods", "sample_buffer", "replay.sample_buffer"),
    ("methods", "assemble_training_set", "replay.assemble_training_set"),
    ("runner", "run_step", "methods.run_step"),
    ("methods", "tune_patch_alpha", "methods.tune_patch_alpha"),
    ("methods", "train_minibatch", "model.train_minibatch"),
    ("model", "clip_loss_and_grads", "model.clip_loss_and_grads"),
    ("model", "lwf_penalty_and_grads", "model.lwf_penalty_and_grads"),
    ("model", "encode", "model.encode"),
    ("evaluation", "encode", "model.encode"),
    ("model", "adam_step", "numerics.adam_step"),
    ("methods", "lr_at", "schedule.lr_at"),
    ("runner", "save_checkpoint", "model.save_checkpoint"),
    ("runner", "load_checkpoint", "model.load_checkpoint"),
    ("runner", "build_performance_matrix", "evaluation.build_performance_matrix"),
    ("evaluation", "retrieval_score", "evaluation.retrieval_score"),
    ("methods", "retrieval_score", "evaluation.retrieval_score"),
    ("evaluation", "zero_shot_accuracy", "evaluation.zero_shot_accuracy"),
    ("runner", "zero_shot_accuracy", "evaluation.zero_shot_accuracy"),
    ("runner", "run_method_seed", "runner.run_method_seed"),
)


def _stream_bytes(args, result):
    return sum(e.stat().st_size for e in os.scandir(args[0]) if e.name.endswith(".ticd"))


# Counts taken at a span's end, from its arguments and result. They are taken
# after the span's end time, so their cost falls on the parent's self time.
NOTES = {
    "datagen.load_stream": _stream_bytes,
    "replay.assemble_training_set": lambda args, result: len(result),
    "methods.run_step": lambda args, result: args[0].id,
    "model.train_minibatch": lambda args, result: args[4] is not None,
    "model.encode": lambda args, result: len(args[1]),
    "model.save_checkpoint": lambda args, result: os.path.getsize(args[0]),
}

# methods.<id>.iters_per_s is reported for every method a workload of
# BENCHMARK.json runs (0 where the workload does not run it), and for any
# other method the traced round ran
TRACED_METHODS = ("cumulative_exp", "lwf", "cumulative_equal", "patching")


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_s_max", "s"), ("_bytes", "bytes"), ("_macs", "MAC"), ("_share", "ratio"),
                         ("_multiplier", "ratio")):
        if name.endswith(suffix):
            return "1/s" if name.endswith("iters_per_s") else unit
    return "count"


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._saved = []

    def install(self) -> None:
        for mod_name, attr, layer in SITES:
            mod = importlib.import_module(f"ticstream.{mod_name}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, layer, NOTES.get(layer)))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrap(self, fn, layer, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a forked worker
                self.pid, self.spans, self.stack = os.getpid(), [], []
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if note is not None:
                span[4] = note(args, result)
            if not self.stack and self.pid != self.owner:
                self._spill()
            return result

        return traced

    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as f:
            f.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def merge_spills(self) -> None:
        """Append the spans pool workers wrote, re-basing their parent indices."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(self.spans)
                for span in json.loads(line):
                    if span[3] >= 0:
                        span[3] += base
                    self.spans.append(span)
            path.unlink()


def self_times(spans) -> list[float]:
    """A span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced round (see the README for each one)."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    noted: dict[str, float] = defaultdict(float)
    iters: Counter = Counter()
    iter_s: dict[str, float] = defaultdict(float)
    teacher_iters, teacher_s = 0, 0.0
    for i, (layer, start, end, parent, note) in enumerate(spans):
        self_s[layer] += own[i]
        calls[layer] += 1
        if isinstance(note, (int, float)) and not isinstance(note, bool):
            noted[layer] += note
        if layer == "model.train_minibatch":
            method = spans[parent][4] if parent >= 0 else None
            iters[method] += 1
            iter_s[method] += end - start
            if note:
                teacher_iters += 1
                teacher_s += end - start

    m = {
        "datagen.generate_stream_s": self_s["datagen.generate_stream"],
        "datagen.write_stream_s": self_s["datagen.write_stream"],
        "datagen.load_stream_s": self_s["datagen.load_stream"],
        "datagen.load_stream_bytes": noted["datagen.load_stream"],
        "replay.sample_buffer_s": self_s["replay.sample_buffer"],
        "replay.assemble_training_set_s": self_s["replay.assemble_training_set"],
        "replay.records_assembled": noted["replay.assemble_training_set"],
        "methods.run_step_self_s": self_s["methods.run_step"],
        "methods.tune_patch_alpha_s": self_s["methods.tune_patch_alpha"],
    }
    for method in TRACED_METHODS + tuple(sorted(k for k in iters if k and k not in TRACED_METHODS)):
        m[f"methods.{method}.iters_per_s"] = iters[method] / iter_s[method] if iters[method] else 0.0
    # lwf's teacher-bearing iterations (step 2 on) against plain ones
    plain = iter_s["cumulative_exp"] / iters["cumulative_exp"] if iters["cumulative_exp"] else 0.0
    m["methods.lwf.measured_multiplier"] = teacher_s / teacher_iters / plain if teacher_iters and plain else 0.0
    m.update({
        "model.clip_loss_and_grads_s": self_s["model.clip_loss_and_grads"],
        "model.clip_loss_and_grads_calls": calls["model.clip_loss_and_grads"],
        "model.lwf_penalty_and_grads_self_s": self_s["model.lwf_penalty_and_grads"],
        "model.encode_s": self_s["model.encode"],
        "model.encode_rows": noted["model.encode"],
        "model.train_minibatch_self_s": self_s["model.train_minibatch"],
        "model.save_checkpoint_s": self_s["model.save_checkpoint"],
        "model.load_checkpoint_s": self_s["model.load_checkpoint"],
        "model.checkpoint_bytes": noted["model.save_checkpoint"],
        "numerics.adam_step_s": self_s["numerics.adam_step"],
        "numerics.adam_step_calls": calls["numerics.adam_step"],
        "schedule.lr_at_s": self_s["schedule.lr_at"],
        "evaluation.build_performance_matrix_s": self_s["evaluation.build_performance_matrix"],
        "evaluation.retrieval_score_s": self_s["evaluation.retrieval_score"],
        "evaluation.retrieval_score_calls": calls["evaluation.retrieval_score"],
        "evaluation.zero_shot_accuracy_s": self_s["evaluation.zero_shot_accuracy"],
        "runner.run_method_seed_self_s": self_s["runner.run_method_seed"],
    })
    return m
