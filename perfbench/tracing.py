"""In-memory span tracer and the instrumentation a traced run applies.

Spans are recorded from outside the library, at the boundaries of the
modules of ``src/mixdiff``. While a traced unit runs, `traced()` swaps the
library's functions (public ones such as ``sequence_nelbo`` and internal ones
such as ``noise_sequence``) in the mixdiff modules that bind them, and the
schedule and denoiser methods on their classes, for wrappers that record a
span and count the call. Nothing under ``src/`` changes, and an untraced run
calls the library directly.

A span carries a name, start, end and parent. Spans stay in memory and are
written as JSON Lines when the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

import mixdiff
from mixdiff import cli, denoiser, elbo, metrics, sampler, schedule, verify

# Public schedule methods that get a span; calls the schedule makes to itself
# (marginal -> check_time, ...) are counted but stay inside the outer span.
SCHEDULE_METHODS = (
    "alpha", "alpha_prime", "backward_rate", "beta", "beta_pi", "check_time",
    "conditional_transition", "elbo_weight", "forward_rate", "forward_rate_row",
    "log_snr", "marginal", "marginal_mix", "pi", "rate_vector", "uniform_mass",
)


class Tracer:
    """Spans as parallel lists plus named counters; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def begin(self, name: str) -> None:
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.names))
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def _inside(self, prefix: str) -> bool:
        return bool(self._stack) and self.names[self._stack[-1]].startswith(prefix)

    def wrap(self, name: str, fn, after=None, nested_prefix: str | None = None,
             count_only: bool = False):
        """Span and count every call of fn.

        `after(counts, result, arguments)` gets the call's bound arguments and
        records extra counts inside a bookkeeping span no layer is charged for.
        With nested_prefix, a call made from inside a span with that prefix is
        counted but gets no span of its own; with count_only, no call does.
        """
        signature = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if count_only or (nested_prefix is not None and self._inside(nested_prefix)):
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                self.begin("trace.bookkeeping")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(self.counts, result, bound.arguments)
                finally:
                    self.end()
            return result

        return wrapper

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds, total seconds) summed per span name."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        for name, d, c in zip(self.names, dur, covered):
            self_s[name] += d - c
            total_s[name] += d
        return self_s, total_s

    def write_jsonl(self, path, meta: dict) -> None:
        """One line of meta, one per span (times in seconds from the tracer's
        creation), one per count."""
        def line(obj):
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")

        with open(path, "w") as fh:
            line({"kind": "meta", **meta})
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                line({"kind": "span", "id": i, "name": n, "parent": p,
                      "start": round(s - self.origin, 7), "end": round(e - self.origin, 7)})
            for name in sorted(self.counts):
                line({"kind": "count", "name": name, "value": self.counts[name]})


# -- counts recorded after a traced call ----------------------------------------
# Each gets the tracer's counters, the call's result and its bound arguments.

def _count_rows(c, _preds, a):
    z = np.asarray(a["z_seqs"])
    c["denoiser.oracle.rows"] += z.shape[0]
    c["denoiser.oracle.distinct_rows"] += len(np.unique(z, axis=0))


def _count_clip(c, w, a):
    mode, clip = a["mode"], a["weight_clip"]
    capped = clip is not None and w == clip
    if mode.kind == "clamp":
        capped = capped or w == mode.w_max
    if mode.kind != "dynamic" and capped:
        c["elbo.weight_clip_hits"] += 1


def _count_steps(c, _samples, a):
    c["sampler.steps"] += a["config"].num_steps


def _count_entries(c, _report, a):
    c["denoiser.table.entries"] = len(a["table"].table)


def _count_self_correct(c, result, _a):
    c["sampler.self_correct.iterations"] += result.iterations
    c["sampler.self_correct.converged"] += int(result.converged)
    c["sampler.self_correct.edits"] += result.edits


def _count_saved(c, _none, a):
    c["denoiser.table.bytes"] += os.path.getsize(a["path"])


def _count_read(c, _result, a):
    c["cli.read_corpus.bytes"] += os.path.getsize(a["path"])


def _count_written(c, _none, a):
    c["cli.write_corpus.bytes"] += a["fh"].tell()


# Functions a traced unit wraps: (module, name, span name, wrap options). Each
# is swapped in every mixdiff module that binds it, so the library's internal
# calls (denoiser's imported `noise_sequence`, ...) are traced too.
FUNCTIONS = (
    (elbo, "sequence_nelbo", "elbo.sequence_nelbo", {}),
    (elbo, "noise_sequence", "elbo.noise_sequence", {}),
    (elbo, "loss_weight", "elbo.loss_weight", {"after": _count_clip}),
    (elbo, "per_token_loss", "elbo.per_token_loss", {}),
    (denoiser, "table_train", "denoiser.table_train", {"after": _count_entries}),
    (sampler, "ancestral_sample_batch", "sampler.ancestral_sample_batch",
     {"after": _count_steps}),
    (sampler, "self_correct", "sampler.self_correct", {"after": _count_self_correct}),
    (sampler, "adapt_distribution", "sampler.adapt", {}),
    (metrics, "tv_distance", "metrics.tv_distance", {}),
    (metrics, "self_accuracy", "metrics.self_accuracy", {}),
    (cli, "read_corpus", "cli.read_corpus", {"after": _count_read}),
    (cli, "write_corpus", "cli.write_corpus", {"after": _count_written}),
)
MODULES = (mixdiff, cli, denoiser, elbo, metrics, sampler, schedule, verify)

# Methods a traced unit wraps: (module, class, method, span name, wrap options),
# swapped on the class that defines them. OracleDenoiser.predict() delegates
# to predict_batch(), so one wrapper sees every oracle call.
LOOKUP = {"count_only": True}
METHODS = (
    (denoiser, "OracleDenoiser", "predict_batch", "denoiser.oracle", {"after": _count_rows}),
    (denoiser, "LogitTable", "predict", "denoiser.table.predict", {}),
    (denoiser, "LogitTable", "logits_for", "denoiser.table.lookups", LOOKUP),
    (denoiser, "LogitTable", "_entry", "denoiser.table.lookups", LOOKUP),
    (denoiser, "LogitTable", "save", "denoiser.table.save", {"after": _count_saved}),
    (denoiser, "LogitTable", "load", "denoiser.table.load", {}),
    *(
        (schedule, cls, m, "schedule." + m, {"nested_prefix": "schedule."})
        for cls in ("MixingSchedule", "MaskOnlySchedule", "HybridSchedule")
        for m in SCHEDULE_METHODS
    ),
)


@contextmanager
def traced(tracer: Tracer):
    """Route the library's traced functions and methods through `tracer` for
    the duration of the block.

    A name the library no longer has is skipped, and its metrics read 0.
    """
    with ExitStack() as stack:
        for module, attr, name, options in FUNCTIONS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapped = tracer.wrap(name, fn, **options)
            for m in MODULES:
                if getattr(m, attr, None) is fn:
                    stack.enter_context(mock.patch.object(m, attr, wrapped))
        for module, cls_name, attr, name, options in METHODS:
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, **options))
            else:
                wrapped = tracer.wrap(name, raw, **options)
            stack.enter_context(mock.patch.object(cls, attr, wrapped))
        yield


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced unit."""
    self_s, total_s = tracer.self_times()
    c = tracer.counts
    spans = Counter(tracer.names)
    rows = c["denoiser.oracle.rows"]
    return {
        # calls into the schedule from other layers; its calls to itself are
        # counted per method only
        "schedule.calls": sum(v for k, v in spans.items() if k.startswith("schedule.")),
        "schedule.check_time.calls": c["schedule.check_time.calls"],
        "schedule.self_s": sum(v for k, v in self_s.items() if k.startswith("schedule.")),
        "elbo.noise_sequence.calls": c["elbo.noise_sequence.calls"],
        "elbo.noise_sequence.self_s": self_s["elbo.noise_sequence"],
        "elbo.loss_weight.calls": c["elbo.loss_weight.calls"],
        "elbo.weight_clip_hits": c["elbo.weight_clip_hits"],
        "elbo.per_token_loss.calls": c["elbo.per_token_loss.calls"],
        "elbo.per_token_loss.self_s": self_s["elbo.per_token_loss"],
        "elbo.sequence_nelbo.self_s": self_s["elbo.sequence_nelbo"],
        "denoiser.oracle.calls": c["denoiser.oracle.calls"],
        "denoiser.oracle.rows": rows,
        "denoiser.oracle.distinct_rows": c["denoiser.oracle.distinct_rows"],
        "denoiser.oracle.distinct_frac": c["denoiser.oracle.distinct_rows"] / rows if rows else 0.0,
        "denoiser.oracle.self_s": self_s["denoiser.oracle"],
        "denoiser.table.lookups": c["denoiser.table.lookups.calls"],
        "denoiser.table.entries": c["denoiser.table.entries"],
        "denoiser.table_train.self_s": self_s["denoiser.table_train"],
        "denoiser.table.save_s": total_s["denoiser.table.save"],
        "denoiser.table.load_s": total_s["denoiser.table.load"],
        "denoiser.table.bytes": c["denoiser.table.bytes"],
        "sampler.steps": c["sampler.steps"],
        "sampler.self_s": self_s["sampler.ancestral_sample_batch"],
        "sampler.adapt.self_s": self_s["sampler.adapt"],
        "sampler.self_correct.calls": c["sampler.self_correct.calls"],
        "sampler.self_correct.iterations": c["sampler.self_correct.iterations"],
        "sampler.self_correct.converged": c["sampler.self_correct.converged"],
        "sampler.self_correct.edits": c["sampler.self_correct.edits"],
        "sampler.self_correct.self_s": self_s["sampler.self_correct"],
        "metrics.tv_distance.s": self_s["metrics.tv_distance"],
        "metrics.self_accuracy.calls": c["metrics.self_accuracy.calls"],
        "metrics.self_accuracy.s": self_s["metrics.self_accuracy"],
        "cli.read_corpus.s": total_s["cli.read_corpus"],
        "cli.read_corpus.bytes": c["cli.read_corpus.bytes"],
        "cli.write_corpus.s": total_s["cli.write_corpus"],
        "cli.write_corpus.bytes": c["cli.write_corpus.bytes"],
    }
