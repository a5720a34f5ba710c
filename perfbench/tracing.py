"""Spans around avstitch's public functions, installed from outside the package.

The tracer replaces each traced function with a wrapper that records one
span (name, start, end, parent span, run id) and counts calls and items.
Nothing under ``src/`` changes: the wrappers are set on the module or class
attribute, and on every avstitch module that imported the same function by
name, and ``uninstall`` puts the originals back.  A function the package no
longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import logging
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("corpus", "clustering", "synthesis", "prompts", "interleave", "metrics", "cli")


def _n(result, args) -> dict:
    return {"items": len(result)}


def _n_arg(result, args) -> dict:
    return {"items": len(args[0])}


def _cluster(result, args) -> dict:
    return {"items": len(result.assignments), "k": result.n_clusters, "rounds": len(result.objective_history)}


# (module, attribute path, per-call stats from (result, args)); the span is
# named "<module>.<last path part>", or "<module>.<class>" for a constructor
TARGETS: tuple[tuple[str, str, object], ...] = (
    ("corpus", "load_corpus", _n),
    ("corpus", "Corpus.with_hash_embeddings", _n),
    ("clustering", "cluster", _cluster),
    ("clustering", "cluster_stats", None),
    ("clustering", "load_assignment", None),
    ("clustering", "write_assignment", None),
    ("synthesis", "build_dataset", _n),
    ("synthesis", "write_manifest", _n_arg),
    ("synthesis", "load_manifest", _n),
    ("prompts", "gen_cba_pairs", _n),
    ("prompts", "gen_audio_pairs", None),
    ("prompts", "write_pairs", _n_arg),
    ("interleave", "interleave", None),
    ("interleave", "TokenSequence.__init__", None),
    ("metrics", "parse_response", _n),
    ("metrics", "load_predictions", _n),
    ("metrics", "load_ground_truth", _n),
    ("metrics", "evaluate_avedl", _n_arg),
    ("metrics", "vtg_report", None),
)


def _span_name(module: str, path: str) -> str:
    parts = path.split(".")
    return f"{module}.{parts[0] if parts[-1] == '__init__' else parts[-1]}"


class _WarningCounter(logging.Handler):
    """Counts parse_response's clamp and drop warnings on the metrics logger."""

    def __init__(self, counts: Counter) -> None:
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        message = str(record.msg)
        if message.startswith("token "):
            self.counts["metrics.parse_response.clamped"] += 1
        elif message.startswith("dropping reversed"):
            self.counts["metrics.parse_response.dropped"] += 1


class Tracer:
    """In-memory spans and counters for the traced passes of one run."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler = _WarningCounter(self.counts)

    def _wrap(self, fn, name, stats):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                self.spans[index] = (span_name, start, end, parent, self.run_id)
                self.busy[span_name] += end - start
                self.self_time[span_name] += end - start - child
                self.counts[span_name + ".calls"] += 1
            if stats is not None:
                for key, value in stats(result, args).items():
                    self.counts[f"{span_name}.{key}"] += value
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target that exists, plus ``avstitch.cli.main`` per subcommand."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "avstitch" or name.startswith("avstitch.")]
        for module_name, path, stats in TARGETS:
            owner = importlib.import_module(f"avstitch.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, _span_name(module_name, path), stats)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:  # the module itself and every from-import of it
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        cli = importlib.import_module("avstitch.cli")
        self._patch(cli, "main", self._wrap(cli.main, _cli_span_name, None))
        logging.getLogger("avstitch.metrics").addHandler(self._handler)

    def uninstall(self) -> None:
        logging.getLogger("avstitch.metrics").removeHandler(self._handler)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, passes: int, names: list[str]) -> dict[str, float]:
        """Per-pass means of every named per-layer metric (0 where nothing ran)."""
        out: dict[str, float] = {}
        layer_self = defaultdict(float)
        for span_name, seconds in self.self_time.items():
            layer_self[span_name.split(".")[0]] += seconds
        durations = defaultdict(list)
        for span_name, start, end, _parent, _run in self.spans:
            durations[span_name].append(end - start)
        for name in names:
            base, _, stat = name.rpartition(".")
            if stat == "s":
                value = self.busy.get(base, 0.0) / passes
            elif stat == "self_s":
                value = (layer_self.get(base, 0.0) if base in LAYERS else self.self_time.get(base, 0.0)) / passes
            elif stat in ("p50_ms", "p99_ms"):
                samples = durations.get(base)
                value = float(np.percentile(samples, 50 if stat == "p50_ms" else 99)) * 1e3 if samples else 0.0
            else:
                value = self.counts.get(name, 0) / passes
            out[name] = value
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.origin, "end": end - self.origin,
                                     "parent": parent, "run": run}))
                fh.write("\n")


def _cli_span_name(args) -> str:
    argv = args[0]
    flags_with_value = {"--seed", "--config", "--format"}
    i = 0
    while i < len(argv):
        if argv[i] in flags_with_value:
            i += 2
        elif argv[i].startswith("-"):
            i += 1
        else:
            return f"cli.{argv[i]}"
    return "cli.none"
