"""The four workloads: seeded set-up, one pass of timed operations, and checks.

A pass runs the workload's operations once and times each of them; checks
and digests run between operations, outside the timed intervals.  Pass 0 is
a warm-up whose outputs go through the full oracle in ``oracles``; every
later pass must reproduce pass 0's output digests byte for byte.  A raised
exception, a non-zero CLI exit, a failed oracle or a changed digest marks the
operation failed; the run goes on.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import logging
import struct
import traceback
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import oracles

# sizes fixed per workload; each keeps one pass near 1.5-3 s on a 2-core box
SIZES = {
    "build": {"clusters": 800, "cluster_size": "1..25", "videos_per_cluster": 2},
    "dedup_cluster": {"clips": 4500, "themes": "round(n/1.3)", "hash_dim": 64, "k": "round(n/1.3)"},
    "air_eval": {"videos": 300, "classes": 6, "labels_per_video": 4, "rates": len(gen.AIR_PERCENTS)},
    "ctx_loader": {"dim": 1024, "length": 100, "tokens": "16..256, evenly spread over the pool", "pool": 48,
                   "distinct_contexts": 600, "contexts_per_pass": 100},
}


class OpFailed(Exception):
    """An operation finished but reported failure, such as a non-zero CLI exit."""


class _LastError(logging.Handler):
    """Keeps the last ERROR message avstitch logged, to explain a failed exit."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.message = ""

    def emit(self, record: logging.LogRecord) -> None:
        self.message = record.getMessage()


@dataclass
class Pass:
    """What one pass did: timed seconds, items, latencies and failures."""

    seconds: float = 0.0
    items: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def record(self, op: str, cause: str | None) -> None:
        self.attempted += 1
        if cause is not None:
            self.failures.append(f"{op}: {cause}")


def _sha256(*parts: bytes | Path) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.read_bytes() if isinstance(part, Path) else part)
    return h.hexdigest()


def _describe(exc: BaseException) -> str:
    traceback.print_exception(exc)  # full trace to the run's stderr log
    return f"raised {type(exc).__name__}: {exc}"


class CliWorkload:
    """Base for workloads whose operations are ``avstitch.cli.main`` calls."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.cli = importlib.import_module("avstitch.cli")
        self.errors = _LastError()
        logging.getLogger("avstitch").addHandler(self.errors)
        self.reference: dict[str, str] = {}
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def input_digest(self) -> str:
        """Digest of the generated files only: set-up repeats between passes, beside their outputs."""
        paths = [p for v in self.inputs.values() for p in (v.values() if isinstance(v, dict) else [v])]
        return _sha256(*sorted(paths))

    def operations(self) -> list[tuple[str, object, list[Path]]]:
        """(name, zero-argument callable returning stdout text, output files)."""
        raise NotImplementedError

    def check(self, op: str, stdout: str) -> list[str]:
        raise NotImplementedError

    def tally(self, p: Pass, stdouts: dict[str, str]) -> None:
        """Set the pass's item count (and any traced counts) from the stdouts."""
        raise NotImplementedError

    def run_cli(self, *argv: str) -> str:
        buf = io.StringIO()
        self.errors.message = ""
        with redirect_stdout(buf):
            try:
                code = self.cli.main(["--seed", str(self.seed), "--format", "json", *argv])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        if code != 0:
            raise OpFailed(f"exit {code}: {self.errors.message}")
        return buf.getvalue()

    def run_pass(self, index: int) -> Pass:
        p = Pass()
        stdouts: dict[str, str] = {}
        for op, call, outputs in self.operations():
            start = perf_counter()
            try:
                stdout, cause = call(), None
            except OpFailed as exc:
                stdout, cause = "", str(exc)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                stdout, cause = "", _describe(exc)
            p.seconds += perf_counter() - start
            stdouts[op] = stdout
            if cause is None:
                digest = _sha256(stdout.encode(), *outputs)
                if index == 0:
                    self.reference[op] = digest
                    try:
                        problems = self.check(op, stdout)
                    except Exception as exc:
                        problems = [f"oracle could not read the output: {_describe(exc)}"]
                    cause = problems[0] if problems else None
                elif digest != self.reference.get(op):
                    cause = "output differs from the checked first pass"
                self.digests[op] = digest
            p.record(op, cause)
        p.latencies_ms.append(p.seconds * 1e3)
        try:
            self.tally(p, stdouts)
        except (ValueError, KeyError):
            p.items = 0  # the failed operation is already recorded
        return p


class Build(CliWorkload):
    """synthesize --videos-per-cluster 2, then gen-qa --audio-corpus, on a pre-clustered corpus."""

    name = "build"

    def setup(self) -> None:
        self.inputs = gen.build_inputs(self.seed, self.work, SIZES["build"]["clusters"])
        self.manifest = self.work / "manifest.jsonl"
        self.pairs = self.work / "pairs.jsonl"

    def operations(self):
        corpus, assignment = str(self.inputs["corpus"]), str(self.inputs["assignment"])
        return [
            ("synthesize", lambda: self.run_cli(
                "synthesize", "--corpus", corpus, "--assignment", assignment,
                "--out", str(self.manifest), "--videos-per-cluster", "2"), [self.manifest]),
            ("gen-qa", lambda: self.run_cli(
                "gen-qa", "--manifest", str(self.manifest), "--audio-corpus", corpus,
                "--out", str(self.pairs)), [self.pairs]),
        ]

    def check(self, op: str, stdout: str) -> list[str]:
        corpus_rows = oracles.read_jsonl(self.inputs["corpus"])
        manifest = oracles.read_jsonl(self.manifest)
        if op == "synthesize":
            cluster_of = {r["id"]: r["cluster"] for r in oracles.read_jsonl(self.inputs["assignment"])}
            problems = oracles.check_manifest(manifest, {r["id"]: r for r in corpus_rows}, cluster_of, 2)
            return problems + oracles.check_synthesize_stdout(stdout, manifest, cluster_of)
        pairs = oracles.read_jsonl(self.pairs)
        problems = oracles.check_pairs(pairs, manifest, corpus_rows)
        if json.loads(stdout)["pairs"] != len(pairs):
            problems.append(f"gen-qa reports {stdout.strip()} for {len(pairs)} rows")
        return problems

    def tally(self, p: Pass, stdouts: dict[str, str]) -> None:
        synth = json.loads(stdouts["synthesize"])
        p.items = synth["videos"]
        p.counts["synthesis.skipped_clusters"] = synth["skipped_clusters"]


class DedupCluster(CliWorkload):
    """cluster --hash-embed 64 at the default k, then synthesize, on themed captions."""

    name = "dedup_cluster"

    def setup(self) -> None:
        self.inputs = gen.dedup_inputs(self.seed, self.work, SIZES["dedup_cluster"]["clips"])
        self.assignment = self.work / "assignment.jsonl"
        self.manifest = self.work / "manifest.jsonl"

    def operations(self):
        corpus = str(self.inputs["corpus"])
        return [
            ("cluster", lambda: self.run_cli(
                "cluster", "--corpus", corpus, "--out", str(self.assignment),
                "--hash-embed", str(SIZES["dedup_cluster"]["hash_dim"])), [self.assignment]),
            ("synthesize", lambda: self.run_cli(
                "synthesize", "--corpus", corpus, "--assignment", str(self.assignment),
                "--out", str(self.manifest)), [self.manifest]),
        ]

    def check(self, op: str, stdout: str) -> list[str]:
        corpus_rows = oracles.read_jsonl(self.inputs["corpus"])
        rows = oracles.read_jsonl(self.assignment)
        if op == "cluster":
            problems = oracles.check_assignment(rows, [r["id"] for r in corpus_rows])
            got = json.loads(stdout)
            if (got["clips"], got["clusters"]) != (len(rows), len({r["cluster"] for r in rows})):
                problems.append(f"cluster reports {got['clips']} clips in {got['clusters']} clusters")
            return problems
        cluster_of = {r["id"]: r["cluster"] for r in rows}
        manifest = oracles.read_jsonl(self.manifest)
        problems = oracles.check_manifest(manifest, {r["id"]: r for r in corpus_rows}, cluster_of, 1)
        return problems + oracles.check_synthesize_stdout(stdout, manifest, cluster_of)

    def tally(self, p: Pass, stdouts: dict[str, str]) -> None:
        p.items = json.loads(stdouts["cluster"])["clips"]
        p.counts["synthesis.skipped_clusters"] = json.loads(stdouts["synthesize"])["skipped_clusters"]


class AirEval(CliWorkload):
    """Parse one model run per AIR rate, then eval --sweep-air and eval --task vtg."""

    name = "air_eval"

    def setup(self) -> None:
        size = SIZES["air_eval"]
        self.inputs = gen.air_inputs(self.seed, self.work, size["videos"], size["classes"], size["labels_per_video"])
        self.preds_dir = self.work / "preds"
        self.preds_dir.mkdir(exist_ok=True)
        self.metrics = importlib.import_module("avstitch.metrics")

    def _preds(self, percent: int) -> Path:
        return self.preds_dir / f"air_{percent}.jsonl"

    def parse(self, percent: int) -> str:
        """What an evaluation harness does with raw model text: parse, then write predictions."""
        m = self.metrics
        preds = []
        with self.inputs["responses"][percent].open(encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                for span in m.parse_response(row["text"], row["duration_s"]):
                    label, start, end = span if len(span) == 3 else (row["label"], *span)
                    preds.append(m.Prediction(row["video_id"], label, start, end, row["score"]))
        m.write_predictions(preds, self._preds(percent))
        return ""

    def operations(self):
        gt = str(self.inputs["gt"])
        ops = [(f"parse_{p}", lambda p=p: self.parse(p), [self._preds(p)]) for p in gen.AIR_PERCENTS]
        ops.append(("eval_sweep", lambda: self.run_cli(
            "eval", "--gt", gt, "--sweep-air", "--preds-dir", str(self.preds_dir)), []))
        ops.append(("eval_vtg", lambda: self.run_cli(
            "eval", "--task", "vtg", "--gt", gt, "--preds", str(self._preds(25))), []))
        return ops

    def check(self, op: str, stdout: str) -> list[str]:
        gts = oracles.read_jsonl(self.inputs["gt"])
        if op.startswith("parse_"):
            percent = int(op.split("_")[1])
            responses = oracles.read_jsonl(self.inputs["responses"][percent])
            return oracles.check_parsed(responses, oracles.read_jsonl(self._preds(percent)))
        if op == "eval_vtg":
            return oracles.check_vtg(oracles.read_jsonl(self._preds(25)), gts, json.loads(stdout))
        sweep = json.loads(stdout)["sweep"]
        if [row["air_percent"] for row in sweep] != [float(p) for p in gen.AIR_PERCENTS]:
            return [f"sweep rows are {[row['air_percent'] for row in sweep]}"]
        problems = []
        rng = np.random.default_rng([self.seed, 97])
        for i in sorted(rng.choice(len(gen.AIR_PERCENTS), size=3, replace=False)):
            percent = gen.AIR_PERCENTS[i]
            preds = oracles.read_jsonl(self._preds(percent))
            report = sweep[i]["report"]
            if report["counts"]["predictions"] != len(preds):
                problems.append(f"AIR {percent}%: {report['counts']['predictions']} predictions counted, file has {len(preds)}")
            for thr in rng.choice(oracles.THRESHOLDS, size=2, replace=False):
                problems += oracles.check_map(preds, gts, float(thr), report["map_at"][f"{thr:g}"])
        return problems

    def tally(self, p: Pass, stdouts: dict[str, str]) -> None:
        p.items = sum(row["report"]["counts"]["predictions"] for row in json.loads(stdouts["eval_sweep"])["sweep"])


def context_rows(ctx) -> tuple[list[str], list[int], list]:
    """(modality, source index, vector) per slot of an interleaved context.

    The one place that reads the context's representation, so that a new
    representation needs one adapter here.
    """
    tokens = ctx.tokens
    return [t.modality for t in tokens], [t.source_index for t in tokens], [t.vector for t in tokens]


class CtxLoader:
    """Builds contexts with ``interleave()`` directly, as a training data-loader does."""

    name = "ctx_loader"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.interleave = importlib.import_module("avstitch.interleave")
        self.size = SIZES["ctx_loader"]
        rng = np.random.default_rng([seed, 98])
        self.columns = np.sort(rng.choice(self.size["dim"], size=16, replace=False))
        self.row = struct.Struct(f"<{self.size['dim']}d")
        self.reference: dict[int, bytes] = {}
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        s = self.size
        self.inputs = gen.ctx_inputs(self.seed, s["pool"], s["dim"], s["distinct_contexts"])

    def input_digest(self) -> str:
        arrays = self.inputs["video"] + self.inputs["audio"]
        return _sha256(*(a.tobytes() for a in arrays), repr(self.inputs["specs"]).encode())

    def _digest(self, ctx) -> bytes:
        modality, source, vectors = context_rows(ctx)
        h = hashlib.sha256("".join(m[0] for m in modality).encode())
        h.update(array("q", source).tobytes())
        for vector in vectors:
            h.update(self.row.pack(*vector))
        return h.digest()

    def run_pass(self, index: int) -> Pass:
        il, s, specs = self.interleave, self.size, self.inputs["specs"]
        p = Pass()
        for i in range(index * s["contexts_per_pass"], (index + 1) * s["contexts_per_pass"]):
            percent, v, a = specs[i % len(specs)]
            video, audio = self.inputs["video"][v], self.inputs["audio"][a]
            start = perf_counter()
            try:
                ctx = il.interleave(il.TokenSequence("video", video), il.TokenSequence("audio", audio),
                                    length=s["length"], audio_rate=percent / 100)
                cause = None
            except Exception as exc:
                ctx, cause = None, _describe(exc)
            elapsed = perf_counter() - start
            p.seconds += elapsed
            p.latencies_ms.append(elapsed * 1e3)
            if ctx is not None:
                p.items += 1
                try:
                    digest = self._digest(ctx)
                    if i < len(specs):
                        self.reference[i] = digest
                        problems = oracles.check_context(s["length"], percent, video, audio, self.columns,
                                                         *context_rows(ctx))
                        cause = problems[0] if problems else None
                    elif digest != self.reference.get(i % len(specs)):
                        cause = "context differs from the checked first build of this spec"
                except Exception as exc:
                    cause = f"oracle could not read the context: {_describe(exc)}"
            p.record(f"interleave[{i}]", cause)
        if len(self.reference) == len(specs):
            self.digests["contexts"] = _sha256(*(self.reference[k] for k in range(len(specs))))
        return p


WORKLOADS = {w.name: w for w in (Build, DedupCluster, AirEval, CtxLoader)}
