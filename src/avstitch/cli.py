"""Command-line pipeline: cluster, synthesize, interleave, gen-qa, eval.

One binary, one --seed.  Logs go to standard error; data goes to the output
files and standard output, so results stay pipeable.  Exit codes: 0 on
success, 1 for validation errors, 2 for I/O errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import clustering, metrics, prompts, synthesis
from .corpus import load_corpus
from .interleave import (
    DEFAULT_AUDIO_RATE,
    DEFAULT_CONTEXT_LEN,
    interleave,
    load_tokens,
    save_context,
)

logger = logging.getLogger(__name__)

# audio-rate sweep grid, in percent
AIR_SWEEP_PERCENTS: tuple[int, ...] = (0, 10, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass(frozen=True)
class RunConfig:
    """Merged run settings: command line > config file > these defaults."""

    seed: int = 0
    context_len: int = DEFAULT_CONTEXT_LEN
    audio_rate: float = DEFAULT_AUDIO_RATE
    min_segments: int = synthesis.DEFAULT_MIN_SEGMENTS
    max_segments: int = synthesis.DEFAULT_MAX_SEGMENTS
    videos_per_cluster: int = 1
    k: int | None = None
    scale_grid: tuple[float, ...] = synthesis.DEFAULT_SCALE_GRID

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.context_len < 1:
            raise ValueError(f"context_len must be >= 1, got {self.context_len}")
        if not 0.0 <= self.audio_rate <= 1.0:
            raise ValueError(f"audio_rate must lie in [0, 1], got {self.audio_rate}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        self.synthesis_config  # built here so SynthesisConfig validates the synthesis fields

    @cached_property
    def synthesis_config(self) -> synthesis.SynthesisConfig:
        """The synthesis settings, seeded with the run seed."""
        return synthesis.SynthesisConfig(
            min_segments=self.min_segments,
            max_segments=self.max_segments,
            scale_grid=self.scale_grid,
            videos_per_cluster=self.videos_per_cluster,
            master_seed=self.seed,
        )


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}; valid keys are {sorted(_CONFIG_KEYS)}")
    if "scale_grid" in payload:
        payload["scale_grid"] = tuple(payload["scale_grid"])
    return payload


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Overlay config-file values and then explicit flags onto the defaults."""
    merged: dict = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, ensure_ascii=False))
    else:
        width = max(len(key) for key in payload)
        for key, value in payload.items():
            print(f"{key.ljust(width)}  {value}")


# ------------------------------------------------------------- subcommands


def cmd_cluster(args: argparse.Namespace, config: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    if corpus.embedding_dim == 0:
        if args.hash_embed is None:
            raise ValueError(
                "corpus has no embeddings; rerun with --hash-embed DIM to derive them from captions"
            )
        corpus = corpus.with_hash_embeddings(args.hash_embed, seed=config.seed)
    elif args.hash_embed is not None:
        logger.info("corpus already has embeddings; --hash-embed %d ignored", args.hash_embed)
    assignment = clustering.cluster(corpus, k=config.k, seed=config.seed)
    clustering.write_assignment(assignment, args.out)
    stats = clustering.cluster_stats(corpus, assignment)
    _emit(
        {
            "clips": stats["n_clips"],
            "clusters": stats["n_clusters"],
            "size_min": stats["size_min"],
            "size_max": stats["size_max"],
            "size_mean": round(stats["size_mean"], 4),
            "mean_intra_cosine": round(stats["mean_intra_cosine"], 4)
            if stats["mean_intra_cosine"] is not None
            else None,
        },
        args.format,
    )
    return 0


def cmd_synthesize(args: argparse.Namespace, config: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    assignment = clustering.load_assignment(args.assignment)
    videos = synthesis.build_dataset(corpus, assignment, config.synthesis_config)
    synthesis.write_manifest(videos, args.out)
    skipped = synthesis.count_skipped_clusters(assignment, config.min_segments)
    _emit({"videos": len(videos), "skipped_clusters": skipped}, args.format)
    return 0


def cmd_interleave(args: argparse.Namespace, config: RunConfig) -> int:
    if args.video is None and args.audio is None:
        raise ValueError("need at least one of --video/--audio token files")
    video = load_tokens(args.video, args.token_format) if args.video else None
    audio = load_tokens(args.audio, args.token_format) if args.audio else None
    ctx = interleave(video, audio, length=config.context_len, audio_rate=config.audio_rate)
    save_context(ctx, args.out)
    _emit(
        {
            "length": ctx.length,
            "audio_slots": ctx.pattern.count("audio"),
            "video_slots": ctx.pattern.count("video"),
        },
        args.format,
    )
    return 0


def cmd_genqa(args: argparse.Namespace, config: RunConfig) -> int:
    videos = synthesis.load_manifest(args.manifest)
    bank = prompts.load_bank(args.bank) if args.bank else prompts.DEFAULT_BANK
    rng = np.random.default_rng(config.seed)
    pairs: list[prompts.QAPair] = []
    for video in videos:
        pairs.extend(prompts.gen_cba_pairs(video, bank, rng, config.context_len))
    if args.audio_corpus:
        corpus = load_corpus(args.audio_corpus)
        for clip in corpus.clips:
            pairs.append(prompts.gen_audio_pairs(clip, bank, rng))
    prompts.write_pairs(pairs, args.out)
    _emit({"pairs": len(pairs)}, args.format)
    return 0


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    if args.sweep_air:
        if args.task == "vtg":
            raise ValueError("--sweep-air applies to the avedl task only")
        if args.preds is not None:
            raise ValueError("--sweep-air reads per-rate files; use --preds-dir, not --preds")
        if args.preds_dir is None:
            raise ValueError("--sweep-air requires --preds-dir")
        gts = metrics.load_ground_truth(args.gt)
        rows = []
        for percent in AIR_SWEEP_PERCENTS:
            preds = metrics.load_predictions(Path(args.preds_dir) / f"air_{percent}.jsonl")
            rows.append((float(percent), metrics.evaluate_avedl(preds, gts)))
        if args.format == "json":
            payload = [{"air_percent": p, "report": r.as_dict()} for p, r in rows]
            print(json.dumps({"sweep": payload}, ensure_ascii=False))
        else:
            print(metrics.format_air_table(rows))
        return 0
    if args.preds is None:
        raise ValueError("--preds is required unless --sweep-air is given")
    preds = metrics.load_predictions(args.preds)
    gts = metrics.load_ground_truth(args.gt)
    if args.task == "avedl":
        report = metrics.evaluate_avedl(preds, gts)
        table = metrics.format_avedl_table(report)
    else:
        report = metrics.vtg_report(preds, gts)
        table = metrics.format_vtg_table(report)
    if args.format == "json":
        print(json.dumps(report.as_dict(), ensure_ascii=False))
    else:
        print(table)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avstitch",
        description="Pseudo-untrimmed audio-visual dataset synthesis, token interleaving, "
        "instruction pair generation, and temporal metric evaluation.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master random seed (default 0)")
    parser.add_argument("--config", default=None, help="JSON file overriding default settings")
    parser.add_argument(
        "--format", choices=("json", "table"), default="table", help="stdout format (default table)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="group clips by caption-embedding similarity")
    p_cluster.add_argument("--corpus", required=True, help="trimmed-clip corpus JSONL")
    p_cluster.add_argument("--out", required=True, help="output assignment JSONL")
    p_cluster.add_argument("--k", type=int, default=None, help="cluster count (default n/1.3)")
    p_cluster.add_argument(
        "--hash-embed",
        type=int,
        default=None,
        metavar="DIM",
        help="derive embeddings by feature hashing captions into DIM buckets",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_synth = sub.add_parser("synthesize", help="build pseudo-untrimmed videos from clusters")
    p_synth.add_argument("--corpus", required=True, help="trimmed-clip corpus JSONL")
    p_synth.add_argument("--assignment", required=True, help="cluster assignment JSONL")
    p_synth.add_argument("--out", required=True, help="output manifest JSONL")
    p_synth.add_argument("--min-segments", type=int, default=None, dest="min_segments",
                         help="fewest clips per video (default 3)")
    p_synth.add_argument("--max-segments", type=int, default=None, dest="max_segments",
                         help="most clips per video (default 20)")
    p_synth.add_argument("--videos-per-cluster", type=int, default=None, dest="videos_per_cluster",
                         help="videos sampled from each cluster (default 1)")
    p_synth.set_defaults(func=cmd_synthesize)

    p_inter = sub.add_parser("interleave", help="merge audio/video tokens into one context")
    p_inter.add_argument("--video", default=None, help="video token file")
    p_inter.add_argument("--audio", default=None, help="audio token file")
    p_inter.add_argument("--out", required=True, help="output context JSON")
    p_inter.add_argument("--context-len", type=int, default=None, dest="context_len",
                         help="context length in tokens (default 100)")
    p_inter.add_argument("--audio-rate", type=float, default=None, dest="audio_rate",
                         help="fraction of slots carrying audio (default 0.25)")
    p_inter.add_argument("--token-format", choices=("json", "raw"), default="json",
                         help="token file encoding (default json)")
    p_inter.set_defaults(func=cmd_interleave)

    p_genqa = sub.add_parser("gen-qa", help="emit query/response pairs from a manifest")
    p_genqa.add_argument("--manifest", required=True, help="pseudo-untrimmed manifest JSONL")
    p_genqa.add_argument("--out", required=True, help="output pairs JSONL")
    p_genqa.add_argument("--audio-corpus", default=None, dest="audio_corpus",
                         help="also emit one audio pair per clip in this corpus")
    p_genqa.add_argument("--bank", default=None, help="custom template bank JSON")
    p_genqa.add_argument("--context-len", type=int, default=None, dest="context_len",
                         help="token resolution for time phrases (default 100)")
    p_genqa.set_defaults(func=cmd_genqa)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--task", choices=("avedl", "vtg"), default="avedl",
                        help="metric family (default avedl)")
    p_eval.add_argument("--preds", default=None, help="predictions JSONL")
    p_eval.add_argument("--gt", required=True, help="ground-truth JSONL")
    p_eval.add_argument("--sweep-air", action="store_true", dest="sweep_air",
                        help="evaluate per-audio-rate prediction files air_<percent>.jsonl")
    p_eval.add_argument("--preds-dir", default=None, dest="preds_dir",
                        help="directory of air_<percent>.jsonl files for --sweep-air")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        config = resolve_config(args)
        return args.func(args, config)
    except ValueError as exc:
        logger.error("%s", exc)
        return 1
    except OSError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
