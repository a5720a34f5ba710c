"""End-to-end tests for the command-line pipeline."""

from __future__ import annotations

import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from avstitch.cli import AIR_SWEEP_PERCENTS, RunConfig, main
from avstitch.clustering import load_assignment
from avstitch.interleave import TokenSequence, load_context, save_tokens
from avstitch.prompts import KIND_AUDIO_CAPTION, load_pairs
from avstitch.synthesis import load_manifest

CAPTIONS = [
    "dog barks loudly",
    "puppy barking outside",
    "dog growls and barks",
    "angry dog barking",
    "small dog yips",
    "hound bays at night",
    "rain falls softly",
    "heavy rain pours",
    "rain drums the roof",
    "storm rain lashes",
    "drizzle patters lightly",
    "rainfall in forest",
]


def write_corpus(path, captions=CAPTIONS, labels=None):
    with path.open("w", encoding="utf-8") as fh:
        for i, caption in enumerate(captions):
            row = {"id": f"clip{i:02d}", "duration_s": 4.0 + (i % 5), "caption": caption}
            if labels:
                row["labels"] = labels
            fh.write(json.dumps(row) + "\n")
    return path


def write_assignment_file(path, ids, cluster=0):
    with path.open("w", encoding="utf-8") as fh:
        for clip_id in ids:
            fh.write(json.dumps({"id": clip_id, "cluster": cluster}) + "\n")
    return path


def write_gt(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


GT_ROWS = [
    {"video_id": "v1", "label": "dog", "start_s": 0.0, "end_s": 10.0},
    {"video_id": "v1", "label": "rain", "start_s": 5.0, "end_s": 15.0},
    {"video_id": "v2", "label": "dog", "start_s": 2.0, "end_s": 8.0},
]


# ---------------------------------------------------------------- cluster


def test_cluster_writes_assignment_and_stats(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    out = tmp_path / "assign.jsonl"
    code = main(["--format", "json", "cluster", "--corpus", str(corpus), "--out", str(out),
                 "--k", "2", "--hash-embed", "64"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["clips" ] == 12
    assert stats["clusters"] == 2
    assignment = load_assignment(out)
    assert assignment.n_clusters == 2
    assert len(assignment.assignments) == 12


def test_cluster_without_embeddings_names_remedy_flag(tmp_path, caplog):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    out = tmp_path / "assign.jsonl"
    with caplog.at_level(logging.ERROR):
        code = main(["cluster", "--corpus", str(corpus), "--out", str(out)])
    assert code == 1
    assert any("--hash-embed" in rec.message for rec in caplog.records)
    assert not out.exists()


def test_cluster_k_flag_respected(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    out = tmp_path / "assign.jsonl"
    assert main(["cluster", "--corpus", str(corpus), "--out", str(out),
                 "--k", "3", "--hash-embed", "32"]) == 0
    assert load_assignment(out).n_clusters == 3


# -------------------------------------------------------------- synthesize


def test_synthesize_writes_manifest(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    assign = tmp_path / "assign.jsonl"
    assert main(["cluster", "--corpus", str(corpus), "--out", str(assign),
                 "--k", "2", "--hash-embed", "64"]) == 0
    capsys.readouterr()
    manifest = tmp_path / "manifest.jsonl"
    code = main(["--format", "json", "synthesize", "--corpus", str(corpus),
                 "--assignment", str(assign), "--out", str(manifest),
                 "--videos-per-cluster", "2"])
    assert code == 0
    counts = json.loads(capsys.readouterr().out)
    videos = load_manifest(manifest)
    assert counts["videos"] == len(videos) >= 2
    assert counts["skipped_clusters"] == 0


def test_synthesize_missing_assignment_exits_2(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    code = main(["synthesize", "--corpus", str(corpus),
                 "--assignment", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "manifest.jsonl")])
    assert code == 2


def test_synthesize_oversized_min_segments_is_a_clean_no_op(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    assign = write_assignment_file(tmp_path / "assign.jsonl", [f"clip{i:02d}" for i in range(12)])
    manifest = tmp_path / "manifest.jsonl"
    code = main(["--format", "json", "synthesize", "--corpus", str(corpus),
                 "--assignment", str(assign), "--out", str(manifest),
                 "--min-segments", "50", "--max-segments", "60"])
    assert code == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts == {"videos": 0, "skipped_clusters": 1}
    assert manifest.read_text(encoding="utf-8") == ""


def test_synthesize_seed_determinism(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl")
    assign = write_assignment_file(tmp_path / "assign.jsonl", [f"clip{i:02d}" for i in range(6)])
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        assert main(["--seed", "5", "synthesize", "--corpus", str(corpus),
                     "--assignment", str(assign), "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    out_c = tmp_path / "c.jsonl"
    assert main(["--seed", "6", "synthesize", "--corpus", str(corpus),
                 "--assignment", str(assign), "--out", str(out_c)]) == 0
    assert out_c.read_bytes() != out_a.read_bytes()


# -------------------------------------------------------------- interleave


def token_files(tmp_path, fmt="json"):
    rng = np.random.default_rng(0)
    video = tmp_path / ("video.tokens" if fmt == "raw" else "video.json")
    audio = tmp_path / ("audio.tokens" if fmt == "raw" else "audio.json")
    save_tokens(TokenSequence("video", rng.normal(size=(40, 8))), video, fmt)
    save_tokens(TokenSequence("audio", rng.normal(size=(30, 8))), audio, fmt)
    return video, audio


def test_interleave_quarter_rate(tmp_path, capsys):
    video, audio = token_files(tmp_path)
    out = tmp_path / "ctx.json"
    code = main(["--format", "json", "interleave", "--video", str(video),
                 "--audio", str(audio), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"length": 100, "audio_slots": 25, "video_slots": 75}
    ctx = load_context(out)
    assert ctx.length == 100
    assert ctx.pattern.count("audio") == 25


def test_interleave_raw_token_format(tmp_path, capsys):
    video, audio = token_files(tmp_path, fmt="raw")
    out = tmp_path / "ctx.json"
    code = main(["--format", "json", "interleave", "--video", str(video),
                 "--audio", str(audio), "--out", str(out), "--token-format", "raw"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["audio_slots"] == 25


def test_interleave_requires_a_stream(tmp_path):
    assert main(["interleave", "--out", str(tmp_path / "ctx.json")]) == 1


def test_interleave_raw_header_without_length_names_file(tmp_path, caplog):
    video, audio = token_files(tmp_path, fmt="raw")
    header = tmp_path / "video.tokens.json"
    header.write_text(json.dumps({"modality": "video", "dim": 8, "dtype": "<f4"}) + "\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["interleave", "--video", str(video), "--audio", str(audio),
                     "--out", str(tmp_path / "ctx.json"), "--token-format", "raw"])
    assert code == 1
    assert f"{video}: missing field 'length'" in caplog.text


def test_interleave_non_finite_json_tokens_name_file(tmp_path, caplog):
    video, audio = token_files(tmp_path)
    audio.write_text('{"modality": "audio", "dim": 2, "data": [[0.5, 1.0], [NaN, 2.0]]}\n', encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["interleave", "--video", str(video), "--audio", str(audio),
                     "--out", str(tmp_path / "ctx.json")])
    assert code == 1
    assert f"{audio}: token data contains non-finite values" in caplog.text
    assert not (tmp_path / "ctx.json").exists()


def test_interleave_raw_header_with_float_length_names_file(tmp_path, caplog):
    video = tmp_path / "video.tokens"
    video.write_bytes(b"\x00" * 32)
    header = {"modality": "video", "length": 4.0, "dim": 2}
    (tmp_path / "video.tokens.json").write_text(json.dumps(header) + "\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["interleave", "--video", str(video), "--token-format", "raw", "--audio-rate", "0",
                     "--out", str(tmp_path / "ctx.json")])
    assert code == 1
    assert f"{video}: 'float' object cannot be interpreted as an integer" in caplog.text


def test_interleave_zero_rate_video_only(tmp_path, capsys):
    video, _ = token_files(tmp_path)
    out = tmp_path / "ctx.json"
    code = main(["--format", "json", "interleave", "--video", str(video),
                 "--out", str(out), "--audio-rate", "0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["audio_slots"] == 0


# ------------------------------------------------------------------ gen-qa


def build_three_annotation_manifest(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl", CAPTIONS[:3])
    assign = write_assignment_file(tmp_path / "assign.jsonl", ["clip00", "clip01", "clip02"])
    manifest = tmp_path / "manifest.jsonl"
    assert main(["synthesize", "--corpus", str(corpus), "--assignment", str(assign),
                 "--out", str(manifest)]) == 0
    return corpus, manifest


def test_genqa_pair_count(tmp_path, capsys):
    _, manifest = build_three_annotation_manifest(tmp_path)
    capsys.readouterr()
    out = tmp_path / "pairs.jsonl"
    code = main(["--format", "json", "gen-qa", "--manifest", str(manifest), "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"pairs": 6}
    assert len(load_pairs(out)) == 6


def test_genqa_includes_audio_pairs(tmp_path):
    corpus, manifest = build_three_annotation_manifest(tmp_path)
    out = tmp_path / "pairs.jsonl"
    assert main(["gen-qa", "--manifest", str(manifest), "--out", str(out),
                 "--audio-corpus", str(corpus)]) == 0
    pairs = load_pairs(out)
    assert len(pairs) == 9
    assert sum(1 for p in pairs if p.kind == KIND_AUDIO_CAPTION) == 3


def test_genqa_seed_determinism(tmp_path):
    _, manifest = build_three_annotation_manifest(tmp_path)
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        assert main(["--seed", "9", "gen-qa", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# -------------------------------------------------------------------- eval


def test_eval_avedl_perfect_table(tmp_path, capsys):
    gt = write_gt(tmp_path / "gt.jsonl", GT_ROWS)
    preds = write_gt(tmp_path / "preds.jsonl", [{**row, "score": 0.9} for row in GT_ROWS])
    assert main(["eval", "--preds", str(preds), "--gt", str(gt)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["tIoU", "0.5", "0.6", "0.7", "0.8", "0.9", "Avg."]
    assert lines[1].split() == ["mAP"] + ["100.0"] * 6


def test_eval_perfect_class_of_nine_exits_0(tmp_path, capsys):
    rows = [{"video_id": f"v{i}", "label": "dog", "start_s": 0.0, "end_s": 10.0} for i in range(9)]
    gt = write_gt(tmp_path / "gt.jsonl", rows)
    preds = write_gt(tmp_path / "preds.jsonl", [{**row, "score": 0.9} for row in rows])
    assert main(["--format", "json", "eval", "--preds", str(preds), "--gt", str(gt)]) == 0
    assert json.loads(capsys.readouterr().out)["avg_map"] == 1.0


def test_eval_vtg_json(tmp_path, capsys):
    gt = write_gt(tmp_path / "gt.jsonl", GT_ROWS)
    preds = write_gt(tmp_path / "preds.jsonl", [{**row, "score": 0.9} for row in GT_ROWS])
    code = main(["--format", "json", "eval", "--task", "vtg", "--preds", str(preds), "--gt", str(gt)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["r1_at"] == {"0.5": 1.0, "0.7": 1.0}
    assert report["miou"] == 1.0


def test_eval_sweep_air_table(tmp_path, capsys):
    gt = write_gt(tmp_path / "gt.jsonl", GT_ROWS)
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    for percent in AIR_SWEEP_PERCENTS:
        write_gt(sweep_dir / f"air_{percent}.jsonl", [{**row, "score": 0.9} for row in GT_ROWS])
    code = main(["eval", "--gt", str(gt), "--sweep-air", "--preds-dir", str(sweep_dir)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(AIR_SWEEP_PERCENTS)
    assert lines[0].split() == ["AIR", "0.5", "0.6", "0.7", "0.8", "0.9", "Avg."]
    assert [line.split()[0] for line in lines[1:]] == [f"{p}%" for p in AIR_SWEEP_PERCENTS]


def test_eval_sweep_air_json(tmp_path, capsys):
    gt = write_gt(tmp_path / "gt.jsonl", GT_ROWS)
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    for percent in AIR_SWEEP_PERCENTS:
        write_gt(sweep_dir / f"air_{percent}.jsonl", [{**row, "score": 0.9} for row in GT_ROWS])
    code = main(["--format", "json", "eval", "--gt", str(gt), "--sweep-air",
                 "--preds-dir", str(sweep_dir)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["air_percent"] for entry in payload["sweep"]] == [float(p) for p in AIR_SWEEP_PERCENTS]
    assert all(entry["report"]["avg_map"] == 1.0 for entry in payload["sweep"])


def test_eval_flag_conflicts_exit_1(tmp_path):
    gt = write_gt(tmp_path / "gt.jsonl", GT_ROWS)
    preds = write_gt(tmp_path / "preds.jsonl", [{**row, "score": 0.9} for row in GT_ROWS])
    assert main(["eval", "--gt", str(gt), "--sweep-air", "--preds", str(preds),
                 "--preds-dir", str(tmp_path)]) == 1
    assert main(["eval", "--gt", str(gt), "--sweep-air", "--task", "vtg",
                 "--preds-dir", str(tmp_path)]) == 1
    assert main(["eval", "--gt", str(gt), "--sweep-air"]) == 1
    assert main(["eval", "--gt", str(gt)]) == 1


def test_eval_missing_files_exit_2(tmp_path):
    gt = write_gt(tmp_path / "gt.jsonl", GT_ROWS)
    assert main(["eval", "--preds", str(tmp_path / "nope.jsonl"), "--gt", str(gt)]) == 2
    assert main(["eval", "--gt", str(gt), "--sweep-air", "--preds-dir", str(tmp_path / "nodir")]) == 2


# ----------------------------------------------------- config and validation


def test_config_file_overrides_defaults(tmp_path, capsys):
    video, audio = token_files(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"audio_rate": 0.5}), encoding="utf-8")
    out = tmp_path / "ctx.json"
    code = main(["--format", "json", "--config", str(config), "interleave",
                 "--video", str(video), "--audio", str(audio), "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["audio_slots"] == 50


def test_cli_flag_beats_config_file(tmp_path, capsys):
    video, audio = token_files(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"audio_rate": 0.5}), encoding="utf-8")
    out = tmp_path / "ctx.json"
    code = main(["--format", "json", "--config", str(config), "interleave",
                 "--video", str(video), "--audio", str(audio), "--out", str(out),
                 "--audio-rate", "0.25"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["audio_slots"] == 25


def test_config_unknown_key_exits_1(tmp_path):
    video, _ = token_files(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"audio_rat": 0.5}), encoding="utf-8")
    assert main(["--config", str(config), "interleave", "--video", str(video),
                 "--out", str(tmp_path / "ctx.json")]) == 1


def test_invalid_seed_exits_1(tmp_path):
    video, _ = token_files(tmp_path)
    assert main(["--seed", "-1", "interleave", "--video", str(video),
                 "--out", str(tmp_path / "ctx.json")]) == 1


def test_run_config_defaults():
    config = RunConfig()
    assert config.seed == 0
    assert config.context_len == 100
    assert config.audio_rate == 0.25
    assert config.min_segments == 3
    assert config.max_segments == 20
    assert config.k is None
    assert config.scale_grid[0] == 0.5 and config.scale_grid[-1] == 2.0


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(audio_rate=1.5)
    with pytest.raises(ValueError):
        RunConfig(min_segments=5, max_segments=3)
    with pytest.raises(ValueError):
        RunConfig(k=0)


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit):
        main(["cluster", "--corpus", "x", "--out", "y", "--frobnicate"])


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def test_module_help_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "avstitch.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("cluster", "synthesize", "interleave", "gen-qa", "eval"):
        assert name in proc.stdout
