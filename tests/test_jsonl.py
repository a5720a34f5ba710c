"""Tests for the shared JSONL codec: strict JSON on every interchange file."""

from __future__ import annotations

import json
import logging
import re

import pytest

from avstitch.cli import main
from avstitch.clustering import ClusterAssignment, load_assignment, write_assignment
from avstitch.corpus import Corpus, TrimmedClip, load_corpus, write_corpus
from avstitch.metrics import (
    GroundTruth,
    Prediction,
    load_ground_truth,
    load_predictions,
    write_ground_truth,
    write_predictions,
)
from avstitch.prompts import load_pairs
from avstitch.synthesis import load_manifest

# loader, a row template ("%d" numbers the row, "@" marks the number under test), a valid number
LOADER_ROWS = {
    "corpus": (load_corpus, '{"id": "c%d", "duration_s": @, "caption": "ok"}', "1.5"),
    "assignment": (load_assignment, '{"id": "c%d", "cluster": @}', "0"),
    "manifest": (
        load_manifest,
        '{"id": "v%d", "cluster": 0, "total_duration_s": @, '
        '"segments": [{"clip_id": "c", "scale": 1.0, "scaled_duration_s": 2.0}], '
        '"annotations": [{"caption": "x", "start_s": 0.0, "end_s": 2.0}]}',
        "2.0",
    ),
    "pairs": (
        load_pairs,
        '{"video_id": "v%d", "kind": "audio_caption", "query": "q", "response": "r", "tau": [0, @]}',
        "1",
    ),
    "predictions": (
        load_predictions,
        '{"video_id": "v%d", "label": "a", "start_s": @, "end_s": 1.0, "score": 0.5}',
        "0.0",
    ),
    "ground_truth": (
        load_ground_truth,
        '{"video_id": "v%d", "label": "a", "start_s": @, "end_s": 1.0}',
        "0.0",
    ),
}


@pytest.mark.parametrize(
    "token, error",
    [
        ("NaN", "NaN is not valid JSON"),
        ("Infinity", "Infinity is not valid JSON"),
        ("-Infinity", "-Infinity is not valid JSON"),
        ("nul", "malformed JSON"),
    ],
)
@pytest.mark.parametrize("kind", sorted(LOADER_ROWS))
def test_loader_rejects_bad_number_with_file_and_line(tmp_path, kind, token, error):
    loader, row, valid = LOADER_ROWS[kind]
    first = (row % 0).replace("@", valid)
    good = tmp_path / "good.jsonl"
    good.write_text(first + "\n\n" + (row % 1).replace("@", valid) + "\n", encoding="utf-8")
    loader(good)  # the same rows with a finite number load
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + "\n\n" + (row % 1).replace("@", token) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:3: {error}")):
        loader(bad)


@pytest.mark.parametrize(
    "write, records",
    [
        (write_corpus, Corpus.from_clips([TrimmedClip("a", 1.0, "ok"), TrimmedClip("b", float("inf"), "ok")])),
        (write_ground_truth, [GroundTruth("v", "a", 0.0, 1.0), GroundTruth("v", "a", float("-inf"), 1.0)]),
        (write_predictions, [Prediction("v", "a", 0.0, 1.0), Prediction("v", "a", 0.0, float("inf"))]),
    ],
)
def test_writer_rejects_non_finite_float(tmp_path, write, records):
    path = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
        write(records, path)
    assert list(tmp_path.iterdir()) == []  # no partial output, no temporary file
    path.write_bytes(b"old contents\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
        write(records, path)
    assert path.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("token", ["-1e999", '"-inf"'])
@pytest.mark.parametrize("kind", ["predictions", "ground_truth"])
def test_interval_loader_rejects_non_finite_bound(tmp_path, kind, token):
    # an overflowing literal and a float() string both decode to -inf
    loader, row, valid = LOADER_ROWS[kind]
    bad = tmp_path / "bad.jsonl"
    bad.write_text((row % 0).replace("@", valid) + "\n\n" + (row % 1).replace("@", token) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:3: interval bounds must be finite")):
        loader(bad)


MANIFEST_NUMBERS = ["total_duration_s", "scale", "scaled_duration_s", "start_s", "end_s"]


def manifest_row(token: str = "", fields: tuple[str, ...] = ()) -> str:
    """A valid two-segment manifest row with ``token`` as the JSON of ``fields`` in its last segment."""
    row = {
        "id": "v",
        "cluster": 0,
        "total_duration_s": 5.0,
        "segments": [{"clip_id": "a", "scale": 1.0, "scaled_duration_s": 2.0},
                     {"clip_id": "b", "scale": 2.0, "scaled_duration_s": 3.0}],
        "annotations": [{"caption": "x", "start_s": 0.0, "end_s": 2.0},
                        {"caption": "y", "start_s": 2.0, "end_s": 5.0}],
    }
    for field in fields:
        holder = row["annotations"][1] if field in ("start_s", "end_s") else row["segments"][1]
        (row if field == "total_duration_s" else holder)[field] = "@"
    return json.dumps(row).replace('"@"', token)


@pytest.mark.parametrize("token", ["1e999", '"inf"'])
@pytest.mark.parametrize("field", MANIFEST_NUMBERS)
def test_manifest_loader_rejects_non_finite_number(tmp_path, field, token):
    # an overflowing literal and a float() string both decode to inf
    path = tmp_path / "manifest.jsonl"
    path.write_text(manifest_row() + "\n\n" + manifest_row(token, (field,)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {field} must be finite, got inf")):
        load_manifest(path)


def test_cli_genqa_rejects_infinite_manifest_segment(tmp_path, caplog):
    # an infinite last segment ending at an infinite total passes every consistency check; gen-qa
    # then died with an OverflowError traceback
    path = tmp_path / "manifest.jsonl"
    row = manifest_row("1e999", ("scaled_duration_s", "end_s", "total_duration_s"))
    path.write_text(row + "\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["gen-qa", "--manifest", str(path), "--out", str(tmp_path / "pairs.jsonl")])
    assert code == 1
    assert f"{path}:1: scaled_duration_s must be finite, got inf" in caplog.text
    assert not (tmp_path / "pairs.jsonl").exists()


def test_assignment_writes_non_ascii_ids_as_utf8(tmp_path):
    path = tmp_path / "assign.jsonl"
    write_assignment(ClusterAssignment(assignments={"café": 0}, n_clusters=1), path)
    assert path.read_bytes() == '{"id": "café", "cluster": 0}\n'.encode("utf-8")
    assert load_assignment(path).assignments == {"café": 0}


def test_cli_synthesize_rejects_infinite_duration(tmp_path, caplog):
    corpus = tmp_path / "corpus.jsonl"
    rows = [f'{{"id": "c{i}", "duration_s": 2.0, "caption": "x"}}' for i in range(3)]
    rows[1] = '{"id": "c1", "duration_s": Infinity, "caption": "x"}'
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assignment = tmp_path / "assign.jsonl"
    assignment.write_text("".join(f'{{"id": "c{i}", "cluster": 0}}\n' for i in range(3)), encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["synthesize", "--corpus", str(corpus), "--assignment", str(assignment),
                     "--out", str(tmp_path / "manifest.jsonl")])
    assert code == 1
    assert f"{corpus}:2: Infinity is not valid JSON" in caplog.text


def test_cli_eval_rejects_negative_infinite_start(tmp_path, caplog):
    gt = tmp_path / "gt.jsonl"
    gt.write_text('{"video_id": "v", "label": "a", "start_s": -Infinity, "end_s": 1.0}\n', encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"video_id": "v", "label": "a", "start_s": 0.0, "end_s": 1.0}\n', encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["eval", "--preds", str(preds), "--gt", str(gt)])
    assert code == 1
    assert f"{gt}:1: -Infinity is not valid JSON" in caplog.text


def test_cli_eval_rejects_overflowing_start(tmp_path, caplog):
    gt = tmp_path / "gt.jsonl"
    gt.write_text('{"video_id": "v", "label": "a", "start_s": -1e999, "end_s": 1.0}\n', encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"video_id": "v", "label": "a", "start_s": 0.0, "end_s": 1.0}\n', encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="avstitch.cli"):
        code = main(["eval", "--preds", str(preds), "--gt", str(gt)])
    assert code == 1
    assert f"{gt}:1: interval bounds must be finite" in caplog.text
