"""Seeded input generators, one per workload.

Each generator takes the seed and produces plain inputs only: JSONL files in
the given directory, or in-memory numpy arrays.  Nothing here imports
avstitch, so the program under test sees only the generated data.  The same
seed always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# the paper's audio-rate (AIR) grid, in percent
AIR_PERCENTS: tuple[int, ...] = (0, 10, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100)

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_SOUND_LABELS = (
    "speech", "music", "dog", "engine", "rain", "laughter", "siren", "birdsong",
    "applause", "wind", "typing", "footsteps",
)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _vocab(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct pseudo-words of two to four syllables, sorted."""
    words: set[str] = set()
    while len(words) < n:
        parts = rng.integers(len(_SYLLABLES), size=(n, 4))
        lengths = rng.integers(2, 5, size=n)
        for row, k in zip(parts, lengths):
            words.add("".join(_SYLLABLES[i] for i in row[:k]))
    return sorted(words)[:n]


def _write_jsonl(rows: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def _captions(rng: np.random.Generator, vocab: list[str], n: int, lo: int, hi: int) -> list[str]:
    lengths = rng.integers(lo, hi + 1, size=n)
    words = rng.integers(len(vocab), size=(n, hi))
    return [" ".join(vocab[w] for w in row[:k]) for row, k in zip(words, lengths)]


def build_inputs(seed: int, out_dir: Path, n_clusters: int) -> dict:
    """Pre-clustered corpus without embeddings, plus its assignment file.

    Cluster sizes are drawn from 1..25, so clusters of 1 and 2 clips are
    skipped by synthesis and the segment count covers its full 3..20 range.
    One clip in five also carries sound-event labels.  Returns the paths.
    """
    rng = _rng(seed, 1)
    vocab = _vocab(rng, 800)
    sizes = rng.integers(1, 26, size=n_clusters)
    n = int(sizes.sum())
    durations = np.round(rng.uniform(1.0, 30.0, size=n), 3)
    captions = _captions(rng, vocab, n, 4, 12)
    labelled = rng.random(n) < 0.2
    label_draw = rng.integers(len(_SOUND_LABELS), size=(n, 3))
    label_count = rng.integers(1, 4, size=n)
    rows: list[dict] = []
    assignment: list[dict] = []
    i = 0
    for cluster_id, size in enumerate(sizes):
        for j in range(int(size)):
            clip_id = f"c{cluster_id:05d}_{j:02d}"
            row = {"id": clip_id, "duration_s": float(durations[i]), "caption": captions[i]}
            if labelled[i]:
                row["labels"] = sorted({_SOUND_LABELS[k] for k in label_draw[i, : label_count[i]]})
            rows.append(row)
            assignment.append({"id": clip_id, "cluster": cluster_id})
            i += 1
    order = rng.permutation(n)  # the corpus file is not in cluster order
    corpus_path = out_dir / "corpus.jsonl"
    assignment_path = out_dir / "assignment.jsonl"
    _write_jsonl([rows[int(k)] for k in order], corpus_path)
    _write_jsonl(assignment, assignment_path)  # already sorted by clip id
    return {"corpus": corpus_path, "assignment": assignment_path}


def dedup_inputs(seed: int, out_dir: Path, n_clips: int) -> dict:
    """Caption-only corpus of re-uploads: every clip repeats one seeded theme caption.

    There are exactly round(n / 1.3) themes, the default cluster count, and
    each has at least one clip.  So ``cluster`` recovers the themes and
    converges in the same number of rounds on every seed, and the seed
    changes the inputs but not the amount of work.
    """
    rng = _rng(seed, 2)
    vocab = _vocab(rng, 4000)
    k = max(1, round(n_clips / 1.3))
    themes = list(dict.fromkeys(_captions(rng, vocab, 2 * k, 5, 9)))[:k]  # k distinct captions
    theme_of = np.concatenate([np.arange(k), rng.integers(k, size=n_clips - k)])
    rng.shuffle(theme_of)
    durations = np.round(rng.uniform(1.0, 30.0, size=n_clips), 3)
    rows = [{"id": f"d{i:06d}", "duration_s": float(durations[i]), "caption": themes[t]}
            for i, t in enumerate(theme_of)]
    corpus_path = out_dir / "corpus.jsonl"
    _write_jsonl(rows, corpus_path)
    return {"corpus": corpus_path}


def _model_text(rng: np.random.Generator, label: str, a: int, b: int, T: int) -> str:
    """One response in the forms a model emits, including its usual faults."""
    u = rng.random()
    if u < 0.03:
        b += T  # end token past the context: clamped by the parser
    elif u < 0.05 and a != b:
        a, b = b, a  # reversed span: dropped by the parser
    if rng.random() < 0.1:
        events = [{"description": label, "start": a, "end": b}]
        if rng.random() < 0.3:
            s = int(rng.integers(-5, T))  # negative start: clamped by the parser
            events.append({"description": label, "start": s, "end": s + int(rng.integers(1, 20))})
        return json.dumps({"events": events})
    form = int(rng.integers(3))
    if form == 0:
        return f"The {label} occurs from {a} to {b}."
    if form == 1:
        return f"{label}: from {a} to {b}"
    return f"It can be heard from {a}  to {b} in the video, then it stops."


def air_inputs(
    seed: int, out_dir: Path, n_videos: int, n_classes: int, labels_per_video: int,
    context_len: int = 100,
) -> dict:
    """Ground truth plus one seeded model run of text responses per AIR rate.

    Ground truth has one span per (video, label), so the same file serves
    the grounding (VTG) evaluation.  Each rate's run answers every ground
    truth query, misses some, adds false positives for absent labels, and
    localises with a noise that depends on the rate.  Responses are
    ``{"video_id", "label", "duration_s", "score", "text"}`` rows.
    """
    rng = _rng(seed, 3)
    labels = [f"event_{c:02d}" for c in range(n_classes)]
    T = context_len
    gts: list[dict] = []
    videos = []
    for v in range(n_videos):
        video_id = f"v{v:05d}"
        duration = round(float(rng.uniform(30.0, 300.0)), 2)
        present = sorted(int(c) for c in rng.choice(n_classes, size=labels_per_video, replace=False))
        spans = {}
        for c in present:
            length = rng.uniform(0.05, 0.4)
            start = rng.uniform(0.0, 1.0 - length)
            spans[c] = (start, start + length)
            gts.append({
                "video_id": video_id, "label": labels[c],
                "start_s": round(start * duration, 2), "end_s": round((start + length) * duration, 2),
            })
        videos.append((video_id, duration, spans))
    gt_path = out_dir / "gt.jsonl"
    _write_jsonl(gts, gt_path)

    response_paths = {}
    for percent in AIR_PERCENTS:
        # the reference model localises best near the default 25% audio rate
        off = abs(percent / 100.0 - 0.25)
        noise_tokens = 1.5 + 8.0 * off
        miss = 0.05 + 0.1 * off
        rows = []
        for video_id, duration, spans in videos:
            for c, (start, end) in spans.items():
                if rng.random() < miss:
                    text = "I could not find that event in the video."
                    score = round(float(rng.uniform(0.0, 0.3)), 3)
                else:
                    e0, e1, jitter = rng.normal(0.0, 1.0, size=3)
                    e0, e1 = e0 * noise_tokens, e1 * noise_tokens
                    a = min(max(math.floor(start * T + e0), 0), T - 1)
                    b = min(max(math.floor(end * T + e1), a), T - 1)
                    text = _model_text(rng, labels[c], a, b, T)
                    score = round(min(max(0.9 - 0.03 * (abs(e0) + abs(e1)) + 0.1 * jitter, 0.0), 1.0), 3)
                rows.append({"video_id": video_id, "label": labels[c], "duration_s": duration,
                             "score": score, "text": text})
            if rng.random() < 0.3:  # false positive for a label absent from the video
                absent = [c for c in range(n_classes) if c not in spans]
                c = absent[int(rng.integers(len(absent)))]
                a = int(rng.integers(0, T - 10))
                b = a + int(rng.integers(1, 10))
                rows.append({"video_id": video_id, "label": labels[c], "duration_s": duration,
                             "score": round(float(rng.uniform(0.0, 0.7)), 3),
                             "text": _model_text(rng, labels[c], a, b, T)})
        path = out_dir / f"responses_{percent}.jsonl"
        _write_jsonl(rows, path)
        response_paths[percent] = path
    return {"gt": gt_path, "responses": response_paths}


def ctx_inputs(seed: int, pool: int, dim: int, n_specs: int) -> dict:
    """Token matrices and a schedule of ``n_specs`` contexts to build.

    ``pool`` video and ``pool`` audio matrices whose row counts spread
    evenly over 16..256 in a seeded order, so every seed holds the same
    amount of token data; spec ``i`` pairs a seeded pick of each with audio
    rate ``AIR_PERCENTS[i % 12]``.  Reusing a pool keeps memory bounded while
    the working set (about ``2 * pool * 136 * dim * 8`` bytes) stays far
    above the CPU caches.
    """
    rng = _rng(seed, 4)
    rows = np.linspace(16, 256, pool).round().astype(int)
    video = [rng.standard_normal((int(n), dim)) for n in rng.permutation(rows)]
    audio = [rng.standard_normal((int(n), dim)) for n in rng.permutation(rows)]
    picks = rng.integers(pool, size=(n_specs, 2))
    specs = [(AIR_PERCENTS[i % len(AIR_PERCENTS)], int(v), int(a)) for i, (v, a) in enumerate(picks)]
    return {"video": video, "audio": audio, "specs": specs}
