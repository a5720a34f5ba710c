"""Independent correctness checks on the pipeline's outputs.

Nothing here imports avstitch: every check recomputes its expectation from
the raw JSON the program wrote and from the generated inputs.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

SCALE_GRID = frozenset(x / 10 for x in range(5, 21))
MIN_SEGMENTS, MAX_SEGMENTS = 3, 20
CONTEXT_LEN = 100
THRESHOLDS = tuple(x / 10 for x in range(1, 10))
_PHRASE = re.compile(r"from\s+(\d+)\s+to\s+(\d+)")


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ------------------------------------------------------------ build, dedup


def check_assignment(rows: list[dict], clip_ids: list[str]) -> list[str]:
    """Every clip assigned exactly once; ids contiguous from 0, none empty."""
    problems = []
    ids = [row["id"] for row in rows]
    if sorted(ids) != sorted(clip_ids) or len(set(ids)) != len(ids):
        problems.append(f"assignment covers {len(set(ids))} distinct of {len(clip_ids)} clips in {len(ids)} rows")
    used = {row["cluster"] for row in rows}
    if used != set(range(len(used))):
        problems.append(f"cluster ids are not contiguous from 0: {len(used)} ids, max {max(used)}")
    expected_k = max(1, round(len(clip_ids) / 1.3))
    if len(used) != expected_k:
        problems.append(f"{len(used)} clusters, default k is {expected_k}")
    return problems


def check_manifest(
    rows: list[dict], corpus: dict[str, dict], cluster_of: dict[str, int], videos_per_cluster: int
) -> list[str]:
    """Recompute every video's structure from the raw manifest rows.

    Boundaries are the running float sums of the scaled durations (the
    order the program adds them in, so equality is exact), annotations
    cover the whole video, scales lie on the grid, each scaled duration is
    the corpus duration times its scale, m lies in 3..20 and within the
    cluster, no clip repeats in a video, and the set of videos is exactly
    ``videos_per_cluster`` per cluster of at least three clips.
    """
    problems = []
    sizes: dict[int, int] = {}
    for cid in cluster_of.values():
        sizes[cid] = sizes.get(cid, 0) + 1
    expected_ids = sorted(
        f"pu{cid:06d}_{i:04d}"
        for cid, size in sizes.items() if size >= MIN_SEGMENTS
        for i in range(videos_per_cluster)
    )
    ids = [row["id"] for row in rows]
    if ids != expected_ids:
        problems.append(f"manifest holds {len(ids)} videos, expected {len(expected_ids)} sorted by id")
    for row in rows:
        vid, segs, anns = row["id"], row["segments"], row["annotations"]
        cid = row["cluster"]
        m = len(segs)
        if not MIN_SEGMENTS <= m <= min(MAX_SEGMENTS, sizes.get(cid, 0)) or len(anns) != m:
            problems.append(f"{vid}: {m} segments, {len(anns)} annotations, cluster size {sizes.get(cid)}")
            continue
        clip_ids = [seg["clip_id"] for seg in segs]
        if len(set(clip_ids)) != m:
            problems.append(f"{vid}: a clip repeats within the video")
        offset = 0.0
        for seg, ann in zip(segs, anns):
            clip = corpus.get(seg["clip_id"])
            if clip is None or cluster_of.get(seg["clip_id"]) != cid:
                problems.append(f"{vid}: clip {seg['clip_id']} is not in cluster {cid}")
                break
            if seg["scale"] not in SCALE_GRID:
                problems.append(f"{vid}: scale {seg['scale']} is off the grid")
            if seg["scaled_duration_s"] != clip["duration_s"] * seg["scale"]:
                problems.append(f"{vid}: {seg['clip_id']} scaled duration {seg['scaled_duration_s']}")
            if ann["caption"] != clip["caption"]:
                problems.append(f"{vid}: caption of {seg['clip_id']} differs from the corpus")
            end = offset + seg["scaled_duration_s"]
            if ann["start_s"] != offset or ann["end_s"] != end:
                problems.append(f"{vid}: boundary [{ann['start_s']}, {ann['end_s']}] != [{offset}, {end}]")
            offset = end
        if anns[0]["start_s"] != 0.0 or not anns[-1]["end_s"] == row["total_duration_s"] == offset:
            problems.append(f"{vid}: annotations do not cover [0, {row['total_duration_s']}]")
    return problems


def check_synthesize_stdout(stdout: str, manifest: list[dict], cluster_of: dict[str, int]) -> list[str]:
    """The video and skipped-cluster counts ``synthesize`` prints."""
    sizes: dict[int, int] = {}
    for cid in cluster_of.values():
        sizes[cid] = sizes.get(cid, 0) + 1
    expected = {"videos": len(manifest), "skipped_clusters": sum(size < MIN_SEGMENTS for size in sizes.values())}
    got = json.loads(stdout)
    return [] if got == expected else [f"synthesize reports {got}, expected {expected}"]


def _tau(x: float, total: float) -> int:
    return min(int(Fraction(x) * CONTEXT_LEN / Fraction(total)), CONTEXT_LEN - 1)


def check_pairs(pairs: list[dict], manifest: list[dict], corpus_rows: list[dict]) -> list[str]:
    """Two timed pairs per annotation, in manifest order, then one audio pair per clip.

    Each timed pair's ``tau`` is recomputed in exact fractions from the
    manifest boundaries, and its phrase must appear on the timed side.
    """
    problems = []
    n_timed = sum(2 * len(row["annotations"]) for row in manifest)
    if len(pairs) != n_timed + len(corpus_rows):
        problems.append(f"{len(pairs)} pairs, expected {n_timed} timed + {len(corpus_rows)} audio")
        return problems
    i = 0
    for row in manifest:
        total = row["total_duration_s"]
        for ann in row["annotations"]:
            tau = [_tau(ann["start_s"], total), _tau(ann["end_s"], total)]
            phrase = f"from {tau[0]} to {tau[1]}"
            for kind, side in (("timed_query", "query"), ("timed_response", "response")):
                pair = pairs[i]
                i += 1
                if pair["video_id"] != row["id"] or pair["kind"] != kind or pair.get("tau") != tau:
                    problems.append(f"pair {i}: {pair['video_id']} {pair['kind']} tau {pair.get('tau')}, expected {kind} {tau}")
                elif phrase not in pair[side] or ann["caption"] not in pair["response"]:
                    problems.append(f"pair {i}: {phrase!r} or the caption is missing")
    for clip, pair in zip(corpus_rows, pairs[i:]):
        if pair["video_id"] != clip["id"] or pair["kind"] != "audio_caption" or pair["response"] != clip["caption"]:
            problems.append(f"audio pair for {clip['id']}: {pair['kind']} {pair['response'][:40]!r}")
    return problems


# ---------------------------------------------------------------- air_eval


def parse_spans(text: str, duration: float) -> list[tuple[str | None, float, float]]:
    """Reference parser: JSON event lists, else every "from X to Y" phrase.

    Tokens are clamped to the context, reversed spans dropped, and an end
    token covers its whole width.  The label is the event description, or
    None for phrase matches.
    """
    found: list[tuple[str | None, int, int]] = []
    events = None
    try:
        payload = json.loads(text)
        if isinstance(payload, dict) and isinstance(payload.get("events"), list):
            events = payload["events"]
    except json.JSONDecodeError:
        pass
    if events is not None:
        found = [(e["description"], e["start"], e["end"]) for e in events]
    else:
        found = [(None, int(a), int(b)) for a, b in _PHRASE.findall(text)]
    out = []
    for label, a, b in found:
        a, b = min(max(a, 0), CONTEXT_LEN - 1), min(max(b, 0), CONTEXT_LEN - 1)
        if a <= b:
            out.append((label, a / CONTEXT_LEN * duration, (b + 1) / CONTEXT_LEN * duration))
    return out


def check_parsed(responses: list[dict], preds: list[dict]) -> list[str]:
    """The prediction file holds exactly the reference parse of each response."""
    problems = []
    expected = []
    for row in responses:
        for label, start, end in parse_spans(row["text"], row["duration_s"]):
            expected.append((row["video_id"], label or row["label"], start, end, row["score"]))
    got = [(p["video_id"], p["label"], p["start_s"], p["end_s"], p["score"]) for p in preds]
    if len(got) != len(expected):
        problems.append(f"{len(got)} predictions parsed, expected {len(expected)}")
        return problems
    for k, (g, e) in enumerate(zip(got, expected)):
        if g[:2] != e[:2] or g[4] != e[4] or abs(g[2] - e[2]) > 1e-9 or abs(g[3] - e[3]) > 1e-9:
            problems.append(f"prediction {k}: {g} != {e}")
    return problems


def _iou(a0: float, a1: float, b0: float, b1: float) -> float:
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0.0:
        return 0.0
    return inter / ((a1 - a0) + (b1 - b0) - inter)


def brute_force_ap(preds: list[dict], gts: list[dict], thr: float) -> float:
    """AP of one class by the O(G*P) greedy matcher, summed then divided once.

    Predictions go in rank order (score descending, then start, then video
    id); each takes the unmatched same-video ground truth of highest tIoU at
    or above ``thr``, ties to the first by (video, start, end).
    """
    ranked = sorted(preds, key=lambda p: (-p["score"], p["start_s"], p["video_id"]))
    open_gts = sorted(gts, key=lambda g: (g["video_id"], g["start_s"], g["end_s"]))
    taken = [False] * len(open_gts)
    hits = 0
    precision_sum = 0.0
    for rank, p in enumerate(ranked, start=1):
        best, best_iou = -1, 0.0
        for gi, g in enumerate(open_gts):
            if taken[gi] or g["video_id"] != p["video_id"]:
                continue
            iou = _iou(p["start_s"], p["end_s"], g["start_s"], g["end_s"])
            if iou >= thr and iou > best_iou:
                best, best_iou = gi, iou
        if best >= 0:
            taken[best] = True
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(gts)


def check_map(preds: list[dict], gts: list[dict], thr: float, reported: float) -> list[str]:
    """mAP at one threshold recomputed class by class, within 1e-9."""
    classes = sorted({g["label"] for g in gts})
    aps = [
        brute_force_ap([p for p in preds if p["label"] == c], [g for g in gts if g["label"] == c], thr)
        for c in classes
    ]
    expected = sum(aps) / len(aps)
    if not abs(expected - reported) <= 1e-9:
        return [f"mAP@{thr:g} reported {reported!r}, brute force gives {expected!r}"]
    return []


def check_vtg(preds: list[dict], gts: list[dict], reported: dict) -> list[str]:
    """R1@0.5, R1@0.7 and mIoU from each query's top-scored prediction."""
    top: dict[tuple[str, str], dict] = {}
    for p in preds:
        key = (p["video_id"], p["label"])
        best = top.get(key)
        if best is None or (-p["score"], p["start_s"], p["end_s"]) < (-best["score"], best["start_s"], best["end_s"]):
            top[key] = p
    ious = []
    for g in gts:
        p = top.get((g["video_id"], g["label"]))
        ious.append(0.0 if p is None else _iou(p["start_s"], p["end_s"], g["start_s"], g["end_s"]))
    n = len(ious)
    expected = {
        "0.5": sum(v >= 0.5 for v in ious) / n,
        "0.7": sum(v >= 0.7 for v in ious) / n,
        "miou": sum(ious) / n,
    }
    got = {**reported["r1_at"], "miou": reported["miou"]}
    return [f"vtg {k} reported {got.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if not abs(got.get(k, math.inf) - v) <= 1e-9]


# -------------------------------------------------------------- ctx_loader


def expected_slots(length: int, percent: int) -> tuple[list[str], list[int]]:
    """Integer-stride slot oracle: audio at positions divisible by w + 1."""
    if percent == 0:
        return ["video"] * length, list(range(1, length + 1))
    stride = (100 - percent) // percent + 1
    modality, source = [], []
    for t in range(1, length + 1):
        if t % stride == 0:
            modality.append("audio")
            source.append(t // stride)
        else:
            modality.append("video")
            source.append(t - t // stride)
    return modality, source


def check_context(
    length: int, percent: int, video: np.ndarray, audio: np.ndarray, columns: np.ndarray,
    modality: list[str], source: list[int], vectors: list,
) -> list[str]:
    """Slots against the stride oracle; sampled columns against ``np.interp``."""
    want_modality, want_source = expected_slots(length, percent)
    if modality != want_modality or source != want_source:
        return [f"rate {percent}%: slots differ from the integer-stride oracle"]
    for mod, data in (("video", video), ("audio", audio)):
        rows = [vec for m, vec in zip(modality, vectors) if m == mod]
        if not rows:
            continue
        x = np.linspace(0.0, data.shape[0] - 1.0, num=len(rows))
        got = np.array([[row[c] for c in columns] for row in rows])
        for j, c in enumerate(columns):
            want = np.interp(x, np.arange(data.shape[0]), data[:, c])
            if not np.allclose(got[:, j], want, rtol=1e-12, atol=1e-12):
                return [f"rate {percent}%: {mod} column {c} differs from np.interp"]
    return []
