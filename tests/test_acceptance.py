"""Acceptance gate: one criterion per test, each printing a pass/fail line.

The verdict lines print with capture suspended so they stay visible in a
plain pytest run.  Every timed criterion asserts its wall-clock budget.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from avstitch.cli import main
from avstitch.clustering import ClusterAssignment
from avstitch.corpus import Corpus, TrimmedClip
from avstitch.interleave import (
    AUDIO,
    DEFAULT_CONTEXT_LEN,
    VIDEO,
    TokenSequence,
    interleave,
    resample,
    slot_pattern,
)
from avstitch.metrics import (
    GroundTruth,
    Prediction,
    ap_at,
    evaluate_avedl,
    evaluate_vtg,
    parse_response,
    tiou,
)
from avstitch.prompts import DEFAULT_BANK, format_interval, gen_audio_pairs
from avstitch.synthesis import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_MIN_SEGMENTS,
    DEFAULT_SCALE_GRID,
    SynthesisConfig,
    build_dataset,
    write_manifest,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "template_golden.json"
CLI_GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"


def _verdict(capsys, name: str, passed: bool, detail: str = "") -> None:
    line = f"acceptance {'PASS' if passed else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


# ------------------------------------------------------------- criterion 1


def test_slot_pattern_grid(capsys):
    """Audio slots sit exactly at multiples of the stride across the rate grid."""
    start = time.perf_counter()
    ok = True
    issues = []
    for percent in (10, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100):
        stride = (100 - percent) // percent + 1  # integer oracle for w + 1
        want = {t for t in range(1, 101) if t % stride == 0}
        pattern = slot_pattern(100, percent / 100)
        got = {i + 1 for i, modality in enumerate(pattern.pattern) if modality == AUDIO}
        if got != want:
            ok = False
            issues.append(f"{percent}%")
        if percent == 25 and (pattern.n_audio, pattern.n_video) != (25, 75):
            ok = False
            issues.append("25% counts")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(capsys, "interleave slot-pattern grid", ok, f"11 rates exhaustively checked in {elapsed:.3f}s")
    assert ok, issues


# ------------------------------------------------------------- criterion 2


def test_order_preservation(capsys):
    """Per-modality subsequences equal the resampled inputs row-for-row."""
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    ok = True
    for _ in range(1000):
        length = int(rng.integers(1, 257))
        rate = float(rng.uniform(0.001, 0.999))
        dim = int(rng.integers(1, 9))
        video = TokenSequence(VIDEO, rng.normal(size=(int(rng.integers(1, 301)), dim)))
        audio = TokenSequence(AUDIO, rng.normal(size=(int(rng.integers(1, 301)), dim)))
        pattern = slot_pattern(length, rate)
        ctx = interleave(video, audio, length=length, audio_rate=rate)
        for seq, modality, count in ((audio, AUDIO, pattern.n_audio), (video, VIDEO, pattern.n_video)):
            tokens = ctx.subsequence(modality)
            if len(tokens) != count:
                ok = False
                break
            if count == 0:
                continue
            got = np.array([tok.vector for tok in tokens])
            want = resample(seq, count).data
            if not np.array_equal(got, want):
                ok = False
                break
            if [tok.source_index for tok in tokens] != list(range(1, count + 1)):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(capsys, "interleave order preservation", ok, f"1000 random cases in {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------- criterion 3


def test_annotation_integrity_at_scale(capsys):
    """Every synthesized video passes independent boundary and length checks."""
    start = time.perf_counter()
    clips = []
    assignments = {}
    cluster_sizes = [3 + (c % 6) for c in range(120)]
    i = 0
    for cluster, size in enumerate(cluster_sizes):
        for _ in range(size):
            clip_id = f"clip{i:05d}"
            clips.append(
                TrimmedClip(id=clip_id, duration_s=1.5 + (i % 40) * 0.37, caption=f"event {i}")
            )
            assignments[clip_id] = cluster
            i += 1
    corpus = Corpus(clips=tuple(clips), embedding_dim=0)
    durations = {clip.id: clip.duration_s for clip in clips}
    assignment = ClusterAssignment(assignments=assignments, n_clusters=len(cluster_sizes))
    videos = build_dataset(corpus, assignment, SynthesisConfig(videos_per_cluster=5, master_seed=3))

    ok = len(videos) >= 500
    bad = []
    for video in videos:
        lengths = np.array([seg.scaled_duration_s for seg in video.segments])
        bounds = np.concatenate([[0.0], np.cumsum(lengths)])
        starts = np.array([ann.start_s for ann in video.annotations])
        ends = np.array([ann.end_s for ann in video.annotations])
        if np.max(np.abs(starts - bounds[:-1])) > 1e-9 or np.max(np.abs(ends - bounds[1:])) > 1e-9:
            bad.append(f"{video.id}: boundary mismatch")
        if abs(bounds[-1] - video.total_duration_s) > 1e-9:
            bad.append(f"{video.id}: coverage mismatch")
        for seg in video.segments:
            if seg.scale_factor not in DEFAULT_SCALE_GRID:
                bad.append(f"{video.id}: off-grid scale {seg.scale_factor}")
            if abs(seg.scaled_duration_s - durations[seg.clip_id] * seg.scale_factor) > 1e-9:
                bad.append(f"{video.id}: length != original x scale")
    ok = ok and not bad
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(
        capsys,
        "annotation integrity at scale",
        ok,
        f"{len(videos)} videos against cumulative-sum oracle in {elapsed:.2f}s",
    )
    assert ok, bad[:5]


# ------------------------------------------------------------- criterion 4


def test_default_configuration_constants(capsys):
    """Scale grid, segment range, and context length defaults are pinned."""
    want_grid = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
    ok = (
        DEFAULT_SCALE_GRID == want_grid
        and len(DEFAULT_SCALE_GRID) == 16
        and (DEFAULT_MIN_SEGMENTS, DEFAULT_MAX_SEGMENTS) == (3, 20)
        and DEFAULT_CONTEXT_LEN == 100
    )
    _verdict(capsys, "default configuration constants", ok, "grid 0.5..2.0 x16, segments [3, 20], context 100")
    assert ok


# ------------------------------------------------------------- criterion 5


def _oracle_ap(preds, gts, thr):
    if not gts:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, preds[i].start_s, preds[i].video_id))
    gt_order = sorted(range(len(gts)), key=lambda i: (gts[i].video_id, gts[i].start_s, gts[i].end_s))
    used = set()
    flags = []
    for pi in order:
        pred, pick, pick_iou = preds[pi], None, 0.0
        for gi in gt_order:
            gt = gts[gi]
            if gi in used or gt.video_id != pred.video_id:
                continue
            inter = max(0.0, min(pred.end_s, gt.end_s) - max(pred.start_s, gt.start_s))
            union = (pred.end_s - pred.start_s) + (gt.end_s - gt.start_s) - inter
            iou = inter / union if union > 0 else 0.0
            if iou >= thr and iou > pick_iou:
                pick, pick_iou = gi, iou
        if pick is not None:
            used.add(pick)
        flags.append(pick is not None)
    ap, hits, prev_recall = 0.0, 0, 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            recall = hits / len(gts)
            ap += (recall - prev_recall) * (hits / rank)
            prev_recall = recall
    return ap


def _oracle_vtg(preds, gts):
    ious = []
    for gt in gts:
        pool = [p for p in preds if (p.video_id, p.label) == (gt.video_id, gt.label)]
        if not pool:
            ious.append(0.0)
            continue
        top = sorted(pool, key=lambda p: (-p.score, p.start_s, p.end_s))[0]
        inter = max(0.0, min(top.end_s, gt.end_s) - max(top.start_s, gt.start_s))
        union = (top.end_s - top.start_s) + (gt.end_s - gt.start_s) - inter
        ious.append(inter / union if union > 0 else 0.0)
    n = len(ious)
    return (
        sum(1 for v in ious if v >= 0.5) / n,
        sum(1 for v in ious if v >= 0.7) / n,
        sum(ious) / n,
    )


def _random_metric_instance(rng, unique_queries=False):
    videos, labels = ("v0", "v1"), ("a", "b", "c")

    def interval():
        lo = float(np.round(rng.uniform(0, 20), 3))
        return lo, lo + float(np.round(rng.uniform(0.5, 10), 3))

    gts, seen = [], set()
    for _ in range(int(rng.integers(1, 5))):
        video, label = videos[rng.integers(2)], labels[rng.integers(3)]
        if unique_queries:
            if (video, label) in seen:
                continue
            seen.add((video, label))
        lo, hi = interval()
        gts.append(GroundTruth(video, label, lo, hi))
    preds = []
    for _ in range(int(rng.integers(0, 7))):
        video, label = videos[rng.integers(2)], labels[rng.integers(3)]
        if gts and rng.random() < 0.5:
            base = gts[rng.integers(len(gts))]
            video, label = base.video_id, base.label
            lo = max(0.0, base.start_s + float(rng.uniform(-2, 2)))
            hi = max(base.end_s + float(rng.uniform(-2, 2)), lo + 0.25)
        else:
            lo, hi = interval()
        preds.append(Prediction(video, label, lo, hi, float(np.round(rng.uniform(0, 1), 3))))
    return preds, gts


def test_metric_oracle_equivalence(capsys):
    """Localization and grounding scores match brute-force references."""
    start = time.perf_counter()
    rng = np.random.default_rng(13579)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        preds, gts = _random_metric_instance(rng)
        classes = sorted({g.label for g in gts})
        report = evaluate_avedl(preds, gts)
        for thr in sorted(report.map_at):
            want = sum(
                _oracle_ap(
                    [p for p in preds if p.label == c], [g for g in gts if g.label == c], thr
                )
                for c in classes
            ) / len(classes)
            worst = max(worst, abs(report.map_at[thr] - want))
            cls = classes[int(rng.integers(len(classes)))]
            got_ap = ap_at(
                [p for p in preds if p.label == cls], [g for g in gts if g.label == cls], thr
            )
            want_ap = _oracle_ap(
                [p for p in preds if p.label == cls], [g for g in gts if g.label == cls], thr
            )
            worst = max(worst, abs(got_ap - want_ap))
        vtg_preds, vtg_gts = _random_metric_instance(rng, unique_queries=True)
        got_vtg = evaluate_vtg(vtg_preds, vtg_gts)
        want_vtg = _oracle_vtg(vtg_preds, vtg_gts)
        worst = max(worst, max(abs(g - w) for g, w in zip(got_vtg, want_vtg)))
        checked += 1

    perfect_gts = [
        GroundTruth("v1", "a", 0, 5),
        GroundTruth("v1", "b", 2, 9),
        GroundTruth("v2", "a", 1, 4),
    ]
    perfect_preds = [Prediction(g.video_id, g.label, g.start_s, g.end_s, 1.0) for g in perfect_gts]
    perfect = evaluate_avedl(perfect_preds, perfect_gts)
    exact = all(v == 1.0 for v in perfect.map_at.values()) and perfect.avg_map == 1.0
    exact = exact and evaluate_vtg(perfect_preds, perfect_gts) == (1.0, 1.0, 1.0)

    elapsed = time.perf_counter() - start
    ok = checked == 1000 and worst <= 1e-9 and exact and elapsed < 60.0
    _verdict(
        capsys,
        "metric oracle equivalence",
        ok,
        f"{checked} instances, max deviation {worst:.2e}, perfect inputs exact, {elapsed:.2f}s",
    )
    assert ok


# ------------------------------------------------------------- criterion 6


def test_time_phrase_round_trip(capsys):
    """Formatting then parsing a span of >= 10 whole tokens keeps tIoU >= 0.9.

    Spans are sampled as whole-token widths with the token width kept exactly
    representable, so the only loss is quantization: the parsed window spans
    at most one extra token, bounding tIoU below by 10/11.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    context_len = 100
    worst = 1.0
    ok = True
    for _ in range(10_000):
        total = 25.0 * int(rng.integers(1, 41))
        span_tokens = int(rng.integers(10, context_len + 1))
        offset = int(rng.integers(0, context_len - span_tokens + 1))
        token = total / context_len
        lo, hi = offset * token, (offset + span_tokens) * token
        _, _, phrase = format_interval(lo, hi, total, context_len)
        spans = parse_response(phrase, total, context_len)
        if len(spans) != 1:
            ok = False
            break
        iou = tiou(spans[0], (lo, hi))
        worst = min(worst, iou)
        if iou < 0.9:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(
        capsys,
        "time-phrase round trip",
        ok,
        f"10000 triples, worst tIoU {worst:.6f} >= 0.9, {elapsed:.2f}s",
    )
    assert ok


# ------------------------------------------------------------- criterion 7


def test_template_golden_fidelity(capsys):
    """All 9 + 7 + 22 template renderings match the golden file byte-for-byte."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    ok = list(DEFAULT_BANK.audio_caption_queries) == golden["audio_caption_queries"]

    timed = golden["timed_queries_rendered"]
    rendered = [q.replace("{tau}", timed["tau_phrase"]) for q in DEFAULT_BANK.timed_queries]
    ok = ok and rendered == timed["texts"]

    templates = DEFAULT_BANK.event_prefix_templates + DEFAULT_BANK.event_suffix_templates
    entries = golden["event_responses_rendered"]
    ok = ok and len(templates) == len(entries) == 22
    for template, entry in zip(templates, entries):
        got = DEFAULT_BANK.render_event_response(template, tuple(entry["labels"]))
        ok = ok and got == entry["text"]

    # a fixed seed must reproduce a golden string through the generation API
    clip = TrimmedClip(id="x", duration_s=3.0, caption="", labels=("rain",))
    pair = gen_audio_pairs(clip, rng=np.random.default_rng(0))
    singles = {e["text"] for e in entries if len(e["labels"]) == 1}
    ok = ok and pair.query in golden["audio_caption_queries"] and pair.response in singles

    _verdict(capsys, "template golden fidelity", ok, "9 + 7 + 22 strings byte-identical")
    assert ok


# ------------------------------------------------------------- criterion 8


def test_synthesis_scale_run(tmp_path, capsys):
    """Padded-singleton corpus at catalogue scale synthesizes in budget."""
    start = time.perf_counter()
    n_clusters = 25_270
    clips, assignments = [], {}
    for cluster in range(n_clusters):
        for j in range(3):
            clip_id = f"c{cluster:05d}_{j}"
            clips.append(
                TrimmedClip(
                    id=clip_id,
                    duration_s=2.0 + ((cluster * 3 + j) % 50) * 0.25,
                    caption=f"synthetic event {cluster}",
                )
            )
            assignments[clip_id] = cluster
    corpus = Corpus(clips=tuple(clips), embedding_dim=0)
    assignment = ClusterAssignment(assignments=assignments, n_clusters=n_clusters)
    videos = build_dataset(corpus, assignment, SynthesisConfig(videos_per_cluster=5, master_seed=11))
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(videos, manifest)
    with manifest.open("r", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    elapsed = time.perf_counter() - start
    ok = rows >= 100_000 and rows == len(videos) and elapsed < 300.0
    _verdict(capsys, "synthesis scale run", ok, f"{rows} manifest rows in {elapsed:.1f}s")
    assert ok


# ------------------------------------------------------------- criterion 9


def test_cli_determinism(tmp_path, capsys):
    """Each subcommand rerun with the same seed yields byte-identical output."""
    corpus = tmp_path / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        captions = [
            "dog barks loudly", "puppy barking outside", "dog growls and barks",
            "angry dog barking", "small dog yips", "hound bays at night",
            "rain falls softly", "heavy rain pours", "rain drums the roof",
            "storm rain lashes", "drizzle patters lightly", "rainfall in forest",
        ]
        for i, caption in enumerate(captions):
            fh.write(json.dumps({"id": f"clip{i:02d}", "duration_s": 4.0 + (i % 5), "caption": caption}) + "\n")

    from avstitch.interleave import save_tokens

    rng = np.random.default_rng(0)
    video_tok, audio_tok = tmp_path / "video.json", tmp_path / "audio.json"
    save_tokens(TokenSequence(VIDEO, rng.normal(size=(40, 8))), video_tok)
    save_tokens(TokenSequence(AUDIO, rng.normal(size=(30, 8))), audio_tok)

    outputs: dict[str, list[bytes]] = {}

    def run_twice(name, argv_for, outfile):
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}_{attempt}{outfile.suffix}"
            assert main(argv_for(out)) == 0
            blobs.append(out.read_bytes())
        outputs[name] = blobs

    run_twice(
        "cluster",
        lambda out: ["--seed", "7", "cluster", "--corpus", str(corpus), "--out", str(out),
                     "--k", "2", "--hash-embed", "64"],
        Path("assign.jsonl"),
    )
    assignment = tmp_path / "cluster_x.jsonl"
    run_twice(
        "synthesize",
        lambda out: ["--seed", "7", "synthesize", "--corpus", str(corpus),
                     "--assignment", str(assignment), "--out", str(out),
                     "--videos-per-cluster", "2"],
        Path("manifest.jsonl"),
    )
    manifest = tmp_path / "synthesize_x.jsonl"
    run_twice(
        "interleave",
        lambda out: ["--seed", "7", "interleave", "--video", str(video_tok),
                     "--audio", str(audio_tok), "--out", str(out)],
        Path("ctx.json"),
    )
    run_twice(
        "gen-qa",
        lambda out: ["--seed", "7", "gen-qa", "--manifest", str(manifest), "--out", str(out),
                     "--audio-corpus", str(corpus)],
        Path("pairs.jsonl"),
    )

    gt = tmp_path / "gt.jsonl"
    rows = [
        {"video_id": "v1", "label": "dog", "start_s": 0.0, "end_s": 10.0},
        {"video_id": "v2", "label": "rain", "start_s": 2.0, "end_s": 8.0},
    ]
    with gt.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    preds = tmp_path / "preds.jsonl"
    with preds.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({**row, "score": 0.9}) + "\n")
    capsys.readouterr()
    eval_outs = []
    for _ in range(2):
        assert main(["--seed", "7", "eval", "--preds", str(preds), "--gt", str(gt)]) == 0
        eval_outs.append(capsys.readouterr().out)
    outputs["eval"] = [blob.encode() for blob in eval_outs]

    mismatched = [name for name, (a, b) in outputs.items() if a != b]
    # run x must also equal the recorded bytes, so a change to any output fails here
    golden = {"cluster": "assign.jsonl", "synthesize": "manifest.jsonl", "interleave": "ctx.json",
              "gen-qa": "pairs.jsonl", "eval": "eval.txt"}
    drifted = [name for name, (a, _) in outputs.items() if a != (CLI_GOLDEN_DIR / golden[name]).read_bytes()]
    ok = not mismatched and not drifted and len(outputs) == 5
    _verdict(capsys, "CLI determinism", ok, "5 subcommands rerun byte-identical and match the golden files")
    assert ok, (mismatched, drifted)
