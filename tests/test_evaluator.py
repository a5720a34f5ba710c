"""Tests for temporal metrics, matching, parsing, and report formatting."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from avstitch.metrics import (
    DEFAULT_AVG_THRESHOLDS,
    DEFAULT_DETAIL_THRESHOLDS,
    EvalReport,
    GroundTruth,
    Prediction,
    _ClassMatcher,
    ap_at,
    evaluate_avedl,
    evaluate_vtg,
    format_air_table,
    format_avedl_table,
    format_vtg_table,
    load_ground_truth,
    load_predictions,
    parse_response,
    tiou,
    token_span_to_seconds,
    vtg_report,
    write_ground_truth,
    write_predictions,
)
from avstitch.prompts import format_interval


# ------------------------------------------------------- brute-force oracles


def naive_tiou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    if inter == 0.0:
        return 0.0
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def brute_force_ap(preds, gts, thr):
    """Rank-by-rank greedy matching and explicit PR-curve accumulation."""
    if not gts:
        return 0.0
    rank_order = sorted(
        range(len(preds)), key=lambda i: (-preds[i].score, preds[i].start_s, preds[i].video_id)
    )
    gt_order = sorted(range(len(gts)), key=lambda i: (gts[i].video_id, gts[i].start_s, gts[i].end_s))
    used: set[int] = set()
    flags = []
    for pi in rank_order:
        pred = preds[pi]
        choice, choice_iou = None, 0.0
        for gi in gt_order:
            if gi in used or gts[gi].video_id != pred.video_id:
                continue
            iou = naive_tiou((pred.start_s, pred.end_s), (gts[gi].start_s, gts[gi].end_s))
            if iou >= thr and iou > choice_iou:
                choice, choice_iou = gi, iou
        if choice is not None:
            used.add(choice)
        flags.append(choice is not None)
    ap, hits = 0.0, 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            ap += (hits / rank) / len(gts)
    return ap


def oracle_match_predictions(preds, gts, thr):
    """The whole-class O(G*P) greedy matcher, kept as the bit-exact reference."""
    open_gts = sorted(gts, key=lambda g: (g.video_id, g.start_s, g.end_s))
    taken = [False] * len(open_gts)
    matches = []
    for pred in sorted(preds, key=lambda p: (-p.score, p.start_s, p.video_id)):
        best = None
        best_iou = 0.0
        for gi, gt in enumerate(open_gts):
            if taken[gi] or gt.video_id != pred.video_id:
                continue
            iou = tiou(pred.interval, gt.interval)
            if iou >= thr and iou > best_iou:
                best, best_iou = gi, iou
        if best is None:
            matches.append(None)
        else:
            taken[best] = True
            matches.append(open_gts[best])
    return matches


def oracle_ap_at(preds, gts, thr):
    hits = 0
    precision_sum = 0.0
    for rank, match in enumerate(oracle_match_predictions(preds, gts, thr), start=1):
        if match is not None:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(gts)


def oracle_evaluate_avedl(preds, gts, detail_thresholds, avg_thresholds):
    """(map_at, avg_map) summed in the same order as evaluate_avedl."""
    classes = sorted({gt.label for gt in gts})
    map_at = {}
    for thr in sorted(set(detail_thresholds) | set(avg_thresholds)):
        per_class = [
            oracle_ap_at([p for p in preds if p.label == c], [g for g in gts if g.label == c], thr)
            for c in classes
        ]
        map_at[thr] = sum(per_class) / len(per_class)
    return map_at, sum(map_at[t] for t in avg_thresholds) / len(avg_thresholds)


def brute_force_map(preds, gts, thr):
    classes = sorted({g.label for g in gts})
    per_class = [
        brute_force_ap([p for p in preds if p.label == c], [g for g in gts if g.label == c], thr)
        for c in classes
    ]
    return sum(per_class) / len(per_class)


def brute_force_vtg(preds, gts):
    ious = []
    for gt in gts:
        best = None
        for pred in preds:
            if (pred.video_id, pred.label) != (gt.video_id, gt.label):
                continue
            key = (-pred.score, pred.start_s, pred.end_s)
            if best is None or key < best[0]:
                best = (key, pred)
        if best is None:
            ious.append(0.0)
        else:
            ious.append(naive_tiou((best[1].start_s, best[1].end_s), (gt.start_s, gt.end_s)))
    n = len(ious)
    return (
        sum(1 for v in ious if v >= 0.5) / n,
        sum(1 for v in ious if v >= 0.7) / n,
        sum(ious) / n,
    )


def random_instance(rng, n_pred_max=6, n_gt_max=4, n_classes=3, unique_queries=False):
    videos = ["v0", "v1"]
    labels = ["a", "b", "c"][:n_classes]

    def interval():
        start = float(np.round(rng.uniform(0, 20), 3))
        length = float(np.round(rng.uniform(0.5, 10), 3))
        return start, start + length

    gts, seen = [], set()
    for _ in range(int(rng.integers(1, n_gt_max + 1))):
        video = videos[rng.integers(len(videos))]
        label = labels[rng.integers(len(labels))]
        if unique_queries:
            if (video, label) in seen:
                continue
            seen.add((video, label))
        start, end = interval()
        gts.append(GroundTruth(video, label, start, end))
    preds = []
    for _ in range(int(rng.integers(0, n_pred_max + 1))):
        video = videos[rng.integers(len(videos))]
        label = labels[rng.integers(len(labels))]
        if rng.random() < 0.5 and gts:
            # jitter a ground truth so thresholds actually discriminate
            base = gts[rng.integers(len(gts))]
            video, label = base.video_id, base.label
            start = base.start_s + float(rng.uniform(-2, 2))
            end = max(base.end_s + float(rng.uniform(-2, 2)), start + 0.25)
            start = max(start, 0.0)
        else:
            start, end = interval()
        preds.append(Prediction(video, label, start, end, float(np.round(rng.uniform(0, 1), 3))))
    return preds, gts


# ------------------------------------------------------------------- tiou


def test_tiou_examples():
    assert tiou((0, 10), (5, 15)) == pytest.approx(1 / 3, abs=1e-12)
    assert tiou((0, 10), (0, 10)) == 1.0
    assert tiou((0, 1), (2, 3)) == 0.0


def test_tiou_symmetry_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a0, b0 = rng.uniform(0, 50, size=2)
        a = (float(a0), float(a0) + float(rng.uniform(0.1, 20)))
        b = (float(b0), float(b0) + float(rng.uniform(0.1, 20)))
        assert tiou(a, b) == pytest.approx(tiou(b, a), abs=1e-12)
        assert tiou(a, a) == 1.0
        assert 0.0 <= tiou(a, b) <= 1.0


def test_tiou_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        tiou((5, 5), (0, 10))
    with pytest.raises(ValueError, match="degenerate"):
        tiou((0, 10), (7, 3))


def test_tiou_touching_intervals_are_disjoint():
    assert tiou((0, 5), (5, 10)) == 0.0


# ----------------------------------------------------------------- matching


def test_match_prefers_highest_overlap():
    pred = Prediction("v", "a", 0, 10, 1.0)
    close = GroundTruth("v", "a", 1, 10)
    far = GroundTruth("v", "a", 4, 10)
    matches = _ClassMatcher([pred], [far, close]).match(thr=0.5)
    assert matches == [close]


def test_match_tie_breaks_by_sorted_ground_truth():
    # both halves overlap the prediction with tIoU exactly 0.5
    pred = Prediction("v", "a", 0, 10, 1.0)
    left = GroundTruth("v", "a", 0, 5)
    right = GroundTruth("v", "a", 5, 10)
    assert _ClassMatcher([pred], [right, left]).match(thr=0.4) == [left]


def test_match_respects_video_boundaries():
    pred = Prediction("v1", "a", 0, 10, 1.0)
    other_video = GroundTruth("v2", "a", 0, 10)
    assert _ClassMatcher([pred], [other_video]).match(thr=0.5) == [None]


def test_match_consumes_ground_truth_once():
    preds = [Prediction("v", "a", 0, 10, 0.9), Prediction("v", "a", 0, 10, 0.8)]
    gt = GroundTruth("v", "a", 0, 10)
    assert _ClassMatcher(preds, [gt]).match(thr=0.5) == [gt, None]


# --------------------------------------------------------------------- AP


def test_ap_perfect_single():
    gts = [GroundTruth("v", "a", 0, 10)]
    preds = [Prediction("v", "a", 0, 10, 1.0)]
    for thr in (0.1, 0.5, 0.9, 1.0):
        assert ap_at(preds, gts, thr) == 1.0


def test_ap_saturates_before_false_positive():
    gts = [GroundTruth("v", "a", 0, 10)]
    preds = [Prediction("v", "a", 0, 10, 0.9), Prediction("v", "a", 20, 30, 0.8)]
    assert ap_at(preds, gts, 0.5) == 1.0


def test_ap_zero_when_below_threshold():
    gts = [GroundTruth("v", "a", 0, 10)]
    preds = [Prediction("v", "a", 9, 20, 1.0)]
    assert ap_at(preds, gts, 0.9) == 0.0


def test_ap_false_positive_first_halves_precision():
    gts = [GroundTruth("v", "a", 0, 10)]
    preds = [Prediction("v", "a", 50, 60, 0.9), Prediction("v", "a", 0, 10, 0.8)]
    assert ap_at(preds, gts, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_ap_is_exactly_one_on_perfect_runs():
    for n in range(1, 201):
        gts = [GroundTruth(f"v{i}", "a", 0, 10) for i in range(n)]
        preds = [Prediction(f"v{i}", "a", 0, 10, 1.0) for i in range(n)]
        assert ap_at(preds, gts, 0.5) == 1.0, n


def test_ap_empty_ground_truth_warns_and_returns_zero(caplog):
    with caplog.at_level("WARNING", logger="avstitch.metrics"):
        assert ap_at([Prediction("v", "a", 0, 1, 1.0)], [], 0.5) == 0.0
    assert any("empty ground truth" in rec.message for rec in caplog.records)


def test_ap_rejects_bad_threshold():
    gts = [GroundTruth("v", "a", 0, 10)]
    with pytest.raises(ValueError, match="threshold"):
        ap_at([], gts, 0.0)
    with pytest.raises(ValueError, match="threshold"):
        ap_at([], gts, 1.5)


def test_ap_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(2025)
    for _ in range(400):
        preds, gts = random_instance(rng)
        label = gts[0].label
        class_preds = [p for p in preds if p.label == label]
        class_gts = [g for g in gts if g.label == label]
        thr = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        assert ap_at(class_preds, class_gts, thr) == pytest.approx(
            brute_force_ap(class_preds, class_gts, thr), abs=1e-9
        )


def test_ap_score_monotonicity():
    # raising the score of an already matched prediction never lowers AP
    rng = np.random.default_rng(31415)
    checked = 0
    while checked < 200:
        preds, gts = random_instance(rng)
        label = gts[0].label
        class_preds = [p for p in preds if p.label == label]
        class_gts = [g for g in gts if g.label == label]
        if not class_preds:
            continue
        matches = _ClassMatcher(class_preds, class_gts).match(0.5)
        matched_idx = [i for i, m in enumerate(matches) if m is not None]
        if not matched_idx:
            continue
        before = ap_at(class_preds, class_gts, 0.5)
        ranked = sorted(class_preds, key=lambda p: (-p.score, p.start_s, p.video_id))
        bumped = ranked[matched_idx[0]]
        top = max(p.score for p in class_preds)
        boosted = [
            Prediction(p.video_id, p.label, p.start_s, p.end_s, top + 1.0) if p is bumped else p
            for p in class_preds
        ]
        assert ap_at(boosted, class_gts, 0.5) >= before - 1e-12
        checked += 1


# ------------------------------------------------------------------- AVEDL


def test_avedl_perfect_predictor():
    gts = [
        GroundTruth("v1", "a", 0, 5),
        GroundTruth("v1", "b", 2, 9),
        GroundTruth("v2", "a", 1, 4),
    ]
    preds = [Prediction(g.video_id, g.label, g.start_s, g.end_s, 1.0) for g in gts]
    report = evaluate_avedl(preds, gts)
    assert set(report.map_at) == set(DEFAULT_DETAIL_THRESHOLDS) | set(DEFAULT_AVG_THRESHOLDS)
    assert all(v == 1.0 for v in report.map_at.values())
    assert report.avg_map == 1.0
    assert (report.n_videos, report.n_classes, report.n_predictions) == (2, 2, 3)


def test_avedl_empty_predictions_all_zero():
    gts = [GroundTruth("v1", "a", 0, 5)]
    report = evaluate_avedl([], gts)
    assert all(v == 0.0 for v in report.map_at.values())
    assert report.avg_map == 0.0


def test_avedl_unweighted_class_mean():
    # class a: one perfect match; class b: three misses -> mAP is 0.5, not 0.25
    gts = [
        GroundTruth("v", "a", 0, 10),
        GroundTruth("v", "b", 0, 10),
        GroundTruth("v", "b", 20, 30),
        GroundTruth("v", "b", 40, 50),
    ]
    preds = [Prediction("v", "a", 0, 10, 1.0)]
    report = evaluate_avedl(preds, gts)
    assert report.map_at[0.5] == pytest.approx(0.5, abs=1e-12)


def test_avedl_ignores_classes_missing_from_ground_truth():
    gts = [GroundTruth("v", "a", 0, 10)]
    preds = [Prediction("v", "a", 0, 10, 1.0), Prediction("v", "ghost", 0, 10, 1.0)]
    report = evaluate_avedl(preds, gts)
    assert report.map_at[0.5] == 1.0
    assert report.n_classes == 1


def test_avedl_rejects_empty_ground_truth():
    with pytest.raises(ValueError, match="ground truth is empty"):
        evaluate_avedl([], [])


def test_avedl_threshold_monotonicity_random():
    rng = np.random.default_rng(777)
    for _ in range(150):
        preds, gts = random_instance(rng)
        report = evaluate_avedl(preds, gts)
        values = [report.map_at[t] for t in sorted(report.map_at)]
        for lower, higher in zip(values, values[1:]):
            assert higher <= lower + 1e-12


def test_avedl_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(200):
        preds, gts = random_instance(rng)
        report = evaluate_avedl(preds, gts)
        for thr in (0.1, 0.5, 0.9):
            assert report.map_at[thr] == pytest.approx(brute_force_map(preds, gts, thr), abs=1e-9)
        want_avg = sum(brute_force_map(preds, gts, t) for t in DEFAULT_AVG_THRESHOLDS) / len(
            DEFAULT_AVG_THRESHOLDS
        )
        assert report.avg_map == pytest.approx(want_avg, abs=1e-9)


def grid_instance(rng, n_videos, n_labels, n_gts, n_preds):
    """Integer-grid intervals over many videos: tIoU ties, duplicate ground
    truths, tied scores and starts, and tIoU exactly at a threshold."""
    videos = [f"v{i}" for i in range(n_videos)]
    labels = [f"c{i}" for i in range(n_labels)]

    def interval():
        start = int(rng.integers(0, 12))
        return float(start), float(start + int(rng.integers(1, 7)))

    gts = []
    while len(gts) < n_gts:
        video, label = videos[rng.integers(n_videos)], labels[rng.integers(len(labels))]
        for _ in range(int(rng.integers(1, 5))):  # several per (video, class)
            if gts and rng.random() < 0.15:
                gts.append(GroundTruth(video, label, gts[-1].start_s, gts[-1].end_s))
            else:
                gts.append(GroundTruth(video, label, *interval()))
    preds = []
    for _ in range(n_preds):
        if rng.random() < 0.6:
            base = gts[rng.integers(len(gts))]
            video, label = base.video_id, base.label
        else:
            video, label = videos[rng.integers(n_videos)], labels[rng.integers(len(labels))]
        score = float(rng.integers(0, 5)) / 4  # few distinct scores: many ties
        preds.append(Prediction(video, label, *interval(), score))
    return preds, gts


def test_avedl_bit_identical_to_whole_class_matcher():
    rng = np.random.default_rng(4242)
    detail = (0.25, 1 / 3, 0.5, 2 / 3, 1.0)  # tIoU values the integer grid hits exactly
    # twelve classes make a pairwise (np.sum) class mean differ from the sequential one
    sizes = [(1, 1, 3, 8), (2, 4, 10, 40), (60, 12, 200, 400), (25, 4, 120, 2000), (60, 12, 600, 1200)]
    for _ in range(60):
        n_videos, n_labels = int(rng.integers(1, 61)), int(rng.choice([1, 4, 12]))
        sizes.append((n_videos, n_labels, int(rng.integers(1, 80)), int(rng.integers(0, 150))))
    for size in sizes:
        preds, gts = grid_instance(rng, *size)
        report = evaluate_avedl(preds, gts, detail, DEFAULT_AVG_THRESHOLDS)
        want_map_at, want_avg = oracle_evaluate_avedl(preds, gts, detail, DEFAULT_AVG_THRESHOLDS)
        assert report.map_at == want_map_at, size
        assert report.avg_map == want_avg, size
        label = gts[0].label
        class_preds, class_gts = [p for p in preds if p.label == label], [g for g in gts if g.label == label]
        assert ap_at(class_preds, class_gts, 0.5) == oracle_ap_at(class_preds, class_gts, 0.5)


def test_avedl_scales_with_ground_truth_per_video():
    # 20k ground truths and 20k predictions over 5k videos: the whole-class
    # matcher needs about 40 s on a 2-vCPU VM, the per-video one under 0.5 s
    rng = np.random.default_rng(99)
    n = 20_000
    gts, preds = [], []
    for i in range(n):
        video, label = f"v{i % 5000:04d}", f"c{int(rng.integers(6))}"
        start = float(rng.uniform(0, 100))
        gts.append(GroundTruth(video, label, start, start + float(rng.uniform(1, 20))))
        jitter = float(rng.uniform(-2, 2))
        preds.append(Prediction(video, label, start + jitter, start + jitter + 10.0, float(rng.random())))
    began = time.perf_counter()
    report = evaluate_avedl(preds, gts)
    elapsed = time.perf_counter() - began
    assert report.n_videos == 5000 and report.n_predictions == n
    assert 0.0 < report.map_at[0.5] < 1.0
    assert elapsed < 5.0, f"evaluate_avedl took {elapsed:.2f}s at G = P = {n}"


# --------------------------------------------------------------------- VTG


def test_vtg_all_exact():
    gts = [GroundTruth("v1", "q1", 0, 10), GroundTruth("v2", "q2", 5, 9)]
    preds = [Prediction(g.video_id, g.label, g.start_s, g.end_s, 1.0) for g in gts]
    assert evaluate_vtg(preds, gts) == (1.0, 1.0, 1.0)


def test_vtg_pinned_iou_mix():
    # top-1 IoUs of 0.6 and 0.8 -> R1@0.5 = 1.0, R1@0.7 = 0.5, mIoU = 0.7
    gts = [GroundTruth("v1", "q1", 0, 10), GroundTruth("v2", "q2", 0, 10)]
    preds = [Prediction("v1", "q1", 0, 6, 1.0), Prediction("v2", "q2", 0, 8, 1.0)]
    r1_05, r1_07, miou = evaluate_vtg(preds, gts)
    assert r1_05 == 1.0
    assert r1_07 == 0.5
    assert miou == pytest.approx(0.7, abs=1e-12)


def test_vtg_missing_prediction_counts_zero():
    gts = [GroundTruth("v1", "q1", 0, 10), GroundTruth("v2", "q2", 0, 10)]
    preds = [Prediction("v1", "q1", 0, 10, 1.0)]
    r1_05, r1_07, miou = evaluate_vtg(preds, gts)
    assert r1_05 == 0.5
    assert miou == pytest.approx(0.5, abs=1e-12)


def test_vtg_uses_top_scored_prediction():
    gts = [GroundTruth("v", "q", 0, 10)]
    preds = [
        Prediction("v", "q", 0, 10, 0.4),  # perfect but lower score
        Prediction("v", "q", 0, 5, 0.9),  # chosen; IoU 0.5
    ]
    assert evaluate_vtg(preds, gts)[2] == pytest.approx(0.5, abs=1e-12)


def test_vtg_rejects_duplicate_queries():
    gts = [GroundTruth("v", "q", 0, 10), GroundTruth("v", "q", 5, 15)]
    with pytest.raises(ValueError, match="duplicate ground truth"):
        evaluate_vtg([], gts)


def test_vtg_rejects_empty_ground_truth():
    with pytest.raises(ValueError, match="ground truth is empty"):
        evaluate_vtg([], [])


def test_vtg_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(808)
    for _ in range(300):
        preds, gts = random_instance(rng, unique_queries=True)
        got = evaluate_vtg(preds, gts)
        want = brute_force_vtg(preds, gts)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


def test_vtg_report_shape():
    gts = [GroundTruth("v1", "q1", 0, 10), GroundTruth("v2", "q2", 0, 10)]
    preds = [Prediction("v1", "q1", 0, 6, 1.0), Prediction("v2", "q2", 0, 8, 1.0)]
    report = vtg_report(preds, gts)
    assert report.r1_at == {0.5: 1.0, 0.7: 0.5}
    assert report.miou == pytest.approx(0.7, abs=1e-12)
    assert report.map_at == {}
    assert (report.n_videos, report.n_classes, report.n_predictions) == (2, 2, 2)


# ----------------------------------------------------------------- parsing


def test_parse_phrase_example():
    assert parse_response("from 17 to 35", 200.0, 100) == [(34.0, 72.0)]


def test_parse_json_example():
    text = '{"events":[{"description":"dog barks","start":0,"end":9}]}'
    assert parse_response(text, 100.0, 100) == [("dog barks", 0.0, 10.0)]


def test_parse_plain_text_empty():
    assert parse_response("no event occurs", 100.0, 100) == []


def test_parse_multiple_phrases_in_order():
    text = "A dog barks from 0 to 9. Later, from 50 to 59, a cat meows."
    assert parse_response(text, 100.0, 100) == [(0.0, 10.0), (50.0, 60.0)]


def test_parse_clamps_out_of_range_tokens(caplog):
    with caplog.at_level("WARNING", logger="avstitch.metrics"):
        spans = parse_response("from 17 to 350", 100.0, 100)
    assert spans == [(17.0, 100.0)]
    assert any("clamped" in rec.message for rec in caplog.records)


def test_parse_drops_reversed_spans(caplog):
    with caplog.at_level("WARNING", logger="avstitch.metrics"):
        spans = parse_response("from 30 to 10", 100.0, 100)
    assert spans == []
    assert any("reversed" in rec.message for rec in caplog.records)


def test_parse_json_takes_precedence_over_phrases():
    text = '{"events":[{"description":"from 1 to 2","start":10,"end":19}]}'
    assert parse_response(text, 100.0, 100) == [("from 1 to 2", 10.0, 20.0)]


def test_parse_malformed_json_falls_back_to_phrases():
    assert parse_response('{"events": "not a list"} from 0 to 9', 100.0, 100) == [(0.0, 10.0)]
    assert parse_response('{"events":[{"description":7,"start":0,"end":9}]}', 100.0, 100) == []
    float_tokens = '{"events":[{"description":"x","start":0.5,"end":9}]}'
    assert parse_response(float_tokens, 100.0, 100) == []


def test_parse_empty_events_list():
    assert parse_response('{"events": []}', 100.0, 100) == []


def test_parse_validates_preconditions():
    with pytest.raises(ValueError):
        parse_response("from 0 to 9", 0.0, 100)
    with pytest.raises(ValueError):
        parse_response("from 0 to 9", 10.0, 0)


def test_token_span_inverse_of_phrase_parse():
    rng = np.random.default_rng(606)
    for _ in range(200):
        ctx = int(rng.integers(1, 200))
        total = float(np.round(rng.uniform(1, 500), 3))
        tau_start = int(rng.integers(0, ctx))
        tau_end = int(rng.integers(tau_start, ctx))
        spans = parse_response(f"from {tau_start} to {tau_end}", total, ctx)
        assert spans == [token_span_to_seconds(tau_start, tau_end, total, ctx)]


def test_format_parse_round_trip_bound():
    # parsed span contains the original; each edge moves less than one token
    rng = np.random.default_rng(909)
    for _ in range(300):
        ctx = 100
        total = float(np.round(rng.uniform(10, 500), 3))
        start = float(rng.uniform(0, total))
        end = float(rng.uniform(start, total))
        if end - start < 1e-6:
            continue
        tau_start, tau_end, phrase = format_interval(start, end, total, ctx)
        (got_start, got_end), = parse_response(phrase, total, ctx)
        token = total / ctx
        assert got_start <= start + 1e-9 and start - got_start < token + 1e-9
        assert got_end >= end - 1e-9 and got_end - end <= token + 1e-9
        span = end - start
        assert tiou((got_start, got_end), (start, end)) >= span / (span + 2 * token) - 1e-9


# ------------------------------------------------------------------ report


def test_report_rejects_out_of_range_values():
    with pytest.raises(ValueError, match="map_at"):
        EvalReport(map_at={0.5: 1.5})
    with pytest.raises(ValueError, match="miou"):
        EvalReport(miou=-0.1)
    with pytest.raises(ValueError, match="n_videos"):
        EvalReport(n_videos=-1)


def test_report_as_dict_shapes():
    avedl = EvalReport(map_at={0.5: 0.25, 0.1: 0.5}, avg_map=0.375, n_videos=2, n_classes=1, n_predictions=3)
    payload = avedl.as_dict()
    assert payload["map_at"] == {"0.1": 0.5, "0.5": 0.25}
    assert payload["avg_map"] == 0.375
    assert "r1_at" not in payload
    assert payload["counts"] == {"videos": 2, "classes": 1, "predictions": 3}
    vtg = EvalReport(r1_at={0.5: 1.0, 0.7: 0.5}, miou=0.7)
    assert "map_at" not in vtg.as_dict()
    assert vtg.as_dict()["miou"] == 0.7


# -------------------------------------------------------------------- I/O


def test_prediction_validation():
    with pytest.raises(ValueError, match="start_s < end_s"):
        Prediction("v", "a", 5, 5, 1.0)
    with pytest.raises(ValueError, match="finite"):
        Prediction("v", "a", 0, 5, math.inf)
    with pytest.raises(ValueError, match="start_s < end_s"):
        GroundTruth("v", "a", 9, 3)


def test_prediction_io_round_trip(tmp_path):
    preds = [Prediction("v1", "a", 0.5, 2.25, 0.75), Prediction("v2", "b", 1.0, 4.0, 1.0)]
    path = tmp_path / "preds.jsonl"
    write_predictions(preds, path)
    assert load_predictions(path) == preds


def test_ground_truth_io_round_trip(tmp_path):
    gts = [GroundTruth("v1", "a", 0.5, 2.25), GroundTruth("v2", "b", 1.0, 4.0)]
    path = tmp_path / "gt.jsonl"
    write_ground_truth(gts, path)
    assert load_ground_truth(path) == gts


def test_load_predictions_defaults_score(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        json.dumps({"video_id": "v", "label": "a", "start_s": 0.0, "end_s": 1.0}) + "\n",
        encoding="utf-8",
    )
    assert load_predictions(path)[0].score == 1.0


def test_load_predictions_reports_line_numbers(tmp_path):
    path = tmp_path / "preds.jsonl"
    good = json.dumps({"video_id": "v", "label": "a", "start_s": 0.0, "end_s": 1.0})
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_predictions(path)
    gt_path = tmp_path / "gt.jsonl"
    gt_path.write_text(json.dumps({"video_id": "v"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        load_ground_truth(gt_path)


# ------------------------------------------------------------- formatting


def perfect_report():
    gts = [GroundTruth("v", "a", 0, 10)]
    preds = [Prediction("v", "a", 0, 10, 1.0)]
    return evaluate_avedl(preds, gts)


def test_avedl_table_layout():
    lines = format_avedl_table(perfect_report()).splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["tIoU", "0.5", "0.6", "0.7", "0.8", "0.9", "Avg."]
    assert lines[1].split() == ["mAP"] + ["100.0"] * 6


def test_vtg_table_layout():
    gts = [GroundTruth("v1", "q1", 0, 10), GroundTruth("v2", "q2", 0, 10)]
    preds = [Prediction("v1", "q1", 0, 6, 1.0), Prediction("v2", "q2", 0, 8, 1.0)]
    lines = format_vtg_table(vtg_report(preds, gts)).splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["R1@0.5", "R1@0.7", "mIoU"]
    assert lines[1].split() == ["VTG", "100.0", "50.0", "70.0"]


def test_air_table_layout():
    report = perfect_report()
    rates = [0.0, 10.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
    lines = format_air_table([(r, report) for r in rates]).splitlines()
    assert len(lines) == 13
    assert lines[0].split() == ["AIR", "0.5", "0.6", "0.7", "0.8", "0.9", "Avg."]
    for rate, line in zip(rates, lines[1:]):
        cells = line.split()
        assert cells[0] == f"{rate:g}%"
        assert cells[1:] == ["100.0"] * 6
