"""Temporal localization metrics and model-response interval parsing.

Covers the dense-localization side (per-class average precision over tIoU
thresholds, averaged into mAP) and the grounding side (R1@0.5, R1@0.7,
mIoU over single-interval queries), plus a parser that turns generated
text back into second intervals.  Token endpoints are inclusive: token k
covers [k/T, (k+1)/T) of the timeline, so a span ending at token k ends at
(k+1)/T of the total duration.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

from .interleave import DEFAULT_CONTEXT_LEN
from .jsonl import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

DEFAULT_DETAIL_THRESHOLDS: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_AVG_THRESHOLDS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

TIMED_PHRASE_RE = re.compile(r"from\s+(\d+)\s+to\s+(\d+)")


@dataclass(frozen=True)
class Prediction:
    """One scored interval prediction for a labeled event."""

    video_id: str
    label: str
    start_s: float
    end_s: float
    score: float = 1.0

    def __post_init__(self) -> None:
        if not self.start_s < self.end_s:
            raise ValueError(f"need start_s < end_s, got [{self.start_s}, {self.end_s}]")
        if not isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start_s, self.end_s)


@dataclass(frozen=True)
class GroundTruth:
    """One reference interval for a labeled event."""

    video_id: str
    label: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.start_s < self.end_s:
            raise ValueError(f"need start_s < end_s, got [{self.start_s}, {self.end_s}]")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start_s, self.end_s)


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle; the localization and grounding sides are independent."""

    map_at: dict[float, float] = field(default_factory=dict)
    avg_map: float | None = None
    r1_at: dict[float, float] = field(default_factory=dict)
    miou: float | None = None
    n_videos: int = 0
    n_classes: int = 0
    n_predictions: int = 0

    def __post_init__(self) -> None:
        for name, value in self._metric_values():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for name in ("n_videos", "n_classes", "n_predictions"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def _metric_values(self):
        for thr, value in self.map_at.items():
            yield f"map_at[{thr:g}]", value
        if self.avg_map is not None:
            yield "avg_map", self.avg_map
        for thr, value in self.r1_at.items():
            yield f"r1_at[{thr:g}]", value
        if self.miou is not None:
            yield "miou", self.miou

    def as_dict(self) -> dict:
        """JSON-ready form; empty metric sides are omitted."""
        out: dict = {}
        if self.map_at:
            out["map_at"] = {f"{thr:g}": value for thr, value in sorted(self.map_at.items())}
            out["avg_map"] = self.avg_map
        if self.miou is not None:
            out["r1_at"] = {f"{thr:g}": value for thr, value in sorted(self.r1_at.items())}
            out["miou"] = self.miou
        out["counts"] = {
            "videos": self.n_videos,
            "classes": self.n_classes,
            "predictions": self.n_predictions,
        }
        return out


def tiou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection over union of two [start, end] second intervals."""
    for interval in (a, b):
        if not interval[0] < interval[1]:
            raise ValueError(f"degenerate interval {interval}")
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def _check_threshold(thr: float) -> None:
    if not 0.0 < thr <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {thr}")


class _ClassMatcher:
    """Greedy one-to-one matching of one class, prepared once for every threshold.

    match(thr) lists the matched ground truth (or None) per prediction in rank
    order.  Each prediction takes the still-unmatched ground truth in its own
    video with the highest tIoU >= thr, ties to the first by (video_id, start_s,
    end_s).  Only same-video pairs are scored: P*g tIoUs for g per video, not P*G.
    """

    def __init__(self, preds: list[Prediction], gts: list[GroundTruth]) -> None:
        self.gts = sorted(gts, key=lambda g: (g.video_id, g.start_s, g.end_s))
        by_video: dict[str, list[int]] = {}
        for gi, gt in enumerate(self.gts):
            by_video.setdefault(gt.video_id, []).append(gi)
        # rank by (-score, start_s, video_id); rows drop tIoU 0 and NaN, which pass no threshold
        self.rows: list[list[tuple[float, int]]] = []
        for pred in sorted(preds, key=lambda p: (-p.score, p.start_s, p.video_id)):
            ious = [(tiou(pred.interval, self.gts[gi].interval), gi) for gi in by_video.get(pred.video_id, ())]
            self.rows.append(sorted((c for c in ious if c[0] > 0.0), key=lambda c: (-c[0], c[1])))

    def match(self, thr: float) -> list[GroundTruth | None]:
        taken = [False] * len(self.gts)
        matches: list[GroundTruth | None] = []
        for row in self.rows:
            for iou, gi in row:
                if iou >= thr and not taken[gi]:
                    taken[gi] = True
                    matches.append(self.gts[gi])
                    break
            else:
                matches.append(None)
        return matches

    def ap(self, thr: float) -> float:
        hits, precision_sum = 0, 0.0
        for rank, match in enumerate(self.match(thr), start=1):
            if match is not None:
                hits += 1
                precision_sum += hits / rank
        # one division at the end: adding 1/n n times can exceed 1.0 by float noise
        return precision_sum / len(self.gts)


def ap_at(preds: list[Prediction], gts: list[GroundTruth], thr: float) -> float:
    """Average precision of a single class at one tIoU threshold.

    Area under the exact precision-recall step curve: each matched rank k
    contributes precision(k) * 1/n_gt, since recall rises by exactly one
    ground truth there.  No ground truth yields 0 with a warning.
    """
    _check_threshold(thr)
    if not gts:
        logger.warning("ap_at called with empty ground truth; defining AP = 0")
        return 0.0
    return _ClassMatcher(preds, gts).ap(thr)


def evaluate_avedl(
    preds: list[Prediction],
    gts: list[GroundTruth],
    detail_thresholds: tuple[float, ...] = DEFAULT_DETAIL_THRESHOLDS,
    avg_thresholds: tuple[float, ...] = DEFAULT_AVG_THRESHOLDS,
) -> EvalReport:
    """Dense-localization report: mAP per threshold plus the threshold average.

    mAP is the unweighted mean of per-class AP over classes present in the
    ground truth; predicted classes without ground truth cannot be scored
    and are skipped with a log line.
    """
    if not gts:
        raise ValueError("ground truth is empty")
    thresholds = sorted(set(detail_thresholds) | set(avg_thresholds))
    for thr in thresholds:
        _check_threshold(thr)
    classes = sorted({gt.label for gt in gts})
    orphans = sorted({p.label for p in preds} - set(classes))
    if orphans:
        logger.info("ignoring %d predicted classes absent from ground truth: %s", len(orphans), orphans)
    by_class: dict[str, tuple[list[Prediction], list[GroundTruth]]] = {label: ([], []) for label in classes}
    for pred in preds:
        if pred.label in by_class:
            by_class[pred.label][0].append(pred)
    for gt in gts:
        by_class[gt.label][1].append(gt)
    matchers = [_ClassMatcher(*by_class[c]) for c in classes]
    map_at = {thr: sum(matcher.ap(thr) for matcher in matchers) / len(matchers) for thr in thresholds}
    return EvalReport(
        map_at=map_at,
        avg_map=sum(map_at[t] for t in avg_thresholds) / len(avg_thresholds),
        n_videos=len({gt.video_id for gt in gts}),
        n_classes=len(classes),
        n_predictions=len(preds),
    )


def evaluate_vtg(
    preds: list[Prediction], gts: list[GroundTruth]
) -> tuple[float, float, float]:
    """Grounding scores (R1@0.5, R1@0.7, mIoU) over single-interval queries.

    A query is one (video_id, label) pair with exactly one ground truth.
    Only the top-scored prediction per query counts; queries without any
    prediction contribute an IoU of 0.
    """
    if not gts:
        raise ValueError("ground truth is empty")
    gt_by_query: dict[tuple[str, str], GroundTruth] = {}
    for gt in gts:
        key = (gt.video_id, gt.label)
        if key in gt_by_query:
            raise ValueError(f"duplicate ground truth for query {key}")
        gt_by_query[key] = gt
    preds_by_query: dict[tuple[str, str], list[Prediction]] = {}
    for pred in preds:
        preds_by_query.setdefault((pred.video_id, pred.label), []).append(pred)
    ious = []
    for key in sorted(gt_by_query):
        gt = gt_by_query[key]
        candidates = preds_by_query.get(key)
        if not candidates:
            ious.append(0.0)
            continue
        top = min(candidates, key=lambda p: (-p.score, p.start_s, p.end_s))
        ious.append(tiou(top.interval, gt.interval))
    n = len(ious)
    r1_05 = sum(1 for v in ious if v >= 0.5) / n
    r1_07 = sum(1 for v in ious if v >= 0.7) / n
    return r1_05, r1_07, sum(ious) / n


def vtg_report(preds: list[Prediction], gts: list[GroundTruth]) -> EvalReport:
    """Wrap evaluate_vtg into an EvalReport with query counts."""
    r1_05, r1_07, miou = evaluate_vtg(preds, gts)
    return EvalReport(
        r1_at={0.5: r1_05, 0.7: r1_07},
        miou=miou,
        n_videos=len({gt.video_id for gt in gts}),
        n_classes=len({gt.label for gt in gts}),
        n_predictions=len(preds),
    )


# ------------------------------------------------------------ text parsing


def token_span_to_seconds(
    tau_start: int,
    tau_end: int,
    total_duration_s: float,
    context_len: int = DEFAULT_CONTEXT_LEN,
) -> tuple[float, float]:
    """Seconds covered by an inclusive token span within a video."""
    start_s = tau_start / context_len * total_duration_s
    end_s = (tau_end + 1) / context_len * total_duration_s
    return start_s, end_s


def _clamp_token(tau: int, context_len: int, source: str) -> int:
    if 0 <= tau < context_len:
        return tau
    clamped = min(max(tau, 0), context_len - 1)
    logger.warning("token %d outside [0, %d] in %s; clamped to %d", tau, context_len - 1, source, clamped)
    return clamped


def _json_events(text: str) -> list[tuple[str, int, int]] | None:
    """Events from the structured response form, or None when absent.

    The form is {"events": [{"description": str, "start": int, "end": int}]}
    with token-integer endpoints; anything else falls back to phrase search.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("events"), list):
        return None
    events: list[tuple[str, int, int]] = []
    for item in payload["events"]:
        if not isinstance(item, dict):
            return None
        desc, start, end = item.get("description"), item.get("start"), item.get("end")
        if not isinstance(desc, str):
            return None
        if isinstance(start, bool) or isinstance(end, bool):
            return None
        if not isinstance(start, int) or not isinstance(end, int):
            return None
        events.append((desc, start, end))
    return events


def parse_response(
    text: str,
    total_duration_s: float,
    context_len: int = DEFAULT_CONTEXT_LEN,
) -> list[tuple]:
    """Extract second intervals from generated text.

    Structured JSON responses yield (description, start_s, end_s) triples;
    otherwise every "from <int> to <int>" phrase yields a (start_s, end_s)
    pair.  Out-of-range tokens are clamped with a warning, reversed spans
    dropped with a warning, and unparseable text gives an empty list.
    """
    if total_duration_s <= 0:
        raise ValueError(f"total_duration_s must be > 0, got {total_duration_s}")
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    events = _json_events(text)
    if events is not None:
        out: list[tuple] = []
        for desc, raw_start, raw_end in events:
            tau_start = _clamp_token(raw_start, context_len, f"event {desc!r}")
            tau_end = _clamp_token(raw_end, context_len, f"event {desc!r}")
            if tau_start > tau_end:
                logger.warning("dropping reversed span (%d, %d) in event %r", raw_start, raw_end, desc)
                continue
            out.append((desc, *token_span_to_seconds(tau_start, tau_end, total_duration_s, context_len)))
        return out
    spans: list[tuple] = []
    for match in TIMED_PHRASE_RE.finditer(text):
        raw_start, raw_end = int(match.group(1)), int(match.group(2))
        tau_start = _clamp_token(raw_start, context_len, f"phrase {match.group(0)!r}")
        tau_end = _clamp_token(raw_end, context_len, f"phrase {match.group(0)!r}")
        if tau_start > tau_end:
            logger.warning("dropping reversed span %r", match.group(0))
            continue
        spans.append(token_span_to_seconds(tau_start, tau_end, total_duration_s, context_len))
    return spans


# -------------------------------------------------------------------- I/O


def load_predictions(path: str | Path) -> list[Prediction]:
    """Read predictions JSONL; a missing score defaults to 1.0."""
    return read_jsonl(path, _prediction_from_row)


def _prediction_from_row(row: dict) -> Prediction:
    return Prediction(row["video_id"], row["label"], *_finite_interval(row), float(row.get("score", 1.0)))


def load_ground_truth(path: str | Path) -> list[GroundTruth]:
    """Read ground truth JSONL (prediction schema minus the score)."""
    return read_jsonl(path, _ground_truth_from_row)


def _ground_truth_from_row(row: dict) -> GroundTruth:
    return GroundTruth(row["video_id"], row["label"], *_finite_interval(row))


def _finite_interval(row: dict) -> tuple[float, float]:
    start_s, end_s = float(row["start_s"]), float(row["end_s"])
    if not (isfinite(start_s) and isfinite(end_s)):
        raise ValueError(f"interval bounds must be finite, got [{start_s}, {end_s}]")
    return start_s, end_s


def write_predictions(preds: list[Prediction], path: str | Path) -> None:
    write_jsonl(path, ({**_interval_row(pred), "score": pred.score} for pred in preds))


def write_ground_truth(gts: list[GroundTruth], path: str | Path) -> None:
    write_jsonl(path, (_interval_row(gt) for gt in gts))


def _interval_row(item: GroundTruth | Prediction) -> dict:
    return {
        "video_id": item.video_id,
        "label": item.label,
        "start_s": item.start_s,
        "end_s": item.end_s,
    }


# ------------------------------------------------------------- formatting


def _percent(value: float) -> str:
    return f"{100.0 * value:.1f}"


def _render_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def format_avedl_table(
    report: EvalReport, detail_thresholds: tuple[float, ...] = DEFAULT_DETAIL_THRESHOLDS
) -> str:
    """Two-line table: tIoU thresholds plus the threshold-average column."""
    header = ["tIoU"] + [f"{t:g}" for t in detail_thresholds] + ["Avg."]
    row = ["mAP"] + [_percent(report.map_at[t]) for t in detail_thresholds]
    row.append(_percent(report.avg_map if report.avg_map is not None else 0.0))
    return _render_table([header, row])


def format_vtg_table(report: EvalReport) -> str:
    """Two-line table of grounding scores."""
    header = ["", "R1@0.5", "R1@0.7", "mIoU"]
    row = [
        "VTG",
        _percent(report.r1_at[0.5]),
        _percent(report.r1_at[0.7]),
        _percent(report.miou if report.miou is not None else 0.0),
    ]
    return _render_table([header, row])


def format_air_table(
    reports: list[tuple[float, EvalReport]],
    detail_thresholds: tuple[float, ...] = DEFAULT_DETAIL_THRESHOLDS,
) -> str:
    """One row of mAP columns per audio-rate setting, rates as percents."""
    rows = [["AIR"] + [f"{t:g}" for t in detail_thresholds] + ["Avg."]]
    for air, report in reports:
        cells = [f"{air:g}%"] + [_percent(report.map_at[t]) for t in detail_thresholds]
        cells.append(_percent(report.avg_map if report.avg_map is not None else 0.0))
        rows.append(cells)
    return _render_table(rows)
