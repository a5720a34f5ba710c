"""Pseudo-untrimmed video synthesis from clustered trimmed clips.

Builds long synthetic videos by sampling clips from one cluster, scaling
each clip's duration by a random factor from a discrete grid, permuting the
order, and concatenating.  Because every source clip is fully captioned, the
exact temporal boundary of each segment in the concatenation is known, which
is the whole point: the output manifest pairs each caption with its
``[start_s, end_s]`` interval in the synthetic timeline.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

import numpy as np

from .clustering import ClusterAssignment
from .corpus import Corpus, TrimmedClip
from .jsonl import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

# playback-speed factors: half to double speed in steps of 0.1
DEFAULT_SCALE_GRID: tuple[float, ...] = (
    0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0,
)
DEFAULT_MIN_SEGMENTS = 3
DEFAULT_MAX_SEGMENTS = 20

# construction is exact; the tolerance only absorbs float noise on reload
_EPS = 1e-9


@dataclass(frozen=True)
class ScaledSegment:
    """One clip placed into a synthetic video at a given playback scale."""

    clip_id: str
    caption: str
    scale_factor: float
    original_duration_s: float
    scaled_duration_s: float

    def __post_init__(self) -> None:
        if self.scale_factor <= 0:
            raise ValueError(f"segment {self.clip_id!r}: scale_factor must be > 0")
        if self.original_duration_s <= 0:
            raise ValueError(f"segment {self.clip_id!r}: original_duration_s must be > 0")
        expected = self.original_duration_s * self.scale_factor
        if abs(self.scaled_duration_s - expected) > _EPS:
            raise ValueError(
                f"segment {self.clip_id!r}: scaled_duration_s {self.scaled_duration_s} "
                f"!= original x scale = {expected}"
            )


@dataclass(frozen=True)
class TemporalAnnotation:
    """Caption tied to its interval in the synthetic timeline."""

    caption: str
    start_s: float
    end_s: float
    segment_index: int

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError(
                f"annotation needs 0 <= start < end, got [{self.start_s}, {self.end_s}]"
            )


@dataclass(frozen=True)
class PseudoUntrimmedVideo:
    """Ordered scaled segments plus the derived boundary annotations.

    Annotations are contiguous, cover ``[0, total_duration_s]``, and carry
    one caption per segment in segment order.
    """

    id: str
    source_cluster: int
    total_duration_s: float
    segments: tuple[ScaledSegment, ...]
    annotations: tuple[TemporalAnnotation, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError(f"video {self.id!r}: needs at least one segment")
        if len(self.annotations) != len(self.segments):
            raise ValueError(f"video {self.id!r}: one annotation per segment required")
        if abs(self.annotations[0].start_s) > _EPS:
            raise ValueError(f"video {self.id!r}: first annotation must start at 0")
        for i, (seg, ann) in enumerate(zip(self.segments, self.annotations)):
            if ann.segment_index != i:
                raise ValueError(f"video {self.id!r}: annotation {i} indexes segment {ann.segment_index}")
            if abs((ann.end_s - ann.start_s) - seg.scaled_duration_s) > _EPS:
                raise ValueError(
                    f"video {self.id!r}: annotation {i} length != scaled segment duration"
                )
            if i + 1 < len(self.annotations):
                nxt = self.annotations[i + 1]
                if abs(nxt.start_s - ann.end_s) > _EPS:
                    raise ValueError(f"video {self.id!r}: gap between annotations {i} and {i + 1}")
        if abs(self.annotations[-1].end_s - self.total_duration_s) > _EPS:
            raise ValueError(f"video {self.id!r}: annotations do not cover the full duration")


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for dataset synthesis; defaults reproduce the reference setup."""

    min_segments: int = DEFAULT_MIN_SEGMENTS
    max_segments: int = DEFAULT_MAX_SEGMENTS
    scale_grid: tuple[float, ...] = field(default=DEFAULT_SCALE_GRID)
    videos_per_cluster: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.min_segments <= self.max_segments:
            raise ValueError(
                f"need 1 <= min_segments <= max_segments, got [{self.min_segments}, {self.max_segments}]"
            )
        if not self.scale_grid or any(s <= 0 for s in self.scale_grid):
            raise ValueError("scale_grid must be non-empty with positive factors")
        if self.videos_per_cluster < 1:
            raise ValueError("videos_per_cluster must be >= 1")


def select_clips(
    cluster_members: list[TrimmedClip] | tuple[TrimmedClip, ...],
    m: int,
    rng: np.random.Generator,
) -> list[TrimmedClip]:
    """Sample ``m`` distinct clips uniformly without replacement, order as drawn."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > len(cluster_members):
        raise ValueError(f"cannot select {m} clips from a cluster of {len(cluster_members)}")
    idx = rng.choice(len(cluster_members), size=m, replace=False)
    return [cluster_members[int(i)] for i in idx]


def scale_segment(
    clip: TrimmedClip,
    rng: np.random.Generator,
    grid: tuple[float, ...] = DEFAULT_SCALE_GRID,
) -> ScaledSegment:
    """Scale a clip's duration by a factor drawn uniformly from the grid."""
    if not grid:
        raise ValueError("scale grid is empty")
    factor = float(grid[int(rng.integers(len(grid)))])
    return ScaledSegment(
        clip_id=clip.id,
        caption=clip.caption,
        scale_factor=factor,
        original_duration_s=clip.duration_s,
        scaled_duration_s=clip.duration_s * factor,
    )


def compute_annotations(
    segments: tuple[ScaledSegment, ...] | list[ScaledSegment],
) -> tuple[TemporalAnnotation, ...]:
    """Derive boundary annotations from segment order via cumulative offsets.

    Segment ``i`` covers ``[offset_i, offset_i + scaled_duration_i]`` where
    ``offset_i`` is the summed scaled duration of all preceding segments.
    """
    annotations: list[TemporalAnnotation] = []
    offset = 0.0
    for i, seg in enumerate(segments):
        end = offset + seg.scaled_duration_s
        annotations.append(
            TemporalAnnotation(caption=seg.caption, start_s=offset, end_s=end, segment_index=i)
        )
        offset = end
    return tuple(annotations)


def assemble(
    segments: list[ScaledSegment] | tuple[ScaledSegment, ...],
    rng: np.random.Generator,
    video_id: str = "video",
    source_cluster: int = 0,
) -> PseudoUntrimmedVideo:
    """Permute segments uniformly at random and concatenate.

    The permutation comes from the seeded generator (Fisher-Yates via
    ``rng.permutation``), then annotations follow from the cumulative sum of
    scaled durations in the permuted order.
    """
    if not segments:
        raise ValueError("cannot assemble a video from zero segments")
    order = rng.permutation(len(segments))
    permuted = tuple(segments[int(i)] for i in order)
    annotations = compute_annotations(permuted)
    return PseudoUntrimmedVideo(
        id=video_id,
        source_cluster=source_cluster,
        total_duration_s=annotations[-1].end_s,
        segments=permuted,
        annotations=annotations,
    )


def derive_seed(master_seed: int, cluster_id: int, video_index: int) -> int:
    """Stable per-video RNG seed, independent of cluster processing order."""
    digest = hashlib.blake2b(
        f"{master_seed}:{cluster_id}:{video_index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def build_dataset(
    corpus: Corpus,
    assignment: ClusterAssignment,
    config: SynthesisConfig = SynthesisConfig(),
) -> list[PseudoUntrimmedVideo]:
    """Synthesize videos for every cluster large enough to sample from.

    For each eligible cluster (size >= ``min_segments``) and each video slot,
    a dedicated RNG seeded from (master_seed, cluster, index) draws the
    segment count m in [min_segments, min(max_segments, cluster size)], the
    clip sample, the scale factors, and the permutation.  Clips may repeat
    across videos of one cluster but never within a video.  Output is sorted
    by video id; clusters below the size floor are skipped and counted in a
    log line.
    """
    by_id = {clip.id: clip for clip in corpus.clips}
    missing = sorted(set(assignment.assignments) - set(by_id))
    if missing:
        raise ValueError(f"assignment references unknown clip ids, e.g. {missing[0]!r}")

    videos: list[PseudoUntrimmedVideo] = []
    skipped = 0
    for cluster_id, members in assignment.groups().items():
        clips = [by_id[m] for m in members]
        if len(clips) < config.min_segments:
            skipped += 1
            continue
        upper = min(config.max_segments, len(clips))
        for index in range(config.videos_per_cluster):
            rng = np.random.default_rng(derive_seed(config.master_seed, cluster_id, index))
            m = int(rng.integers(config.min_segments, upper + 1))
            chosen = select_clips(clips, m, rng)
            segments = [scale_segment(clip, rng, config.scale_grid) for clip in chosen]
            videos.append(
                assemble(
                    segments,
                    rng,
                    video_id=f"pu{cluster_id:06d}_{index:04d}",
                    source_cluster=cluster_id,
                )
            )
    videos.sort(key=lambda v: v.id)
    logger.info(
        "synthesized %d videos from %d clusters (%d below size %d skipped)",
        len(videos), assignment.n_clusters, skipped, config.min_segments,
    )
    return videos


def count_skipped_clusters(assignment: ClusterAssignment, min_segments: int) -> int:
    """How many clusters are too small to produce a video."""
    return sum(1 for members in assignment.groups().values() if len(members) < min_segments)


def write_manifest(videos: list[PseudoUntrimmedVideo], path: str | Path) -> None:
    """Write one JSONL row per video, sorted by video id."""
    write_jsonl(path, (_video_row(video) for video in sorted(videos, key=lambda v: v.id)))


def _video_row(video: PseudoUntrimmedVideo) -> dict:
    return {
        "id": video.id,
        "cluster": video.source_cluster,
        "total_duration_s": video.total_duration_s,
        "segments": [
            {
                "clip_id": seg.clip_id,
                "scale": seg.scale_factor,
                "scaled_duration_s": seg.scaled_duration_s,
            }
            for seg in video.segments
        ],
        "annotations": [
            {"caption": ann.caption, "start_s": ann.start_s, "end_s": ann.end_s}
            for ann in video.annotations
        ],
    }


def load_manifest(path: str | Path) -> list[PseudoUntrimmedVideo]:
    """Load a manifest written by :func:`write_manifest`.

    Original clip durations are reconstructed as scaled duration / scale, so
    they may differ from the source corpus values by float rounding.
    """
    return read_jsonl(path, _video_from_row)


def _video_from_row(row: dict) -> PseudoUntrimmedVideo:
    segments_raw = row["segments"]
    annotations_raw = row["annotations"]
    if len(segments_raw) != len(annotations_raw):
        raise ValueError("segment and annotation counts differ")
    segments = []
    for seg, ann in zip(segments_raw, annotations_raw):
        scale, scaled = _finite(seg, "scale"), _finite(seg, "scaled_duration_s")
        segments.append(
            ScaledSegment(
                clip_id=seg["clip_id"],
                caption=ann["caption"],
                scale_factor=scale,
                original_duration_s=scaled / scale,
                scaled_duration_s=scaled,
            )
        )
    annotations = tuple(
        TemporalAnnotation(
            caption=ann["caption"],
            start_s=_finite(ann, "start_s"),
            end_s=_finite(ann, "end_s"),
            segment_index=i,
        )
        for i, ann in enumerate(annotations_raw)
    )
    return PseudoUntrimmedVideo(
        id=row["id"],
        source_cluster=int(row["cluster"]),
        total_duration_s=_finite(row, "total_duration_s"),
        segments=tuple(segments),
        annotations=annotations,
    )


def _finite(row: dict, key: str) -> float:
    value = float(row[key])
    if not isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value
