"""Caption-embedding clustering for grouping trimmed clips by semantic theme.

Implements seeded spherical k-means (cosine distance on L2-normalized
embeddings) with k-means++ initialization and empty-cluster repair.  Points
are processed in clip-id order internally, so the result is invariant to the
order clips appear in the corpus file.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .jsonl import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

DEFAULT_CLIPS_PER_CLUSTER = 1.3


@dataclass(frozen=True)
class ClusterAssignment:
    """Clip-id to cluster-id mapping plus optional fit diagnostics.

    Cluster ids are contiguous integers in ``[0, n_clusters)`` and every
    cluster is non-empty.  ``centroids`` (one unit vector per cluster) and
    ``objective_history`` (sum of cosine distances to assigned centers after
    each update round) are populated by :func:`cluster` and absent on
    assignments loaded from disk.
    """

    assignments: dict[str, int]
    n_clusters: int
    centroids: tuple[tuple[float, ...], ...] | None = None
    objective_history: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("assignment is empty")
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        seen: set[int] = set()
        for clip_id, cid in self.assignments.items():
            if not isinstance(cid, int) or isinstance(cid, bool):
                raise ValueError(f"clip {clip_id!r}: cluster id must be an int, got {cid!r}")
            if not 0 <= cid < self.n_clusters:
                raise ValueError(
                    f"clip {clip_id!r}: cluster id {cid} out of range [0, {self.n_clusters})"
                )
            seen.add(cid)
        if len(seen) != self.n_clusters:
            empty = min(set(range(self.n_clusters)) - seen)
            raise ValueError(f"cluster {empty} is empty; ids must be contiguous and non-empty")
        if self.centroids is not None and len(self.centroids) != self.n_clusters:
            raise ValueError(
                f"{len(self.centroids)} centroids for {self.n_clusters} clusters"
            )

    @property
    def objective(self) -> float | None:
        return self.objective_history[-1] if self.objective_history else None

    def groups(self) -> dict[int, tuple[str, ...]]:
        """Cluster id to member clip ids, both sorted; empty clusters omitted."""
        out: dict[int, list[str]] = {}
        for clip_id in sorted(self.assignments):
            out.setdefault(self.assignments[clip_id], []).append(clip_id)
        return {cid: tuple(members) for cid, members in sorted(out.items())}


def cluster(
    corpus: Corpus,
    k: int | None = None,
    seed: int = 0,
    max_iters: int = 100,
) -> ClusterAssignment:
    """Group clips by caption embedding with seeded spherical k-means.

    Args:
        corpus: clips carrying embeddings (``embedding_dim > 0``).
        k: number of clusters; defaults to ``round(n / 1.3)`` so most clusters
            hold one or two clips, matching a near-deduplicating regime.
        seed: RNG seed for k-means++ center selection.
        max_iters: cap on assignment/update rounds.

    Returns:
        A :class:`ClusterAssignment` with every cluster id in ``[0, k)``
        non-empty and a monotone non-increasing objective history.
    """
    if corpus.embedding_dim == 0:
        raise ValueError("corpus has no embeddings; attach them before clustering")
    n = len(corpus)
    if n == 0:
        raise ValueError("corpus is empty")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if k is None:
        k = max(1, round(n / DEFAULT_CLIPS_PER_CLUSTER))
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    # Canonical point order: sorted clip id. Makes the fit independent of
    # the order records appeared in the input file.
    order = sorted(range(n), key=lambda i: corpus.clips[i].id)
    ids = [corpus.clips[i].id for i in order]
    points = corpus.embedding_matrix()[order]
    norms = np.linalg.norm(points, axis=1)
    bad = np.flatnonzero(norms == 0)
    if bad.size:
        raise ValueError(f"clip {ids[int(bad[0])]!r}: zero-norm embedding cannot be clustered")
    points = points / norms[:, None]

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(points, k, rng)
    history: list[float] = []
    prev_labels: np.ndarray | None = None
    for _ in range(max_iters):
        sims = points @ centers.T
        labels = np.argmax(sims, axis=1)  # argmax tie resolves to lowest cluster id
        _repair_empty(labels, sims, k)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        centers = _update_centers(points, labels, centers, k)
        history.append(float(np.sum(1.0 - np.sum(points * centers[labels], axis=1))))
        prev_labels = labels

    assignments = {clip_id: int(cid) for clip_id, cid in zip(ids, prev_labels)}
    logger.info("clustered %d clips into %d clusters in %d rounds", n, k, len(history))
    return ClusterAssignment(
        assignments=assignments,
        n_clusters=k,
        centroids=tuple(tuple(float(x) for x in row) for row in centers),
        objective_history=tuple(history),
    )


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    dist = np.maximum(1.0 - points @ centers[0], 0.0)
    for j in range(1, k):
        total = float(dist.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # every point duplicates a chosen center
        else:
            idx = int(rng.choice(n, p=dist / total))
        centers[j] = points[idx]
        dist = np.minimum(dist, np.maximum(1.0 - points @ centers[j], 0.0))
    return centers


def _repair_empty(labels: np.ndarray, sims: np.ndarray, k: int) -> None:
    """Move the globally farthest point into each empty cluster, in place.

    Points that are currently the sole member of their cluster are not
    eligible donors, so repair never creates a new empty cluster. With
    ``k <= n`` a donor always exists while any cluster is empty.
    """
    n = labels.shape[0]
    while True:
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        dist = 1.0 - sims[np.arange(n), labels]
        dist[counts[labels] <= 1] = -np.inf
        labels[int(np.argmax(dist))] = int(empties[0])


def _update_centers(
    points: np.ndarray, labels: np.ndarray, old_centers: np.ndarray, k: int
) -> np.ndarray:
    centers = old_centers.copy()
    for cid in range(k):
        members = points[labels == cid]
        if members.shape[0] == 0:
            continue
        mean = members.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm > 0.0:
            centers[cid] = mean / norm
    return centers


def cluster_stats(corpus: Corpus, assignment: ClusterAssignment) -> dict:
    """Per-cluster sizes plus intra-cluster cosine statistics.

    ``intra_cosine[c]`` is the mean cosine of cluster ``c``'s members to the
    cluster's normalized mean embedding; singleton clusters are 1.0 by
    convention.  Cosine fields are ``None`` when the corpus carries no
    embeddings.
    """
    known = {clip.id for clip in corpus.clips}
    missing = sorted(set(assignment.assignments) - known)
    if missing:
        raise ValueError(f"assignment references unknown clip ids, e.g. {missing[0]!r}")
    groups = assignment.groups()
    sizes = [len(groups[cid]) for cid in range(assignment.n_clusters)]
    histogram: dict[int, int] = {}
    for size in sizes:
        histogram[size] = histogram.get(size, 0) + 1
    stats: dict = {
        "n_clips": len(assignment.assignments),
        "n_clusters": assignment.n_clusters,
        "sizes": sizes,
        "size_histogram": dict(sorted(histogram.items())),
        "size_min": min(sizes),
        "size_max": max(sizes),
        "size_mean": float(np.mean(sizes)),
        "intra_cosine": None,
        "mean_intra_cosine": None,
    }
    if corpus.embedding_dim > 0:
        by_id = {clip.id: np.asarray(clip.embedding, dtype=np.float64) for clip in corpus.clips}
        intra: list[float] = []
        for cid in range(assignment.n_clusters):
            members = groups[cid]
            if len(members) == 1:
                intra.append(1.0)
                continue
            vecs = np.stack([by_id[m] for m in members])
            norms = np.linalg.norm(vecs, axis=1)
            if np.any(norms == 0):
                raise ValueError("zero-norm embedding in corpus")
            vecs = vecs / norms[:, None]
            mean = vecs.mean(axis=0)
            mean_norm = float(np.linalg.norm(mean))
            if mean_norm == 0.0:
                intra.append(0.0)  # members cancel out; no direction to agree with
                continue
            intra.append(float(np.mean(vecs @ (mean / mean_norm))))
        stats["intra_cosine"] = intra
        stats["mean_intra_cosine"] = float(np.mean(intra))
    return stats


def write_assignment(assignment: ClusterAssignment, path: str | Path) -> None:
    """Write ``{"id", "cluster"}`` JSONL sorted by clip id."""
    clusters = assignment.assignments
    write_jsonl(path, ({"id": clip_id, "cluster": clusters[clip_id]} for clip_id in sorted(clusters)))


def load_assignment(path: str | Path) -> ClusterAssignment:
    """Load an assignment written by :func:`write_assignment`.

    ``n_clusters`` is recovered as ``max(cluster) + 1``; no fit diagnostics
    are available for loaded assignments.
    """
    assignments: dict[str, int] = {}

    def add(record) -> None:
        if not isinstance(record, dict) or "id" not in record or "cluster" not in record:
            raise ValueError("expected an object with 'id' and 'cluster'")
        clip_id, cid = record["id"], record["cluster"]
        if not isinstance(clip_id, str) or not clip_id:
            raise ValueError("'id' must be a non-empty string")
        if not isinstance(cid, int) or isinstance(cid, bool) or cid < 0:
            raise ValueError("'cluster' must be a non-negative int")
        if clip_id in assignments:
            raise ValueError(f"duplicate clip id {clip_id!r}")
        assignments[clip_id] = cid

    read_jsonl(path, add)
    if not assignments:
        raise ValueError(f"{path}: assignment file is empty")
    return ClusterAssignment(assignments=assignments, n_clusters=max(assignments.values()) + 1)
