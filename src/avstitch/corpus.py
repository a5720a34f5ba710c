"""Clip metadata corpus: JSONL loading, validation, and a hash-based fallback embedder.

A corpus is a flat collection of trimmed clips, each with an id, a duration,
a caption, and optionally a precomputed caption embedding and/or a list of
event labels.  Embeddings may be inline in the JSONL records or live in a
sidecar ``.npy`` matrix referenced by row index.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonl import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrimmedClip:
    """One trimmed source clip.

    The caption may be empty only for label-only records (AudioSet-style),
    which carry at least one event label instead.
    """

    id: str
    duration_s: float
    caption: str
    embedding: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("clip id must be a non-empty string")
        if not self.duration_s > 0:
            raise ValueError(f"clip {self.id!r}: duration_s must be > 0, got {self.duration_s}")
        if not self.caption and not self.labels:
            raise ValueError(f"clip {self.id!r}: needs a caption or at least one label")


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of clips sharing one embedding dimension.

    ``embedding_dim`` is 0 when no clip carries an embedding; otherwise every
    clip must carry one of exactly that length.
    """

    clips: tuple[TrimmedClip, ...]
    embedding_dim: int

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for clip in self.clips:
            if clip.id in seen:
                raise ValueError(f"duplicate clip id {clip.id!r}")
            seen.add(clip.id)
            if self.embedding_dim == 0:
                if clip.embedding is not None:
                    raise ValueError(f"clip {clip.id!r} has an embedding but corpus declares none")
            else:
                if clip.embedding is None:
                    raise ValueError(f"clip {clip.id!r} lacks an embedding (corpus dim {self.embedding_dim})")
                if len(clip.embedding) != self.embedding_dim:
                    raise ValueError(
                        f"clip {clip.id!r}: embedding length {len(clip.embedding)} != corpus dim {self.embedding_dim}"
                    )

    def __len__(self) -> int:
        return len(self.clips)

    @classmethod
    def from_clips(cls, clips: list[TrimmedClip] | tuple[TrimmedClip, ...]) -> "Corpus":
        """Build a corpus, inferring the embedding dimension from the first clip."""
        clips = tuple(clips)
        dim = 0
        if clips and clips[0].embedding is not None:
            dim = len(clips[0].embedding)
        return cls(clips=clips, embedding_dim=dim)

    def embedding_matrix(self) -> np.ndarray:
        """Stack all clip embeddings into an (n, dim) float array, in clip order."""
        if self.embedding_dim == 0:
            raise ValueError("corpus has no embeddings")
        return np.array([clip.embedding for clip in self.clips], dtype=np.float64)

    def with_hash_embeddings(self, dim: int, seed: int = 0) -> "Corpus":
        """Return a copy whose clips carry hash-based caption embeddings."""
        clips = tuple(
            TrimmedClip(
                id=c.id,
                duration_s=c.duration_s,
                caption=c.caption,
                embedding=tuple(hash_embed(c.caption, dim, seed)),
                labels=c.labels,
            )
            for c in self.clips
        )
        return Corpus(clips=clips, embedding_dim=dim)


def hash_embed(caption: str, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic bag-of-words embedding via seeded feature hashing.

    Tokenizes on Unicode whitespace, lowercases, hashes each token to one of
    ``dim`` buckets with a +/-1 sign, and L2-normalizes the result.  Captions
    sharing many words therefore land near each other in cosine space, which
    is all the downstream clustering needs.

    Args:
        caption: input text; an all-whitespace caption is hashed as a whole.
        dim: embedding dimension, at least 2.
        seed: alters the token-to-bucket mapping.

    Returns:
        A unit-norm float64 vector of length ``dim``.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    tokens = caption.lower().split()
    if not tokens:
        tokens = [caption.lower()]
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        bucket, sign = _token_slot(token, dim, seed)
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # Opposite-sign bucket collisions cancelled everything; fall back to
        # hashing the whole caption as one token so the output stays unit-norm.
        bucket, sign = _token_slot(caption.lower(), dim, seed)
        vec[bucket] = sign
        norm = 1.0
    return vec / norm


def _token_slot(token: str, dim: int, seed: int) -> tuple[int, float]:
    digest = hashlib.blake2b(f"{seed}\x1f{token}".encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
    return h % dim, sign


def load_corpus(path: str | Path, embeddings_path: str | Path | None = None) -> Corpus:
    """Load a clip corpus from JSONL.

    Each line is ``{"id": str, "duration_s": float, "caption": str,
    "embedding": [float...]?, "labels": [str...]?}``.  A record may instead
    reference a row of a sidecar matrix with ``"embedding_row": int``; pass
    the matrix via ``embeddings_path`` (``.npy``).

    Raises:
        ValueError: malformed line, duplicate id, inconsistent embedding
            dimension, a non-finite number in the file or the sidecar, or any
            per-clip invariant violation; messages carry the 1-based line
            number (the sidecar row, for the sidecar).
        OSError: unreadable file.
    """
    path = Path(path)
    sidecar: np.ndarray | None = None
    if embeddings_path is not None:
        sidecar = np.load(embeddings_path)
        if sidecar.ndim != 2:
            raise ValueError(f"sidecar matrix must be 2-D, got shape {sidecar.shape}")
        bad = np.flatnonzero(~np.isfinite(sidecar).all(axis=1))
        if bad.size:
            raise ValueError(f"{embeddings_path}: row {int(bad[0])} holds a non-finite value")

    clips = read_jsonl(path, lambda record: _clip_from_record(record, sidecar))
    try:
        return Corpus.from_clips(clips)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _clip_from_record(record: dict, sidecar: np.ndarray | None) -> TrimmedClip:
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    if not isinstance(record["id"], str):
        raise ValueError("field 'id' must be a string")
    if not isinstance(record["caption"], str):
        raise ValueError("field 'caption' must be a string")
    if not isinstance(record["duration_s"], (int, float)) or isinstance(record["duration_s"], bool):
        raise ValueError("field 'duration_s' must be a number")

    embedding = None
    if record.get("embedding") is not None and record.get("embedding_row") is not None:
        raise ValueError(f"clip {record['id']!r}: both inline embedding and embedding_row given")
    if record.get("embedding") is not None:
        raw = record["embedding"]
        if not isinstance(raw, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise ValueError("field 'embedding' must be a list of numbers")
        embedding = tuple(float(x) for x in raw)
    elif record.get("embedding_row") is not None:
        if sidecar is None:
            raise ValueError(
                f"clip {record['id']!r} references embedding_row but no sidecar matrix was supplied"
            )
        row = record["embedding_row"]
        if not isinstance(row, int) or isinstance(row, bool) or not 0 <= row < sidecar.shape[0]:
            raise ValueError(f"embedding_row {row!r} out of range for sidecar with {sidecar.shape[0]} rows")
        embedding = tuple(float(x) for x in sidecar[row])

    labels = None
    if record.get("labels") is not None:
        raw_labels = record["labels"]
        if not isinstance(raw_labels, list) or not all(isinstance(x, str) for x in raw_labels):
            raise ValueError("field 'labels' must be a list of strings")
        labels = tuple(raw_labels)

    return TrimmedClip(
        id=record["id"],
        duration_s=float(record["duration_s"]),
        caption=record["caption"],
        embedding=embedding,
        labels=labels,
    )


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as UTF-8 JSONL with LF line endings (inline embeddings)."""
    write_jsonl(path, (_clip_row(clip) for clip in corpus.clips))


def _clip_row(clip: TrimmedClip) -> dict:
    row: dict = {"id": clip.id, "duration_s": clip.duration_s, "caption": clip.caption}
    if clip.embedding is not None:
        row["embedding"] = list(clip.embedding)
    if clip.labels is not None:
        row["labels"] = list(clip.labels)
    return row
