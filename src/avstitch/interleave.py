"""Merging audio and video token streams into one fixed-length context.

Both streams are resampled so that audio occupies a configurable fraction of
the context slots, then woven together on a strict modular pattern: with
stride w + 1 (w video tokens per audio token), every position divisible by
the stride carries the next audio token and all other positions carry the
next video token.  Within each modality the original temporal order is
preserved, so the two streams stay aligned against the shared timeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

DEFAULT_CONTEXT_LEN = 100
DEFAULT_AUDIO_RATE = 0.25

VIDEO = "video"
AUDIO = "audio"

# audio rates are read as decimal fractions of at most three places; this
# bounds the denominator when recovering the exact rational from the float
_RATE_MAX_DENOMINATOR = 1000


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """A temporally ordered (length x dim) token matrix for one modality.

    The matrix is held by reference and must not be mutated after
    construction.
    """

    modality: str
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.modality not in (VIDEO, AUDIO):
            raise ValueError(f"modality must be {VIDEO!r} or {AUDIO!r}, got {self.modality!r}")
        if self.data.ndim != 2:
            raise ValueError(f"token data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"token data needs >= 1 rows and columns, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("token data contains non-finite values")

    @property
    def length(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True)
class ContextToken:
    """One slot of the merged context: modality tag, 1-based source row, vector."""

    modality: str
    source_index: int
    vector: tuple[float, ...]


class SlotPattern(NamedTuple):
    """Where each modality goes for a given context length and audio rate."""

    pattern: tuple[str, ...]
    n_audio: int
    n_video: int
    videos_per_audio: int | None


@dataclass(frozen=True, eq=False)
class InterleavedContext:
    """Fixed-length context: the slot pattern plus each modality's resampled rows.

    ``video`` and ``audio`` are ``(n, d)`` matrices in temporal order (widths
    may differ), or None for a modality without slots.  They are held by
    reference and must not be mutated.  ``tokens`` is derived on first access.
    """

    length: int
    audio_rate: float
    videos_per_audio: int | None
    pattern: tuple[str, ...]
    video: np.ndarray | None
    audio: np.ndarray | None

    def __post_init__(self) -> None:
        if len(self.pattern) != self.length or not {VIDEO, AUDIO}.issuperset(self.pattern):
            raise ValueError(f"pattern needs `length` = {self.length} entries, each {VIDEO!r} or {AUDIO!r}")
        for modality, rows in ((VIDEO, self.video), (AUDIO, self.audio)):
            n_rows, n_slots = 0 if rows is None else len(rows), self.pattern.count(modality)
            if n_rows != n_slots:
                raise ValueError(f"pattern has {n_slots} {modality} slots but {n_rows} {modality} rows")

    @cached_property
    def tokens(self) -> tuple[ContextToken, ...]:
        """One token per slot; ``source_index`` is the 1-based rank within its modality."""
        rows = {VIDEO: self.video, AUDIO: self.audio}
        ranked = {m: iter(enumerate(map(tuple, r.tolist()), 1)) for m, r in rows.items() if r is not None}
        return tuple(ContextToken(m, *next(ranked[m])) for m in self.pattern)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterleavedContext):
            return NotImplemented
        keys = ("length", "audio_rate", "videos_per_audio", "pattern", "tokens")
        return all(getattr(self, k) == getattr(other, k) for k in keys)

    def subsequence(self, modality: str) -> list[ContextToken]:
        """Tokens of one modality in context order."""
        return [tok for tok in self.tokens if tok.modality == modality]


def resample(seq: TokenSequence, target_len: int) -> TokenSequence:
    """Stretch or shrink a sequence to ``target_len`` rows.

    Linear interpolation along the temporal axis with endpoints fixed:
    output row j sits at source position (j-1) * (length-1) / (target_len-1).
    A same-length call returns a bitwise-equal copy; a single source row is
    repeated.
    """
    if target_len < 1:
        raise ValueError(f"target_len must be >= 1, got {target_len}")
    data = seq.data
    if target_len == seq.length:
        return TokenSequence(modality=seq.modality, data=data.copy())
    positions = np.linspace(0.0, seq.length - 1.0, num=target_len)
    lower = np.floor(positions).astype(int)
    upper = np.minimum(lower + 1, seq.length - 1)
    frac = (positions - lower)[:, None]
    out = data[lower] * (1.0 - frac) + data[upper] * frac
    return TokenSequence(modality=seq.modality, data=out)


def slot_pattern(length: int, audio_rate: float) -> SlotPattern:
    """Assign each 1-based context position to audio or video.

    With w = floor((1 - rate) / rate), audio sits at exactly the positions
    divisible by w + 1 and video fills the rest, so the audio count is
    floor(length / (w + 1)).  The division is done in exact rational
    arithmetic: the float rate is first mapped to the nearest fraction with
    denominator <= 1000, because evaluating (1 - rate) / rate in binary
    floating point can land just below an integer quotient and floor one
    whole step too low (rate 0.05 gives 18.999... instead of 19).

    A zero rate (or one rounding to zero) yields an all-video pattern and no
    stride.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 0.0 <= audio_rate <= 1.0:
        raise ValueError(f"audio_rate must be in [0, 1], got {audio_rate}")
    rate = Fraction(audio_rate).limit_denominator(_RATE_MAX_DENOMINATOR)
    if rate == 0:
        pattern = (VIDEO,) * length
        return SlotPattern(pattern=pattern, n_audio=0, n_video=length, videos_per_audio=None)
    videos_per_audio = int((1 - rate) / rate)
    stride = videos_per_audio + 1
    pattern = tuple(AUDIO if t % stride == 0 else VIDEO for t in range(1, length + 1))
    n_audio = length // stride
    return SlotPattern(
        pattern=pattern,
        n_audio=n_audio,
        n_video=length - n_audio,
        videos_per_audio=videos_per_audio,
    )


def interleave(
    video: TokenSequence | None,
    audio: TokenSequence | None,
    length: int = DEFAULT_CONTEXT_LEN,
    audio_rate: float = DEFAULT_AUDIO_RATE,
) -> InterleavedContext:
    """Resample both streams to their slot counts under the rate's pattern.

    Audio slot number j (counting audio positions from the start) holds
    resampled audio row j; the video slot at position t holds resampled
    video row t - floor(t / stride), its rank among video positions.  Each
    stream may be omitted only when its slot count is zero.
    """
    slots = slot_pattern(length, audio_rate)
    return InterleavedContext(
        length=length,
        audio_rate=audio_rate,
        videos_per_audio=slots.videos_per_audio,
        pattern=slots.pattern,
        video=_slot_rows(video, VIDEO, slots.n_video),
        audio=_slot_rows(audio, AUDIO, slots.n_audio),
    )


def _slot_rows(seq: TokenSequence | None, modality: str, n_slots: int) -> np.ndarray | None:
    """``seq`` resampled to ``n_slots`` rows; None when the pattern has no such slot."""
    if n_slots == 0:
        return None
    if seq is None:
        raise ValueError(f"{modality} tokens required: pattern has {n_slots} {modality} slots")
    if seq.modality != modality:
        article = "an" if modality == AUDIO else "a"
        raise ValueError(f"expected {article} {modality} sequence, got modality {seq.modality!r}")
    return resample(seq, n_slots).data


def save_tokens(seq: TokenSequence, path: str | Path, fmt: str = "json") -> None:
    """Write a token sequence as JSON or as raw little-endian float32.

    The raw format stores the bare matrix at ``path`` and a JSON header at
    ``path + ".json"`` recording modality and shape.  Raw storage narrows
    values to float32.
    """
    path = Path(path)
    if fmt == "json":
        payload = {"modality": seq.modality, "dim": seq.dim, "data": seq.data.tolist()}
        path.write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")
    elif fmt == "raw":
        path.write_bytes(np.ascontiguousarray(seq.data, dtype="<f4").tobytes())
        header = {"modality": seq.modality, "length": seq.length, "dim": seq.dim, "dtype": "<f4"}
        Path(str(path) + ".json").write_text(
            json.dumps(header, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    else:
        raise ValueError(f"unknown token format {fmt!r}; use 'json' or 'raw'")


def load_tokens(path: str | Path, fmt: str = "json") -> TokenSequence:
    """Read a token sequence written by :func:`save_tokens`.

    Every rejection is a ValueError that starts with ``{path}:``: malformed
    JSON, a missing or mistyped field, a shape or size mismatch, or token
    data that :class:`TokenSequence` refuses, such as a non-finite value.
    """
    path = Path(path)
    try:
        if fmt == "json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            data = np.asarray(payload["data"], dtype=np.float64)
            if data.ndim != 2 or data.shape[1] != payload["dim"]:
                raise ValueError(f"data shape {data.shape} does not match dim {payload['dim']}")
        elif fmt == "raw":
            header_path = Path(str(path) + ".json")
            if not header_path.exists():
                raise ValueError(f"raw tokens need a header sidecar at {header_path}")
            payload = json.loads(header_path.read_text(encoding="utf-8"))
            raw = np.frombuffer(path.read_bytes(), dtype="<f4")
            expected = payload["length"] * payload["dim"]
            if raw.size != expected:
                raise ValueError(f"raw payload has {raw.size} floats, header promises {expected}")
            data = raw.reshape(payload["length"], payload["dim"]).astype(np.float64)
        else:
            raise ValueError(f"unknown token format {fmt!r}; use 'json' or 'raw'")
        return TokenSequence(modality=payload["modality"], data=data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_context(ctx: InterleavedContext, path: str | Path) -> None:
    """Write an interleaved context as a single JSON document."""
    payload = {
        "length": ctx.length,
        "audio_rate": ctx.audio_rate,
        "videos_per_audio": ctx.videos_per_audio,
        "pattern": list(ctx.pattern),
        "tokens": [
            {"modality": tok.modality, "source_index": tok.source_index, "vector": list(tok.vector)}
            for tok in ctx.tokens
        ],
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")


def load_context(path: str | Path) -> InterleavedContext:
    """Read a context written by :func:`save_context`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    rows: dict[str, list] = {VIDEO: [], AUDIO: []}
    for tok in payload["tokens"]:
        rows.setdefault(tok["modality"], []).append(tok["vector"])
    ctx = InterleavedContext(
        length=int(payload["length"]),
        audio_rate=float(payload["audio_rate"]),
        videos_per_audio=payload["videos_per_audio"],
        pattern=tuple(payload["pattern"]),
        video=np.array(rows[VIDEO], dtype=np.float64) if rows[VIDEO] else None,
        audio=np.array(rows[AUDIO], dtype=np.float64) if rows[AUDIO] else None,
    )
    slots = [(tok["modality"], int(tok["source_index"])) for tok in payload["tokens"]]
    if slots != [(tok.modality, tok.source_index) for tok in ctx.tokens]:
        raise ValueError(f"{path}: token modalities or source indices disagree with the pattern")
    return ctx
