"""Instruction/response pair generation with percentile time references.

Intervals in seconds are encoded as token-percentile integers: with a
context of T tokens, token k covers [k/T, (k+1)/T) of the video, and an
interval renders as the phrase "from {start_token} to {end_token}".  Two
timed pair kinds are emitted per annotation: one placing the phrase in the
query (response is the bare caption) and one placing it in the response.
Audio records are paired with a caption query; label-only records get their
response synthesized from sound-event templates.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .corpus import TrimmedClip
from .interleave import DEFAULT_CONTEXT_LEN
from .jsonl import read_jsonl, write_jsonl
from .synthesis import PseudoUntrimmedVideo

logger = logging.getLogger(__name__)

TAU_SLOT = "{tau}"
EVENT_SLOT = "{event}"
EVENTS_SLOT = "{events}"
LABEL_JOINER = ", "

KIND_TIMED_QUERY = "timed_query"
KIND_TIMED_RESPONSE = "timed_response"
KIND_AUDIO_CAPTION = "audio_caption"
KIND_AUDIOSET_LABEL = "audioset_label"
KIND_PLAIN = "plain"
PAIR_KINDS = frozenset(
    {KIND_TIMED_QUERY, KIND_TIMED_RESPONSE, KIND_AUDIO_CAPTION, KIND_AUDIOSET_LABEL, KIND_PLAIN}
)

# the time-agnostic query used when the time reference lives in the response
TIME_AGNOSTIC_QUERY = "What happens in the video, and when does it occur?"

DEFAULT_AUDIO_CAPTION_QUERIES: tuple[str, ...] = (
    "Render a clear and concise summary of the audio.",
    "Write a terse but informative summary of the audio clip.",
    "Present a compact description of the audio's key features.",
    "What is in the audio?",
    "Describe the audio concisely.",
    "Share a concise interpretation of the provided audio.",
    "Give a brief description of the audio.",
    "Provide a brief description of the given audio.",
    "Summarize the auditory content of the audio.",
)

DEFAULT_TIMED_QUERIES: tuple[str, ...] = (
    "Tell me about the visual and audio events {tau} in the video.",
    "What was going on visually and audibly {tau} in the video?",
    "Please recount what occurred, including both video and audio, {tau} in the video.",
    "Could you tell me what happened, in terms of both imagery and sound, {tau} in the video?",
    "Provide details about the visual scenes and audio events {tau} in the video.",
    "Can you describe what occurred, both visually and audibly, {tau} in the video?",
    "Explain what happened, considering both video and audio, {tau} in the video.",
)

# single-event templates carry {event}; multi-event ones carry {events} and
# receive the full comma-joined label list in that slot
DEFAULT_EVENT_PREFIX_TEMPLATES: tuple[str, ...] = (
    "There is the sound of {event}.",
    "I can hear the sound of {event}.",
    "Listening to the sound of {event}.",
    "Resonating is the sound of {event}.",
    "Filling the air is the sound of {event}.",
    "There are the sounds of {events}",
    "I can hear the sounds of {events}",
    "Listening to the sounds of {events}",
    "Surrounding me are the sounds of {events}",
    "Echoing are the sounds of {events}",
)

DEFAULT_EVENT_SUFFIX_TEMPLATES: tuple[str, ...] = (
    "{event} can be heard.",
    "{event} is audible.",
    "{event} resounds.",
    "{events} can be heard.",
    "{events} are audible.",
    "{events} resound.",
    "{event} resounds.",
    "{event} permeates the air.",
    "{event} is noticeable.",
    "{events} resound.",
    "{events} permeate the air.",
    "{events} are noticeable.",
)


@dataclass(frozen=True)
class TemplateBank:
    """The fixed query and response template sets.

    Counts are part of the contract: 9 audio caption queries, 7 timed
    queries, 10 prefix and 12 suffix event-response templates.
    """

    audio_caption_queries: tuple[str, ...] = DEFAULT_AUDIO_CAPTION_QUERIES
    timed_queries: tuple[str, ...] = DEFAULT_TIMED_QUERIES
    event_prefix_templates: tuple[str, ...] = field(default=DEFAULT_EVENT_PREFIX_TEMPLATES)
    event_suffix_templates: tuple[str, ...] = field(default=DEFAULT_EVENT_SUFFIX_TEMPLATES)

    def __post_init__(self) -> None:
        for name, templates, count in (
            ("audio_caption_queries", self.audio_caption_queries, 9),
            ("timed_queries", self.timed_queries, 7),
            ("event_prefix_templates", self.event_prefix_templates, 10),
            ("event_suffix_templates", self.event_suffix_templates, 12),
        ):
            if len(templates) != count:
                raise ValueError(f"{name} must hold exactly {count} templates, got {len(templates)}")
        for template in self.timed_queries:
            if TAU_SLOT not in template:
                raise ValueError(f"timed query lacks the {TAU_SLOT} slot: {template!r}")
        for template in self.event_prefix_templates + self.event_suffix_templates:
            has_single = EVENT_SLOT in template
            has_multi = EVENTS_SLOT in template
            if has_single == has_multi:
                raise ValueError(
                    f"event template needs exactly one of {EVENT_SLOT}/{EVENTS_SLOT}: {template!r}"
                )

    def event_templates(self, multi: bool) -> tuple[str, ...]:
        """Prefix + suffix templates of one arity, in bank order."""
        slot = EVENTS_SLOT if multi else EVENT_SLOT
        return tuple(
            t for t in self.event_prefix_templates + self.event_suffix_templates if slot in t
        )

    def render_event_response(self, template: str, labels: tuple[str, ...] | list[str]) -> str:
        """Fill an event template with one label or the joined label list."""
        if not labels:
            raise ValueError("at least one label required")
        if EVENTS_SLOT in template:
            return template.replace(EVENTS_SLOT, LABEL_JOINER.join(labels))
        if len(labels) != 1:
            raise ValueError(f"single-event template got {len(labels)} labels: {template!r}")
        return template.replace(EVENT_SLOT, labels[0])


DEFAULT_BANK = TemplateBank()


def load_bank(path: str | Path) -> TemplateBank:
    """Load a template bank from JSON, enforcing counts and placeholders."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return TemplateBank(
            audio_caption_queries=tuple(payload["audio_caption_queries"]),
            timed_queries=tuple(payload["timed_queries"]),
            event_prefix_templates=tuple(payload["event_prefix_templates"]),
            event_suffix_templates=tuple(payload["event_suffix_templates"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing template bank field {exc}") from exc


@dataclass(frozen=True)
class QAPair:
    """One query/response training pair, optionally tied to a token interval."""

    video_id: str
    kind: str
    query: str
    response: str
    tau: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.tau is not None:
            start, end = self.tau
            if start < 0 or end < start:
                raise ValueError(f"need 0 <= start <= end in token interval, got {self.tau}")
        if self.kind in (KIND_TIMED_QUERY, KIND_TIMED_RESPONSE):
            if self.tau is None:
                raise ValueError(f"kind {self.kind!r} requires a token interval")
            phrase = interval_phrase(*self.tau)
            holder = self.query if self.kind == KIND_TIMED_QUERY else self.response
            side = "query" if self.kind == KIND_TIMED_QUERY else "response"
            if phrase not in holder:
                raise ValueError(f"kind {self.kind!r} requires {phrase!r} in the {side}")


def interval_phrase(tau_start: int, tau_end: int) -> str:
    """The canonical natural-language form of a token interval."""
    return f"from {tau_start} to {tau_end}"


def format_interval(
    start_s: float,
    end_s: float,
    total_duration_s: float,
    context_len: int = DEFAULT_CONTEXT_LEN,
) -> tuple[int, int, str]:
    """Map a second interval to token-percentile integers and their phrase.

    Each endpoint becomes floor(x / total * T) clamped to T - 1.  The floor
    is evaluated in exact rational arithmetic so endpoints landing exactly on
    a token boundary never round down a token due to float division.
    """
    if total_duration_s <= 0:
        raise ValueError(f"total_duration_s must be > 0, got {total_duration_s}")
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    if not 0 <= start_s <= end_s <= total_duration_s:
        raise ValueError(
            f"need 0 <= start <= end <= total, got [{start_s}, {end_s}] in {total_duration_s}"
        )
    total = Fraction(total_duration_s)
    tau_start = min(int(Fraction(start_s) * context_len / total), context_len - 1)
    tau_end = min(int(Fraction(end_s) * context_len / total), context_len - 1)
    return tau_start, tau_end, interval_phrase(tau_start, tau_end)


def gen_cba_pairs(
    video: PseudoUntrimmedVideo,
    bank: TemplateBank = DEFAULT_BANK,
    rng: np.random.Generator | None = None,
    context_len: int = DEFAULT_CONTEXT_LEN,
) -> list[QAPair]:
    """Two timed pairs per annotation: time in the query, then in the response.

    The timed query template is drawn seeded-uniform per annotation; the
    time-in-response pair uses the fixed time-agnostic query and appends the
    interval phrase to the caption.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not video.annotations:
        raise ValueError(f"video {video.id!r} has no annotations")
    pairs: list[QAPair] = []
    for ann in video.annotations:
        tau_start, tau_end, phrase = format_interval(
            ann.start_s, ann.end_s, video.total_duration_s, context_len
        )
        template = bank.timed_queries[int(rng.integers(len(bank.timed_queries)))]
        pairs.append(
            QAPair(
                video_id=video.id,
                kind=KIND_TIMED_QUERY,
                query=template.replace(TAU_SLOT, phrase),
                response=ann.caption,
                tau=(tau_start, tau_end),
            )
        )
        pairs.append(
            QAPair(
                video_id=video.id,
                kind=KIND_TIMED_RESPONSE,
                query=TIME_AGNOSTIC_QUERY,
                response=f"{ann.caption}, {phrase}.",
                tau=(tau_start, tau_end),
            )
        )
    return pairs


def gen_audio_pairs(
    clip: TrimmedClip,
    bank: TemplateBank = DEFAULT_BANK,
    rng: np.random.Generator | None = None,
) -> QAPair:
    """One query/response pair for an audio record.

    Captioned clips answer with the caption; label-only clips answer with a
    rendered event template whose arity matches the label count.  Clips with
    both fields use the caption.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    query = bank.audio_caption_queries[int(rng.integers(len(bank.audio_caption_queries)))]
    if clip.caption:
        return QAPair(video_id=clip.id, kind=KIND_AUDIO_CAPTION, query=query, response=clip.caption)
    if not clip.labels:
        raise ValueError(f"clip {clip.id!r} has neither caption nor labels")
    templates = bank.event_templates(multi=len(clip.labels) > 1)
    template = templates[int(rng.integers(len(templates)))]
    return QAPair(
        video_id=clip.id,
        kind=KIND_AUDIOSET_LABEL,
        query=query,
        response=bank.render_event_response(template, clip.labels),
    )


def write_pairs(pairs: list[QAPair], path: str | Path) -> None:
    """Write pairs as JSONL; the token interval is emitted only when present."""
    write_jsonl(path, (_pair_row(pair) for pair in pairs))


def _pair_row(pair: QAPair) -> dict:
    row: dict = {
        "video_id": pair.video_id,
        "kind": pair.kind,
        "query": pair.query,
        "response": pair.response,
    }
    if pair.tau is not None:
        row["tau"] = list(pair.tau)
    return row


def load_pairs(path: str | Path) -> list[QAPair]:
    """Load pairs written by :func:`write_pairs`."""
    return read_jsonl(path, _pair_from_row)


def _pair_from_row(row: dict) -> QAPair:
    return QAPair(
        video_id=row["video_id"],
        kind=row["kind"],
        query=row["query"],
        response=row["response"],
        tau=tuple(row["tau"]) if row.get("tau") is not None else None,
    )
