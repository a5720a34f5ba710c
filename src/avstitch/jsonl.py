"""The one JSON Lines codec behind every interchange file.

Corpus, assignment, manifest, pairs, predictions and ground truth files are
UTF-8, one JSON value per LF-terminated line, non-ASCII characters written as
themselves, blank lines skipped on read.  The JSON is strict (RFC 8259):
``NaN``, ``Infinity`` and ``-Infinity`` are rejected on read and on write.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NoReturn, TypeVar

T = TypeVar("T")


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not valid JSON; non-finite numbers are rejected")


# built once; json.loads/json.dumps with keywords would build one per line
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def read_jsonl(path: str | Path, parse: Callable[[object], T]) -> list[T]:
    """Decode each non-blank line of ``path`` and pass it through ``parse``.

    Raises:
        ValueError: malformed JSON, a non-finite number, or any ``ValueError``,
            ``KeyError`` or ``TypeError`` from ``parse``; the message starts
            with ``{path}:{lineno}:`` (1-based).
        OSError: unreadable file.
    """
    path = Path(path)
    decode = _DECODER.decode
    out: list[T] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(decode(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def write_jsonl(path: str | Path, rows: Iterable[object]) -> None:
    """Write one JSON line per row, replacing ``path`` only once all are written.

    The lines go to a temporary file in the same directory, which is renamed
    over ``path`` on success and removed on failure.

    Raises:
        ValueError: a row holds a non-finite float; the message starts with
            ``{path}:{lineno}:`` and ``path`` is left as it was.
    """
    path = Path(path)
    encode = _ENCODER.encode
    # a plain open keeps the usual umask-derived mode that the target would get
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            for lineno, row in enumerate(rows, start=1):
                try:
                    fh.write(encode(row))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
