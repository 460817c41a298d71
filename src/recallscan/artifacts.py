"""The one file layer: every write is atomic, every JSON input is checked.

``replacing`` hands out a temporary sibling to write and moves it into place
with ``os.replace``, so a write cut off midway leaves the previous file (or
none); ``write`` and every other file write go through it.
``read_object`` turns an unreadable, non-UTF-8, non-JSON or non-object file
into one error.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterator
from pathlib import Path

from .errors import FormatError, RecallScanError


@contextlib.contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """A temporary sibling of ``path`` to write, moved onto ``path`` if the block succeeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all, making its directory if needed."""
    with replacing(path) as tmp:
        tmp.write_bytes(data)


def json_text(payload: dict) -> str:
    """The one JSON encoding: two-space indent, UTF-8 text, keys in insertion order."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def write_json(path: Path, payload: dict) -> None:
    write(path, json_text(payload).encode("utf-8"))


def parse_object(data: bytes, name: str, error: type[RecallScanError] = FormatError) -> dict:
    """The JSON object ``data`` holds; bad UTF-8, bad JSON or another value raise ``error``."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nesting too deep
        raise error(f"{name} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{name} must hold a JSON object")
    return payload


def read_object(path: Path, name: str, error: type[RecallScanError] = FormatError) -> dict:
    """The JSON object in the file ``path``; any failure raises ``error``."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {name} {path}: {exc}") from exc
    return parse_object(data, f"{name} {path}", error)


def is_int(value, least: int) -> bool:
    """An integer of at least ``least``; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least

