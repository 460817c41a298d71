"""Merge, clean and persist the canonical 7-column recall dataset."""

from __future__ import annotations

import csv
import datetime as dt
import functools
import re
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

from . import artifacts
from .errors import ContractError, FormatError

DATASET_HEADER = (
    "product_code",
    "event_date_posted",
    "recalling_firm",
    "root_cause_description",
    "product_quantity",
    "device_name",
    "device_class",
)

DEVICE_CLASSES = ("1", "2", "3")
UNKNOWN_DEVICE_CLASS = "unknown"

# Characters preserved by the cleaning pass, beyond letters/digits/space.
# These all occur inside legitimate FDA category names and firm names.
ALLOWED_PUNCTUATION = set("/,()-.")

# Any ASCII character the cleaning pass would strip: for ASCII, str.isalnum()
# holds exactly for [0-9A-Za-z].
_DIRT = re.compile(
    "[^0-9A-Za-z " + "".join(re.escape(ch) for ch in sorted(ALLOWED_PUNCTUATION)) + "]"
)


class RecallRecord(NamedTuple):
    """One cleaned, merged recall event (an immutable tuple, fields in DATASET_HEADER order)."""

    product_code: str
    event_date_posted: dt.date | None
    recalling_firm: str
    root_cause_description: str
    product_quantity: str
    device_name: str
    device_class: str


@dataclass
class MergeStats:
    """Join statistics reported by merge_datasets."""

    duplicate_classification_codes: int = 0
    unmatched_product_codes: int = 0


@dataclass
class CleaningRules:
    """Date window used by the outlier rule (the configured fetch range)."""

    date_from: dt.date
    date_to: dt.date

    def __post_init__(self):
        if self.date_from > self.date_to:
            raise ContractError(f"date_from {self.date_from} is after date_to {self.date_to}")


@dataclass
class CleaningReport:
    """Removal counters, one per cleaning rule."""

    dropped_null_root_cause: int = 0
    dropped_duplicates: int = 0
    dropped_date_outliers: int = 0
    stripped_char_count: int = 0
    unmatched_product_codes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@functools.cache
def parse_date(value: str) -> dt.date | None:
    """Accept YYYY-MM-DD or YYYYMMDD; anything else is an absent date."""
    for fmt in ("%Y-%m-%d", "%Y%m%d"):
        try:
            return dt.datetime.strptime(value, fmt).date()
        except ValueError:
            continue
    return None


def merge_datasets(
    recalls: list[dict], classifications: list[dict]
) -> tuple[list[RecallRecord], MergeStats]:
    """Join recall records to device name/class on product_code.

    The first classification entry per code wins (page order); later
    duplicates only bump the warning counter. Unmatched codes get an empty
    device name and the unknown class. Recall order and count are preserved;
    unmatched_product_codes counts distinct codes.
    """
    lookup: dict[str, tuple[str, str]] = {}
    stats = MergeStats()
    for entry in classifications:
        code = entry.get("product_code", "")
        if code in lookup:
            stats.duplicate_classification_codes += 1
            continue
        raw_class = entry.get("device_class", "")
        device_class = raw_class if raw_class in DEVICE_CLASSES else UNKNOWN_DEVICE_CLASS
        lookup[code] = (entry.get("device_name", ""), device_class)

    records: list[RecallRecord] = []
    unmatched: set[str] = set()
    for entry in recalls:
        code = entry.get("product_code", "")
        if code in lookup:
            device_name, device_class = lookup[code]
        else:
            unmatched.add(code)
            device_name, device_class = "", UNKNOWN_DEVICE_CLASS
        records.append(
            RecallRecord(
                code,
                parse_date(entry.get("event_date_posted", "")),
                entry.get("recalling_firm", ""),
                entry.get("root_cause_description", ""),
                entry.get("product_quantity", ""),
                device_name,
                device_class,
            )
        )
    stats.unmatched_product_codes = len(unmatched)
    return records, stats


_TEXT_FIELDS = (
    "product_code", "recalling_firm", "root_cause_description", "product_quantity", "device_name"
)


def _strip_text(s: str) -> tuple[str, int]:
    if s.isascii() and _DIRT.search(s) is None:
        return s, 0
    kept = [ch for ch in s if ch.isalnum() or ch == " " or ch in ALLOWED_PUNCTUATION]
    return "".join(kept), len(s) - len(kept)


def clean(
    records: list[RecallRecord], rules: CleaningRules
) -> tuple[list[RecallRecord], CleaningReport]:
    """Apply the cleaning rules in order and report removals per rule.

    Rules: strip disallowed characters from the text fields, drop records
    whose stripped root cause is empty, drop exact duplicates (all seven
    fields, first occurrence kept), drop records dated outside the rules
    window (absent dates count as outside). Survivor order follows input
    order, and the pass is idempotent.
    """
    report = CleaningReport()
    survivors: list[RecallRecord] = []
    seen: set[RecallRecord] = set()
    for rec in records:
        cleaned = rec
        text = rec.product_code + rec.recalling_firm + rec.root_cause_description
        text += rec.product_quantity + rec.device_name
        if not text.isascii() or _DIRT.search(text) is not None:
            stripped = {name: _strip_text(getattr(rec, name)) for name in _TEXT_FIELDS}
            removed = sum(n for _, n in stripped.values())
            if removed:  # non-ASCII letters alone are kept, and so is the record
                report.stripped_char_count += removed
                cleaned = rec._replace(**{name: value for name, (value, _) in stripped.items()})
        if not cleaned.root_cause_description.strip():
            report.dropped_null_root_cause += 1
            continue
        if cleaned in seen:
            report.dropped_duplicates += 1
            continue
        seen.add(cleaned)
        date = cleaned.event_date_posted
        if date is None or not rules.date_from <= date <= rules.date_to:
            report.dropped_date_outliers += 1
            continue
        survivors.append(cleaned)
    return survivors, report


def write_dataset(records: Iterable[RecallRecord], path: str | Path) -> None:
    """Stream the canonical CSV (UTF-8, RFC-4180, CRLF rows; ISO dates, None as empty) into place."""
    with artifacts.replacing(Path(path)) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        writer.writerows(records)


def read_dataset(path: str | Path) -> list[RecallRecord]:
    """Read a canonical CSV back; raises FormatError on a wrong header, row or date."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read dataset {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != DATASET_HEADER:
        raise FormatError(f"dataset {path} does not carry the expected header")
    records = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(DATASET_HEADER):
            raise FormatError(f"dataset {path} row {idx} has {len(row)} fields")
        try:
            posted = dt.date.fromisoformat(row[1]) if row[1] else None
        except ValueError as exc:
            raise FormatError(
                f"dataset {path} row {idx} has a malformed event_date_posted {row[1]!r}"
            ) from exc
        records.append(RecallRecord(row[0], posted, *row[2:]))
    return records
