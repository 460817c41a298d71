"""Seeded generators for the benchmark's openFDA-shaped input caches.

Each generator returns an ``Inputs`` value: the verbatim recall and
classification page bodies, the number of records of each dirt kind it
planted, and the number of dataset rows the pipeline must keep. The same
seed gives byte-identical pages. Pagination always ends inside the cache:
the last page of each endpoint is short, or the manifest records
``exhausted_at``, so a cache-served run never reaches for the network.

The generators use their own copy of the reference label table, so the
inputs do not change when the program's modules do.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DATE_FROM = dt.date(2018, 1, 1)
DATE_TO = dt.date(2024, 4, 15)
PAGE_SIZE = 1000
RECALL_SEARCH = f"event_date_posted:[{DATE_FROM.isoformat()} TO {DATE_TO.isoformat()}]"
RETRIEVED_AT = "2024-04-16T00:00:00+00:00"

# Root-cause labels and case counts of the reference snapshot (36 labels,
# 6991 records), the same table the bundled ``table2`` fixture replicates.
REFERENCE_INITIATORS = (
    ("Other", 197),
    ("No Marketing Application", 45),
    ("Under Investigation by firm", 1699),
    ("Software design", 270),
    ("Radiation Control for Health and Safety Act", 43),
    ("Material/Component Contamination", 42),
    ("Device Design", 1046),
    ("Employee error", 94),
    ("Process control", 1030),
    ("Process change control", 125),
    ("Error in labelling", 98),
    ("Software Manufacturing/Software Deployment", 13),
    ("Component design/selection", 131),
    ("Software Design Change", 45),
    ("Labelling Change Control", 81),
    ("Labelling design", 108),
    ("Process design", 135),
    ("Incorrect or no expiration date", 23),
    ("Software change control", 16),
    ("Mixed-up of materials/components", 29),
    ("Component change control", 116),
    ("Unknown/Undetermined by firm", 165),
    ("Nonconforming Material/Component", 643),
    ("Packaging", 49),
    ("Labelling mix-ups", 34),
    ("Packaging process control", 135),
    ("Vendor change control", 99),
    ("Storage", 134),
    ("Equipment maintenance", 72),
    ("Pending", 51),
    ("Software design (manufacturing process)", 13),
    ("Use error", 33),
    ("Packaging change control", 49),
    ("Package design/selection", 18),
    ("Labelling False and Misleading", 14),
    ("Environmental control", 96),
)
REFERENCE_RECORDS = sum(n for _, n in REFERENCE_INITIATORS)

# Characters the cleaning rule removes: none is a letter, digit, space or
# one of the kept punctuation marks ``/,()-.``.
DISALLOWED = "#*!?;:@&"

_FIRM_HEADS = (
    "Aldebaran", "Briarwood", "Cascadia", "Delta", "Eastgate", "Foxglove",
    "Greenfield", "Harborview", "Ironwood", "Juniper", "Kestrel", "Larkspur",
    "Meridian", "Northwind", "Orchard", "Pinecrest", "Quarry", "Riverside",
    "Summit", "Tidewater",
)
_FIRM_TAILS = (
    "Medical Systems Inc.", "Surgical Corp.", "Devices, LLC", "Instruments Ltd.",
    "Biomedical Inc.", "Health Technologies", "Diagnostics Corp.",
    "Medical Supply Co.", "Therapeutics Inc.", "Imaging Systems",
    "Orthopedics, Inc.", "Life Sciences",
)
_DEVICE_NOUNS = (
    "Pump", "Container", "Software", "Defibrillator", "Instrument", "Bedding",
    "Valve", "Catheter", "Stent", "Monitor", "Ventilator", "Syringe", "Implant",
    "Laser", "Electrode",
)
_DEVICE_QUALIFIERS = (
    "Infusion", "IV", "Diagnosis/Treatment", "External (Non-Wearable)",
    "Surgical Orthopedic", "Disposable, Medical", "Prosthetic", "Intravascular",
    "Coronary", "Physiological", "Continuous", "Piston", "Dental", "Ophthalmic",
    "Cutaneous",
)
_DEVICE_CLASSES = ("1", "2", "2", "2", "3", "U", "N")


@dataclass
class Inputs:
    """Generated pages plus what the pipeline must make of them."""

    recall_pages: list[bytes]
    classification_pages: list[bytes]
    rows: int  # dataset rows that survive cleaning
    planted: dict = field(default_factory=dict)  # cleaning_report.json counters
    notes: dict = field(default_factory=dict)  # dirt kinds with no report counter

    @property
    def max_pages(self) -> int:
        return max(len(self.recall_pages), len(self.classification_pages)) + 1


def _codes(rng: random.Random, n: int, exclude: set[str] = frozenset()) -> list[str]:
    pool = [
        a + b + c
        for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    ]
    return rng.sample([c for c in pool if c not in exclude], n)


def _pages(entries: list[dict]) -> list[bytes]:
    total = len(entries)
    return [
        json.dumps(
            {
                "meta": {"results": {"skip": skip, "limit": PAGE_SIZE, "total": total}},
                "results": entries[skip : skip + PAGE_SIZE],
            }
        ).encode("utf-8")
        for skip in range(0, max(total, 1), PAGE_SIZE)
    ]


def _classification(rng: random.Random, codes: list[str], duplicates: int) -> list[dict]:
    entries = [
        {
            "product_code": code,
            "device_name": f"{rng.choice(_DEVICE_NOUNS)}, {rng.choice(_DEVICE_QUALIFIERS)}",
            "device_class": rng.choice(_DEVICE_CLASSES),
            "medical_specialty_description": "General Hospital",
            "regulation_number": f"{rng.randint(862, 892)}.{rng.randint(1000, 9999)}",
        }
        for code in codes
    ]
    # A later entry for a code already seen only bumps a warning counter.
    for code in rng.sample(codes, duplicates):
        entries.append(
            {
                "product_code": code,
                "device_name": f"{rng.choice(_DEVICE_NOUNS)} Duplicate Entry",
                "device_class": "2",
                "medical_specialty_description": "General Hospital",
                "regulation_number": "880.0000",
            }
        )
    return entries


def _date_in_window(rng: random.Random) -> dt.date:
    return DATE_FROM + dt.timedelta(days=rng.randint(0, (DATE_TO - DATE_FROM).days))


def _recall(
    rng: random.Random, label: str, code: str, firms: list[str], date_text: str
) -> dict:
    return {
        "res_event_number": str(rng.randint(70000, 99999)),
        "product_code": code,
        "event_date_posted": date_text,
        "recalling_firm": rng.choice(firms),
        "root_cause_description": label,
        "product_quantity": "",  # made unique once the order is fixed
        "recall_status": rng.choice(("Terminated", "Open, Classified", "Completed")),
        "product_res_number": f"Z-{rng.randint(1, 3999):04d}-{rng.randint(2018, 2024)}",
    }


def _insert_dirt(rng: random.Random, text: str) -> tuple[str, int]:
    n = rng.randint(1, 3)
    chars = list(text)
    for _ in range(n):
        chars.insert(rng.randint(0, len(chars)), rng.choice(DISALLOWED))
    return "".join(chars), n


def _label_counts(scale: int) -> list[tuple[str, int]]:
    return [(label, n * scale) for label, n in REFERENCE_INITIATORS]


def _generate(
    seed_text: str,
    labels: list[tuple[str, int]],
    *,
    n_codes: int,
    n_firms: int,
    dirt_share: float,
) -> Inputs:
    """Replicate ``labels`` into recall records and plant each dirt kind.

    With ``dirt_share`` 0 the pages are clean and every counter is zero.
    """
    rng = random.Random(seed_text)
    codes = _codes(rng, n_codes)
    firms = sorted({f"{rng.choice(_FIRM_HEADS)} {rng.choice(_FIRM_TAILS)}" for _ in range(n_firms)})
    base = sum(n for _, n in labels)
    n_dirty = int(base * dirt_share)
    unmatched_pool = _codes(rng, max(1, n_dirty // 20), exclude=set(codes))
    notes = {"yyyymmdd_dates": 0, "dirty_text_records": 0, "duplicate_classification_codes": 0}

    def pick_code() -> str:
        if dirt_share and rng.random() < 0.02:
            return rng.choice(unmatched_pool)
        return rng.choice(codes)

    def date_text() -> str:
        day = _date_in_window(rng)
        if dirt_share and rng.random() < 0.05:
            notes["yyyymmdd_dates"] += 1
            return day.strftime("%Y%m%d")
        return day.isoformat()

    # (entry, disallowed characters planted in it)
    survivors = [
        [_recall(rng, label, pick_code(), firms, date_text()), 0]
        for label, n in labels
        for _ in range(n)
    ]
    for item in rng.sample(survivors, n_dirty * 3):
        field_name = rng.choice(("root_cause_description", "recalling_firm"))
        item[0][field_name], item[1] = _insert_dirt(rng, item[0][field_name])
        notes["dirty_text_records"] += 1

    extras = []
    for i in range(n_dirty):  # empty root causes: absent, blank or only dirt
        entry = _recall(rng, "", pick_code(), firms, date_text())
        planted_chars = 0
        if i % 3 == 0:
            entry["root_cause_description"] = None
        elif i % 3 == 1:
            entry["root_cause_description"], planted_chars = _insert_dirt(rng, "")
        extras.append([entry, planted_chars])
    for i in range(n_dirty):  # dates outside the window, malformed or absent
        label = rng.choice(labels)[0]
        if i % 4 == 0:
            text = "2019/05/04"
        elif i % 4 == 1:
            text = ""
        else:
            year = rng.choice((2015, 2016, 2017, 2025))
            text = dt.date(year, rng.randint(1, 12), rng.randint(1, 28)).isoformat()
        extras.append([_recall(rng, label, pick_code(), firms, text), 0])

    entries = survivors + extras
    rng.shuffle(entries)
    for i, item in enumerate(entries):  # every record distinct before duplicates
        item[0]["product_quantity"] = f"{i + 1} units"
    for original in rng.sample(survivors, n_dirty * 2):
        entries.insert(rng.randint(0, len(entries)), [dict(original[0]), original[1]])

    recalls = [entry for entry, _ in entries]
    matched = set(codes)
    planted = {  # the cleaning_report.json counters these pages must produce
        "dropped_null_root_cause": n_dirty,
        "dropped_duplicates": n_dirty * 2,
        "dropped_date_outliers": n_dirty,
        "stripped_char_count": sum(n for _, n in entries),
        "unmatched_product_codes": len(
            {e["product_code"] for e in recalls if e["product_code"] not in matched}
        ),
    }
    n_dup_codes = n_codes // 100 if dirt_share else 0
    notes["duplicate_classification_codes"] = n_dup_codes
    classifications = _classification(rng, codes, n_dup_codes)
    return Inputs(
        recall_pages=_pages(recalls),
        classification_pages=_pages(classifications),
        rows=base,
        planted=planted,
        notes=notes,
    )


def cache_x10(seed: int) -> Inputs:
    """Ten times the reference table (69,910 kept records) plus about 2% dropped dirt."""
    return _generate(
        f"cache-x10:{seed}", _label_counts(10), n_codes=3000, n_firms=400, dirt_share=0.005
    )


def _wide_labels(rng: random.Random, n_labels: int) -> list[tuple[str, int]]:
    """Distinct labels of 2-4 distinct words; every fifth reaches min_pts.

    No two labels share a word set, so any two are more than the default
    eps of 0.1 apart in cosine distance (at least 1 - 3/sqrt(12) = 0.134):
    the heavy labels form one cluster each and the rest are noise, whatever
    the seed.
    """
    words = sorted(
        {
            w.strip("()").lower()
            for label, _ in REFERENCE_INITIATORS
            for w in label.replace("/", " ").replace("-", " ").split()
        }
    )
    seen: set[frozenset] = set()
    labels = []
    while len(labels) < n_labels:
        chosen = rng.sample(words, rng.randint(2, 4))
        if frozenset(chosen) in seen:
            continue
        seen.add(frozenset(chosen))
        i = len(labels)
        count = 4 + (i // 5) % 9 if i % 5 == 0 else 1 + i % 2
        text = " ".join(chosen)
        labels.append((text[0].upper() + text[1:], count))
    return labels


def labels_wide(seed: int) -> Inputs:
    """1500 distinct 2-4 word labels over 4200 clean records: 300 clusters, 1200 noise labels."""
    rng = random.Random(f"labels-wide:{seed}")
    return _generate(
        f"labels-wide:{seed}", _wide_labels(rng, 1500), n_codes=500, n_firms=120, dirt_share=0.0
    )


def _write_endpoint(endpoint_dir: Path, name: str, pages: list[bytes], search) -> None:
    endpoint_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "endpoint": name,
        "search": search,
        "page_size": PAGE_SIZE,
        "pages": {},
    }
    for index, payload in enumerate(pages):
        (endpoint_dir / f"{index}.json").write_bytes(payload)
        count = len(json.loads(payload)["results"])
        manifest["pages"][str(index)] = {"retrieved_at": RETRIEVED_AT, "record_count": count}
    if count == PAGE_SIZE:  # a full last page would send the client on to the API
        manifest["exhausted_at"] = len(pages)
    (endpoint_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_cache(inputs: Inputs, cache_dir: Path) -> None:
    """Write a complete page cache in the client's on-disk layout."""
    _write_endpoint(cache_dir / "recall", "recall", inputs.recall_pages, RECALL_SEARCH)
    _write_endpoint(
        cache_dir / "classification", "classification", inputs.classification_pages, None
    )
