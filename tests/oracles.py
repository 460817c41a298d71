"""Independent reference implementations used to check the engine paths.

Each oracle follows the textbook definition directly with no shared code:
full-table LCS, union-vocabulary cosine, fixed-point DBSCAN expansion,
per-field cleaning, a scanning join and plain counting. Kept deliberately
simple and quadratic.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter


def lcs_table(a: str, b: str) -> int:
    """Full (m+1) x (n+1) dynamic-programming table."""
    m = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, ca in enumerate(a, 1):
        for j, cb in enumerate(b, 1):
            m[i][j] = m[i - 1][j - 1] + 1 if ca == cb else max(m[i - 1][j], m[i][j - 1])
    return m[len(a)][len(b)]


def lcs_similarity_ref(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * lcs_table(a, b) / (len(a) + len(b))


def cosine_distance_ref(counts_a: dict[str, int], counts_b: dict[str, int]) -> float:
    if not counts_a and not counts_b:
        return 0.0
    if not counts_a or not counts_b:
        return 1.0
    vocab = sorted(set(counts_a) | set(counts_b))
    va = [counts_a.get(t, 0) for t in vocab]
    vb = [counts_b.get(t, 0) for t in vocab]
    dot = sum(x * y for x, y in zip(va, vb))
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(y * y for y in vb))
    return 1.0 - dot / (na * nb)


def dbscan_ref(dist, eps: float, min_pts: int, weights=None) -> list[int]:
    """Fixed-point expansion over the density-reachability definition.

    Same deterministic conventions as the engine: scan in input order, a
    border point keeps the id of the first cluster formed that reaches it.
    """
    n = len(dist)
    if weights is None:
        weights = [1] * n
    core = [
        sum(weights[j] for j in range(n) if dist[i][j] <= eps) >= min_pts for i in range(n)
    ]
    labels = [-1] * n
    cid = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cid
        changed = True
        while changed:
            changed = False
            for p in range(n):
                if labels[p] != cid or not core[p]:
                    continue
                for q in range(n):
                    if dist[p][q] <= eps and labels[q] == -1:
                        labels[q] = cid
                        changed = True
        cid += 1
    return labels


def canonical_partition(labels) -> tuple[frozenset, ...]:
    """Noise indices and per-cluster index sets, invariant to id renaming."""
    clusters: dict[int, set[int]] = {}
    noise = set()
    for idx, label in enumerate(labels):
        if label == -1:
            noise.add(idx)
        else:
            clusters.setdefault(label, set()).add(idx)
    parts = sorted((frozenset(v) for v in clusters.values()), key=lambda s: min(s))
    return (frozenset(noise), *parts)


def count_ranking(values, k: int) -> list[tuple[str, int]]:
    counts = Counter(v if v else "(unspecified)" for v in values)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]


CLEANED_FIELDS = (
    "product_code", "recalling_firm", "root_cause_description", "product_quantity", "device_name"
)
KEPT_PUNCTUATION = set("/,()-.")


def clean_ref(records, date_from, date_to) -> tuple[list, dict[str, int]]:
    """Strip every text field character by character, then drop blank root causes,
    repeats (first kept) and dates outside [date_from, date_to], absent ("") ones included.
    """
    counts = dict.fromkeys(
        ("dropped_null_root_cause", "dropped_duplicates", "dropped_date_outliers",
         "stripped_char_count"),
        0,
    )
    survivors, seen = [], set()
    for rec in records:
        stripped = {}
        for name in CLEANED_FIELDS:
            value = getattr(rec, name)
            kept = "".join(ch for ch in value if ch.isalnum() or ch == " " or ch in KEPT_PUNCTUATION)
            counts["stripped_char_count"] += len(value) - len(kept)
            stripped[name] = kept
        rec = rec._replace(**stripped)
        if not rec.root_cause_description.strip():
            counts["dropped_null_root_cause"] += 1
        elif rec in seen:
            counts["dropped_duplicates"] += 1
        else:
            seen.add(rec)
            date = rec.event_date_posted
            if not date or not date_from <= dt.date.fromisoformat(date) <= date_to:
                counts["dropped_date_outliers"] += 1
            else:
                survivors.append(rec)
    return survivors, counts


def merge_ref(recalls: list[dict], classifications: list[dict]) -> tuple[list[tuple], int, int]:
    """Join recall entries to classification entries by scanning for the first entry with
    the same code; return the 7-field rows, the classification entries whose code came
    earlier, and the distinct recall codes no entry has. A missing key reads as "", and
    so does a date in neither strptime format; a parsed one reads as YYYY-MM-DD.
    """
    rows, unmatched = [], set()
    for rec in recalls:
        code = rec.get("product_code", "")
        match = next((c for c in classifications if c.get("product_code", "") == code), None)
        if match is None:
            unmatched.add(code)
            name, cls = "", "unknown"
        else:
            name, cls = match.get("device_name", ""), match.get("device_class", "")
            cls = cls if cls in ("1", "2", "3") else "unknown"
        date = ""
        for fmt in ("%Y-%m-%d", "%Y%m%d"):
            try:
                date = dt.datetime.strptime(rec.get("event_date_posted", ""), fmt).date().isoformat()
                break
            except ValueError:
                pass
        rows.append((
            code, date, rec.get("recalling_firm", ""), rec.get("root_cause_description", ""),
            rec.get("product_quantity", ""), name, cls,
        ))
    codes = [c.get("product_code", "") for c in classifications]
    duplicates = sum(1 for i, code in enumerate(codes) if code in codes[:i])
    return rows, duplicates, len(unmatched)
