"""Merge cluster labels into management-level groups.

Two labels merge when the LCS similarity of their normalised prefixes
reaches a threshold; union-find takes the transitive closure, so the result
does not depend on input order. A pair whose shared character count already
keeps the similarity below the threshold skips the LCS dynamic program. An
optional override set can force or suppress individual pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import artifacts
from .errors import ContractError, FormatError
from .textprep import DEFAULT_PREFIX_LEN, lcs_similarity, prefix_key

DEFAULT_THETA = 0.85


@dataclass(frozen=True)
class AggregationParams:
    """Prefix length for comparison and the similarity threshold for merging."""

    prefix_len: int = DEFAULT_PREFIX_LEN
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.prefix_len < 1:
            raise ContractError(f"prefix_len must be >= 1, got {self.prefix_len}")
        if not 0.0 <= self.theta <= 1.0:
            raise ContractError(f"theta must be in [0, 1], got {self.theta}")


@dataclass(frozen=True)
class AggregatedGroup:
    """A set of merged cluster labels and their combined case count."""

    members: tuple[str, ...]
    total_count: int


@dataclass(frozen=True)
class MergeTrace:
    """Audit record of one pairwise merge decision."""

    label_a: str
    label_b: str
    prefix_a: str
    prefix_b: str
    similarity: float
    threshold: float
    merged: bool


@dataclass
class MergeOverrides:
    """User-supplied pair overrides.

    ``merge`` pairs are unioned unconditionally; ``split`` pairs suppress the
    similarity-based union for that exact pair only (the pair can still end
    up together through a transitive chain).
    """

    merge: list[tuple[str, str]] = field(default_factory=list)
    split: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str | Path) -> "MergeOverrides":
        payload = artifacts.read_object(Path(path), "overrides file")
        unknown = set(payload) - {"merge", "split"}
        if unknown:
            raise FormatError(f"unknown overrides keys: {', '.join(sorted(unknown))}")
        def pairs(key):
            items = payload.get(key, [])
            if not isinstance(items, list):
                raise FormatError(f"overrides {key} must be a list of [a, b] pairs")
            for item in items:
                if not (isinstance(item, list) and len(item) == 2
                        and all(isinstance(label, str) for label in item)):
                    raise FormatError(f"overrides {key} entries must be [a, b] pairs of strings")
            return [(a, b) for a, b in items]
        return cls(merge=pairs("merge"), split=pairs("split"))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _shared_count(a: Counter, b: Counter) -> int:
    """Characters two strings share, with multiplicity: an upper bound on their LCS."""
    return sum([min(c, b.get(ch, 0)) for ch, c in a.items()])


def explain_merge(a: str, b: str, params: AggregationParams = AggregationParams()) -> MergeTrace:
    """Show the prefixes, similarity and verdict for one label pair."""
    pa = prefix_key(a, params.prefix_len)
    pb = prefix_key(b, params.prefix_len)
    sim = lcs_similarity(pa, pb)
    return MergeTrace(a, b, pa, pb, sim, params.theta, sim >= params.theta)


def aggregate(
    summaries: Sequence,
    params: AggregationParams = AggregationParams(),
    overrides: MergeOverrides | None = None,
) -> list[AggregatedGroup]:
    """Partition cluster summaries into aggregated groups.

    ``summaries`` entries need ``label`` and ``count`` attributes with
    distinct labels and positive counts. Groups come back sorted by
    descending total count, ties broken by first member label; members within
    a group are sorted lexicographically.
    """
    labels = [s.label for s in summaries]
    counts = [s.count for s in summaries]
    if len(set(labels)) != len(labels):
        raise ContractError("aggregate requires distinct input labels")
    if any(c <= 0 for c in counts):
        raise ContractError("aggregate requires positive counts")

    index = {label: i for i, label in enumerate(labels)}
    suppressed = set()
    if overrides is not None:
        for a, b in overrides.split:
            if a in index and b in index:
                suppressed.add(frozenset((index[a], index[b])))

    prefixes = [prefix_key(label, params.prefix_len) for label in labels]
    bags = [Counter(p) for p in prefixes]
    theta = params.theta
    uf = _UnionFind(len(labels))
    for i, (pa, bag_a) in enumerate(zip(prefixes, bags)):
        for j in range(i + 1, len(labels)):
            if suppressed and frozenset((i, j)) in suppressed:
                continue
            pb = prefixes[j]
            # LCS <= shared characters, and the similarity is monotone in its
            # numerator, so a pair failing this bound can never reach theta.
            if (
                pa and pb and pa != pb
                and 2.0 * _shared_count(bag_a, bags[j]) / (len(pa) + len(pb)) < theta
            ):
                continue
            if lcs_similarity(pa, pb) >= theta:
                uf.union(i, j)
    if overrides is not None:
        for a, b in overrides.merge:
            if a not in index or b not in index:
                raise ContractError(f"override pair ({a!r}, {b!r}) names unknown labels")
            uf.union(index[a], index[b])

    components: dict[int, list[int]] = {}
    for i in range(len(labels)):
        components.setdefault(uf.find(i), []).append(i)
    groups = [
        AggregatedGroup(
            members=tuple(sorted(labels[i] for i in member_ids)),
            total_count=sum(counts[i] for i in member_ids),
        )
        for member_ids in components.values()
    ]
    groups.sort(key=lambda g: (-g.total_count, g.members[0]))
    return groups


def groups_to_json_dict(groups: Iterable[AggregatedGroup], params: AggregationParams) -> dict:
    """Group artifact payload, in the aggregate() sort order."""
    groups = list(groups)
    return {
        "params": {"prefix_len": params.prefix_len, "theta": params.theta},
        "group_count": len(groups),
        "groups": [
            {"members": list(g.members), "total_count": g.total_count} for g in groups
        ],
    }


def groups_from_json_dict(payload: dict) -> list[AggregatedGroup]:
    """Rebuild aggregated groups from a group artifact payload.

    Each group needs a non-empty list of string members and a positive integer total.
    """
    try:
        entries = [(g["members"], g["total_count"]) for g in payload["groups"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed group artifact: {exc!r}") from exc
    for members, total in entries:
        if not (isinstance(members, list) and members and all(isinstance(m, str) for m in members)):
            raise FormatError(f"malformed group artifact: members {members!r} are not label strings")
        if not artifacts.is_int(total, 1):
            raise FormatError(f"malformed group artifact: total_count {total!r} is not positive")
    return [AggregatedGroup(tuple(members), total) for members, total in entries]
