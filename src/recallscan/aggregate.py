"""Merge cluster labels into management-level groups.

Two labels merge when the LCS similarity of their normalised prefixes
reaches a threshold; union-find takes the transitive closure, so the result
does not depend on input order. Before any LCS, each prefix's characters
are compared with those of every later prefix: each prefix is a bit mask
over ``(char, occurrence)`` tokens, and a pair whose shared character count
(the popcount of the two masks' AND) already keeps the similarity below the
threshold skips the bit-parallel LCS; at a threshold of 0 every pair merges
without one. An optional override set can force or suppress individual pairs.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import artifacts
from .errors import ContractError, FormatError
from .textprep import DEFAULT_PREFIX_LEN, lcs_similarity, prefix_key

DEFAULT_THETA = 0.85


class _Merging(NamedTuple):  # a NamedTuple's own body may not define __new__
    prefix_len: int = DEFAULT_PREFIX_LEN
    theta: float = DEFAULT_THETA


class AggregationParams(_Merging):
    """Prefix length for comparison and the similarity threshold for merging."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.prefix_len < 1:
            raise ContractError(f"prefix_len must be >= 1, got {self.prefix_len}")
        if not 0.0 <= self.theta <= 1.0:
            raise ContractError(f"theta must be in [0, 1], got {self.theta}")
        return self


class AggregatedGroup(NamedTuple):
    """A set of merged cluster labels and their combined case count."""

    members: tuple[str, ...]
    total_count: int


class MergeOverrides(NamedTuple):
    """User-supplied pair overrides.

    ``merge`` pairs are unioned unconditionally; ``split`` pairs suppress the
    similarity-based union for that exact pair only (the pair can still end
    up together through a transitive chain).
    """

    merge: Sequence[tuple[str, str]] = ()
    split: Sequence[tuple[str, str]] = ()

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


def _char_masks(strings: Sequence[str]) -> list[int]:
    """Each string as a bit mask over the ``(char, occurrence)`` tokens of all of them.

    Every distinct token gets one bit: ``"aab"`` sets the bits of ``("a", 0)``,
    ``("a", 1)`` and ``("b", 0)``. A mask has as many bits set as its string has
    characters, and two masks share as many bits as their strings share
    characters, with multiplicity.
    """
    bits: dict[tuple[str, int], int] = {}
    masks = []
    for s in strings:
        mask = 0
        for ch, c in Counter(s).items():
            for k in range(c):
                mask |= 1 << bits.setdefault((ch, k), len(bits))
        masks.append(mask)
    return masks


def _bound_survivors(prefixes: Sequence[str], theta: float) -> Iterator[list[int]]:
    """Per prefix ``i``, the later prefixes ``j`` whose shared-character bound is not below ``theta``.

    The shared count of a pair is the popcount of the AND of their
    ``_char_masks``. LCS <= shared characters, and the similarity is
    monotone in its numerator, so a pair whose bound ``2.0 * shared /
    (len_i + len_j)`` falls below theta can never reach it. Equal prefixes
    give exactly 1.0; one empty prefix gives 0.0, pruned only when theta > 0,
    where lcs_similarity's 0.0 fails too; two empty prefixes are kept for
    lcs_similarity's 1.0.
    """
    masks = _char_masks(prefixes)
    lengths = list(map(len, prefixes))
    for i, mask in enumerate(masks):
        length = lengths[i]
        survivors = []
        for j in range(i + 1, len(masks)):
            total = length + lengths[j]
            if not (total and 2.0 * (mask & masks[j]).bit_count() / total < theta):
                survivors.append(j)
        yield survivors


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
    uf = _UnionFind(len(labels))
    suppressed = set()
    if overrides is not None:
        for a, b in [*overrides.merge, *overrides.split]:
            if a not in index or b not in index:
                raise ContractError(f"override pair ({a!r}, {b!r}) names unknown labels")
        for a, b in overrides.merge:
            uf.union(index[a], index[b])
        suppressed = {frozenset((index[a], index[b])) for a, b in overrides.split}

    prefixes = [prefix_key(label, params.prefix_len) for label in labels]
    for i, survivors in enumerate(_bound_survivors(prefixes, params.theta)):
        for j in survivors:
            if suppressed and frozenset((i, j)) in suppressed:
                continue
            if params.theta <= 0.0 or lcs_similarity(prefixes[i], prefixes[j]) >= params.theta:
                uf.union(i, j)

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

    Each group needs a non-empty list of string members and a positive integer total;
    ``group_count`` is the number of groups.
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
    if not (artifacts.is_int(found := payload.get("group_count"), 0) and found == len(entries)):
        raise FormatError(f"malformed group artifact: group_count is {found!r}, its groups give {len(entries)}")
    return [AggregatedGroup(tuple(members), total) for members, total in entries]
