"""Root-cause text normalisation and the two string metrics of the pipeline.

Cosine distance over token-count dicts (``tf_vector``), one pair at a time or
as eps-neighbourhoods (``cosine_neighbourhoods``), drives the clustering step;
normalised longest-common-subsequence similarity over label prefixes, from a
bit-parallel kernel, drives the group aggregation step. All of it is pure.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import ContractError

# Parentheses vanish, slash and hyphen become token separators.
_TRANSFORM = str.maketrans({"(": None, ")": None, "/": " ", "-": " "})

DEFAULT_PREFIX_LEN = 10


def normalize_label(s: str) -> str:
    """Lowercase, drop ``()``, map ``/`` and ``-`` to spaces, collapse whitespace."""
    return " ".join(s.lower().translate(_TRANSFORM).split())


def tf_vector(s: str) -> dict[str, int]:
    """Token counts of an already-normalised string; empty string gives an empty dict."""
    return dict(Counter(s.split()))


def cosine_distance(a: dict[str, int], b: dict[str, int]) -> float:
    """1 - cos(a, b) in [0, 1] over two token-count dicts.

    Identical vectors are exactly 0 and the value is exactly symmetric: the
    dot product and squared norms are integer sums, so no float ordering
    effects can creep in. One empty vector gives 1, two empty vectors 0.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    if a == b:
        return 0.0
    qa = sum(c * c for c in a.values())
    qb = sum(c * c for c in b.values())
    try:
        cos = _dot(a, b) / math.sqrt(qa * qb)
    except OverflowError as exc:  # counts past float range
        raise ContractError(f"token counts too large for a cosine distance: {exc}") from exc
    return min(1.0, max(0.0, 1.0 - cos))


def _dot(a: dict[str, int], b: dict[str, int]) -> int:
    """The integer dot product of two token-count dicts, summed over the smaller one."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return sum(c * large[t] for t, c in small.items() if t in large)


def _squared_norms(vectors: Sequence[dict[str, int]]) -> list[int]:
    """Each vector's squared norm; ContractError unless all are below 2**53 (about 10**8 tokens
    in one label), so that every norm and bound below is a float computed from an exact integer."""
    q = [sum(c * c for c in v.values()) for v in vectors]
    if q and max(q) >= 2**53:
        raise ContractError("token counts too large for exact cosine distances")
    return q


def cosine_neighbourhoods(vectors: Sequence[dict[str, int]], eps: float) -> list[list[int]]:
    """Per vector, the ascending indices of the vectors within ``cosine_distance`` ``eps`` of it.

    Three exact filters from all-pairs similarity search (Bayardo, Ma &
    Srikant, WWW 2007) pick the candidate pairs; ``cosine_distance`` decides
    each candidate, so the lists equal the all-pairs loop bit for bit. With
    ``t = max(0, 1 - eps - 1e-9)`` (the margin covers the rounding of every float
    below), a pair within ``eps`` has cosine at least ``t``:

    - *Prefix filter.* Tokens are ordered once, rarest first (ties by token).
      Each vector indexes its shortest prefix in that order whose remaining
      tokens' squared norm is below ``t**2`` times its own. Of a pair sharing
      no token in both prefixes, take the one whose prefix ends first: every
      shared token lies in its suffix, so by Cauchy-Schwarz the cosine is
      below ``t``.
    - *Size bound.* ``dot(x, y) <= min(L1(x) * max(y), L1(y) * max(x))``, so a
      candidate whose bound over ``|x| |y|`` is below ``t`` is dropped.
    - *Dot filter.* The exact integer ``dot(x, y)`` is the tightest such
      bound: a candidate whose dot product is below ``t |x| |y|`` is dropped
      by the same argument, so ``cosine_distance`` only sees pairs that can
      lie within ``eps``.

    Empty vectors are neighbours of each other only. From eps 1 on every pair
    is within eps, as ``cosine_distance`` is clamped to [0, 1]; below it, a
    pair sharing no token is 1 apart, so ``t`` may be clamped at 0. A negative
    or NaN ``eps``, and squared norms of 2**53 or more, are refused (ContractError).
    """
    if not eps >= 0.0:
        raise ContractError(f"eps must be >= 0, got {eps}")
    q = _squared_norms(vectors)
    if eps >= 1.0:
        return [list(range(len(vectors))) for _ in vectors]
    t = max(0.0, 1.0 - eps - 1e-9)
    frequency = Counter(token for v in vectors for token in v)
    rank = {token: k for k, token in enumerate(sorted(frequency, key=lambda tok: (frequency[tok], tok)))}
    norms = [math.sqrt(x) for x in q]
    l1 = [sum(v.values()) for v in vectors]
    top = [max(v.values(), default=0) for v in vectors]
    postings: dict[str, list[int]] = {}
    empties: list[int] = []
    neighbourhoods: list[list[int]] = []
    for i, v in enumerate(vectors):
        if not v:
            candidates = empties
            empties = [*empties, i]
        else:
            found: set[int] = set()
            rest, stop = q[i], t * t * q[i]
            for token in sorted(v, key=rank.__getitem__):
                found.update(postings.setdefault(token, []))
                postings[token].append(i)
                rest -= v[token] * v[token]
                if rest < stop:
                    break
            reach = t * norms[i]
            sized = [j for j in found if min(l1[i] * top[j], l1[j] * top[i]) >= reach * norms[j]]
            candidates = sorted(j for j in sized if _dot(v, vectors[j]) >= reach * norms[j])
        near = [j for j in candidates if cosine_distance(v, vectors[j]) <= eps]
        for j in near:
            neighbourhoods[j].append(i)  # i exceeds every index already in j's list
        neighbourhoods.append([*near, i])
    return neighbourhoods


def prefix_key(s: str, n: int = DEFAULT_PREFIX_LEN) -> str:
    """First ``n`` characters of the normalised label (shorter strings whole)."""
    if n < 1:
        raise ContractError(f"prefix length must be >= 1, got {n}")
    return normalize_label(s)[:n]


def _lcs_length(a: str, b: str) -> int:
    """Longest-common-subsequence length, bit-parallel (Allison & Dix, IPL 1986; Hyyrö 2004).

    Bit ``j`` of ``match[c]`` is set where ``b[j] == c``; after each character
    of ``a``, the zero bits among the low ``len(b)`` of ``v`` count the LCS so far.
    """
    match: dict[str, int] = {}
    for j, c in enumerate(b):
        match[c] = match.get(c, 0) | 1 << j
    v = full = (1 << len(b)) - 1
    for ca in a:
        u = v & match.get(ca, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def lcs_similarity(a: str, b: str) -> float:
    """2 * LCS(a, b) / (|a| + |b|); 1 iff the strings are equal.

    Two empty strings count as identical (1.0); exactly one empty gives 0.0.
    """
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    return 2.0 * _lcs_length(a, b) / (len(a) + len(b))
