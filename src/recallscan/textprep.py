"""Root-cause text normalisation and the two string metrics of the pipeline.

Cosine distance over token-count dicts (``tf_vector``), one pair at a time or
as eps-neighbourhoods from row blocks (``cosine_neighbourhoods``), drives the clustering step;
normalised longest-common-subsequence similarity over label prefixes drives
the group aggregation step. Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, Sequence

import numpy as np

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
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(c * large[t] for t, c in small.items() if t in large)
    qa = sum(c * c for c in a.values())
    qb = sum(c * c for c in b.values())
    cos = dot / math.sqrt(qa * qb)
    return min(1.0, max(0.0, 1.0 - cos))


# Distances per row block: at most 128 KB of float64, so a block and its temporaries stay in cache.
_BLOCK_CELLS = 2**14


def _cosine_blocks(vectors: Sequence[dict[str, int]]) -> Iterator[np.ndarray]:
    """The ``cosine_distance`` matrix of ``vectors`` in blocks of whole rows, bit for bit.

    Row ``i``'s dot products are summed over its tokens from each token's
    posting list (the rows holding it, with their counts), so the work
    follows the tokens labels share. Precondition, checked with
    ContractError: every squared norm is below 2**53 (about 10**8 tokens in
    one label). Then every product and partial sum is an integer below 2**53
    (a dot product never exceeds the larger squared norm), so the sums are
    exact in any order. ``q[i] * q[j]`` rounds once, as the float conversion
    of the scalar path's integer product does, and the division, ``1 - x``
    and the clip follow the scalar expression step for step. A block holds
    ``_BLOCK_CELLS // n`` rows (at least one). Pairs ``(i, n - 1 - i)`` are
    checked with ``cosine_distance`` in the block of row ``i`` (ContractError).
    """
    q = np.array([sum(c * c for c in v.values()) for v in vectors], dtype=np.float64)
    if q.size and q.max() >= 2.0**53:
        raise ContractError("token counts too large for an exact cosine matrix")
    postings: dict[str, tuple[list[int], list[int]]] = {}
    for i, v in enumerate(vectors):
        for token, c in v.items():
            rows, counts = postings.setdefault(token, ([], []))
            rows.append(i)
            counts.append(c)
    columns = {t: (np.array(rows), np.array(counts, dtype=np.float64)) for t, (rows, counts) in postings.items()}
    n = len(vectors)
    empty = q == 0
    height = max(1, _BLOCK_CELLS // max(n, 1))
    sampled = range(0, n, max(1, n // 8))
    for start in range(0, n, height):
        stop = min(start + height, n)
        dist = np.zeros((stop - start, n))
        for row, v in zip(dist, vectors[start:stop]):
            for token, c in v.items():
                rows, counts = columns[token]
                row[rows] += c * counts
        with np.errstate(divide="ignore", invalid="ignore"):  # empty rows, fixed below
            dist /= np.sqrt(q[start:stop, None] * q)
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, 1.0, out=dist)
        dist[empty[start:stop], :] = 1.0
        dist[:, empty] = 1.0
        dist[np.ix_(empty[start:stop], empty)] = 0.0
        np.fill_diagonal(dist[:, start:], 0.0)
        for i in (i for i in sampled if start <= i < stop):
            j = n - 1 - i
            if cosine_distance(vectors[i], vectors[j]) != dist[i - start, j]:
                raise ContractError(f"cosine matrix disagrees with cosine_distance on pair ({i}, {j})")
        yield dist


def cosine_neighbourhoods(vectors: Sequence[dict[str, int]], eps: float) -> list[np.ndarray]:
    """Per vector, the ascending indices of the vectors within ``cosine_distance`` ``eps`` of it."""
    return [np.flatnonzero(row <= eps) for dist in _cosine_blocks(vectors) for row in dist]


def prefix_key(s: str, n: int = DEFAULT_PREFIX_LEN) -> str:
    """First ``n`` characters of the normalised label (shorter strings whole)."""
    if n < 1:
        raise ContractError(f"prefix length must be >= 1, got {n}")
    return normalize_label(s)[:n]


def _lcs_length(a: str, b: str) -> int:
    """Longest-common-subsequence length, one dynamic-programming row over ``b``.

    ``row[j + 1]`` is overwritten in place; ``diag`` carries the previous
    row's ``row[j]`` that the match case needs.
    """
    row = [0] * (len(b) + 1)
    for ca in a:
        diag = 0
        for j, cb in enumerate(b):
            up = row[j + 1]
            if ca == cb:
                row[j + 1] = diag + 1
            elif row[j] > up:
                row[j + 1] = row[j]
            diag = up
    return row[-1]


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
