"""Numeric inner-loop kernels: density clustering and LCS length.

Each kernel has two implementations: a numba ``@njit`` version and a
pure-numpy fallback. The active one is chosen at import time; setting the
``RECALLSCAN_NO_NUMBA`` environment variable to a truthy value forces the
fallback even when numba is installed. Both paths must produce identical
results (they are cross-checked in the test suite).
"""

from __future__ import annotations

import os

import numpy as np

NO_NUMBA_ENV = "RECALLSCAN_NO_NUMBA"

NOISE = -1

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    njit = None
    HAVE_NUMBA = False


def _numba_disabled_by_env() -> bool:
    return os.environ.get(NO_NUMBA_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


# ---------------------------------------------------------------------------
# Weighted DBSCAN over a dense distance matrix
# ---------------------------------------------------------------------------
#
# weights[i] is the multiplicity of point i (coincident records collapsed to
# one point). A point is core when the summed weight of its eps-neighbourhood,
# itself included, reaches min_pts. Labels are int64: -1 marks noise, cluster
# ids count up from 0 in order of first core-point discovery along the input
# scan. Border points keep the id of the first cluster that reaches them.


def dbscan_labels_py(
    dist: np.ndarray, eps: float, min_pts: int, weights: np.ndarray
) -> np.ndarray:
    """Pure-numpy fallback path."""
    n = dist.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    within = dist <= eps
    w = weights.astype(np.int64)
    neighbour_weight = np.empty(n, dtype=np.int64)
    for i in range(n):  # row-wise to avoid an n*n int temporary
        neighbour_weight[i] = int(w[within[i]].sum())
    core = neighbour_weight >= min_pts
    queue = np.empty(n, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        labels[i] = cluster
        queue[0] = i
        head, tail = 0, 1
        while head < tail:
            p = queue[head]
            head += 1
            for q in np.nonzero(within[p])[0]:
                if labels[q] == NOISE:
                    labels[q] = cluster
                    if core[q]:
                        queue[tail] = q
                        tail += 1
        cluster += 1
    return labels


def _dbscan_labels_loops(dist, eps, min_pts, weights):
    n = dist.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    core = np.zeros(n, dtype=np.bool_)
    for i in range(n):
        acc = 0
        for j in range(n):
            if dist[i, j] <= eps:
                acc += weights[j]
        core[i] = acc >= min_pts
    queue = np.empty(n, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cluster
        queue[0] = i
        head = 0
        tail = 1
        while head < tail:
            p = queue[head]
            head += 1
            for q in range(n):
                if dist[p, q] <= eps and labels[q] == -1:
                    labels[q] = cluster
                    if core[q]:
                        queue[tail] = q
                        tail += 1
        cluster += 1
    return labels


# ---------------------------------------------------------------------------
# Longest-common-subsequence length
# ---------------------------------------------------------------------------


def lcs_length_py(a: np.ndarray, b: np.ndarray) -> int:
    """Fallback path: row recurrence with a running-max carry.

    Per row, candidate[j+1] = max(prev[j+1], prev[j] + match) and the
    cumulative maximum supplies the curr[j] term of the classic recurrence
    (valid because LCS rows are non-decreasing).
    """
    la, lb = a.shape[0], b.shape[0]
    if la == 0 or lb == 0:
        return 0
    row = np.zeros(lb + 1, dtype=np.int64)
    for i in range(la):
        cand = np.maximum(row[1:], row[:-1] + (b == a[i]))
        row = np.maximum.accumulate(np.concatenate((row[:1] * 0, cand)))
    return int(row[-1])


def _lcs_length_loops(a, b):
    la = a.shape[0]
    lb = b.shape[0]
    if la == 0 or lb == 0:
        return 0
    prev = np.zeros(lb + 1, dtype=np.int64)
    curr = np.zeros(lb + 1, dtype=np.int64)
    for i in range(la):
        ai = a[i]
        for j in range(lb):
            if b[j] == ai:
                curr[j + 1] = prev[j] + 1
            else:
                pj = prev[j + 1]
                cj = curr[j]
                curr[j + 1] = pj if pj >= cj else cj
        tmp = prev
        prev = curr
        curr = tmp
    return prev[lb]


if HAVE_NUMBA:
    dbscan_labels_jit = njit(cache=True)(_dbscan_labels_loops)
    lcs_length_jit = njit(cache=True)(_lcs_length_loops)
else:  # pragma: no cover
    dbscan_labels_jit = None
    lcs_length_jit = None

USING_NUMBA = HAVE_NUMBA and not _numba_disabled_by_env()

if USING_NUMBA:
    dbscan_labels = dbscan_labels_jit
    lcs_length = lcs_length_jit
else:
    dbscan_labels = dbscan_labels_py
    lcs_length = lcs_length_py
