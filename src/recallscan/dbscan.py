"""Deterministic DBSCAN over an abstract point set and distance oracle.

The generic entry points work on any indexed collection plus a symmetric
distance callable. ``cluster_root_causes`` is the pipeline-facing layer: it
collapses records with identical normalised labels into weighted unique
points before clustering (provably equivalent to clustering every record,
see the property tests) and produces per-cluster summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import artifacts
from .errors import ContractError, FormatError
from .textprep import cosine_distance, cosine_matrix, normalize_label, tf_vector

NOISE = -1

DEFAULT_EPS = 0.1
DEFAULT_MIN_PTS = 4


@dataclass(frozen=True)
class DbscanParams:
    """Neighbourhood radius and minimum neighbourhood weight (point included)."""

    eps: float = DEFAULT_EPS
    min_pts: int = DEFAULT_MIN_PTS

    def __post_init__(self):
        if not 0 <= self.eps < math.inf:
            raise ContractError(f"eps must be finite and >= 0, got {self.eps}")
        if self.min_pts < 1:
            raise ContractError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass
class ClusterAssignment:
    """Per-point labels (cluster id or NOISE) plus the number of clusters.

    Ids are contiguous from 0 and follow the order of first core-point
    discovery along the input scan.
    """

    labels: list[int]
    cluster_count: int


def _pairwise_matrix(points: Sequence[Any], distance: Callable[[Any, Any], float]) -> np.ndarray:
    """Dense symmetric distance matrix; ``cosine_distance`` takes one exact matmul."""
    n = len(points)
    for i in range(n):
        if distance(points[i], points[i]) != 0:
            raise ContractError(f"distance(p, p) must be 0, violated at index {i}")
    if distance is cosine_distance:
        dist = cosine_matrix(points)
    else:
        dist = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = float(distance(points[i], points[j]))
    if n and dist.min() < 0:
        i, j = np.argwhere(dist < 0)[0]
        raise ContractError(f"negative distance between indices {i} and {j}")
    _spot_check_symmetry(points, distance, dist)
    return dist


def _spot_check_symmetry(points, distance, dist) -> None:
    # Deterministic sample; full verification would double the oracle calls.
    # Both orders are compared, so a matrix built without the oracle is
    # checked against it too.
    n = len(points)
    step = max(1, n // 8)
    for i in range(0, n, step):
        j = n - 1 - i
        if i == j:
            continue
        if float(distance(points[j], points[i])) != dist[i, j]:
            raise ContractError(f"distance oracle is asymmetric on pair ({i}, {j})")
        if float(distance(points[i], points[j])) != dist[i, j]:
            raise ContractError(f"distance matrix disagrees with the oracle on pair ({i}, {j})")


def _propagate_labels(
    dist: np.ndarray, eps: float, min_pts: int, weights: np.ndarray
) -> list[int]:
    """Weighted DBSCAN label propagation over a dense distance matrix.

    A point is core when the summed weight of its eps-neighbourhood, itself
    included, reaches ``min_pts``. Points are scanned in input order and
    neighbourhoods expanded in ascending index order; cluster ids count up
    from 0 in order of discovery, and a border point keeps the id of the
    first cluster that reaches it. Neighbourhoods are taken one row at a
    time, so no n x n temporary is built.
    """
    n = len(weights)
    core = [int(weights[dist[p] <= eps].sum()) >= min_pts for p in range(n)]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        labels[i] = cluster
        queue = [i]
        for p in queue:  # breadth-first: the queue grows while it is read
            for q in np.flatnonzero(dist[p] <= eps).tolist():
                if labels[q] == NOISE:
                    labels[q] = cluster
                    if core[q]:
                        queue.append(q)
        cluster += 1
    return labels


def dbscan(
    points: Sequence[Any],
    distance: Callable[[Any, Any], float],
    params: DbscanParams = DbscanParams(),
) -> ClusterAssignment:
    """Cluster ``points`` with exact O(n^2) neighbourhood computation.

    Points are scanned in input order and neighbourhoods expanded in
    ascending index order, so the result is fully deterministic. Low-density
    points come back as NOISE rather than joining any cluster.
    """
    return dbscan_weighted(points, [1] * len(points), distance, params)


def dbscan_weighted(
    points: Sequence[Any],
    weights: Sequence[int],
    distance: Callable[[Any, Any], float],
    params: DbscanParams = DbscanParams(),
) -> ClusterAssignment:
    """DBSCAN where ``points[i]`` stands for ``weights[i]`` coincident records."""
    if len(weights) != len(points):
        raise ContractError("weights and points must have equal length")
    w = np.asarray(list(weights), dtype=np.int64)
    if w.size and w.min() < 1:
        raise ContractError("weights must be positive integers")
    dist = _pairwise_matrix(points, distance)
    labels = _propagate_labels(dist, float(params.eps), int(params.min_pts), w)
    return ClusterAssignment(labels=labels, cluster_count=max(labels, default=NOISE) + 1)


@dataclass(frozen=True)
class ClusterSummary:
    """One cluster (or noise bucket, id -1): canonical label plus case count."""

    cluster_id: int
    label: str
    count: int


@dataclass
class RootCauseClusters:
    """Full clustering result over a list of root-cause strings."""

    params: DbscanParams
    record_labels: list[int]
    summaries: list[ClusterSummary] = field(default_factory=list)
    noise: list[ClusterSummary] = field(default_factory=list)

    @property
    def cluster_count(self) -> int:
        return len(self.summaries)

    @property
    def clustered_count(self) -> int:
        return sum(s.count for s in self.summaries)

    @property
    def noise_count(self) -> int:
        return sum(s.count for s in self.noise)


def cluster_root_causes(
    root_causes: Sequence[str], params: DbscanParams = DbscanParams()
) -> RootCauseClusters:
    """Cluster free-text root causes by cosine distance over token counts.

    Records with the same normalised label collapse into one weighted point,
    so the distance oracle runs once per unique label pair. The canonical
    label of a cluster is the original-case spelling of its most frequent
    member (earliest first occurrence on ties).
    """
    norm_of = {s: normalize_label(s) for s in dict.fromkeys(root_causes)}  # once per raw text
    normalized = [norm_of[s] for s in root_causes]
    order: dict[str, int] = {}
    canonical: dict[str, str] = {}
    weights: dict[str, int] = {}
    for original, norm in zip(root_causes, normalized):
        if norm not in order:
            order[norm] = len(order)
            canonical[norm] = original
            weights[norm] = 0
        weights[norm] += 1

    uniques = list(order)  # first-occurrence order
    vectors = [tf_vector(u) for u in uniques]
    assignment = dbscan_weighted(
        vectors, [weights[u] for u in uniques], cosine_distance, params
    )

    record_labels = [assignment.labels[order[norm]] for norm in normalized]

    summaries: list[ClusterSummary] = []
    for cid in range(assignment.cluster_count):
        members = [u for u, lab in zip(uniques, assignment.labels) if lab == cid]
        rep = max(members, key=lambda u: (weights[u], -order[u]))
        summaries.append(
            ClusterSummary(cid, canonical[rep], sum(weights[u] for u in members))
        )
    noise = [
        ClusterSummary(NOISE, canonical[u], weights[u])
        for u, lab in zip(uniques, assignment.labels)
        if lab == NOISE
    ]
    return RootCauseClusters(
        params=params, record_labels=record_labels, summaries=summaries, noise=noise
    )


def clusters_to_json_dict(result: RootCauseClusters) -> dict:
    """Cluster artifact payload: clusters sorted by descending count, then label."""
    by_size = sorted(result.summaries, key=lambda s: (-s.count, s.label))
    noise = sorted(result.noise, key=lambda s: (-s.count, s.label))
    return {
        "params": {"eps": result.params.eps, "min_pts": result.params.min_pts},
        "record_count": result.clustered_count + result.noise_count,
        "cluster_count": result.cluster_count,
        "clusters": [
            {"id": s.cluster_id, "label": s.label, "count": s.count} for s in by_size
        ],
        "noise": [{"label": s.label, "count": s.count} for s in noise],
    }


def clusters_from_json_dict(payload: dict) -> tuple[list[ClusterSummary], list[ClusterSummary]]:
    """Rebuild the cluster summaries and the noise entries (none when absent) of a cluster artifact.

    Each entry needs an integer id (noise gets ``NOISE``), a string label and a
    positive integer count.
    """
    try:
        clusters = [ClusterSummary(c["id"], c["label"], c["count"]) for c in payload["clusters"]]
        noise = [ClusterSummary(NOISE, n["label"], n["count"]) for n in payload.get("noise", [])]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed cluster artifact: {exc!r}") from exc
    for s in clusters + noise:
        if not (artifacts.is_int(s.cluster_id, NOISE) and isinstance(s.label, str)
                and artifacts.is_int(s.count, 1)):
            raise FormatError(
                f"malformed cluster artifact entry {s}: needs an integer id, "
                "a string label and a positive integer count"
            )
    return clusters, noise
