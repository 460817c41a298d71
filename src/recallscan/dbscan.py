"""Deterministic DBSCAN over eps-neighbourhoods: cosine distance over token counts.

``dbscan`` takes the neighbourhoods from the rows of a square distance matrix;
``dbscan_weighted`` takes them from token-count vectors with
``cosine_neighbourhoods``, whose exact filters leave most pairs uncomputed,
so no u x u matrix is built.
``cluster_root_causes`` is the pipeline-facing layer: it collapses records
with identical normalised labels into weighted unique points before
clustering (provably equivalent to clustering every record, see the property
tests) and produces per-cluster summaries.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

from . import artifacts
from .errors import ContractError, FormatError
from .textprep import cosine_neighbourhoods, normalize_label, tf_vector

NOISE = -1

DEFAULT_EPS = 0.1
DEFAULT_MIN_PTS = 4


class _Density(NamedTuple):  # a NamedTuple's own body may not define __new__
    eps: float = DEFAULT_EPS
    min_pts: int = DEFAULT_MIN_PTS


class DbscanParams(_Density):
    """Neighbourhood radius and minimum neighbourhood weight (point included)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.eps < math.inf:
            raise ContractError(f"eps must be finite and >= 0, got {self.eps}")
        if self.min_pts < 1:
            raise ContractError(f"min_pts must be >= 1, got {self.min_pts}")
        return self


class Labels(list):
    """Cluster id or NOISE per point, in input order; ``core[i]`` tells whether point i is core."""

    def __init__(self, labels: list[int], core: list[bool]):
        super().__init__(labels)
        self.core = core


def _dbscan(neighbourhoods: Sequence[list[int]], weights: Sequence[int] | None, min_pts: int) -> Labels:
    """The one core and expansion loop, over each point's ascending eps-neighbourhood."""
    n = len(neighbourhoods)
    w = [1] * n if weights is None else list(weights)
    if len(w) != n:
        raise ContractError("weights and points must have equal length")
    for weight in w:
        if not artifacts.is_int(weight, 1):
            raise ContractError(f"weights must be positive integers, got {weight!r}")
    core = [sum(w[q] for q in nb) >= min_pts for nb in neighbourhoods]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        labels[i] = cluster
        queue = [i]
        for p in queue:  # breadth-first: the queue grows while it is read
            for q in neighbourhoods[p]:
                if labels[q] == NOISE:
                    labels[q] = cluster
                    if core[q]:
                        queue.append(q)
        cluster += 1
    return Labels(labels, core)


def dbscan(
    dist: Sequence[Sequence[float]],
    params: DbscanParams = DbscanParams(),
    weights: Sequence[int] | None = None,
) -> Labels:
    """Weighted DBSCAN over a square distance matrix: one cluster id or NOISE per point.

    Point ``i`` stands for ``weights[i]`` coincident records (1 when no
    weights are given). A point is core when the summed weight of its
    eps-neighbourhood, itself included, reaches ``min_pts``. Points are
    scanned in input order and neighbourhoods expanded in ascending index
    order; cluster ids count up from 0 in order of discovery, and a border
    point keeps the id of the first cluster that reaches it. Low-density
    points come back as NOISE.

    ``dist`` is a sequence of rows of numbers. The matrix must be square, with
    a zero diagonal and no negative or NaN entry, and a deterministic sample
    of pairs must be symmetric.
    """
    try:
        rows = [[float(d) for d in row] for row in dist]
    except (TypeError, ValueError) as exc:
        raise ContractError(f"distance matrix must be square rows of numbers: {exc}") from exc
    n = len(rows)
    ragged = [len(row) for row in rows if len(row) != n]
    if ragged:
        raise ContractError(f"distance matrix must be square, got {n} rows and a row of {ragged[0]}")
    for i, row in enumerate(rows):
        if row[i] != 0:
            raise ContractError(f"self-distance must be 0, violated at index {i}")
        for j, d in enumerate(row):
            if not d >= 0:  # NaN compares false both ways, so it is refused here too
                raise ContractError(f"{'NaN' if math.isnan(d) else 'negative'} distance between indices {i} and {j}")
    for i in range(0, n, max(1, n // 8)):
        j = n - 1 - i
        if rows[i][j] != rows[j][i]:
            raise ContractError(f"distance matrix is asymmetric on pair ({i}, {j})")
    eps = params.eps
    return _dbscan([[j for j, d in enumerate(row) if d <= eps] for row in rows], weights, params.min_pts)


def dbscan_weighted(
    vectors: Sequence[dict[str, int]],
    weights: Sequence[int],
    params: DbscanParams = DbscanParams(),
) -> Labels:
    """``dbscan`` by cosine distance without a u x u matrix; ``vectors[i]`` counts ``weights[i]`` times."""
    return _dbscan(cosine_neighbourhoods(vectors, params.eps), weights, params.min_pts)


class ClusterSummary(NamedTuple):
    """One cluster (or noise bucket, id -1): canonical label plus case count."""

    cluster_id: int
    label: str
    count: int


class RootCauseClusters(NamedTuple):
    """Full clustering result over a list of root-cause strings."""

    params: DbscanParams
    record_labels: list[int]
    summaries: list[ClusterSummary]
    noise: list[ClusterSummary]
    # Distinct labels (DBSCAN points) in all, and how many are core, border and noise.
    points: dict[str, int]

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
    so DBSCAN sees one point per unique label. The canonical
    label of a cluster is the original-case spelling of its most frequent
    member (earliest first occurrence on ties).
    """
    counts = Counter(root_causes)  # distinct texts, in first-occurrence order
    norm_of = {text: normalize_label(text) for text in counts}  # once per distinct text
    canonical: dict[str, str] = {}
    weights: dict[str, int] = {}  # one point per distinct normalised label, first occurrence first
    for text, norm in norm_of.items():
        canonical.setdefault(norm, text)
        weights[norm] = weights.get(norm, 0) + counts[text]

    vectors = [tf_vector(u) for u in weights]
    labels = dbscan_weighted(vectors, list(weights.values()), params)

    label_of = dict(zip(weights, labels))
    cluster_of = {text: label_of[norm] for text, norm in norm_of.items()}
    record_labels = list(map(cluster_of.__getitem__, root_causes))

    members: dict[int, list[str]] = {cid: [] for cid in range(NOISE, max(labels, default=NOISE) + 1)}
    for u, lab in zip(weights, labels):  # one pass, so each label keeps first-occurrence order
        members[lab].append(u)
    summaries: list[ClusterSummary] = []
    for cid in range(max(labels, default=NOISE) + 1):
        rep = max(members[cid], key=weights.__getitem__)  # the earliest of equal weights
        summaries.append(ClusterSummary(cid, canonical[rep], sum(weights[u] for u in members[cid])))
    noise = [ClusterSummary(NOISE, canonical[u], weights[u]) for u in members[NOISE]]
    core, noise_points = sum(labels.core), labels.count(NOISE)
    points = dict(labels=len(weights), core=core, border=len(weights) - core - noise_points, noise=noise_points)
    return RootCauseClusters(
        params=params, record_labels=record_labels, summaries=summaries, noise=noise, points=points
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
    positive integer count; no two entries share a label and no two clusters an id.
    ``record_count`` is the sum of all counts and ``cluster_count`` the number of clusters.
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
    for key, values in (("label", [s.label for s in clusters + noise]),
                        ("id", [s.cluster_id for s in clusters])):
        repeated = [v for v, c in Counter(values).items() if c > 1]
        if repeated:
            raise FormatError(f"malformed cluster artifact: {key} {repeated[0]!r} appears twice")
    for key, want in (("record_count", sum(s.count for s in clusters + noise)),
                      ("cluster_count", len(clusters))):
        found = payload.get(key)
        if not (artifacts.is_int(found, 0) and found == want):
            raise FormatError(
                f"malformed cluster artifact: {key} is {found!r}, its entries give {want}"
            )
    return clusters, noise
