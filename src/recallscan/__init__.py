"""Deterministic clustering and reporting of FDA device-recall root causes."""

__version__ = "0.1.0"

from .aggregate import (
    AggregatedGroup,
    AggregationParams,
    MergeOverrides,
    aggregate,
)
from .dataset import (
    CleaningReport,
    CleaningRules,
    Dataset,
    MergeStats,
    RecallRecord,
    clean,
    merge_datasets,
    read_dataset,
    write_dataset,
)
from .dbscan import (
    NOISE,
    ClusterSummary,
    DbscanParams,
    RootCauseClusters,
    cluster_root_causes,
    dbscan,
    dbscan_weighted,
)
from .openfda import (
    Endpoint,
    FetchSpec,
    RawPage,
    fetch_pages,
)
from .report import (
    RankedEntry,
    RankedReport,
    rank_initiators,
    render,
    top_devices,
    top_firms,
)
from .textprep import (
    cosine_distance,
    lcs_similarity,
    normalize_label,
    prefix_key,
    tf_vector,
)

__all__ = [
    "AggregatedGroup",
    "AggregationParams",
    "ClusterSummary",
    "CleaningReport",
    "CleaningRules",
    "Dataset",
    "DbscanParams",
    "Endpoint",
    "FetchSpec",
    "MergeOverrides",
    "MergeStats",
    "NOISE",
    "RankedEntry",
    "RankedReport",
    "RawPage",
    "RecallRecord",
    "RootCauseClusters",
    "aggregate",
    "clean",
    "cluster_root_causes",
    "cosine_distance",
    "dbscan",
    "dbscan_weighted",
    "fetch_pages",
    "lcs_similarity",
    "merge_datasets",
    "normalize_label",
    "prefix_key",
    "rank_initiators",
    "read_dataset",
    "render",
    "tf_vector",
    "top_devices",
    "top_firms",
    "write_dataset",
]
