import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from recallscan.aggregate import groups_from_json_dict
from recallscan.dbscan import (
    NOISE,
    DbscanParams,
    cluster_root_causes,
    clusters_from_json_dict,
    clusters_to_json_dict,
    dbscan,
    dbscan_weighted,
)
from recallscan.errors import ContractError, FormatError
from recallscan.reference import REFERENCE_INITIATORS, TOTAL_CASES
from recallscan.textprep import cosine_distance, normalize_label, tf_vector

from .oracles import canonical_partition, dbscan_ref


def absmatrix(pts):
    """|a - b| for every pair of 1-d points."""
    return [[abs(a - b) for b in pts] for a in pts]


def matrix(points, distance):
    return [[float(distance(a, b)) for b in points] for a in points]


def test_params_validation():
    with pytest.raises(ContractError):
        DbscanParams(eps=-0.1)
    with pytest.raises(ContractError):
        DbscanParams(min_pts=0)
    DbscanParams(eps=0.0, min_pts=1)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_eps_is_rejected(eps):
    # A NaN radius would compare false everywhere and turn every label into noise.
    with pytest.raises(ContractError, match="eps"):
        DbscanParams(eps=eps, min_pts=4)


def test_identical_copies_form_one_cluster():
    vec = tf_vector("process control")
    assert dbscan_weighted([vec] * 6, [1] * 6, DbscanParams(0.1, 4)) == [0] * 6


def test_below_density_copies_are_noise():
    # 3 copies with min_pts=4 and everything else at distance 1.
    points = [tf_vector("rare cause")] * 3 + [tf_vector("common cause")] * 5
    labels = dbscan_weighted(points, [1] * 8, DbscanParams(0.1, 4))
    assert labels[:3] == [NOISE] * 3
    assert labels[3:] == [0] * 5


def test_asymmetric_distance_is_rejected():
    def skewed(a, b):
        if a == b:
            return 0.0
        return 0.2 if a < b else 0.4

    with pytest.raises(ContractError):
        dbscan(matrix([0, 1, 2, 3], skewed), DbscanParams(0.3, 2))


def test_matrix_is_any_sequence_of_rows():
    # Lists of ints and tuples of floats are rows too, not only lists of floats.
    assert dbscan([[0, 1, 9], [1, 0, 9], [9, 9, 0]], DbscanParams(1.0, 2)) == [0, 0, NOISE]
    assert dbscan(((0.0, 0.5), (0.5, 0.0)), DbscanParams(0.5, 2)) == [0, 0]
    assert dbscan([], DbscanParams(0.5, 1)) == []
    with pytest.raises(ContractError, match="square"):
        dbscan([[0.0, 1.0], [1.0]], DbscanParams(0.5, 1))
    with pytest.raises(ContractError, match="square"):
        dbscan([[0.0, "far"], ["far", 0.0]], DbscanParams(0.5, 1))


def test_nonzero_self_distance_is_rejected():
    with pytest.raises(ContractError):
        dbscan([[1.0, 1.0], [1.0, 1.0]], DbscanParams(0.5, 1))


@pytest.mark.parametrize(
    "rows",
    [[[0.0] * 3] * 2, [0.0] * 4, [[[0.0]]]],
    ids=["2x3", "flat", "1x1x1"],
)
def test_non_square_matrix_is_rejected(rows):
    with pytest.raises(ContractError, match="square"):
        dbscan(rows, DbscanParams(0.5, 1))


def test_matches_reference_on_random_sweeps():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 40)
        pts = [rng.random() for _ in range(n)]
        eps = rng.choice([0.02, 0.05, 0.1, 0.2])
        min_pts = rng.randint(1, 8)
        weights = [rng.randint(1, 5) for _ in range(n)]
        dist = absmatrix(pts)
        got = dbscan(dist, DbscanParams(eps, min_pts), weights)
        want = dbscan_ref(dist, eps, min_pts, weights)
        assert got == want  # same scan order, so the ids agree too


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=25),
    st.permutations(range(25)),
    st.sampled_from([0.03, 0.1, 0.25]),
    st.integers(min_value=1, max_value=5),
)
# 0.375 is a border point of both clusters; the scan order decides which one it joins.
@example(pts=[0.5, 0.75, 0.125, 0.0, 0.0, 0.75, 0.375], perm=[1, 2, 0, *range(3, 25)],
         eps=0.25, min_pts=4)
def test_partition_is_permutation_covariant(pts, perm, eps, min_pts):
    # Noise and the partition of core points do not depend on the scan order
    # (Ester et al., KDD 1996). A border point within eps of core points of
    # two clusters joins the one found first, so for border points the test
    # asserts that they sit next to a core point of their own cluster.
    params = DbscanParams(eps, min_pts)
    dist = absmatrix(pts)
    base = dbscan(dist, params)
    order = [p for p in perm if p < len(pts)]
    shuffled = [pts[i] for i in order]
    relabeled = dbscan(absmatrix(shuffled), params)
    # Map shuffled labels back to original positions.
    back = [0] * len(pts)
    for pos, orig in enumerate(order):
        back[orig] = relabeled[pos]
    core = [i for i in range(len(pts)) if sum(d <= eps for d in dist[i]) >= min_pts]
    assert canonical_partition([base[i] for i in core]) == canonical_partition([back[i] for i in core])
    for labels in (base, back):
        for i, label in enumerate(labels):
            near_core = [j for j in core if dist[i][j] <= eps]
            assert (label == NOISE) == (not near_core)
            assert label == NOISE or any(labels[j] == label for j in near_core)


def test_raising_min_pts_only_grows_noise():
    rng = random.Random(5)
    pts = [rng.random() for _ in range(40)]
    noise_sets = []
    for min_pts in range(1, 7):
        labels = dbscan(absmatrix(pts), DbscanParams(0.05, min_pts))
        noise_sets.append({i for i, l in enumerate(labels) if l == NOISE})
    for smaller, larger in zip(noise_sets, noise_sets[1:]):
        assert smaller <= larger


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
)
def test_two_valued_metric_collapses_to_label_classes(labels, min_pts):
    # distance 0 on equal labels, 1 otherwise: clusters are exactly the
    # equality classes whose multiplicity reaches min_pts.
    def d(a, b):
        return 0.0 if a == b else 1.0

    got = dbscan(matrix(labels, d), DbscanParams(0.1, min_pts))
    from collections import Counter

    counts = Counter(labels)
    for value, label in zip(labels, got):
        if counts[value] >= min_pts:
            assert label != NOISE
        else:
            assert label == NOISE
    clustered_values = {v for v, c in counts.items() if c >= min_pts}
    assert max(got) + 1 == len(clustered_values)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                "Process control",
                "Process change control",
                "process  CONTROL",
                "Process design",
                "Device Design",
                "Use error",
                "Packaging",
            ]
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.1, 0.2, 0.35, 0.6]),
)
def test_weighted_unique_path_equals_per_record_path(causes, min_pts, eps):
    # The pipeline collapses identical normalised labels into weighted
    # points; that optimisation must match clustering every record, id for
    # id. Larger eps values link distinct labels so multi-label clusters
    # and border chains get exercised too.
    params = DbscanParams(eps, min_pts)
    optimized = cluster_root_causes(causes, params).record_labels
    vectors = [tf_vector(normalize_label(c)) for c in causes]
    plain = dbscan_weighted(vectors, [1] * len(vectors), params)
    assert optimized == plain


def test_fixture_labels_reproduce_reference_counts():
    causes = [label for label, count in REFERENCE_INITIATORS for _ in range(count)]
    result = cluster_root_causes(causes, DbscanParams(0.1, 4))
    assert result.cluster_count == len(REFERENCE_INITIATORS)
    assert result.noise == []
    assert {(s.label, s.count) for s in result.summaries} == set(REFERENCE_INITIATORS)
    assert result.clustered_count == TOTAL_CASES
    assert result.points == {"labels": 36, "core": 36, "border": 0, "noise": 0}


def test_point_counts_name_core_border_and_noise():
    # eps 0.05: long ~ longer (0.047) and longer ~ longest (0.043), but not
    # long ~ longest (0.087). With min_pts 6 "long" (5 + 1) and "longer"
    # (5 + 1 + 1) are core, "longest" (1 + 1) is a border point.
    long = "a b c d e f g h i j"
    causes = [long] * 5 + [long + " k", long + " k l", "unrelated"]
    result = cluster_root_causes(causes, DbscanParams(0.05, 6))
    assert result.record_labels == [0] * 7 + [NOISE]
    assert result.points == {"labels": 4, "core": 2, "border": 1, "noise": 1}


def test_every_cluster_contains_a_core_point():
    rng = random.Random(3)
    pts = [rng.random() for _ in range(50)]
    eps, min_pts = 0.04, 3
    labels = dbscan(absmatrix(pts), DbscanParams(eps, min_pts))
    for cid in range(max(labels) + 1):
        member_idx = [i for i, l in enumerate(labels) if l == cid]
        assert any(
            sum(1 for j in range(len(pts)) if abs(pts[i] - pts[j]) <= eps) >= min_pts
            for i in member_idx
        )


def test_cluster_ids_follow_first_discovery_order():
    # Two well-separated dense groups; the group seen first takes id 0.
    pts = [0.9, 0.9, 0.9, 0.1, 0.1, 0.1]
    labels = dbscan(absmatrix(pts), DbscanParams(0.05, 3))
    assert labels == [0, 0, 0, 1, 1, 1]


def test_weighted_input_validation():
    vec = tf_vector("x")
    with pytest.raises(ContractError):
        dbscan_weighted([vec], [1, 2])
    with pytest.raises(ContractError):
        dbscan_weighted([vec], [0])


@pytest.mark.parametrize("weight", [1.7, True, "2", 0])
def test_a_weight_that_is_not_a_positive_integer_is_refused(weight):
    with pytest.raises(ContractError, match="positive integers"):
        dbscan_weighted([tf_vector("a b")], [weight], DbscanParams(min_pts=1))
    with pytest.raises(ContractError, match="positive integers"):
        dbscan([[0.0]], DbscanParams(min_pts=1), [weight])


def test_weighted_empty_singleton_and_lonely_noise():
    vec = tf_vector("a")
    assert dbscan_weighted([], [], DbscanParams(0.1, 1)) == []
    assert dbscan_weighted([vec], [1], DbscanParams(0.1, 1)) == [0]
    assert dbscan_weighted([vec], [1], DbscanParams(0.1, 2)) == [NOISE]


def test_cluster_artifact_payload_is_sorted():
    causes = (
        ["Beta cause"] * 4 + ["Alpha cause"] * 4 + ["Gamma cause"] * 9 + ["Rare cause"] * 2
    )
    result = cluster_root_causes(causes, DbscanParams(0.1, 4))
    payload = clusters_to_json_dict(result)
    assert payload["cluster_count"] == 3
    assert [c["count"] for c in payload["clusters"]] == [9, 4, 4]
    assert [c["label"] for c in payload["clusters"]] == ["Gamma cause", "Alpha cause", "Beta cause"]
    assert payload["noise"] == [{"label": "Rare cause", "count": 2}]
    assert payload["record_count"] == len(causes)


def test_canonical_label_preserves_original_case():
    causes = ["PROCESS control"] * 3 + ["process control"] * 2
    result = cluster_root_causes(causes, DbscanParams(0.1, 2))
    assert result.cluster_count == 1
    assert result.summaries[0].label == "PROCESS control"
    assert result.summaries[0].count == 5


def test_negative_distance_is_rejected():
    with pytest.raises(ContractError, match="negative distance between indices 0 and 2"):
        dbscan(matrix([0, 1, 2], lambda a, b: 0.0 if a == b else (-1.0 if {a, b} == {0, 2} else 0.5)))


@pytest.mark.parametrize("nan_at", [(0, 1), (1, 0), (2, 0)])
def test_nan_distance_is_rejected(nan_at):
    # Pairs (0, 1) and (1, 0) lie outside the sampled symmetry pairs of a 3 x 3 matrix;
    # a NaN there would compare false against eps and read as "far".
    dist = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    i, j = nan_at
    dist[i][j] = math.nan
    with pytest.raises(ContractError, match=f"NaN distance between indices {i} and {j}"):
        dbscan(dist, DbscanParams(0.5, 1))
    dist[i][j] = dist[j][i] = math.inf  # infinitely far is a distance
    assert dbscan(dist, DbscanParams(0.5, 1)) == [0, 1, 2]


@pytest.mark.parametrize(
    "clusters, noise, repeated",
    [
        ([{"id": 0, "label": "A", "count": 5}, {"id": 0, "label": "B", "count": 4}], [], "id 0"),
        ([{"id": 0, "label": "A", "count": 5}], [{"label": "A", "count": 1}], "label 'A'"),
    ],
    ids=["id", "noise-label"],
)
def test_cluster_artifact_rejects_repeated_labels_and_ids(clusters, noise, repeated):
    with pytest.raises(FormatError, match=repeated):
        clusters_from_json_dict({"clusters": clusters, "noise": noise})


@pytest.mark.parametrize(
    "key, value", [("record_count", 10), ("record_count", 9.0), ("record_count", None),
                   ("cluster_count", 2), ("cluster_count", True)],
)
def test_cluster_artifact_counts_agree_with_its_entries(key, value):
    payload = {"record_count": 9, "cluster_count": 1,
               "clusters": [{"id": 0, "label": "A", "count": 5}], "noise": [{"label": "B", "count": 4}]}
    assert [len(entries) for entries in clusters_from_json_dict(payload)] == [1, 1]
    with pytest.raises(FormatError, match=key):
        clusters_from_json_dict({**payload, key: value})


@pytest.mark.parametrize("value", [99, 0, 2.0, None, True])
def test_group_artifact_count_agrees_with_its_groups(value):
    payload = {"group_count": 2, "groups": [{"members": ["A"], "total_count": 5},
                                            {"members": ["B", "C"], "total_count": 4}]}
    assert len(groups_from_json_dict(payload)) == 2
    with pytest.raises(FormatError, match="group_count"):
        groups_from_json_dict({**payload, "group_count": value})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 14), st.data(), st.integers(min_value=1, max_value=5))
def test_weighted_equals_dbscan_over_the_scalar_matrix(n, data, min_pts):
    # Few words and empty labels, so distances of 0 and 1 and shared tokens all occur;
    # eps sits exactly on a distance that occurs or on a fixed value.
    words = st.lists(st.sampled_from(["process", "control", "design", "a"]), max_size=4)
    vectors = [tf_vector(" ".join(w)) for w in data.draw(st.lists(words, min_size=n, max_size=n))]
    weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    rows = [[cosine_distance(a, b) for b in vectors] for a in vectors]
    eps = data.draw(st.sampled_from(sorted({d for row in rows for d in row} | {0.0, 0.1, 0.3, 0.6})))
    params = DbscanParams(eps, min_pts)
    got = dbscan_weighted(vectors, weights, params)
    want = dbscan(rows, params, weights)
    assert got == want and got.core == want.core


def test_weighted_path_allocates_no_dense_matrix():
    # 2000 distinct three-word labels; a u x u float64 matrix would be 32 MB.
    words = [f"w{k}" for k in range(25)]
    vectors = [tf_vector(" ".join(c)) for c in itertools.islice(itertools.combinations(words, 3), 2000)]
    tracemalloc.start()
    try:
        labels = dbscan_weighted(vectors, [1] * len(vectors), DbscanParams(0.1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels == [NOISE] * 2000  # distinct word sets are at least 1/3 apart
    assert peak < 2000**2 * 8 / 4
