import math

import pytest
from hypothesis import example, given, settings, strategies as st

from recallscan import textprep
from recallscan.dbscan import DbscanParams, dbscan, dbscan_weighted
from recallscan.errors import ContractError
from recallscan.reference import REFERENCE_INITIATORS
from recallscan.textprep import (
    _lcs_length,
    cosine_distance,
    cosine_neighbourhoods,
    lcs_similarity,
    normalize_label,
    prefix_key,
    tf_vector,
)

from .oracles import cosine_distance_ref, lcs_similarity_ref, lcs_table

labels_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs"), whitelist_characters="/-()."),
    max_size=40,
)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("Nonconforming Material/Component", "nonconforming material component"),
        ("Software design (manufacturing process)", "software design manufacturing process"),
        ("  Process   control ", "process control"),
        ("Labelling mix-ups", "labelling mix ups"),
        ("", ""),
    ],
)
def test_normalize_label(raw, expected):
    assert normalize_label(raw) == expected


@given(labels_text)
def test_normalize_label_idempotent(s):
    once = normalize_label(s)
    assert normalize_label(once) == once


def test_tf_vector_counts():
    assert tf_vector("process control") == {"process": 1, "control": 1}
    assert tf_vector("process change control") == {"process": 1, "change": 1, "control": 1}
    assert tf_vector("") == {}
    assert tf_vector("a a b") == {"a": 2, "b": 1}
    assert type(tf_vector("a")) is dict


def test_cosine_distance_known_values():
    a = tf_vector("process control")
    b = tf_vector("process change control")
    assert cosine_distance(a, a) == 0.0
    expected = 1.0 - 2.0 / math.sqrt(6.0)  # dot 2, norms sqrt2 * sqrt3
    assert abs(cosine_distance(a, b) - expected) < 1e-12
    c = tf_vector("software design")
    d = tf_vector("software design manufacturing process")
    expected_cd = 1.0 - 2.0 / math.sqrt(8.0)
    assert abs(cosine_distance(c, d) - expected_cd) < 1e-12
    assert cosine_distance(a, b) > 0.1 and cosine_distance(c, d) > 0.1


def test_cosine_distance_empty_rules():
    empty = tf_vector("")
    full = tf_vector("process control")
    assert cosine_distance(empty, empty) == 0.0
    assert cosine_distance(empty, full) == 1.0
    assert cosine_distance(full, empty) == 1.0


@given(labels_text, labels_text)
def test_cosine_distance_axioms(sa, sb):
    a, b = tf_vector(normalize_label(sa)), tf_vector(normalize_label(sb))
    d_ab = cosine_distance(a, b)
    assert d_ab == cosine_distance(b, a)  # exactly symmetric
    assert 0.0 <= d_ab <= 1.0
    assert cosine_distance(a, a) == 0.0


def test_all_reference_label_pairs_exceed_default_eps():
    # The property that makes eps=0.1 reproduce the snapshot clusters exactly.
    vectors = [tf_vector(normalize_label(label)) for label, _ in REFERENCE_INITIATORS]
    for i in range(len(vectors)):
        assert cosine_distance(vectors[i], vectors[i]) == 0.0
        for j in range(i + 1, len(vectors)):
            assert cosine_distance(vectors[i], vectors[j]) > 0.1


def test_filters_leave_few_reference_pairs_to_cosine_distance(monkeypatch):
    # Of the 36 * 35 / 2 = 630 pairs of the fixture's labels, none reaches
    # cosine_distance at eps 0.1 and 40 at eps 0.5; from eps 1 on every pair
    # is within eps by definition, so none does.
    vectors = [tf_vector(normalize_label(label)) for label, _ in REFERENCE_INITIATORS]
    calls = []

    def counted_distance(a, b):
        calls.append((a, b))
        return cosine_distance(a, b)

    monkeypatch.setattr(textprep, "cosine_distance", counted_distance)
    for eps, pairs, neighbours in (
        (0.1, 0, 36), (0.5, 40, 116), (1.0, 0, 36 * 36), (2.0, 0, 36 * 36), (1e308, 0, 36 * 36)
    ):
        calls.clear()
        got = cosine_neighbourhoods(vectors, eps)
        assert (len(calls), sum(map(len, got))) == (pairs, neighbours), eps


@pytest.mark.parametrize("eps", [-0.1, -1e-300, -math.inf, math.nan])
def test_neighbourhoods_refuse_a_negative_or_nan_eps(eps):
    # No pair lies within such an eps, not even a vector and itself, so no list could be right.
    with pytest.raises(ContractError, match="eps must be >= 0"):
        cosine_neighbourhoods([tf_vector("process"), {}], eps)
    assert cosine_neighbourhoods([tf_vector("process"), {}], 0.0) == [[0], [1]]
    assert cosine_neighbourhoods([tf_vector("process"), {}], -0.0) == [[0], [1]]


@pytest.mark.parametrize(
    "raw, n, expected",
    [
        ("Component change control", 10, "component "),
        ("Packaging", 10, "packaging"),
        ("Labelling mix-ups", 10, "labelling "),
    ],
)
def test_prefix_key(raw, n, expected):
    assert prefix_key(raw, n) == expected


def test_prefix_key_rejects_nonpositive_length():
    with pytest.raises(ContractError):
        prefix_key("anything", 0)


def test_lcs_similarity_known_values():
    assert lcs_similarity("component ", "component ") == 1.0
    assert lcs_similarity("process co", "process ch") == 0.9  # LCS "process c"
    assert lcs_similarity("package de", "packaging") == 2 * 6 / 19  # LCS "packag"
    assert lcs_similarity("", "") == 1.0
    assert lcs_similarity("", "x") == 0.0


@given(st.text(alphabet="abcde ", max_size=14), st.text(alphabet="abcde ", max_size=14))
def test_lcs_similarity_matches_reference_and_axioms(a, b):
    sim = lcs_similarity(a, b)
    assert sim == lcs_similarity_ref(a, b)
    assert sim == lcs_similarity(b, a)
    assert (sim == 1.0) == (a == b)
    assert 0.0 <= sim <= 1.0


# Past 64 characters the bit vector outgrows one machine word; the example is always run.
@given(st.text(alphabet="ab éü文", max_size=80), st.text(alphabet="ab éü文", max_size=80))
@example("ab éü文" * 13, "文üé ba" * 12)
def test_lcs_length_matches_full_table(a, b):
    assert _lcs_length(a, b) == lcs_table(a, b)
    assert _lcs_length(a, "") == _lcs_length("", a) == 0


@given(labels_text, labels_text)
def test_cosine_matches_reference(sa, sb):
    a, b = tf_vector(normalize_label(sa)), tf_vector(normalize_label(sb))
    assert abs(cosine_distance(a, b) - cosine_distance_ref(a, b)) < 1e-12


# Few words, so labels repeat tokens, permute each other and share counts;
# the empty string stands for a label with no tokens.
small_vocab_labels = st.lists(
    st.sampled_from(["process", "control", "design", "a", "b"]), max_size=6
).map(" ".join)

# Vectors over the same few tokens with counts above 1, so norms, L1 sums and
# largest counts differ between vectors and prefixes end at every position.
small_vocab_vectors = st.dictionaries(
    st.sampled_from(["process", "control", "design", "a", "b"]), st.integers(1, 4), max_size=5
)


def thresholded(vectors, eps, distance):
    """All pairs through ``distance``: per vector, the ascending indices within ``eps`` of it."""
    return [[j for j, b in enumerate(vectors) if distance(a, b) <= eps] for a in vectors]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(small_vocab_vectors, st.one_of(small_vocab_labels, labels_text).map(
            lambda s: tf_vector(normalize_label(s)))),
        max_size=24,
    ),
    st.sampled_from([[], [{}], [{}, {}]]),
    st.data(),
)
def test_neighbourhoods_equal_thresholded_scalar_matrix(drawn, empties, data):
    # Empty vectors and copies of drawn ones ride along. eps sits exactly on a
    # distance that occurs, on 0, just below 1 or at 1 and above, where every pair qualifies.
    vectors = drawn + empties + drawn[::3]
    occurring = sorted({cosine_distance(a, b) for a in vectors for b in vectors})
    eps = data.draw(st.sampled_from([*occurring, 0.0, 0.1, 1.0 - 1e-10, 1.0, 2.0]))
    got = cosine_neighbourhoods(vectors, eps)
    assert got == thresholded(vectors, eps, cosine_distance)
    assert all(type(i) is int for nb in got for i in nb)
    # The oracle's union-vocabulary cosine may differ from cosine_distance in the
    # last bits, so a pair it puts within 1e-12 of eps may fall on either side.
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            d = cosine_distance_ref(a, b)
            if abs(d - eps) > 1e-12:
                assert (j in got[i]) == (d <= eps), (i, j, d, eps)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(small_vocab_labels, labels_text), max_size=14))
def test_cosine_matrix_equals_scalar_bit_for_bit(raws):
    # With eps set on each occurring distance in turn, the smallest eps at which j joins i's
    # neighbourhood is their distance: the neighbourhoods give back the whole scalar matrix.
    vectors = [tf_vector(normalize_label(s)) for s in raws]
    want = [[cosine_distance(a, b) for b in vectors] for a in vectors]
    got = [[math.inf] * len(vectors) for _ in vectors]
    for eps in sorted({d for row in want for d in row}, reverse=True):
        for i, nb in enumerate(cosine_neighbourhoods(vectors, eps)):
            for j in nb:
                got[i][j] = eps
    assert [[d.hex() for d in row] for row in got] == [[d.hex() for d in row] for row in want]
    assert got == [list(col) for col in zip(*got)]
    assert all(got[i][i] == 0.0 for i in range(len(got)))


def test_neighbourhoods_with_empty_vectors_on_both_sides_of_a_boundary():
    # Below eps 1 an empty vector is a neighbour of empty vectors only; from 1 on, of all.
    vectors = [tf_vector(s) for s in ("process", "", "", "control process", "")]
    for eps in (0.0, 0.5, 1.0 - 1e-10, 1.0, 2.0):
        assert cosine_neighbourhoods(vectors, eps) == thresholded(vectors, eps, cosine_distance)
    assert cosine_neighbourhoods(vectors, 0.5) == [
        [0, 3], [1, 2, 4], [1, 2, 4], [0, 3], [1, 2, 4]
    ]
    assert cosine_neighbourhoods(vectors, 1.0) == [list(range(5))] * 5


def test_cosine_matrix_edge_cases():
    assert cosine_neighbourhoods([], 0.1) == []
    empty, full = tf_vector(""), tf_vector("process control")
    assert cosine_neighbourhoods([empty], 0.1) == [[0]]
    assert cosine_neighbourhoods([empty, empty, full], 0.1) == [[0, 1], [0, 1], [2]]
    # Equal counts in another token order are the same vector.
    same = [tf_vector("a a b"), tf_vector("b a a"), tf_vector("a b")]
    assert cosine_neighbourhoods(same, 0.0) == [[0, 1], [0, 1], [2]]


def test_cosine_matrix_rejects_counts_beyond_exact_range():
    # One rule at every size.
    for copies in (1, 32, 64):
        for count in (2**27, 2**70):  # beyond int64 too
            vectors = [{"x": count}, tf_vector("x")] * copies
            with pytest.raises(ContractError, match="too large"):
                cosine_neighbourhoods(vectors, 0.1)
        below = [{"x": 2**26}, tf_vector("x")] * copies  # squared norm 2**52, still exact
        assert cosine_neighbourhoods(below, 0.1) == [list(range(2 * copies))] * (2 * copies)


def test_cosine_distance_beyond_float_range_is_a_contract_error():
    with pytest.raises(ContractError, match="too large"):
        cosine_distance({"x": 2**600}, {"x": 1, "y": 1})
    assert cosine_distance({"x": 2**500}, {"x": 1}) == 0.0  # exact integers, within float range


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(0, 8), st.integers(30, 34)),
    st.data(),
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]),
    st.integers(1, 4),
)
def test_both_neighbourhood_paths_agree(size, data, eps, min_pts):
    # The matrix path (``dbscan`` thresholds the rows of a square cosine_distance matrix) and
    # the vector path (``dbscan_weighted`` over cosine_neighbourhoods) label every point
    # alike. Few words and empty labels, so distances of 0, 1 and ties at eps all occur.
    raws = data.draw(st.lists(small_vocab_labels, min_size=size, max_size=size))
    vectors = [tf_vector(s) for s in raws]
    matrix = [[cosine_distance(a, b) for b in vectors] for a in vectors]
    rows = [[j for j, d in enumerate(row) if d <= eps] for row in matrix]
    blocks = cosine_neighbourhoods(vectors, eps)
    assert blocks == rows
    assert all(type(i) is int for nb in blocks for i in nb)
    params = DbscanParams(eps, min_pts)
    by_matrix, by_vectors = dbscan(matrix, params), dbscan_weighted(vectors, [1] * size, params)
    assert by_matrix == by_vectors and by_matrix.core == by_vectors.core
