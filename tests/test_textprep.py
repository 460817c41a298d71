import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recallscan import textprep
from recallscan.errors import ContractError
from recallscan.reference import REFERENCE_INITIATORS
from recallscan.textprep import (
    _cosine_blocks,
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


@given(st.text(alphabet="ab éü文", max_size=14), st.text(alphabet="ab éü文", max_size=14))
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


def scalar_matrix(vectors):
    """The reference: ``cosine_distance`` on every pair."""
    return np.array(
        [[cosine_distance(a, b) for b in vectors] for a in vectors], dtype=np.float64
    ).reshape(len(vectors), len(vectors))


def blocked_matrix(vectors):
    """The row blocks of ``_cosine_blocks`` stacked into the whole matrix."""
    return np.vstack([np.empty((0, len(vectors))), *_cosine_blocks(vectors)])


def block_height(height, n):
    """Patch the block size so that ``n`` vectors go ``height`` rows to a block."""
    return mock.patch.object(textprep, "_BLOCK_CELLS", height * n)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(small_vocab_labels, labels_text), max_size=14), st.integers(1, 5))
def test_cosine_matrix_equals_scalar_bit_for_bit(raws, height):
    vectors = [tf_vector(normalize_label(s)) for s in raws]
    with block_height(height, len(vectors)):
        got = blocked_matrix(vectors)
    want = scalar_matrix(vectors)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == got.T.copy().tobytes()
    assert not np.diagonal(got).any()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from([lambda b: b - 1, lambda b: b, lambda b: b + 1, lambda b: 2 * b + 1]),
    st.data(),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
)
def test_neighbourhoods_equal_thresholded_scalar_matrix(height, size, data, eps):
    # Sizes on and around a block boundary: one short of a block, exactly
    # one, one row over, and two blocks plus one row.
    raws = data.draw(st.lists(small_vocab_labels, min_size=size(height), max_size=size(height)))
    vectors = [tf_vector(s) for s in raws]
    with block_height(height, len(vectors)):
        got = [nb.tolist() for nb in cosine_neighbourhoods(vectors, eps)]
    assert got == [np.flatnonzero(row <= eps).tolist() for row in scalar_matrix(vectors)]


def test_neighbourhoods_with_empty_vectors_on_both_sides_of_a_boundary():
    # Blocks of two rows: rows 1 and 2 are empty and sit in different blocks.
    vectors = [tf_vector(s) for s in ("process", "", "", "control process", "")]
    with block_height(2, len(vectors)):
        assert blocked_matrix(vectors).tobytes() == scalar_matrix(vectors).tobytes()
        for eps in (0.0, 0.5, 1.0):
            got = [nb.tolist() for nb in cosine_neighbourhoods(vectors, eps)]
            assert got == [np.flatnonzero(row <= eps).tolist() for row in scalar_matrix(vectors)]
    assert [nb.tolist() for nb in cosine_neighbourhoods(vectors, 0.5)] == [
        [0, 3], [1, 2, 4], [1, 2, 4], [0, 3], [1, 2, 4]
    ]


def test_cosine_matrix_edge_cases():
    assert blocked_matrix([]).shape == (0, 0)
    assert cosine_neighbourhoods([], 0.1) == []
    empty, full = tf_vector(""), tf_vector("process control")
    assert blocked_matrix([empty]).tolist() == [[0.0]]
    assert blocked_matrix([empty, empty, full]).tolist() == [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]
    # Equal counts in another token order are the same vector.
    same = blocked_matrix([tf_vector("a a b"), tf_vector("b a a"), tf_vector("a b")])
    assert same[0, 1] == 0.0 and same[0, 2] > 0.0


def test_cosine_matrix_rejects_counts_beyond_exact_range():
    with pytest.raises(ContractError):
        cosine_neighbourhoods([{"x": 2**27}, tf_vector("x")], 0.1)
    with pytest.raises(ContractError):  # beyond int64 too: refused before any array is built
        cosine_neighbourhoods([{"x": 2**70}, tf_vector("x")], 0.1)


def test_cosine_matrix_rejects_disagreement_with_scalar(monkeypatch):
    # The sampled pairs are checked against cosine_distance; distances that
    # drifted from the scalar definition must not reach DBSCAN.
    vectors = [tf_vector("a"), tf_vector("b"), tf_vector("a b")]
    monkeypatch.setattr(textprep, "cosine_distance", lambda a, b: 0.5)
    with pytest.raises(ContractError, match="disagrees"):
        cosine_neighbourhoods(vectors, 0.1)
    # One row per block: the sampled pair (0, 2) spans blocks 0 and 2, and
    # the block holding row 0 checks it.
    monkeypatch.setattr(
        textprep, "cosine_distance",
        lambda a, b: cosine_distance(a, b) + (a is vectors[0] and b is vectors[2]),
    )
    with block_height(1, len(vectors)), pytest.raises(ContractError, match=r"pair \(0, 2\)"):
        cosine_neighbourhoods(vectors, 0.1)
