import importlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from recallscan.aggregate import (
    AggregatedGroup,
    AggregationParams,
    MergeOverrides,
    _bound_survivors,
    _char_masks,
    aggregate,
    groups_to_json_dict,
)
from recallscan.dbscan import ClusterSummary
from recallscan.errors import ContractError, FormatError
from recallscan.reference import REFERENCE_INITIATORS, TOTAL_CASES
from recallscan import textprep
from recallscan.textprep import prefix_key

from .oracles import lcs_similarity_ref, lcs_table


def summaries(pairs):
    return [ClusterSummary(i, label, count) for i, (label, count) in enumerate(pairs)]


REFERENCE_SUMMARIES = summaries(REFERENCE_INITIATORS)
DEFAULTS = AggregationParams()
AGGREGATE = importlib.import_module("recallscan.aggregate")  # the package attribute is the function


def group_map(groups):
    return {g.members: g.total_count for g in groups}


def test_component_labels_merge():
    groups = aggregate(
        summaries([("Component change control", 116), ("Component design/selection", 131)])
    )
    assert groups == [
        AggregatedGroup(("Component change control", "Component design/selection"), 247)
    ]


def test_labelling_quadruple_merges_and_error_in_labelling_stays_out():
    groups = aggregate(
        summaries(
            [
                ("Labelling Change Control", 81),
                ("Labelling design", 108),
                ("Labelling mix-ups", 34),
                ("Labelling False and Misleading", 14),
                ("Error in labelling", 98),
            ]
        )
    )
    gm = group_map(groups)
    assert (
        gm[
            (
                "Labelling Change Control",
                "Labelling False and Misleading",
                "Labelling design",
                "Labelling mix-ups",
            )
        ]
        == 237
    )
    assert gm[("Error in labelling",)] == 98


def test_packaging_triple_excludes_package_design():
    groups = aggregate(
        summaries(
            [
                ("Packaging", 49),
                ("Packaging change control", 49),
                ("Packaging process control", 135),
                ("Package design/selection", 18),
            ]
        )
    )
    gm = group_map(groups)
    assert gm[("Packaging", "Packaging change control", "Packaging process control")] == 233
    assert gm[("Package design/selection",)] == 18


def test_process_pair_merges():
    groups = aggregate(summaries([("Process change control", 125), ("Process control", 1030)]))
    assert groups == [AggregatedGroup(("Process change control", "Process control"), 1155)]


def test_single_label_is_identity():
    groups = aggregate(summaries([("Storage", 134)]))
    assert groups == [AggregatedGroup(("Storage",), 134)]


def test_full_reference_input_yields_25_groups():
    groups = aggregate(REFERENCE_SUMMARIES, DEFAULTS)
    assert len(groups) == 25
    assert sum(g.total_count for g in groups) == TOTAL_CASES


def test_groups_partition_the_input_labels():
    groups = aggregate(REFERENCE_SUMMARIES, DEFAULTS)
    seen = [label for g in groups for label in g.members]
    assert sorted(seen) == sorted(label for label, _ in REFERENCE_INITIATORS)
    for g in groups:
        assert list(g.members) == sorted(g.members)
        assert len(set(g.members)) == len(g.members)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(len(REFERENCE_INITIATORS))))
def test_order_independence(perm):
    shuffled = summaries([REFERENCE_INITIATORS[i] for i in perm])
    assert set(aggregate(shuffled, DEFAULTS)) == set(aggregate(REFERENCE_SUMMARIES, DEFAULTS))


def test_theta_boundaries():
    rows = [("Component change control", 5), ("Component design/selection", 7), ("Storage", 1)]
    everything = aggregate(summaries(rows), AggregationParams(theta=0.0))
    assert len(everything) == 1
    assert everything[0].total_count == 13
    exact_only = aggregate(summaries(rows), AggregationParams(theta=1.0))
    assert group_map(exact_only) == {
        ("Component change control", "Component design/selection"): 12,
        ("Storage",): 1,
    }


def test_duplicate_labels_rejected():
    with pytest.raises(ContractError):
        aggregate(summaries([("Storage", 1), ("Storage", 2)]))


def test_nonpositive_counts_rejected():
    with pytest.raises(ContractError):
        aggregate(summaries([("Storage", 0)]))


def test_params_validation():
    with pytest.raises(ContractError):
        AggregationParams(prefix_len=0)
    with pytest.raises(ContractError):
        AggregationParams(theta=1.5)


@pytest.mark.parametrize(
    "a, b, similarity, merged",
    [
        ("Process change control", "Process control", 0.9, True),
        ("Package design/selection", "Process design", 0.6, False),
        ("Software design", "Software Design Change", 1.0, True),
    ],
)
def test_prefix_similarity_examples(a, b, similarity, merged):
    pa, pb = prefix_key(a, DEFAULTS.prefix_len), prefix_key(b, DEFAULTS.prefix_len)
    assert textprep.lcs_similarity(pa, pb) == similarity
    assert (len(aggregate(summaries([(a, 2), (b, 1)]))) == 1) is merged
    if similarity == 1.0:
        assert pa == pb == "software d"


def test_overrides_force_and_suppress_pairs():
    rows = summaries([("Storage", 10), ("Use error", 5), ("Process control", 7), ("Process change control", 3)])
    forced = aggregate(rows, DEFAULTS, MergeOverrides(merge=[("Storage", "Use error")]))
    assert ("Storage", "Use error") in group_map(forced)
    suppressed = aggregate(
        rows, DEFAULTS, MergeOverrides(split=[("Process control", "Process change control")])
    )
    gm = group_map(suppressed)
    assert ("Process change control",) in gm and ("Process control",) in gm


def test_override_with_unknown_label_rejected(monkeypatch):
    with pytest.raises(ContractError):
        aggregate(summaries([("Storage", 1)]), DEFAULTS, MergeOverrides(merge=[("Storage", "Nope")]))

    def no_pair_loop(a, b):
        raise AssertionError("the pair loop ran before the overrides were checked")

    # A bad override is refused before the O(L^2) pair loop does any work.
    monkeypatch.setattr(AGGREGATE, "lcs_similarity", no_pair_loop)
    rows = summaries([("Process control", 7), ("Process change control", 3)])
    with pytest.raises(ContractError, match="unknown labels"):
        aggregate(rows, DEFAULTS, MergeOverrides(merge=[("Process control", "Nope")]))
    # A typo in a split pair is refused like one in a merge pair, not read as nothing to split.
    with pytest.raises(ContractError, match="unknown labels"):
        aggregate(rows, DEFAULTS, MergeOverrides(split=[("Process control", "Proces change control")]))


def test_overrides_file_roundtrip(tmp_path):
    path = tmp_path / "overrides.json"
    path.write_text('{"merge": [["A", "B"]], "split": []}')
    overrides = MergeOverrides.from_file(path)
    assert overrides.merge == [("A", "B")] and overrides.split == []
    for text in ('{"split": [[1, 2]]}', '{"merge": [[null, "Process control"]]}'):
        path.write_text(text)  # a pair item that is not a string is not coerced
        with pytest.raises(FormatError, match="strings"):
            MergeOverrides.from_file(path)
    path.write_text('{"merges": [["Process design", "Process control"]]}')  # a misspelled key
    with pytest.raises(FormatError, match="merges"):
        MergeOverrides.from_file(path)


def test_group_artifact_payload_sorted():
    groups = aggregate(REFERENCE_SUMMARIES, DEFAULTS)
    payload = groups_to_json_dict(groups, DEFAULTS)
    assert payload["group_count"] == 25
    totals = [g["total_count"] for g in payload["groups"]]
    assert totals == sorted(totals, reverse=True)
    assert payload["groups"][0]["members"] == ["Under Investigation by firm"]


@given(st.lists(st.text(alphabet="abcdeé ", max_size=14), min_size=2, max_size=6))
def test_shared_count_bounds_lcs(strings):
    masks = _char_masks(strings)
    assert [m.bit_count() for m in masks] == [len(s) for s in strings]
    for (a, ma), (b, mb) in itertools.combinations(zip(strings, masks), 2):
        shared = (ma & mb).bit_count()
        assert shared == sum((Counter(a) & Counter(b)).values())  # with multiplicity
        assert lcs_table(a, b) <= shared <= min(len(a), len(b))


def test_bound_prunes_the_reference_pairs(monkeypatch):
    calls = {"pairs": 0, "kernel": 0}
    lcs_similarity, lcs_length = AGGREGATE.lcs_similarity, textprep._lcs_length

    def counted_similarity(a, b):
        calls["pairs"] += 1
        return lcs_similarity(a, b)

    def counted_length(a, b):
        calls["kernel"] += 1
        return lcs_length(a, b)

    monkeypatch.setattr(AGGREGATE, "lcs_similarity", counted_similarity)
    monkeypatch.setattr(textprep, "_lcs_length", counted_length)
    assert len(aggregate(REFERENCE_SUMMARIES, DEFAULTS)) == 25
    # Of the 36 * 35 / 2 = 630 pairs, 21 pass the shared-character bound and
    # 10 of those have distinct non-empty prefixes, so reach the LCS kernel.
    assert calls == {"pairs": 21, "kernel": 10}
    # Every similarity is >= 0, so at theta 0 all 36 labels merge without one LCS.
    calls.update(pairs=0, kernel=0)
    assert len(aggregate(REFERENCE_SUMMARIES, AggregationParams(theta=0.0))) == 1
    assert calls == {"pairs": 0, "kernel": 0}


def brute_force_groups(summaries, params, overrides):
    """Unpruned pair loop over the reference LCS, with a plain union-find."""
    labels = [s.label for s in summaries]
    prefixes = [prefix_key(label, params.prefix_len) for label in labels]
    split = {frozenset(pair) for pair in overrides.split}
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if frozenset((labels[i], labels[j])) in split:
                continue
            if lcs_similarity_ref(prefixes[i], prefixes[j]) >= params.theta:
                union(i, j)
    for a, b in overrides.merge:
        union(labels.index(a), labels.index(b))
    members: dict[int, list[int]] = {}
    for i in range(len(labels)):
        members.setdefault(find(i), []).append(i)
    return {
        tuple(sorted(labels[i] for i in ids)): sum(summaries[i].count for i in ids)
        for ids in members.values()
    }


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        # "é" is a non-ASCII letter; "İ" lowercases to two code points.
        st.lists(st.text(alphabet="ab cAéİ", max_size=12), unique=True, min_size=1, max_size=30),
        # Blank labels all have the empty prefix: two empty prefixes give a 0/0 bound.
        st.lists(st.text(alphabet=" ", max_size=6), unique=True, min_size=1, max_size=7),
    ),
    # With 5-character prefixes the bound 2 * shared / 10 lands exactly on 0.4 and 0.8.
    st.sampled_from([0.0, 0.4, 0.5, 0.8, 0.85, 1.0]),
    st.sampled_from([1, 3, 5, 6, 10]),
    st.data(),
)
def test_pruned_aggregate_equals_unpruned_brute_force(labels, theta, prefix_len, data):
    summ = summaries((label, 1 + i % 3) for i, label in enumerate(labels))
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    overrides = MergeOverrides(
        merge=data.draw(st.lists(pair, max_size=2)), split=data.draw(st.lists(pair, max_size=4))
    )
    params = AggregationParams(prefix_len=prefix_len, theta=theta)
    assert group_map(aggregate(summ, params, overrides)) == brute_force_groups(
        summ, params, overrides
    )
    plain = MergeOverrides()
    assert group_map(aggregate(summ, params)) == brute_force_groups(summ, params, plain)


def counter_bound_survivors(prefixes, theta):
    """The all-pairs reference: each pair's shared characters from two ``Counter`` bags."""
    survivors = []
    for i, a in enumerate(prefixes):
        row = []
        for j in range(i + 1, len(prefixes)):
            b = prefixes[j]
            total, shared = len(a) + len(b), sum((Counter(a) & Counter(b)).values())
            if not (total and 2.0 * shared / total < theta):
                row.append(j)
        survivors.append(row)
    return survivors


@settings(max_examples=200, deadline=None)
@given(
    # Blank labels have the empty prefix; equal prefixes and 0/0 bounds both occur.
    st.lists(st.text(alphabet="ab cé", max_size=12), max_size=30),
    st.sampled_from([1, 3, 10]),
    st.data(),
)
def test_bound_survivors_equal_the_all_pairs_counter_bound(labels, prefix_len, data):
    prefixes = [prefix_key(label, prefix_len) for label in labels]
    occurring = {
        2.0 * sum((Counter(a) & Counter(b)).values()) / (len(a) + len(b))
        for a, b in itertools.combinations(prefixes, 2) if a or b
    }
    theta = data.draw(st.sampled_from(sorted(occurring | {0.0, 0.85, 1.0})))  # exactly on a bound
    assert list(_bound_survivors(prefixes, theta)) == counter_bound_survivors(prefixes, theta)
