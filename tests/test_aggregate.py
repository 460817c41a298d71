from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from recallscan.aggregate import (
    AggregatedGroup,
    AggregationParams,
    MergeOverrides,
    _shared_count,
    aggregate,
    explain_merge,
    groups_to_json_dict,
)
from recallscan.dbscan import ClusterSummary
from recallscan.errors import ContractError, FormatError
from recallscan.reference import REFERENCE_INITIATORS, TOTAL_CASES
from recallscan.textprep import prefix_key

from .oracles import lcs_similarity_ref, lcs_table


def summaries(pairs):
    return [ClusterSummary(i, label, count) for i, (label, count) in enumerate(pairs)]


REFERENCE_SUMMARIES = summaries(REFERENCE_INITIATORS)
DEFAULTS = AggregationParams()


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


def test_explain_merge_examples():
    merged = explain_merge("Process change control", "Process control")
    assert merged.similarity == 0.9 and merged.merged
    split = explain_merge("Package design/selection", "Process design")
    assert split.similarity == 0.6 and not split.merged
    same_prefix = explain_merge("Software design", "Software Design Change")
    assert same_prefix.similarity == 1.0 and same_prefix.merged
    assert same_prefix.prefix_a == same_prefix.prefix_b == "software d"


def test_overrides_force_and_suppress_pairs():
    rows = summaries([("Storage", 10), ("Use error", 5), ("Process control", 7), ("Process change control", 3)])
    forced = aggregate(rows, DEFAULTS, MergeOverrides(merge=[("Storage", "Use error")]))
    assert ("Storage", "Use error") in group_map(forced)
    suppressed = aggregate(
        rows, DEFAULTS, MergeOverrides(split=[("Process control", "Process change control")])
    )
    gm = group_map(suppressed)
    assert ("Process change control",) in gm and ("Process control",) in gm


def test_override_with_unknown_label_rejected():
    with pytest.raises(ContractError):
        aggregate(summaries([("Storage", 1)]), DEFAULTS, MergeOverrides(merge=[("Storage", "Nope")]))


def test_overrides_file_roundtrip(tmp_path):
    path = tmp_path / "overrides.json"
    path.write_text('{"merge": [["A", "B"]], "split": []}')
    overrides = MergeOverrides.from_file(path)
    assert overrides.merge == [("A", "B")] and overrides.split == []
    for text in ('{"split": [[1, 2]]}', '{"merge": [[null, "Process control"]]}'):
        path.write_text(text)  # a pair item that is not a string is not coerced
        with pytest.raises(FormatError, match="strings"):
            MergeOverrides.from_file(path)


def test_group_artifact_payload_sorted():
    groups = aggregate(REFERENCE_SUMMARIES, DEFAULTS)
    payload = groups_to_json_dict(groups, DEFAULTS)
    assert payload["group_count"] == 25
    totals = [g["total_count"] for g in payload["groups"]]
    assert totals == sorted(totals, reverse=True)
    assert payload["groups"][0]["members"] == ["Under Investigation by firm"]


@given(st.text(alphabet="abcde ", max_size=14), st.text(alphabet="abcde ", max_size=14))
def test_shared_count_bounds_lcs(a, b):
    shared = _shared_count(Counter(a), Counter(b))
    assert shared == _shared_count(Counter(b), Counter(a))
    assert lcs_table(a, b) <= shared <= min(len(a), len(b))


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
    st.lists(st.text(alphabet="ab cA", max_size=12), unique=True, min_size=1, max_size=10),
    st.sampled_from([0.0, 0.5, 0.85, 1.0]),
    st.sampled_from([1, 3, 6, 10]),
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
