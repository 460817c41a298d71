"""The file layer: one atomic write path, and no input file that ends in a traceback."""

import ast
import csv
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import recallscan
from recallscan import stages
from recallscan.cli import main

from .conftest import CliRunner, FakeOpenFDA

SRC = Path(recallscan.__file__).parent


def test_only_the_file_layer_writes_files():
    # A second write path would not be atomic; every write goes through artifacts.write.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            os_replace = node.attr == "replace" and getattr(node.value, "id", None) == "os"
            if node.attr in ("write_text", "write_bytes") or os_replace:
                offenders.append(f"{path.name}:{node.lineno} {node.attr}")
    assert offenders == []


# Each file a run reads, and the command that reads it (run inside a copy of the workspace).
CONSUMERS = {
    "cfg.json": ["report", "--config", "cfg.json"],
    "overrides.json": ["aggregate", "--overrides-file", "overrides.json", "--out", "out"],
    "cache/recall/manifest.json": ["build", "--cache-dir", "cache", "--out", "out"],
    "cache/recall/0.json": ["build", "--cache-dir", "cache", "--out", "out"],
    "cache/classification/manifest.json": ["build", "--cache-dir", "cache", "--out", "out"],
    "cache/classification/0.json": ["build", "--cache-dir", "cache", "--out", "out"],
    "out/clusters.json": ["report", "--out", "out"],
    "out/groups.json": ["report", "--out", "out"],
    "out/dataset.csv": ["cluster", "--min-pts", "2", "--out", "out"],
    "out/cluster.meta.json": ["aggregate", "--out", "out"],
    "out/aggregate.meta.json": ["report", "--out", "out"],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A finished run over the ten sample records, plus a config and an overrides file."""
    root = tmp_path_factory.mktemp("workspace")
    cfg = stages.PipelineConfig(cache_dir=str(root / "cache"), out=str(root / "out"), min_pts=2)
    stages.echo_config(cfg)
    stages.pipeline_stage(cfg, get=FakeOpenFDA())
    (root / "cfg.json").write_text(json.dumps({"out": "out", "top": 5}), encoding="utf-8")
    overrides = {"merge": [["Process design", "Process control"]], "split": []}
    (root / "overrides.json").write_text(json.dumps(overrides), encoding="utf-8")
    return root


def _json_paths(node, path=()):
    """Every path into a JSON document, root first, in document order."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _set(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def mutate(path: Path, mutation: tuple) -> None:
    """Cut the file, put non-UTF-8 bytes into it, or set one value in it to another."""
    data = path.read_bytes()
    kind, where = mutation[0], mutation[1]
    if kind == "cut":
        path.write_bytes(data[: int(len(data) * where)])
    elif kind == "bytes":
        at = int(len(data) * where)
        path.write_bytes(data[:at] + b"\xff\xfe" + data[at:])
    elif path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        r, c = cells[where % len(cells)]
        value = mutation[2]
        rows[r][c] = value if isinstance(value, str) else json.dumps(value)
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        path.write_bytes(buf.getvalue().encode("utf-8"))
    else:
        doc = json.loads(data)
        if isinstance(where, int):
            paths = list(_json_paths(doc))
            where = paths[where % len(paths)]
        path.write_text(json.dumps(_set(doc, where, mutation[2])), encoding="utf-8")


VALUES = st.sampled_from([None, True, False, 0, -1, -3, 1.5, 5.7, 10**30, "", "x", "abc", [], {}])
MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("bytes"), st.floats(0, 1)),
    st.tuples(st.just("set"), st.integers(0, 500), VALUES),
)
MANIFEST = "cache/recall/manifest.json"


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from(sorted(CONSUMERS)), mutation=MUTATIONS)
@example(target=MANIFEST, mutation=("set", (), []))
@example(target=MANIFEST, mutation=("set", (), None))
@example(target=MANIFEST, mutation=("set", ("pages",), []))
@example(target=MANIFEST, mutation=("set", ("pages", "0"), 5))
@example(target=MANIFEST, mutation=("set", ("exhausted_at",), "x"))
@example(target="out/groups.json", mutation=("set", ("groups", 0, "members"), "abc"))
@example(target="out/groups.json", mutation=("set", ("groups", 0, "members"), []))
@example(target="out/groups.json", mutation=("set", ("groups", 0, "total_count"), 0))
@example(target="out/groups.json", mutation=("set", ("groups",), [1]))
@example(target="out/groups.json", mutation=("set", ("groups",), []))
@example(target="out/clusters.json", mutation=("set", ("clusters",), []))
@example(target="out/clusters.json", mutation=("set", ("clusters", 0, "count"), 0))
@example(target="out/clusters.json", mutation=("set", ("clusters", 0, "count"), -3))
@example(target="out/clusters.json", mutation=("set", ("clusters", 0, "count"), 5.7))
@example(target="out/clusters.json", mutation=("set", ("clusters", 0, "count"), True))
@example(target="out/clusters.json", mutation=("set", ("noise",), [{"label": "Rare cause"}]))
@example(target="out/clusters.json", mutation=("bytes", 0.5))
@example(target="overrides.json", mutation=("set", ("merge",), 5))
@example(target="overrides.json", mutation=("bytes", 0.5))
@example(target="cfg.json", mutation=("bytes", 0.5))
@example(target="out/dataset.csv", mutation=("bytes", 0.5))
@example(target="out/dataset.csv", mutation=("cut", 0.5))
@example(target="out/cluster.meta.json", mutation=("cut", 0.5))
@example(target="out/cluster.meta.json", mutation=("set", ("inputs", "dataset.csv"), "x"))
@example(target="out/aggregate.meta.json", mutation=("bytes", 0.5))
@example(target="out/aggregate.meta.json", mutation=("set", ("inputs",), []))
def test_damaged_input_exits_with_a_documented_code(workspace, tmp_path_factory, target, mutation):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path_factory.getbasetemp()) as cwd:
        shutil.copytree(workspace, cwd, dirs_exist_ok=True)
        mutate(Path(cwd) / target, mutation)
        result = runner.invoke(main, CONSUMERS[target])
    assert result.exit_code in (0, 2, 3, 4, 5), (target, mutation, result.output)
    assert "Traceback" not in result.output
    if result.exit_code:
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert json.loads(lines[0])["exit_code"] == result.exit_code


def test_unreadable_input_exits_4(workspace, tmp_path_factory):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path_factory.getbasetemp()) as cwd:
        shutil.copytree(workspace, cwd, dirs_exist_ok=True)
        clusters = Path(cwd) / "out" / "clusters.json"
        clusters.unlink()
        clusters.mkdir()  # exists, but cannot be read as a file
        result = runner.invoke(main, ["aggregate", "--out", "out"])
    assert result.exit_code == 4
    [line] = result.stderr.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "FormatError" and "cannot read artifact" in error["message"]
