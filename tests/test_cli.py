import collections
import gc
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import recallscan
from recallscan import __version__, artifacts, openfda, stages
from recallscan.cli import COMMANDS, main
from recallscan.errors import DataError, RequestError

from .conftest import CliRunner, FakeOpenFDA, classification_entries


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    # Sidecars carry timestamps by design; everything else must be stable.
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and not p.name.endswith(".meta.json")
    }


def fail_on_network(url, params, timeout):
    raise AssertionError(f"unexpected network request to {url}")


def test_pipeline_fixture_end_to_end(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(openfda, "_requests_get", fail_on_network)
    out = tmp_path / "out"
    result = invoke(runner, "pipeline", "--fixture", "table2", "--out", out)
    assert result.exit_code == 0, result.output
    for name in (
        "dataset.csv",
        "cleaning_report.json",
        "clusters.json",
        "groups.json",
        "report.md",
        "report_metadata.json",
        "effective_config.json",
    ):
        assert (out / name).exists(), name
    clusters = json.loads((out / "clusters.json").read_text())
    assert clusters["cluster_count"] == 36
    points = json.loads((out / "cluster.meta.json").read_text())["points"]
    assert points == {"labels": 36, "core": 36, "border": 0, "noise": 0}
    groups = json.loads((out / "groups.json").read_text())
    assert groups["group_count"] == 25


def test_pipeline_runs_are_byte_identical(tmp_path, runner):
    # Identical invocations (relative --out) from two fresh working dirs.
    hashes = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        with runner.isolated_filesystem(temp_dir=workdir):
            assert invoke(runner, "pipeline", "--fixture", "table2", "--out", "out").exit_code == 0
            hashes.append(artifact_hashes(Path("out")))
    assert hashes[0] and hashes[0] == hashes[1]


def test_effective_config_replay_reproduces_outputs(tmp_path, runner):
    first = tmp_path / "first"
    assert invoke(runner, "pipeline", "--fixture", "table2", "--out", first).exit_code == 0
    echoed = first / "effective_config.json"
    replay = tmp_path / "replay"
    result = invoke(runner, "pipeline", "--config", echoed, "--out", replay)
    assert result.exit_code == 0, result.output
    hashes_a = artifact_hashes(first)
    hashes_b = artifact_hashes(replay)
    del hashes_a["effective_config.json"], hashes_b["effective_config.json"]  # differs by out path
    assert hashes_a == hashes_b


def test_api_path_pipeline_with_fake_transport(tmp_path, runner, monkeypatch):
    api = FakeOpenFDA()
    monkeypatch.setattr(openfda, "_requests_get", api)
    monkeypatch.setattr(openfda, "BACKOFF_BASE_SECONDS", 0.0)
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    result = invoke(
        runner, "pipeline", "--out", out, "--cache-dir", cache,
        "--page-size", 10, "--max-pages", 2, "--min-pts", 2,
    )
    assert result.exit_code == 0, result.output
    assert (cache / "recall" / "0.json").exists()
    assert (cache / "classification" / "0.json").exists()
    clusters = json.loads((out / "clusters.json").read_text())
    # Sample rows: three causes appear twice, four appear once (noise at min_pts=2).
    assert clusters["cluster_count"] == 3
    assert sum(n["count"] for n in clusters["noise"]) == 4

    # With the cache populated the whole pipeline reruns without any network.
    monkeypatch.setattr(openfda, "_requests_get", fail_on_network)
    rerun = invoke(
        runner, "pipeline", "--out", tmp_path / "out2", "--cache-dir", cache,
        "--page-size", 10, "--max-pages", 2, "--min-pts", 2,
    )
    assert rerun.exit_code == 0, rerun.output
    assert json.loads((tmp_path / "out2" / "clusters.json").read_text()) == clusters


def test_build_without_cache_exits_4(tmp_path, runner):
    result = runner.invoke(
        main, ["build", "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    )
    assert result.exit_code == 4
    line = json.loads(result.stderr.strip().splitlines()[-1])
    assert line["exit_code"] == 4 and "fetch" in line["message"]


def test_build_reads_the_cache_without_requests(tmp_path, runner, monkeypatch):
    calls = []
    monkeypatch.setattr(openfda, "_requests_get", lambda *a: calls.append(a))
    cache = tmp_path / "cache"
    result = runner.invoke(main, ["build", "--out", str(tmp_path / "out"), "--cache-dir", str(cache)])
    assert result.exit_code == 4
    assert "recall page 0 is not cached under" in json.loads(result.stderr)["message"]
    assert not cache.exists()

    # A cache with a page missing names that page.
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA())
    flags = ["--cache-dir", str(cache), "--page-size", "4", "--max-pages", "3"]
    assert invoke(runner, "fetch", "--out", tmp_path / "out", *flags).exit_code == 0
    (cache / "recall" / "1.json").unlink()
    monkeypatch.setattr(openfda, "_requests_get", lambda *a: calls.append(a))
    result = runner.invoke(main, ["build", "--out", str(tmp_path / "out"), *flags])
    assert result.exit_code == 4
    line = json.loads(result.stderr)
    assert line["exit_code"] == 4 and "recall page 1 is not cached under" in line["message"]
    assert calls == []


def test_fetch_records_reported_totals_and_warns_when_cut_short(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA())  # 10 recalls, 9 classifications
    out = tmp_path / "out"
    flags = ("--out", out, "--cache-dir", tmp_path / "cache", "--page-size", 4)
    cut = invoke(runner, "fetch", *flags, "--max-pages", 2)
    assert cut.exit_code == 0, cut.output
    meta = json.loads((out / "fetch.meta.json").read_text())
    assert meta["records"] == {"recall": 8, "classification": 8}
    assert meta["reported"] == {"recall": 10, "classification": 9}
    line, = cut.stderr.splitlines()
    warning = json.loads(line)
    assert warning["warning"] == "IncompleteFetch"
    assert "recall 8 of 10, classification 8 of 9" in warning["message"]

    full = invoke(runner, "fetch", *flags, "--max-pages", 3)
    assert full.exit_code == 0 and full.stderr == ""
    meta = json.loads((out / "fetch.meta.json").read_text())
    assert meta["records"] == meta["reported"] == {"recall": 10, "classification": 9}

    # A body that reports no total records none and warns of nothing.
    body = json.dumps({"results": [{"product_code": "A"}]}).encode()
    monkeypatch.setattr(openfda, "_requests_get", lambda *a: (200, body))
    bare = invoke(runner, "fetch", "--out", out, "--cache-dir", tmp_path / "bare", "--page-size", 4)
    assert bare.exit_code == 0 and bare.stderr == ""
    assert json.loads((out / "fetch.meta.json").read_text())["reported"] == {}


def test_cut_fetch_then_failing_stage_keeps_stderr_json(tmp_path, runner, monkeypatch):
    # Eight recalls form no cluster, so aggregate fails after fetch warned: two JSON lines.
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA())
    result = runner.invoke(main, [
        "pipeline", "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache"),
        "--page-size", "4", "--max-pages", "2",
    ])
    assert result.exit_code == 4, result.output
    warning, error = map(json.loads, result.stderr.splitlines())
    assert warning["warning"] == "IncompleteFetch"
    assert error["error"] == "DataError" and "nothing to aggregate" in error["message"]


def test_sidecar_hash_matches_a_whole_file_hash(tmp_path):
    for size in (0, 5, (1 << 20) - 1, 1 << 20, (5 << 19) + 3):  # empty, one chunk, several
        path = tmp_path / f"{size}.bin"
        path.write_bytes((bytes(range(251)) * (size // 251 + 1))[:size])
        assert stages._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_sidecar_records_the_process_peak_rss(fixture_run):
    sidecars = sorted(fixture_run.glob("*.meta.json"))
    expected = sorted(f"{stage}.meta.json" for stage in stages.INPUTS if stage != "fetch")  # no fetch
    assert [p.name for p in sidecars] == expected
    for sidecar in sidecars:
        peak = json.loads(sidecar.read_text())["peak_rss_kb"]
        assert type(peak) is int and peak > 0, sidecar.name


def test_build_sidecar_records_duplicate_classification_codes(tmp_path, runner, monkeypatch):
    classifications = classification_entries()
    api = FakeOpenFDA(classifications=[*classifications, classifications[0]])
    monkeypatch.setattr(openfda, "_requests_get", api)
    out = tmp_path / "out"
    flags = ("--out", out, "--cache-dir", tmp_path / "cache", *FAKE_FETCH)
    assert invoke(runner, "fetch", *flags).exit_code == 0
    assert invoke(runner, "build", *flags).exit_code == 0
    assert json.loads((out / "build.meta.json").read_text())["duplicate_classification_codes"] == 1
    # The hash-pinned cleaning report keeps its fields.
    assert "duplicate_classification_codes" not in json.loads((out / "cleaning_report.json").read_text())


def test_build_after_fetch_of_no_records_names_the_query(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA(recalls=[]))
    flags = ["--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert invoke(runner, "fetch", *flags).exit_code == 0
    result = runner.invoke(main, ["build", *flags])
    assert result.exit_code == 4
    message = json.loads(result.stderr)["message"]
    assert "returned no records" in message
    assert "event_date_posted:[2018-01-01 TO 2024-04-15]" in message


def test_cluster_on_empty_dataset_exits_4(tmp_path, runner):
    out = tmp_path / "out"
    out.mkdir()
    header = "product_code,event_date_posted,recalling_firm,root_cause_description,product_quantity,device_name,device_class\r\n"
    (out / "dataset.csv").write_text(header)
    result = runner.invoke(main, ["cluster", "--eps", "0.1", "--min-pts", "4", "--out", str(out)])
    assert result.exit_code == 4
    line = json.loads(result.stderr.strip().splitlines()[-1])
    assert line["error"] == "DataError"


def test_cluster_without_dataset_exits_4(tmp_path, runner):
    result = runner.invoke(main, ["cluster", "--out", str(tmp_path / "missing")])
    assert result.exit_code == 4


@pytest.mark.parametrize(
    "args, word",
    [
        (["cluster", "--min-pts", "0"], "min_pts"),
        (["pipeline", "--fixture", "table2", "--eps", "-1"], "eps"),
        (["pipeline", "--fixture", "table2", "--theta", "1.5"], "theta"),
        (["pipeline", "--fixture", "table2", "--prefix-len", "0"], "prefix_len"),
        (["pipeline", "--fixture", "table2", "--top", "0"], "k must be >= 1"),
        (["build", "--fixture", "table2", "--from", "2020-01-02", "--to", "2020-01-01"], "date_from"),
        (["build", "--fixture", "table2", "--from", "2020-01-05", "--to", "2020-01-01"], "date_from"),
        (["pipeline", "--fixture", "table2", "--page-size", "0"], "page_size"),
        (["pipeline", "--fixture", "table2", "--max-pages", "0"], "max_pages"),
    ],
    ids=["min-pts-0", "eps-negative", "theta-above-1", "prefix-len-0", "top-0",
         "window-reversed-by-a-day", "window-reversed", "page-size-0", "max-pages-0"],
)
def test_contract_violation_exits_5(fixture_run, tmp_path, runner, args, word):
    # An out-of-range value is rejected before any stage runs, so the
    # previous run's files, sidecars included, stay exactly as they were.
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    line = single_error_line(runner.invoke(main, [*args, "--out", str(out)]), 5, "ContractError")
    assert word in line["message"]
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_failed_stage_leaves_the_config_echo_unchanged(tmp_path, runner):
    out = tmp_path / "out"
    assert invoke(runner, "pipeline", "--fixture", "table2", "--out", out).exit_code == 0
    echo = (out / "effective_config.json").read_bytes()
    assert json.loads(echo)["min_pts"] == 4
    single_error_line(runner.invoke(main, ["cluster", "--min-pts", "0", "--out", str(out)]), 5, "ContractError")
    # The echo still describes the run that wrote clusters.json.
    assert (out / "effective_config.json").read_bytes() == echo
    assert json.loads((out / "clusters.json").read_text())["params"]["min_pts"] == 4
    fresh = tmp_path / "fresh"
    single_error_line(runner.invoke(main, ["cluster", "--out", str(fresh)]), 4, "DataError")
    assert not (fresh / "effective_config.json").exists()


def test_network_failure_exits_3(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA(fail_first=99))
    monkeypatch.setattr(openfda, "BACKOFF_BASE_SECONDS", 0.0)
    result = runner.invoke(
        main, ["fetch", "--out", str(tmp_path / "o"), "--cache-dir", str(tmp_path / "c")]
    )
    assert result.exit_code == 3
    line = json.loads(result.stderr.strip().splitlines()[-1])
    assert line["error"] == "TransportError"


def test_unknown_flag_exits_2(runner):
    assert runner.invoke(main, ["cluster", "--bogus"]).exit_code == 2


@pytest.mark.parametrize(
    "args, word",
    [
        (["clustr"], "invalid choice: 'clustr'"),
        (["cluster", "--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus"], "required: COMMAND"),
        (["--bogus", "cluster"], "unrecognized arguments: --bogus"),
        (["pipeline", "--fixture", "table2", "--thet", "0.5"], "unrecognized arguments: --thet"),
        (["cluster", "--eps"], "argument --eps: expected one argument"),
        (["cluster", "extra"], "unrecognized arguments: extra"),
        ([], "required: COMMAND"),
    ],
    ids=["misspelt-command", "misspelt-flag", "flag-without-command", "flag-before-command",
         "abbreviated-flag", "flag-without-value", "extra-argument", "bare-command"],
)
def test_usage_errors_end_in_the_json_line(runner, args, word):
    line = single_error_line(runner.invoke(main, args), 2, "UsageError")
    assert word in line["message"]
    # The in-process entry point that perfbench's probe uses exits the same way.
    with pytest.raises(SystemExit) as exited:
        main(args=args, standalone_mode=False)
    assert exited.value.code == 2


def test_help_exits_0_and_shows_the_stage_docstring(tmp_path, runner, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # help is wrapped to the terminal; keep the docstring on one line
    for args in (["--help"], ["-h"], ["cluster", "--help"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and result.stdout.startswith("usage: recallscan"), args
        assert result.stderr == "", args
    assert stages.cluster_stage.__doc__ in result.stdout
    out = tmp_path / "out"
    assert main(args=["build", "--fixture", "table2", "--out", str(out)], standalone_mode=False) is None
    assert (out / "dataset.csv").exists()


def test_bad_config_file_exits_2(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    for text in ("{not json", "[" * 100_000):  # the second nests deeper than the decoder recurses
        cfg.write_text(text)
        result = runner.invoke(main, ["report", "--config", str(cfg), "--out", str(tmp_path / "o")])
        single_error_line(result, 2, "UsageError")


def test_unknown_config_key_exits_2(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nonsense_key": 1}')
    result = runner.invoke(main, ["report", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    line = json.loads(result.stderr.strip().splitlines()[-1])
    assert "nonsense_key" in line["message"]


def single_error_line(result, exit_code: int, error: str) -> dict:
    assert result.exit_code == exit_code, result.output
    stderr = result.stderr.strip().splitlines()
    assert len(stderr) == 1 and "Traceback" not in result.stderr
    line = json.loads(stderr[0])
    assert line["error"] == error
    return line


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"date_from": 2018}, "date_from"),
        ({"date_to": None}, "date_to"),
        ({"out": 5}, "out"),
        ({"out": None}, "out"),
        ({"cache_dir": ["cache"]}, "cache_dir"),
        ({"overrides_file": 5}, "overrides_file"),
        ({"fixture": 2}, "fixture"),
        ({"top": True}, "top"),
        ({"top": "abc"}, "top"),
        ({"eps": False}, "eps"),
    ],
)
def test_mistyped_config_value_exits_2(tmp_path, runner, monkeypatch, payload, key):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "table2", **payload}))
    result = runner.invoke(main, ["pipeline", "--config", str(cfg)])
    line = single_error_line(result, 2, "UsageError")
    assert key in line["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_bad_cli_date_exits_2_with_json_line(tmp_path, runner, flag):
    out = tmp_path / "out"
    result = runner.invoke(main, ["fetch", flag, "2018-13-01", "--out", str(out)])
    line = single_error_line(result, 2, "UsageError")
    assert "2018-13-01" in line["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eps", "nan"),
        ("--eps", "inf"),
        ("--theta", "nan"),
        ("--top", "abc"),
        ("--format", "pdf"),
        ("--fixture", "nope"),
    ],
)
def test_bad_flag_value_exits_2(tmp_path, runner, flag, value):
    # Flags arrive as strings; PipelineConfig alone parses and checks them.
    out = tmp_path / "out"
    result = runner.invoke(main, ["pipeline", "--fixture", "table2", flag, value, "--out", str(out)])
    line = single_error_line(result, 2, "UsageError")
    assert flag.lstrip("-") in line["message"] and value in line["message"]
    assert not out.exists()


def test_string_config_values_are_parsed(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "table2", "top": "5", "theta": "0.85"}))
    out = tmp_path / "out"
    assert invoke(runner, "pipeline", "--config", cfg, "--out", out).exit_code == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["top"] == 5 and effective["theta"] == 0.85


def test_flags_override_config_file(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "table2", "theta": 0.5}))
    out = tmp_path / "out"
    result = invoke(runner, "pipeline", "--config", cfg, "--theta", "0.85", "--out", out)
    assert result.exit_code == 0, result.output
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["theta"] == 0.85
    assert effective["fixture"] == "table2"


def test_api_key_falls_back_to_environment_where_the_flag_exists(tmp_path, runner, monkeypatch):
    api = FakeOpenFDA()
    monkeypatch.setattr(openfda, "_requests_get", api)
    monkeypatch.setenv(openfda.API_KEY_ENV, "from-env")
    out = tmp_path / "out"
    for stage in ("fetch", "build"):
        args = [stage, "--out", str(out), "--cache-dir", str(tmp_path / "cache")]
        assert runner.invoke(main, args).exit_code == 0
        # The key is a secret: no artifact, sidecar, config echo or cache file holds it.
        assert json.loads((out / "effective_config.json").read_text())["api_key"] is None
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files and not [p.name for p in files if b"from-env" in p.read_bytes()]
    assert api.calls and all(params["api_key"] == "from-env" for _, params in api.calls)

    # A command without the flag does not read the variable.
    seen = []
    monkeypatch.setattr(stages, "cluster_stage", lambda cfg: seen.append(cfg.api_key) or "clustered")
    assert runner.invoke(main, ["cluster", "--out", str(out)]).exit_code == 0
    assert seen == [None]

    # An empty variable counts as unset: no key is sent.
    monkeypatch.setenv(openfda.API_KEY_ENV, "")
    api.calls.clear()
    args = ["fetch", "--out", str(out), "--cache-dir", str(tmp_path / "fresh")]
    assert runner.invoke(main, args).exit_code == 0
    assert api.calls and not [params for _, params in api.calls if "api_key" in params]


# Flags of a FakeOpenFDA run: every sample row fits in three pages of four.
FAKE_FETCH = ("--page-size", 4, "--max-pages", 3)


@pytest.mark.parametrize("source", ["fixture", "cache"])
def test_stage_by_stage_matches_pipeline(tmp_path, runner, monkeypatch, source):
    if source == "fixture":
        whole_flags, steps = ("--fixture", "table2"), [("build", "--fixture", "table2"), ("cluster",)]
    else:
        # Each side fetches into its own cache: the pipeline's build takes the
        # pages its fetch returned, the staged build reads them from disk.
        monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA())
        fetch = (*FAKE_FETCH, "--cache-dir", tmp_path / "staged-cache")
        whole_flags = (*FAKE_FETCH, "--cache-dir", tmp_path / "whole-cache", "--min-pts", 2)
        steps = [("fetch", *fetch), ("build", *fetch), ("cluster", "--min-pts", 2)]
    whole = tmp_path / "whole"
    assert invoke(runner, "pipeline", *whole_flags, "--out", whole).exit_code == 0
    staged = tmp_path / "staged"
    for args in (*steps, ("aggregate",), ("report",)):
        assert invoke(runner, *args, "--out", staged).exit_code == 0
    ha, hb = artifact_hashes(whole), artifact_hashes(staged)
    # Each invocation echoes its own flags, so the config echo legitimately differs.
    ha.pop("effective_config.json"), hb.pop("effective_config.json")
    assert ha == hb


def test_pipeline_parses_nothing_it_wrote(tmp_path, runner, monkeypatch):
    def no_dataset_read(path):
        raise AssertionError(f"pipeline parsed {path} back")

    read_object = artifacts.read_object

    def no_artifact_read(path, name, *args):
        assert path.name not in (stages.CLUSTERS_FILE, stages.GROUPS_FILE), path
        return read_object(path, name, *args)

    monkeypatch.setattr(stages, "read_dataset", no_dataset_read)
    monkeypatch.setattr(artifacts, "read_object", no_artifact_read)
    result = invoke(runner, "pipeline", "--fixture", "table2", "--out", tmp_path / "fixture")
    assert result.exit_code == 0, result.output

    # On the cache path every page is decoded once, by fetch_pages, also in a stand-alone build.
    decoded = []
    parse_object = artifacts.parse_object

    def counted_parse(data, *args):
        decoded.append(data)
        return parse_object(data, *args)

    monkeypatch.setattr(artifacts, "parse_object", counted_parse)
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA())
    cache = tmp_path / "cache"
    # Pages fetched into the cache, then served from it, then read by build alone.
    for command, out, extra in (
        ("pipeline", "cold", ("--min-pts", 2)),
        ("pipeline", "warm", ("--min-pts", 2)),
        ("build", "alone", ()),
    ):
        decoded.clear()
        flags = (*FAKE_FETCH, "--cache-dir", cache, *extra)
        result = invoke(runner, command, *flags, "--out", tmp_path / out)
        assert result.exit_code == 0, result.output
        pages = [p.read_bytes() for p in sorted(cache.glob("*/[0-9]*.json"))]
        assert len(pages) == 6
        assert collections.Counter(d for d in decoded if d in pages) == {page: 1 for page in pages}


def test_pipeline_calls_each_stage_through_the_module(tmp_path, monkeypatch):
    # perfbench/probe.py times each stage by replacing these module attributes.
    calls = collections.Counter()
    for name in ("fetch", "build", "cluster", "aggregate", "report"):
        def counted(*args, stage=getattr(stages, f"{name}_stage"), name=name, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        monkeypatch.setattr(stages, f"{name}_stage", counted)
    cfg = stages.PipelineConfig(
        out=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"), page_size=4, max_pages=3,
        min_pts=2,
    )
    stages.pipeline_stage(cfg, get=FakeOpenFDA())
    assert calls == {name: 1 for name in ("fetch", "build", "cluster", "aggregate", "report")}


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_pipeline_pauses_the_collector_and_restores_its_state(tmp_path, enabled, fails):
    api, during = FakeOpenFDA(status_first=400 if fails else None), []

    def get(url, params, timeout):
        during.append(gc.isenabled())
        return api(url, params, timeout)

    cfg = stages.PipelineConfig(
        out=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"), page_size=4, max_pages=3,
        min_pts=2,
    )
    gc.enable() if enabled else gc.disable()
    try:
        if fails:
            with pytest.raises(RequestError):
                stages.pipeline_stage(cfg, get=get)
        else:
            stages.pipeline_stage(cfg, get=get)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert during and not any(during)
    assert after is enabled


def test_command_runs_its_stage_with_the_collector_paused(tmp_path, runner, monkeypatch):
    seen = []
    monkeypatch.setattr(stages, "build_stage", lambda cfg: seen.append(gc.isenabled()) or "built")
    result = runner.invoke(main, ["build", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert seen == [False] and gc.isenabled()


def test_report_formats_produce_expected_files(tmp_path, runner):
    out = tmp_path / "out"
    assert invoke(runner, "pipeline", "--fixture", "table2", "--out", out).exit_code == 0
    for fmt, names in (
        ("json", ["report.json"]),
        ("csv", ["report_before.csv", "report_after.csv", "report_comparison.csv",
                 "report_top_firms.csv", "report_top_devices.csv"]),
        ("svg-bars", ["report_before.svg", "report_after.svg",
                      "report_top_firms.svg", "report_top_devices.svg"]),
    ):
        result = invoke(runner, "report", "--format", fmt, "--out", out)
        assert result.exit_code == 0, result.output
        for name in names:
            assert (out / name).exists(), name


# sha256 of every report artifact on the table2 fixture with default flags.
REPORT_HASHES = {
    "report.md": "e00b1a42e459422d18b2ea58b53443d9c9687d1a8000511bb6a43fcb2927257e",
    "report.json": "2f47d7b82b6a411d5cea14f745cfa2232ba8fbcb728eb4dc5771dc79bbf6ee64",
    "report_before.csv": "48577808252df5a49c61ad0a06b93a271342e859970a5a47aabb68688d422516",
    "report_after.csv": "75ec796005a709f278bab11f9f8d74ef6423e81929710116571a6f2c69569a3e",
    "report_comparison.csv": "0103b3cdeeb7199775800cdd1c85cb910d9153f2b438b8618ca71357689502bc",
    "report_top_firms.csv": "9f4a7556a4dfc420e1ae8c61b4b1d19bf84aecc969b062769f957c727577a793",
    "report_top_devices.csv": "097e14dec5abd43391c0be9069a34fad33fff49a0dd60a24fcbb47a4217641e9",
    "report_before.svg": "7f204d71eaa728558ab56770f05e4ef5150071dd3ffc73df29d276068be863a4",
    "report_after.svg": "8dd26052bc2c559485965af699fa8c9dcdcf638b9097c6ee1237f5f8114e85f0",
    "report_top_firms.svg": "0959da9a9371275b1f522530011f63049bd61c892c44524892a5c3500a013bf8",
    "report_top_devices.svg": "ce613a098ec4502e97ffb2dd2f1a816a91a4d4d4fa9ceb02a029cb6eaf909f98",
    "report_metadata.json": "9a715d84b04c33171497c0dabd86b67cc4a72319f18df201915f7ead779fdb2c",
}
# Without dataset.csv the top firm/device sections drop out of the single-file formats.
NO_DATASET_HASHES = {
    **REPORT_HASHES,
    "report.md": "26d67a69c074b9cab9a0957d2f6c7d83c5508d979dc267a69f22abb093643d1d",
    "report.json": "bd30d83d82ca9de49530f4070cc395914205cb633736585b1fea6cf7e382cf86",
}


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture") / "out"
    result = CliRunner().invoke(main, ["pipeline", "--fixture", "table2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


# sha256 of the build stage's artifacts on the table2 fixture with default flags, as
# perfbench/expected_hashes.json records them: any change to the CSV bytes shows here.
BUILD_HASHES = {
    "dataset.csv": "db78dca520071b63025c3b87032a39776956022a798fc46d48a8cb59d82f264a",
    "cleaning_report.json": "fc596a1f2c2e05359220f970dc4e68f16421192f4f6e9a5ff4ef9cc6f1e255b8",
}


def test_build_artifacts_match_pinned_hashes(fixture_run):
    written = {
        name: hashlib.sha256((fixture_run / name).read_bytes()).hexdigest() for name in BUILD_HASHES
    }
    assert written == BUILD_HASHES


@pytest.mark.parametrize("with_dataset", [True, False], ids=["dataset", "no-dataset"])
@pytest.mark.parametrize("fmt", ["markdown", "json", "csv", "svg-bars"])
def test_report_artifacts_match_pinned_hashes(fixture_run, tmp_path, runner, fmt, with_dataset):
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    for stale in out.glob("report*"):
        stale.unlink()
    if not with_dataset:
        (out / "dataset.csv").unlink()
    assert invoke(runner, "report", "--format", fmt, "--out", out).exit_code == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.glob("report*")
        if not p.name.endswith(".meta.json")
    }
    expected = {
        "markdown": ["report.md"],
        "json": ["report.json"],
        "csv": ["report_before.csv", "report_after.csv", "report_comparison.csv"]
        + (["report_top_firms.csv", "report_top_devices.csv"] if with_dataset else []),
        "svg-bars": ["report_before.svg", "report_after.svg"]
        + (["report_top_firms.svg", "report_top_devices.svg"] if with_dataset else []),
    }[fmt] + ["report_metadata.json"]
    pinned = REPORT_HASHES if with_dataset else NO_DATASET_HASHES
    assert written == {name: pinned[name] for name in expected}


@pytest.mark.parametrize("with_dataset", [True, False], ids=["dataset", "no-dataset"])
def test_top_below_one_exits_5(fixture_run, tmp_path, runner, with_dataset):
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    if not with_dataset:
        (out / "dataset.csv").unlink()
    result = runner.invoke(main, ["report", "--top", "-3", "--out", str(out)])
    line = single_error_line(result, 5, "ContractError")
    assert "k must be >= 1" in line["message"]


def test_malformed_date_in_dataset_exits_4(tmp_path, runner):
    out = tmp_path / "out"
    assert invoke(runner, "build", "--fixture", "table2", "--out", out).exit_code == 0
    dataset = out / "dataset.csv"
    lines = dataset.read_bytes().decode("utf-8").split("\r\n")
    fields = lines[2].split(",")
    fields[1] = "2018-13-45"
    lines[2] = ",".join(fields)
    dataset.write_bytes("\r\n".join(lines).encode("utf-8"))
    result = runner.invoke(main, ["cluster", "--out", str(out)])
    assert result.exit_code == 4
    stderr = result.stderr.strip().splitlines()
    assert len(stderr) == 1 and "Traceback" not in result.stderr
    line = json.loads(stderr[0])
    assert line["error"] == "FormatError"
    assert "dataset.csv" in line["message"] and "row 3" in line["message"]
    assert "2018-13-45" in line["message"]

    # Bytes that are not UTF-8, and a stray quote that runs past the csv field limit.
    header = b"product_code,event_date_posted,recalling_firm,root_cause_description,"
    header += b"product_quantity,device_name,device_class\r\n"
    for body in (b"FRN,2018-01-02,Firm \xff,Cause,,Pump,2\r\n", b'FRN,2018-01-02,"' + b"x" * 200_000):
        dataset.write_bytes(header + body)
        line = single_error_line(runner.invoke(main, ["cluster", "--out", str(out)]), 4, "FormatError")
        assert "dataset.csv" in line["message"]


@pytest.mark.parametrize(
    "name, key, value, word",
    [
        ("clusters.json", "noise", [{"label": "Rare cause"}], "count"),
        ("clusters.json", "count", 0, "count"),
        ("clusters.json", "count", -3, "count"),
        ("clusters.json", "count", 5.7, "count"),
        ("clusters.json", "count", True, "count"),
        ("groups.json", "members", "abc", "members"),
        ("groups.json", "members", [], "members"),
        ("groups.json", "members", ["Process control", 7], "members"),
        ("groups.json", "total_count", 0, "total_count"),
        ("groups.json", "total_count", 5.7, "total_count"),
        ("clusters.json", "label", "Device Design", "label"),
    ],
    ids=["noise-without-count", "count-0", "count-negative", "count-float", "count-bool",
         "members-string", "members-empty", "members-non-string", "total-0", "total-float",
         "label-repeated"],
)
def test_noise_entry_without_count_exits_4(fixture_run, tmp_path, runner, name, key, value, word):
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    path = out / name
    payload = json.loads(path.read_text(encoding="utf-8"))
    if key == "noise":
        payload["noise"] = value
    else:
        payload["clusters" if name == "clusters.json" else "groups"][0][key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["report", "--out", str(out)])
    line = single_error_line(result, 4, "FormatError")
    assert word in line["message"]


@pytest.mark.parametrize(
    "manifest",
    ['[]', 'null', '{"pages": []}', '{"pages": {"0": 5}}', '{"exhausted_at": "x", "pages": {}}'],
)
def test_malformed_cache_manifest_exits_4(tmp_path, runner, monkeypatch, manifest):
    monkeypatch.setattr(openfda, "_requests_get", FakeOpenFDA())
    args = ["--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert runner.invoke(main, ["fetch", *args]).exit_code == 0
    (tmp_path / "cache" / "recall" / "manifest.json").write_text(manifest, encoding="utf-8")
    monkeypatch.setattr(openfda, "_requests_get", fail_on_network)
    line = single_error_line(runner.invoke(main, ["build", *args]), 4, "FormatError")
    assert "manifest" in line["message"]


def test_version_exits_0(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert __version__ == "0.1.0" and result.output.strip().endswith("0.1.0")


def test_a_fixture_pipeline_loads_neither_click_nor_requests(tmp_path):
    # The runtime is numpy and the standard library; requests is imported by a live fetch only.
    code = (
        "import sys, recallscan.cli\n"
        "recallscan.cli.main(['pipeline', '--fixture', 'table2', '--out', sys.argv[1]])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('click', 'requests')))\n"
    )
    src = str(Path(recallscan.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_commands_are_the_stages():
    stage_names = {name.removesuffix("_stage") for name in vars(stages) if name.endswith("_stage")}
    assert {name for name, _ in COMMANDS} == stage_names == {*stages.INPUTS, "pipeline"}


def test_command_runs_the_stage_function_bound_at_call_time(tmp_path, runner, monkeypatch):
    # A stage replaced after import (as a tracer does) is the one the command runs.
    seen = []
    monkeypatch.setattr(stages, "cluster_stage", lambda cfg: seen.append(cfg.min_pts) or "replaced")
    result = runner.invoke(main, ["cluster", "--min-pts", "7", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert result.output == "replaced\n" and seen == [7]


def report_files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.glob("report*")}


def test_report_over_reclustered_artifacts_is_refused(fixture_run, tmp_path, runner):
    # groups.json was built from the clusters.json that cluster --min-pts 100 replaced.
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    assert invoke(runner, "cluster", "--min-pts", 100, "--out", out).exit_code == 0
    before = report_files(out)
    line = single_error_line(runner.invoke(main, ["report", "--out", str(out)]), 4, "DataError")
    assert line["message"] == (
        "groups.json is stale: clusters.json changed after aggregate ran; rerun aggregate"
    )
    assert report_files(out) == before
    assert invoke(runner, "aggregate", "--out", out).exit_code == 0
    result = invoke(runner, "report", "--out", out)
    assert result.exit_code == 0 and "over 5934 clustered records" in result.output


def test_aggregate_over_a_rebuilt_dataset_is_refused(fixture_run, tmp_path, runner):
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    assert invoke(runner, "build", "--fixture", "table2", "--from", "2019-01-01", "--out", out).exit_code == 0
    groups = (out / "groups.json").read_bytes()
    line = single_error_line(runner.invoke(main, ["aggregate", "--out", str(out)]), 4, "DataError")
    assert line["message"] == (
        "clusters.json is stale: dataset.csv changed after cluster ran; rerun cluster"
    )
    assert (out / "groups.json").read_bytes() == groups
    # report sees the same stale clusters.json through cluster.meta.json.
    line = single_error_line(runner.invoke(main, ["report", "--out", str(out)]), 4, "DataError")
    assert "rerun cluster" in line["message"]
    for stage in ("cluster", "aggregate", "report"):
        assert invoke(runner, stage, "--out", out).exit_code == 0, stage


def test_artifacts_without_sidecars_are_not_checked(fixture_run, tmp_path, runner):
    # Hand-made or older artifacts carry no sidecar, and so no lineage to check.
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    assert invoke(runner, "cluster", "--min-pts", 100, "--out", out).exit_code == 0
    for sidecar in out.glob("*.meta.json"):
        sidecar.unlink()
    assert invoke(runner, "report", "--out", out).exit_code == 0
    assert invoke(runner, "aggregate", "--out", out).exit_code == 0


@pytest.mark.parametrize(
    "payload",
    [b'{"inputs": {"clusters.json": "ab', b'{"inputs": {"\xff": "ab"}}', b'{"inputs": []}',
     b'{"inputs": {"clusters.json": 5}}', b'{"stage": "aggregate"}', b"[]"],
    ids=["cut", "not-utf-8", "inputs-list", "hash-not-string", "no-inputs", "not-object"],
)
def test_malformed_sidecar_exits_4(fixture_run, tmp_path, runner, payload):
    out = tmp_path / "out"
    shutil.copytree(fixture_run, out)
    (out / "aggregate.meta.json").write_bytes(payload)
    line = single_error_line(runner.invoke(main, ["report", "--out", str(out)]), 4, "FormatError")
    assert "aggregate.meta.json" in line["message"]


def test_load_refuses_a_stale_file_and_trusts_the_run(fixture_run, tmp_path, runner):
    cfg = stages.PipelineConfig(out=str(tmp_path / "out"))
    shutil.copytree(fixture_run, cfg.out_dir)
    assert invoke(runner, "cluster", "--min-pts", 100, "--out", cfg.out_dir).exit_code == 0
    with pytest.raises(DataError, match="groups.json is stale: clusters.json changed"):
        stages.load(cfg, "report", stages.GROUPS_FILE)
    assert stages.load(cfg, "report", stages.CLUSTERS_FILE)["params"]["min_pts"] == 100
    # A value this run saved is its own, so it is not checked again.
    run = {stages.GROUPS_FILE: {"groups": []}}
    assert stages.load(cfg, "report", stages.GROUPS_FILE, run) is run[stages.GROUPS_FILE]

    rebuilt = ["build", "--fixture", "table2", "--from", "2019-01-01", "--out", cfg.out_dir]
    assert invoke(runner, *rebuilt).exit_code == 0
    with pytest.raises(DataError, match="clusters.json is stale: dataset.csv changed"):
        stages.load(cfg, "aggregate", stages.CLUSTERS_FILE)


def test_pipeline_hashes_each_sidecar_input_once(tmp_path, runner, monkeypatch):
    # Only the sidecars hash: the pipeline's own values are not checked again.
    hashed, sha256 = [], stages._sha256
    monkeypatch.setattr(stages, "_sha256", lambda path: hashed.append(path.name) or sha256(path))
    assert invoke(runner, "pipeline", "--fixture", "table2", "--out", tmp_path / "out").exit_code == 0
    assert hashed == ["dataset.csv", "clusters.json", "clusters.json", "groups.json", "dataset.csv"]


# Stage flags of the two complete runs a cut pipeline mixes: the fixture run's defaults
# (A) and a run whose every stage artifact differs (B), whose build also takes --from.
RUN_FLAGS = {
    "A": {"cluster": [], "aggregate": [], "report": []},
    "B": {"cluster": ["--eps", "0.3", "--min-pts", "2"], "aggregate": ["--theta", "0.5"], "report": []},
}
# Per stage: the artifact chain it relies on (each file built from the one before),
# the sidecars its lineage check reads, and the files it writes.
CHAIN = (stages.DATASET_FILE, stages.CLUSTERS_FILE, stages.GROUPS_FILE)
CUT_STAGES = {
    "cluster": (CHAIN[:1], set(), [stages.CLUSTERS_FILE]),
    "aggregate": (CHAIN[:2], {"cluster.meta.json"}, [stages.GROUPS_FILE]),
    "report": (CHAIN, {"cluster.meta.json", "aggregate.meta.json"}, ["report.md", stages.REPORT_METADATA_FILE]),
}


def test_a_cut_pipeline_poisons_no_later_stage(fixture_run, tmp_path, runner, monkeypatch):
    """Cut a pipeline over a finished run at each file write, then run each stage alone.

    Every write is atomic, so each file is whole, from run A or from run B. A stage whose
    chain mixes the two must exit 4. A stage whose chain is all from one run, given that
    run's flags, must write that run's bytes. One refusal is safe: when the cut fell on the
    sidecar of a fresh artifact, the old sidecar calls it stale and rerunning its stage mends it.
    """
    runs = {"A": fixture_run, "B": tmp_path / "B"}
    b_flags = [*RUN_FLAGS["B"]["cluster"], *RUN_FLAGS["B"]["aggregate"], "--from", "2019-01-01"]
    assert invoke(runner, "pipeline", "--fixture", "table2", *b_flags, "--out", runs["B"]).exit_code == 0
    assert all((runs["A"] / n).read_bytes() != (runs["B"] / n).read_bytes() for n in CHAIN)

    writes, replacing = [], artifacts.replacing

    def cut(path):
        writes.append(path.name)
        if len(writes) == k:
            raise OSError(f"cut before {path.name}")
        return replacing(path)

    for k in itertools.count(1):
        writes.clear()
        out = tmp_path / f"cut{k}"
        shutil.copytree(fixture_run, out)
        with monkeypatch.context() as patch:
            patch.setattr(artifacts, "replacing", cut)
            result = runner.invoke(main, ["pipeline", "--fixture", "table2", *b_flags, "--out", str(out)])
        if len(writes) < k:  # the pipeline made fewer than k writes: every write has been cut
            assert result.exit_code == 0, result.output
            break
        single_error_line(result, 4, "OSError")
        assert not list(out.glob("*.tmp"))
        version = {}
        for name in CHAIN:
            data = (out / name).read_bytes()
            [version[name]] = [run for run, path in runs.items() if (path / name).read_bytes() == data]
        for stage, (chain, sidecars, outputs) in CUT_STAGES.items():
            alone = tmp_path / f"cut{k}-{stage}"
            shutil.copytree(out, alone)
            versions = {version[name] for name in chain}
            run = versions.pop() if len(versions) == 1 else None  # None: the chain mixes A and B
            result = runner.invoke(main, [stage, *RUN_FLAGS[run or "B"][stage], "--out", str(alone)])
            where = f"cut at write {k} ({writes[-1]}), {stage} alone"
            if run is None or (result.exit_code == 4 and writes[-1] in sidecars):
                assert "is stale" in single_error_line(result, 4, "DataError")["message"], where
            else:
                assert result.exit_code == 0, (where, result.output)
                for name in outputs:
                    assert (alone / name).read_bytes() == (runs[run] / name).read_bytes(), (where, name)
    assert writes == [
        "dataset.csv", "cleaning_report.json", "build.meta.json", "clusters.json", "cluster.meta.json",
        "groups.json", "aggregate.meta.json", "report.md", "report_metadata.json", "report.meta.json",
        "effective_config.json",
    ]
