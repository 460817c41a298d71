import datetime as dt
import json
from pathlib import Path

import pytest
import requests

from recallscan import stages
from recallscan.dataset import write_dataset
from recallscan.errors import (
    ContractError,
    FormatError,
    ParseError,
    RequestError,
    TransportError,
)
from recallscan.openfda import (
    MANIFEST_NAME,
    Endpoint,
    FetchSpec,
    _fetch_one,
    _requests_get,
    fetch_pages,
)

from .conftest import FakeOpenFDA, sample_records

NO_SLEEP = lambda s: None


def spec(**overrides) -> FetchSpec:
    base = dict(
        endpoint=Endpoint.RECALL,
        date_from=dt.date(2018, 1, 1),
        date_to=dt.date(2024, 4, 15),
        page_size=1000,
        max_pages=7,
    )
    base.update(overrides)
    return FetchSpec(**base)


def rows_of(tmp_path, entries, endpoint=Endpoint.RECALL) -> list[dict]:
    """The rows ``fetch_pages`` keeps of one served page holding ``entries``."""
    body = json.dumps({"results": entries}).encode()
    pages = fetch_pages(
        spec(endpoint=endpoint, max_pages=1), tmp_path, get=lambda *a: (200, body), sleep=NO_SLEEP
    )
    return pages[0].rows


# --- FetchSpec ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ContractError):
        spec(page_size=1001)
    with pytest.raises(ContractError):
        spec(page_size=0)
    with pytest.raises(ContractError):
        spec(date_from=dt.date(2024, 1, 1), date_to=dt.date(2018, 1, 1))
    with pytest.raises(ContractError):
        spec(max_pages=0)


def test_search_expression_only_on_recall_endpoint():
    assert spec().search_expression() == "event_date_posted:[2018-01-01 TO 2024-04-15]"
    assert spec(endpoint=Endpoint.CLASSIFICATION).search_expression() is None


# --- pagination --------------------------------------------------------------


def test_pagination_stops_on_short_page(tmp_path):
    api = FakeOpenFDA()  # 10 recall rows
    pages = fetch_pages(spec(page_size=3, max_pages=5), tmp_path, get=api, sleep=NO_SLEEP)
    assert [p.page_index for p in pages] == [0, 1, 2, 3]
    assert [p.record_count for p in pages] == [3, 3, 3, 1]
    # Stopped before max_pages: the short page ended the loop.
    assert len(api.calls) == 4
    sent = api.calls[1][1]
    assert sent["limit"] == 3 and sent["skip"] == 3
    assert sent["search"] == "event_date_posted:[2018-01-01 TO 2024-04-15]"


def test_pagination_stops_on_not_found_after_exact_multiple(tmp_path):
    api = FakeOpenFDA(recalls=FakeOpenFDA().recalls[:6])
    pages = fetch_pages(spec(page_size=3, max_pages=5), tmp_path, get=api, sleep=NO_SLEEP)
    assert [p.record_count for p in pages] == [3, 3]
    assert len(api.calls) == 3  # third call answered 404 NOT_FOUND


def test_total_records_bounded_by_page_size_times_max_pages(tmp_path):
    api = FakeOpenFDA()
    pages = fetch_pages(spec(page_size=2, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    assert sum(p.record_count for p in pages) <= 2 * 3
    assert [p.page_index for p in pages] == [0, 1, 2]


def test_default_pagination_scale_yields_seven_full_pages(tmp_path):
    # 1000-record pages capped at 7 pages, even when more data matches.
    big = FakeOpenFDA(recalls=[{"product_code": f"P{i}"} for i in range(7200)])
    pages = fetch_pages(spec(page_size=1000, max_pages=7), tmp_path, get=big, sleep=NO_SLEEP)
    assert [p.page_index for p in pages] == list(range(7))
    assert sum(p.record_count for p in pages) == 7000


def test_cached_pages_are_never_refetched(tmp_path):
    api = FakeOpenFDA()
    first = fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    calls_after_first = len(api.calls)
    second = fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    assert len(api.calls) == calls_after_first  # zero new network requests
    assert [p.rows for p in second] == [p.rows for p in first]
    assert [p.record_count for p in second] == [p.record_count for p in first]
    assert [p.total for p in second] == [p.total for p in first] == [10, 10, 10]


@pytest.mark.parametrize(
    "meta, total",
    [
        ({"results": {"total": 12}}, 12),
        ({"results": {"skip": 0}}, None),
        ({"results": {"total": "12"}}, None),
        ({"results": {"total": True}}, None),
        ({"results": [12]}, None),
        (None, None),
    ],
)
def test_page_total_is_the_reported_total_or_none(tmp_path, meta, total):
    body = json.dumps({"meta": meta, "results": [{"product_code": "A"}]}).encode()
    pages = fetch_pages(spec(max_pages=1), tmp_path, get=lambda *a: (200, body), sleep=NO_SLEEP)
    assert pages[0].total == total
    assert not hasattr(pages[0], "payload")  # the body is decoded, never kept


def test_cache_hit_with_max_pages_one_serves_from_disk(tmp_path):
    api = FakeOpenFDA()
    fetch_pages(spec(page_size=1000, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)
    poisoned = FakeOpenFDA(fail_first=99)
    pages = fetch_pages(spec(page_size=1000, max_pages=1), tmp_path, get=poisoned, sleep=NO_SLEEP)
    assert len(pages) == 1 and poisoned.calls == []


def test_cache_layout_holds_verbatim_bodies(tmp_path):
    api, bodies = FakeOpenFDA(), []

    def get(*args):
        status, body = api(*args)
        bodies.append(body)
        return status, body

    fetch_pages(spec(page_size=4, max_pages=2), tmp_path, get=get, sleep=NO_SLEEP)
    stored = (tmp_path / "recall" / "0.json").read_bytes()
    assert stored == bodies[0]
    manifest = json.loads((tmp_path / "recall" / "manifest.json").read_text())
    assert manifest["page_size"] == 4
    assert manifest["pages"]["0"]["record_count"] == 4


def test_cache_parameter_mismatch_is_rejected(tmp_path):
    api = FakeOpenFDA()
    fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)
    with pytest.raises(FormatError):
        fetch_pages(spec(page_size=5, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)
    # An end-of-data marker from another date window is no answer for this one.
    marker = spec(date_from=dt.date(2030, 1, 1), date_to=dt.date(2030, 2, 1))
    assert fetch_pages(marker, tmp_path / "m", get=FakeOpenFDA(recalls=[]), sleep=NO_SLEEP) == []
    api = FakeOpenFDA()
    with pytest.raises(FormatError, match="different query parameters"):
        fetch_pages(spec(), tmp_path / "m", get=api, sleep=NO_SLEEP)
    assert api.calls == []
    assert fetch_pages(marker, tmp_path / "m", get=api, sleep=NO_SLEEP) == [] and api.calls == []


def test_retry_then_success(tmp_path):
    api = FakeOpenFDA(fail_first=2)
    pages = fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)
    assert pages[0].record_count == 4
    assert len(api.calls) == 3


ONE_RECORD = (200, json.dumps({"results": [{"product_code": "A"}]}).encode())


@pytest.mark.parametrize(
    "replies, schedule",
    [
        ([OSError("reset")] * 3, [1.0, 2.0]),
        ([(500, b"{}")] * 3, [1.0, 2.0]),
        ([(429, b"{}"), ONE_RECORD], [1.0]),
        ([ONE_RECORD], []),
    ],
)
def test_retry_backoff_schedule(tmp_path, replies, schedule):
    replies, slept = list(replies), []

    def get(url, params, timeout):
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    if replies[-1] is ONE_RECORD:
        pages = fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=get, sleep=slept.append)
        assert pages[0].record_count == 1
    else:
        with pytest.raises(TransportError):
            fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=get, sleep=slept.append)
    assert slept == schedule  # one backoff before each retry, none after the last attempt


def test_transport_error_names_the_failing_page(tmp_path):
    api = FakeOpenFDA(fail_first=99)
    with pytest.raises(TransportError, match="recall page 0"):
        fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)


def test_partial_cache_failure_names_first_missing_page(tmp_path):
    api = FakeOpenFDA()
    fetch_pages(spec(page_size=3, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)
    flaky = FakeOpenFDA(fail_first=99)
    with pytest.raises(TransportError, match="recall page 1"):
        fetch_pages(spec(page_size=3, max_pages=3), tmp_path, get=flaky, sleep=NO_SLEEP)


def test_client_error_maps_to_request_error(tmp_path):
    api = FakeOpenFDA(status_first=403)
    with pytest.raises(RequestError, match="HTTP 403"):
        fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=api, sleep=NO_SLEEP)
    # A 404 is the end of the data only with openFDA's {"error": {"code": "NOT_FOUND"}} body.
    for body in (b"[]", b'{"error": "gone"}', b"not json"):
        with pytest.raises(RequestError, match="HTTP 404"):
            fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=lambda *a: (404, body), sleep=NO_SLEEP)


def test_server_error_retries_then_transport_error(tmp_path):
    def always_500(url, params, timeout):
        return 500, b"{}"

    with pytest.raises(TransportError, match="HTTP 500"):
        fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=always_500, sleep=NO_SLEEP)


def test_malformed_body_raises_parse_error(tmp_path):
    def garbage(url, params, timeout):
        return 200, b"this is not json"

    with pytest.raises(ParseError, match="page 0"):
        fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=garbage, sleep=NO_SLEEP)


def test_malformed_body_is_not_cached(tmp_path):
    def garbage(url, params, timeout):
        return 200, b"this is not json"

    with pytest.raises(ParseError):
        fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=garbage, sleep=NO_SLEEP)
    assert not (tmp_path / "recall" / "0.json").exists()
    pages = fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=FakeOpenFDA(), sleep=NO_SLEEP)
    assert pages[0].record_count == 4


@pytest.mark.parametrize("body", [b"[1, 2]", b'{"results": "none"}', b'{"results": [1]}'])
def test_body_without_object_results_is_rejected_before_caching(tmp_path, body):
    with pytest.raises(ParseError, match="page 0"):
        fetch_pages(spec(page_size=4, max_pages=1), tmp_path, get=lambda *a: (200, body), sleep=NO_SLEEP)
    assert not (tmp_path / "recall" / "0.json").exists()


def test_page_write_cut_off_midway_is_fetched_again(tmp_path, monkeypatch):
    real_write = Path.write_bytes

    def cut_off(self, data):
        if self.name.startswith(("1.json", "clusters.json")):
            real_write(self, data[: len(data) // 2])
            raise OSError("no space left on device")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", cut_off)
    api = FakeOpenFDA()  # 10 recall rows
    with pytest.raises(OSError):
        fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    endpoint_dir = tmp_path / "recall"
    assert sorted(p.name for p in endpoint_dir.iterdir()) == ["0.json", "manifest.json"]
    manifest = json.loads((endpoint_dir / MANIFEST_NAME).read_text())
    assert list(manifest["pages"]) == ["0"]

    monkeypatch.undo()
    calls_before = len(api.calls)
    pages = fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    assert [p.record_count for p in pages] == [4, 4, 2]
    assert [params["skip"] for _, params in api.calls[calls_before:]] == [4, 8]
    assert json.loads((endpoint_dir / "1.json").read_bytes())["results"] == api.recalls[4:8]

    # A stage artifact cut off midway leaves the previous file whole and no temporary file.
    out = tmp_path / "out"
    out.mkdir()
    write_dataset(sample_records(), out / "dataset.csv")
    previous = b'{"previous": true}\n'
    (out / "clusters.json").write_bytes(previous)
    monkeypatch.setattr(Path, "write_bytes", cut_off)
    with pytest.raises(OSError):
        stages.cluster_stage(stages.PipelineConfig(out=str(out), min_pts=2))
    assert (out / "clusters.json").read_bytes() == previous
    assert not list(out.glob("*.tmp"))


def test_api_key_is_sent_when_configured(tmp_path):
    api = FakeOpenFDA()
    fetch_pages(spec(page_size=4, max_pages=1, api_key="sekret"), tmp_path, get=api, sleep=NO_SLEEP)
    assert api.calls[0][1]["api_key"] == "sekret"


def test_classification_fetch_has_no_date_filter(tmp_path):
    api = FakeOpenFDA()
    fetch_pages(
        spec(endpoint=Endpoint.CLASSIFICATION, page_size=4, max_pages=2),
        tmp_path,
        get=api,
        sleep=NO_SLEEP,
    )
    assert all("search" not in params for _, params in api.calls)


# --- parsers -----------------------------------------------------------------


def test_parse_recall_page_extracts_five_fields(tmp_path):
    entry = {
        "product_code": "FRN",
        "event_date_posted": "2018-01-02",
        "recalling_firm": "Smith Medical ASD Inc.",
        "root_cause_description": "Process design",
        "product_quantity": "86 units",
        "extraneous": "ignored",
    }
    parsed = rows_of(tmp_path, [entry])
    assert parsed == [
        {
            "product_code": "FRN",
            "event_date_posted": "2018-01-02",
            "recalling_firm": "Smith Medical ASD Inc.",
            "root_cause_description": "Process design",
            "product_quantity": "86 units",
        }
    ]


def test_parse_recall_page_missing_quantity_becomes_empty_marker(tmp_path):
    entry = {
        "product_code": "FRN",
        "event_date_posted": "2018-01-05",
        "recalling_firm": "Repro-Med Systems, Inc.",
        "root_cause_description": "Nonconforming Material/Component",
    }
    parsed = rows_of(tmp_path, [entry])
    assert parsed[0]["product_quantity"] == ""


def test_parse_recall_page_empty_results(tmp_path):
    assert rows_of(tmp_path, []) == []


def test_parse_preserves_payload_order(tmp_path):
    entries = [{"product_code": code} for code in ("AAA", "BBB", "CCC")]
    parsed = rows_of(tmp_path, entries, Endpoint.CLASSIFICATION)
    assert [p["product_code"] for p in parsed] == ["AAA", "BBB", "CCC"]


def test_parse_classification_page_fields(tmp_path):
    entry = {"product_code": "FRN", "device_name": "Pump, Infusion", "device_class": "2"}
    parsed = rows_of(tmp_path / "a", [entry], Endpoint.CLASSIFICATION)
    assert parsed == [{"product_code": "FRN", "device_name": "Pump, Infusion", "device_class": "2"}]
    missing = rows_of(tmp_path / "b", [{"product_code": "XYZ"}], Endpoint.CLASSIFICATION)
    assert missing[0]["device_class"] == ""


def test_parse_error_carries_page_index(tmp_path):
    def get(url, params, timeout):
        if params["skip"] < 3:
            return 200, json.dumps({"results": [{"product_code": "A"}]}).encode()
        return 200, b"{broken"

    with pytest.raises(ParseError, match="page 3"):
        fetch_pages(spec(page_size=1, max_pages=5), tmp_path, get=get, sleep=NO_SLEEP)


def test_live_transport_refuses_a_skip_past_the_api_limit(monkeypatch):
    calls = []

    class Response:
        status_code, content = 200, b'{"results": []}'

    monkeypatch.setattr(requests, "get", lambda *a, **k: calls.append(k["params"]["skip"]) or Response())
    with pytest.raises(ContractError, match="skip 26000"):
        _fetch_one(spec(), 26, _requests_get, NO_SLEEP)
    assert calls == []  # refused before any request, and not retried
    assert _fetch_one(spec(), 25, _requests_get, NO_SLEEP) == Response.content
    assert calls == [25_000]


# --- live smoke (non-gating) --------------------------------------------------


@pytest.mark.live
def test_live_fetch_smoke(tmp_path):
    live_spec = spec(page_size=100, max_pages=1)
    try:
        pages = fetch_pages(live_spec, tmp_path)
    except (TransportError, requests.RequestException) as exc:
        pytest.skip(f"live API unreachable: {exc}")
    assert len(pages) <= 1
    records = pages[0].rows if pages else []
    assert len(records) <= 100
    for rec in records[:5]:
        assert set(rec) == {
            "product_code",
            "event_date_posted",
            "recalling_firm",
            "root_cause_description",
            "product_quantity",
        }
