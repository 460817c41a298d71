import datetime as dt
import json
from pathlib import Path

import pytest

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
    _FIELDS,
    MANIFEST_NAME,
    Endpoint,
    FetchSpec,
    _fetch_one,
    _http_get,
    fetch_pages,
)

from .conftest import FakeOpenFDA, recall_entries, sample_dataset

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


def columns_of(tmp_path, entries, endpoint=Endpoint.RECALL) -> list[list[str]]:
    """The columns ``fetch_pages`` keeps of one served page holding ``entries``."""
    body = json.dumps({"results": entries}).encode()
    pages = fetch_pages(
        spec(endpoint=endpoint, max_pages=1), tmp_path, get=lambda *a: (200, body), sleep=NO_SLEEP
    )
    return pages[0].columns


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
    assert len(api.calls) == calls_after_first  # no new network request
    assert [p.columns for p in second] == [p.columns for p in first]
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
    assert list(manifest["pages"]) == ["0", "1"]  # a page's entry is written before the page

    monkeypatch.undo()
    calls_before = len(api.calls)
    pages = fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    assert [p.record_count for p in pages] == [4, 4, 2]
    assert [params["skip"] for _, params in api.calls[calls_before:]] == [4, 8]
    assert json.loads((endpoint_dir / "1.json").read_bytes())["results"] == api.recalls[4:8]

    # A stage artifact cut off midway leaves the previous file whole and no temporary file.
    out = tmp_path / "out"
    out.mkdir()
    write_dataset(sample_dataset(), out / "dataset.csv")
    previous = b'{"previous": true}\n'
    (out / "clusters.json").write_bytes(previous)
    monkeypatch.setattr(Path, "write_bytes", cut_off)
    with pytest.raises(OSError):
        stages.cluster_stage(stages.PipelineConfig(out=str(out), min_pts=2))
    assert (out / "clusters.json").read_bytes() == previous
    assert not list(out.glob("*.tmp"))


def test_a_fresh_cache_cut_between_manifest_and_page_serves_no_other_query(tmp_path, monkeypatch):
    real_write, written = Path.write_bytes, []

    def cut_off(self, data):  # the first write lands, the second does not
        written.append(self.name)
        if len(written) > 1:
            raise OSError("no space left on device")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", cut_off)
    with pytest.raises(OSError):
        fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=FakeOpenFDA(), sleep=NO_SLEEP)
    monkeypatch.undo()
    assert [p.name for p in (tmp_path / "recall").iterdir()] == [MANIFEST_NAME]

    api = FakeOpenFDA()
    with pytest.raises(FormatError, match="different query parameters"):
        fetch_pages(spec(page_size=4, max_pages=3, date_from=dt.date(2020, 1, 1)), tmp_path, get=api, sleep=NO_SLEEP)
    assert api.calls == []
    pages = fetch_pages(spec(page_size=4, max_pages=3), tmp_path, get=api, sleep=NO_SLEEP)
    assert [p.record_count for p in pages] == [4, 4, 2]
    assert [params["skip"] for _, params in api.calls] == [0, 4, 8]  # page 0 is fetched again


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
    parsed = columns_of(tmp_path, [entry])
    assert parsed == [["FRN"], ["2018-01-02"], ["Smith Medical ASD Inc."], ["Process design"], ["86 units"]]


def test_parse_recall_page_missing_quantity_becomes_empty_marker(tmp_path):
    entry = {
        "product_code": "FRN",
        "event_date_posted": "2018-01-05",
        "recalling_firm": "Repro-Med Systems, Inc.",
        "root_cause_description": "Nonconforming Material/Component",
    }
    parsed = columns_of(tmp_path, [entry])
    assert parsed[_FIELDS[Endpoint.RECALL].index("product_quantity")] == [""]


def test_parse_recall_page_empty_results(tmp_path):
    assert columns_of(tmp_path, []) == [[]] * len(_FIELDS[Endpoint.RECALL])


def test_parse_preserves_payload_order(tmp_path):
    entries = [{"product_code": code} for code in ("AAA", "BBB", "CCC")]
    parsed = columns_of(tmp_path, entries, Endpoint.CLASSIFICATION)
    assert parsed[0] == ["AAA", "BBB", "CCC"]


def test_parse_classification_page_fields(tmp_path):
    entry = {"product_code": "FRN", "device_name": "Pump, Infusion", "device_class": "2"}
    parsed = columns_of(tmp_path / "a", [entry], Endpoint.CLASSIFICATION)
    assert parsed == [["FRN"], ["Pump, Infusion"], ["2"]]
    missing = columns_of(tmp_path / "b", [{"product_code": "XYZ"}], Endpoint.CLASSIFICATION)
    assert missing[_FIELDS[Endpoint.CLASSIFICATION].index("device_class")] == [""]


@pytest.mark.parametrize("endpoint", list(Endpoint))
def test_columns_are_lists_in_field_order(tmp_path, endpoint):
    fields = _FIELDS[endpoint]
    assert endpoint.fields == fields
    entry = {key: f"value {i}" for i, key in reversed(list(enumerate(fields)))}  # keys out of order
    parsed = columns_of(tmp_path, [{"extraneous": "x", **entry}, entry], endpoint)
    assert all(type(column) is list for column in parsed)
    assert parsed == [[f"value {i}"] * 2 for i in range(len(fields))]


def test_null_and_absent_fields_are_empty_and_numbers_are_text(tmp_path):
    entries = [
        {"product_code": None, "event_date_posted": 20180102, "root_cause_description": 1.5},
        {"product_code": "FRN", "recalling_firm": None, "product_quantity": 86},
    ]
    assert columns_of(tmp_path, entries) == [
        ["", "FRN"], ["20180102", ""], ["", ""], ["1.5", ""], ["", "86"],
    ]


def fail_on_fetch(url, params, timeout):
    raise AssertionError(f"unexpected request for skip {params['skip']}")


def test_equal_values_are_one_object_across_entries_and_pages(tmp_path):
    recalls = [
        {"product_code": f"P{i % 2}", "recalling_firm": "Smith Medical ASD Inc.", "product_quantity": 86}
        for i in range(5)
    ]
    pages = fetch_pages(
        spec(page_size=2, max_pages=3), tmp_path, get=FakeOpenFDA(recalls=recalls), sleep=NO_SLEEP
    )
    rows = [row for page in pages for row in zip(*page.columns)]
    assert [page.record_count for page in pages] == [2, 2, 1]
    for column in range(len(_FIELDS[Endpoint.RECALL])):  # shared within a page and across pages
        for row in rows[1:]:
            if row[column] == rows[0][column]:
                assert row[column] is rows[0][column]
    assert rows[0][0] is rows[4][0] and rows[1][0] is rows[3][0]
    assert rows[0][4] is rows[4][4] == "86"  # str(86) is made per entry; the first is kept

    again = fetch_pages(spec(page_size=2, max_pages=3), tmp_path, get=fail_on_fetch, sleep=NO_SLEEP)
    # A second call (served from the cache) owns its own table: equal, not the same object.
    firms = again[0].columns[2]
    assert [column[0] for column in again[0].columns] == list(rows[0]) and firms[0] is not rows[0][2]


def test_parse_error_carries_page_index(tmp_path):
    def get(url, params, timeout):
        if params["skip"] < 3:
            return 200, json.dumps({"results": [{"product_code": "A"}]}).encode()
        return 200, b"{broken"

    with pytest.raises(ParseError, match="page 3"):
        fetch_pages(spec(page_size=1, max_pages=5), tmp_path, get=get, sleep=NO_SLEEP)


def test_live_transport_refuses_a_skip_past_the_api_limit(loopback):
    server = loopback((200, b'{"results": []}'))
    with pytest.raises(ContractError, match="skip 26000"):
        _fetch_one(spec(), 26, _http_get, NO_SLEEP)
    assert server.paths == []  # refused before any request, and not retried
    assert _fetch_one(spec(), 25, _http_get, NO_SLEEP) == b'{"results": []}'
    assert [path.split("&")[1] for path in server.paths] == ["skip=25000"]


# --- the real transport against a loopback server ----------------------------

PAGE = json.dumps({"results": recall_entries()}).encode()
NOT_FOUND = json.dumps({"error": {"code": "NOT_FOUND", "message": "No matches found!"}}).encode()


@pytest.mark.parametrize(
    "answers, want, hits",
    [
        ([(200, PAGE)], PAGE, 1),
        ([(404, NOT_FOUND)], None, 1),
        ([(500, b"busy"), (200, PAGE)], PAGE, 2),
        ([(429, b"slow down"), (200, PAGE)], PAGE, 2),
        ([(200, PAGE[:50], len(PAGE)), (200, PAGE)], PAGE, 2),
        ([(None, b"NOT HTTP\r\n\r\n"), (200, PAGE)], PAGE, 2),
    ],
    ids=["200", "404-not-found", "500-then-200", "429-then-200", "cut-off-body-then-200",
         "bad-status-line-then-200"],
)
def test_http_get_answers_fetch_one(loopback, answers, want, hits):
    server = loopback(*answers)
    assert _fetch_one(spec(), 0, _http_get, NO_SLEEP) == want
    assert len(server.paths) == hits


def test_http_get_gives_a_400_back_without_retrying(loopback):
    server = loopback((400, b'{"error": {"code": "BAD_REQUEST"}}'))
    with pytest.raises(RequestError, match="BAD_REQUEST"):
        _fetch_one(spec(), 0, _http_get, NO_SLEEP)
    assert len(server.paths) == 1


def test_http_get_on_a_refused_port_gives_up_after_three_attempts(refused_openfda):
    sleeps = []
    with pytest.raises(TransportError, match="giving up after 3 attempts"):
        _fetch_one(spec(), 0, _http_get, sleeps.append)
    assert sleeps == [1.0, 2.0]


def test_http_get_sends_the_query_string_unchanged(loopback):
    # Byte for byte: the search's colon, brackets and spaces and the key's space and
    # slash are form-encoded, and the parameters keep their order.
    server = loopback((200, PAGE))
    _fetch_one(spec(api_key="a b/c"), 0, _http_get, NO_SLEEP)
    assert server.paths == [
        "/device/recall.json?limit=1000&skip=0"
        "&search=event_date_posted%3A%5B2018-01-01+TO+2024-04-15%5D&api_key=a+b%2Fc"
    ]


# --- live smoke (non-gating) --------------------------------------------------


@pytest.mark.live
def test_live_fetch_smoke(tmp_path):
    live_spec = spec(page_size=100, max_pages=1)
    try:
        pages = fetch_pages(live_spec, tmp_path)
    except TransportError as exc:
        pytest.skip(f"live API unreachable: {exc}")
    assert len(pages) <= 1
    columns = pages[0].columns if pages else [[]] * 5
    assert len(columns[0]) <= 100
    fields = (
        "product_code",
        "event_date_posted",
        "recalling_firm",
        "root_cause_description",
        "product_quantity",
    )
    assert _FIELDS[Endpoint.RECALL] == fields
    assert len(columns) == len(fields) and len(set(map(len, columns))) == 1
    for column in columns:
        assert all(isinstance(value, str) for value in column[:5])
