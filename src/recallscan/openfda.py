"""openFDA device recall / classification client with on-disk page caching.

Pages are fetched with the documented ``search`` / ``limit`` / ``skip``
parameters and written verbatim to ``<cache_dir>/<endpoint>/<page>.json``
before anything else happens, so later parses are reproducible byte for
byte. A cached page is never re-fetched. Pages and the manifest are written
atomically (``artifacts.write``), so a write cut off midway leaves no page
behind and the next run fetches it again. ``fetch_pages`` decodes each body
once and keeps only the endpoint's fields, one column per field, never the
bytes; equal field values within one call are one shared ``str``.
"""

from __future__ import annotations

import datetime as dt
import time
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

from . import artifacts
from .errors import ContractError, FormatError, ParseError, RequestError, TransportError

RECALL_URL = "https://api.fda.gov/device/recall.json"
CLASSIFICATION_URL = "https://api.fda.gov/device/classification.json"

API_KEY_ENV = "OPENFDA_API_KEY"
MAX_PAGE_SIZE = 1000  # openFDA hard limit per request
MAX_SKIP = 25_000  # openFDA refuses a larger skip

DEFAULT_DATE_FROM = dt.date(2018, 1, 1)
DEFAULT_DATE_TO = dt.date(2024, 4, 15)
DEFAULT_MAX_PAGES = 7

RETRY_ATTEMPTS = 3
BACKOFF_BASE_SECONDS = 1.0
REQUEST_TIMEOUT_SECONDS = 30

MANIFEST_NAME = "manifest.json"

# get(url, params, timeout) -> (status_code, body_bytes). Only an OSError is
# retried; any other exception ends the fetch at once, which is how ``build``
# reads the cache without a request.
Transport = Callable[[str, dict, float], tuple[int, bytes]]


class Endpoint(Enum):
    RECALL = "recall"
    CLASSIFICATION = "classification"

    @property
    def url(self) -> str:
        return RECALL_URL if self is Endpoint.RECALL else CLASSIFICATION_URL

    @property
    def fields(self) -> tuple[str, ...]:
        return _FIELDS[self]


# The fields a page keeps of each entry, in dataset order.
_FIELDS = {
    Endpoint.RECALL: (
        "product_code", "event_date_posted", "recalling_firm", "root_cause_description", "product_quantity"
    ),
    Endpoint.CLASSIFICATION: ("product_code", "device_name", "device_class"),
}


class _Query(NamedTuple):  # a NamedTuple's own body may not define __new__
    endpoint: Endpoint
    date_from: dt.date = DEFAULT_DATE_FROM
    date_to: dt.date = DEFAULT_DATE_TO
    page_size: int = MAX_PAGE_SIZE
    max_pages: int = DEFAULT_MAX_PAGES
    api_key: str | None = None


class FetchSpec(_Query):
    """What to fetch: endpoint, date window and pagination bounds."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1 <= self.page_size <= MAX_PAGE_SIZE:
            raise ContractError(
                f"page_size must be in 1..{MAX_PAGE_SIZE}, got {self.page_size}"
            )
        if self.date_from > self.date_to:
            raise ContractError(f"date_from {self.date_from} is after date_to {self.date_to}")
        if self.max_pages < 1:
            raise ContractError(f"max_pages must be >= 1, got {self.max_pages}")
        return self

    def search_expression(self) -> str | None:
        """Date filter for the recall endpoint; classifications are not time-scoped."""
        if self.endpoint is Endpoint.RECALL:
            return f"event_date_posted:[{self.date_from.isoformat()} TO {self.date_to.isoformat()}]"
        return None


class RawPage(NamedTuple):
    """One response body, decoded: one column per field of the endpoint, in ``_FIELDS``
    order, each holding that field of every entry as text (an absent or null field is
    ``""``, any other non-string ``str(value)``), and the ``meta.results.total`` it
    reports, if any. Equal values on the pages of one ``fetch_pages`` call are the same
    object, so a low-cardinality field costs one string per distinct value, not one per row.
    """

    page_index: int
    columns: list[list[str]]
    total: int | None

    @property
    def record_count(self) -> int:
        return len(self.columns[0])


def _http_get(url: str, params: dict, timeout: float) -> tuple[int, bytes]:
    if params["skip"] > MAX_SKIP:  # openFDA would answer HTTP 400; only an OSError is retried
        raise ContractError(f"skip {params['skip']} is past openFDA's limit of {MAX_SKIP}; narrow the date window")
    import http.client, urllib.error, urllib.parse, urllib.request  # only the live API needs them

    try:
        try:
            resp = urllib.request.urlopen(f"{url}?{urllib.parse.urlencode(params)}", timeout=timeout)
        except urllib.error.HTTPError as exc:  # a status is an answer, not a failure to retry
            resp = exc
        with resp:
            return resp.status, resp.read()
    except http.client.HTTPException as exc:  # a bad status line or a cut-off body: not an OSError
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


def _parse_page(
    payload: bytes, page_index: int, fields: tuple[str, ...], values: dict[str, str]
) -> RawPage:
    """The one decode of a response body; its ``results`` entries must all be objects.

    ``values`` maps each field value seen so far to its one shared object; the
    caller owns it, so sharing spans every page it passes the table to.
    """
    body = artifacts.parse_object(payload, f"page {page_index} response body", ParseError)
    results = body.get("results")
    if not isinstance(results, list):
        raise ParseError(f"page {page_index}: response carries no results array")
    if not all(isinstance(entry, dict) for entry in results):
        raise ParseError(f"page {page_index}: non-object result entry")
    columns = []
    for key in fields:  # one field of every entry at a time
        column = list(map(dict.get, results, repeat(key), repeat("")))
        if not all(map(isinstance, column, repeat(str))):
            column = ["" if v is None else v if isinstance(v, str) else str(v) for v in column]
        columns.append(list(map(values.setdefault, column, column)))
    meta = body.get("meta")
    total = meta.get("results") if isinstance(meta, dict) else None
    total = total.get("total") if isinstance(total, dict) else None
    return RawPage(page_index, columns, total if artifacts.is_int(total, 0) else None)


def _is_empty_result(status: int, body: bytes) -> bool:
    # openFDA answers 404 NOT_FOUND when skip runs past the last record.
    if status != 404:
        return False
    try:
        error = artifacts.parse_object(body, "404 body").get("error")
    except FormatError:
        return False
    return isinstance(error, dict) and error.get("code") == "NOT_FOUND"


def _fetch_one(
    spec: FetchSpec, page_index: int, get: Transport, sleep: Callable[[float], None]
) -> bytes | None:
    """Fetch one page with bounded retries; None signals end of data."""
    params: dict = {"limit": spec.page_size, "skip": page_index * spec.page_size}
    search = spec.search_expression()
    if search is not None:
        params["search"] = search
    if spec.api_key:
        params["api_key"] = spec.api_key

    name = f"{spec.endpoint.value} page {page_index}"
    failure = ""
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            sleep(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
        try:
            status, body = get(spec.endpoint.url, params, REQUEST_TIMEOUT_SECONDS)
        except OSError as exc:
            failure = str(exc)
            continue
        if status == 200:
            return body
        if _is_empty_result(status, body):
            return None
        if status != 429 and status < 500:
            raise RequestError(status, f"{name}: {body[:200].decode('utf-8', errors='replace')}")
        failure = f"HTTP {status}"
    raise TransportError(f"{name}: giving up after {RETRY_ATTEMPTS} attempts ({failure})")


def _load_manifest(endpoint_dir: Path) -> dict:
    path = endpoint_dir / MANIFEST_NAME
    if not path.exists():
        return {"pages": {}}
    manifest = artifacts.read_object(path, "cache manifest")
    pages, exhausted_at = manifest.setdefault("pages", {}), manifest.get("exhausted_at")
    if not (isinstance(pages, dict) and all(isinstance(p, dict) for p in pages.values())):
        raise FormatError(f"cache manifest {path}: pages must map page numbers to objects")
    if exhausted_at is not None and not artifacts.is_int(exhausted_at, 0):
        raise FormatError(f"cache manifest {path}: exhausted_at must be a page number")
    return manifest


def fetch_pages(
    spec: FetchSpec,
    cache_dir: str | Path,
    *,
    get: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[RawPage]:
    """Return pages 0..k in order, decoded, fetching only what the cache lacks.

    Pagination stops early when a page comes back with fewer than
    ``page_size`` records (or the API reports the result set exhausted).
    Every fetched page is written to the cache before the call returns, so a
    rerun with the same spec makes no network request at all.
    """
    get = get or _http_get
    endpoint_dir = Path(cache_dir) / spec.endpoint.value
    manifest = _load_manifest(endpoint_dir)
    # Pages and an end-of-data marker answer only the query that was sent.
    query = {
        "endpoint": spec.endpoint.value,
        "search": spec.search_expression(),
        "page_size": spec.page_size,
    }
    if any(key in manifest and manifest[key] != value for key, value in query.items()):
        raise FormatError(
            f"cache at {endpoint_dir} was built with different query parameters; "
            "point --cache-dir at a fresh directory"
        )
    manifest.update(query)

    pages: list[RawPage] = []
    values: dict[str, str] = {}  # one object per distinct field value across this call's pages
    for index in range(spec.max_pages):
        exhausted_at = manifest.get("exhausted_at")
        if exhausted_at is not None and index >= exhausted_at:
            break
        page_path = endpoint_dir / f"{index}.json"
        cached = page_path.exists()
        payload = page_path.read_bytes() if cached else _fetch_one(spec, index, get, sleep)
        if payload is None:
            # The API reported the result set exhausted at this index;
            # remember that so reruns stay fully cache-served.
            manifest["exhausted_at"] = index
            artifacts.write_json(endpoint_dir / MANIFEST_NAME, manifest)
            break
        # A malformed body raises here, so it is never cached.
        page = _parse_page(payload, index, spec.endpoint.fields, values)
        if not cached:  # the manifest, which holds the query, before the page it answers
            manifest["pages"][str(index)] = {
                "retrieved_at": dt.datetime.now(dt.timezone.utc).isoformat(),
                "record_count": page.record_count,
            }
            artifacts.write_json(endpoint_dir / MANIFEST_NAME, manifest)
            artifacts.write(page_path, payload)
        pages.append(page)
        if page.record_count < spec.page_size:
            break
    return pages
