"""Shared fixtures: a small production-like record sample, a fake openFDA, a loopback HTTP
server and a CLI runner."""

from __future__ import annotations

import contextlib
import dataclasses
import http.server
import io
import json
import os
import socket
import tempfile
import threading

import pytest

from recallscan import openfda
from recallscan.dataset import Dataset, RecallRecord

# Ten rows mirroring real merged recall data (one blank firm, blank quantities,
# a repeated firm and a repeated device so top-k rankings have structure).
SAMPLE_ROWS = [
    ("FRN", "2018-01-02", "Smith Medical ASD Inc.", "Process design", "86 units",
     "Pump, Infusion", "2"),
    ("FRN", "2018-01-05", "Repro-Med Systems, Inc.", "Nonconforming Material/Component", "",
     "Pump, Infusion", "2"),
    ("FFA", "2018-01-05", "Repro-Med Systems, Inc.", "Nonconforming Material/Component", "",
     "Sw. Administration, Intravascular", "2"),
    ("OSN", "2018-01-08", "Smith & Nephew, Inc.", "Under Investigation by firm", "",
     "Software For Diagnosis/Treatment", "2"),
    ("EHD", "2018-01-09", "Panasonic Rental Corp.", "Device Design", "13,340 units",
     "Unit, X-Ray, Extraoral With Time", "2"),
    ("KME", "2018-01-09", "", "Device Design", "153 cases, 30 units in each case",
     "Bedding, Disposable, Medical", "1"),
    ("NPT", "2018-01-10", "Edwards Lifesciences, LLC", "Employee error", "1730 units",
     "Aortic Valve, Prosthetic, Percutaneously Deployed", "3"),
    ("MKI", "2018-01-11", "Physio Control, Inc.", "Other", "3831 units",
     "Automated External Defibrillator (Non-Wearable)", "3"),
    ("HWE", "2018-01-11", "The Anspach Effort, Inc.", "Under Investigation by firm", "1",
     "Instrument, Surgical Orthopedic, Ac Powered Motor And Accessory/Attachment", "1"),
    ("KPE", "2018-01-11", "Baxter Healthcare Corporation", "Process control", "29,080 units",
     "Container, IV", "2"),
]


def sample_records() -> list[RecallRecord]:
    return [
        RecallRecord(
            product_code=code,
            event_date_posted=date,
            recalling_firm=firm,
            root_cause_description=cause,
            product_quantity=quantity,
            device_name=device,
            device_class=cls,
        )
        for code, date, firm, cause, quantity, device, cls in SAMPLE_ROWS
    ]


def sample_dataset() -> Dataset:
    return Dataset.from_records(sample_records())


@pytest.fixture
def records():
    return sample_dataset()


def recall_entries() -> list[dict]:
    return [
        {
            "product_code": code,
            "event_date_posted": date,
            "recalling_firm": firm,
            "root_cause_description": cause,
            "product_quantity": quantity,
        }
        for code, date, firm, cause, quantity, _, _ in SAMPLE_ROWS
    ]


def classification_entries() -> list[dict]:
    seen = {}
    for code, _, _, _, _, device, cls in SAMPLE_ROWS:
        seen.setdefault(code, {"product_code": code, "device_name": device, "device_class": cls})
    return list(seen.values())


def recall_columns() -> list[list[str]]:
    """``recall_entries`` as the columns ``fetch_pages`` keeps, in its field order."""
    return [list(column) for column in zip(*SAMPLE_ROWS)][:5]


def classification_columns() -> list[list[str]]:
    """``classification_entries`` as the columns ``fetch_pages`` keeps."""
    entries = classification_entries()
    return [[e[key] for e in entries] for key in ("product_code", "device_name", "device_class")]


class FakeOpenFDA:
    """Transport double honouring limit/skip and the 404 end-of-results shape."""

    def __init__(self, recalls=None, classifications=None, fail_first=0, status_first=None):
        self.recalls = recalls if recalls is not None else recall_entries()
        self.classifications = (
            classifications if classifications is not None else classification_entries()
        )
        self.fail_first = fail_first
        self.status_first = status_first
        self.calls: list[tuple[str, dict]] = []

    def __call__(self, url, params, timeout):
        self.calls.append((url, dict(params)))
        if self.fail_first > 0:
            self.fail_first -= 1
            raise ConnectionError("synthetic connection failure")
        if self.status_first is not None:
            status = self.status_first
            self.status_first = None
            return status, json.dumps({"error": {"code": "SYNTHETIC"}}).encode()
        rows = self.recalls if "recall" in url else self.classifications
        limit = int(params["limit"])
        skip = int(params.get("skip", 0))
        page = rows[skip : skip + limit]
        if not page:
            body = {"error": {"code": "NOT_FOUND", "message": "No matches found!"}}
            return 404, json.dumps(body).encode()
        body = {
            "meta": {"results": {"skip": skip, "limit": limit, "total": len(rows)}},
            "results": page,
        }
        return 200, json.dumps(body).encode()


@pytest.fixture
def fake_api():
    return FakeOpenFDA()


class Loopback:
    """An HTTP server on 127.0.0.1, in a thread, for the real transport.

    The n-th request gets ``answers[n]``, and the last answer once they run out. An
    answer is ``(status, body)``, or ``(status, body, length)`` to declare a
    ``Content-Length`` other than the body's; status None sends the body alone, with
    no status line or headers. ``paths`` records each request path.
    """

    def __init__(self, answers):
        self.answers, self.paths = answers, []
        loopback = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                loopback.paths.append(self.path)
                status, body, *length = loopback.answers[min(len(loopback.paths), len(loopback.answers)) - 1]
                if status is not None:
                    self.send_response(status)
                    self.send_header("Content-Length", str(length[0] if length else len(body)))
                    self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}"
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def clear_proxies(monkeypatch):
    """Unset the ``*_proxy`` variables, so urllib connects to loopback directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def loopback(monkeypatch):
    """``loopback(*answers)`` starts a ``Loopback`` serving them and points the recall
    endpoint at it; each server is closed after the test."""
    clear_proxies(monkeypatch)
    servers = []

    def serve(*answers):
        servers.append(Loopback(answers))
        monkeypatch.setattr(openfda, "RECALL_URL", f"{servers[-1].url}/device/recall.json")
        return servers[-1]

    yield serve
    for server in servers:
        server.close()


@pytest.fixture
def refused_openfda(monkeypatch):
    """Points both endpoints at a loopback port that is bound but not listening, so every
    connection is refused."""
    clear_proxies(monkeypatch)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        for name in ("RECALL_URL", "CLASSIFICATION_URL"):
            monkeypatch.setattr(openfda, name, f"http://127.0.0.1:{sock.getsockname()[1]}/{name}")
        yield


@dataclasses.dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Runs ``main(args)`` in-process with stdout and stderr captured.

    A ``SystemExit`` becomes ``exit_code``; any other exception propagates to the test.
    """

    def invoke(self, main, args) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
        return Result(code, stdout.getvalue(), stderr.getvalue())

    @contextlib.contextmanager
    def isolated_filesystem(self, temp_dir):
        """Work in a fresh directory under ``temp_dir`` for the block; the directory is kept."""
        cwd, before = tempfile.mkdtemp(dir=temp_dir), os.getcwd()
        os.chdir(cwd)
        try:
            yield cwd
        finally:
            os.chdir(before)


@pytest.fixture
def runner():
    return CliRunner()
