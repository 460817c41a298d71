"""Shared fixtures: a small production-like record sample, a fake openFDA and a CLI runner."""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import io
import json
import os
import tempfile

import pytest
import requests

from recallscan.dataset import RecallRecord

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
            event_date_posted=dt.date.fromisoformat(date),
            recalling_firm=firm,
            root_cause_description=cause,
            product_quantity=quantity,
            device_name=device,
            device_class=cls,
        )
        for code, date, firm, cause, quantity, device, cls in SAMPLE_ROWS
    ]


@pytest.fixture
def records():
    return sample_records()


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


def recall_rows() -> list[tuple[str, ...]]:
    """``recall_entries`` as the tuples ``fetch_pages`` keeps, in its field order."""
    return [row[:5] for row in SAMPLE_ROWS]


def classification_rows() -> list[tuple[str, ...]]:
    """``classification_entries`` as the tuples ``fetch_pages`` keeps."""
    entries = classification_entries()
    return [(e["product_code"], e["device_name"], e["device_class"]) for e in entries]


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
            raise requests.ConnectionError("synthetic connection failure")
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
