"""Synthetic offline datasets for reproducible, network-free runs.

The ``table2`` fixture repeats every reference root-cause label exactly its
snapshot case count, with deterministic synthetic codes, dates, firms and
devices, so all downstream stages run against a stable 6991-record dataset.
"""

from __future__ import annotations

import datetime as dt
from itertools import count

from .dataset import RecallRecord
from .openfda import DEFAULT_DATE_FROM, DEFAULT_DATE_TO
from .reference import REFERENCE_INITIATORS

_FIRMS = (
    "Aldebaran Medical Systems Inc.",
    "Briarwood Surgical Corp.",
    "Cascadia Devices, LLC",
    "Delta Instruments Ltd.",
    "Eastgate Biomedical Inc.",
    "Foxglove Health Technologies",
    "Greenfield Diagnostics Corp.",
    "Harborview Medical Supply Co.",
    "Ironwood Therapeutics Inc.",
    "Juniper Imaging Systems",
    "Kestrel Medical Group",
)

_DEVICES = (
    ("Pump, Infusion", "2"),
    ("Container, IV", "2"),
    ("Software For Diagnosis/Treatment", "2"),
    ("Automated External Defibrillator (Non-Wearable)", "3"),
    ("Instrument, Surgical Orthopedic", "1"),
    ("Bedding, Disposable, Medical", "1"),
    ("Aortic Valve, Prosthetic", "3"),
)

# One string per distinct quantity, shared by every record that carries it.
_QUANTITIES = tuple(f"{n} units" for n in range(1, 41))


def _product_code(i: int) -> str:
    letters = []
    for div in (26 * 26, 26, 1):
        letters.append(chr(ord("A") + (i // div) % 26))
    return "".join(letters)


def table2_records(
    date_from: dt.date = DEFAULT_DATE_FROM, date_to: dt.date = DEFAULT_DATE_TO
) -> list[RecallRecord]:
    """Build the bundled fixture dataset (one record per snapshot case)."""
    span = (date_to - date_from).days
    records: list[RecallRecord] = []
    i = count()
    for label, cases in REFERENCE_INITIATORS:
        for _ in range(cases):
            k = next(i)
            device_name, device_class = _DEVICES[k % len(_DEVICES)]
            records.append(
                RecallRecord(
                    product_code=_product_code(k),
                    event_date_posted=date_from + dt.timedelta(days=(k * 7) % (span + 1)),
                    recalling_firm=_FIRMS[k % len(_FIRMS)],
                    root_cause_description=label,
                    product_quantity=_QUANTITIES[k % len(_QUANTITIES)],
                    device_name=device_name,
                    device_class=device_class,
                )
            )
    return records


FIXTURE_BUILDERS = {"table2": table2_records}
