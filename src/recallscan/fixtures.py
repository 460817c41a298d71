"""Synthetic offline datasets for reproducible, network-free runs.

The ``table2`` fixture repeats every reference root-cause label exactly its
snapshot case count, with deterministic synthetic codes, dates, firms and
devices, so all downstream stages run against a stable 6991-record dataset.
"""

from __future__ import annotations

import datetime as dt
from itertools import cycle, islice, product

from .dataset import Dataset
from .errors import ContractError
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

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def table2_records(
    date_from: dt.date = DEFAULT_DATE_FROM, date_to: dt.date = DEFAULT_DATE_TO
) -> Dataset:
    """Build the bundled fixture dataset (one record per snapshot case).

    Record ``k`` has the ``k``-th three-letter product code (``AAA``, ``AAB``, ...),
    is dated ``7 * k`` days into the window (modulo its length), and takes firm,
    quantity and device in turn. The fields are built by column, each code and
    each distinct date (as ``YYYY-MM-DD`` text) once. A window that ends before
    it starts is refused (ContractError); one day is a window.
    """
    if date_to < date_from:
        raise ContractError(f"date_from {date_from} is after date_to {date_to}")
    labels = [label for label, cases in REFERENCE_INITIATORS for _ in range(cases)]
    days = (date_to - date_from).days + 1
    offsets = [k * 7 % days for k in range(len(labels))]
    dates = {offset: (date_from + dt.timedelta(days=offset)).isoformat() for offset in set(offsets)}
    codes = map("".join, product(_LETTERS, repeat=3))
    names, classes = zip(*_DEVICES)

    def column(values) -> list:  # the first len(labels) values, repeated from the start as needed
        return list(islice(cycle(values), len(labels)))

    return Dataset(
        column(codes), list(map(dates.__getitem__, offsets)), column(_FIRMS), labels,
        column(_QUANTITIES), column(names), column(classes),
    )


FIXTURE_BUILDERS = {"table2": table2_records}
