"""The two bundle parts that hide the columnar format from the engines.

:meth:`~repro.data.dataset.Dataset.to_bundle` returns a plain
:class:`~repro.core.pipeline.DatasetBundle` whose corpus is the
:class:`~repro.data.dataset.CertsTable` itself (it implements
:class:`~repro.ct.dedup.Corpus` on its columns and indexes). The other
datasets are rebuilt from their tables here:

* :func:`synthetic_crls` — one CRL per (issuer, authority key id) from the
  deduplicated revocations table;
* :class:`DnsColumns` — the §4.3 DNS input, one scan day of Cloudflare
  delegations at a time from a forward sweep over the DNS runs.

Equality with the in-memory bundle that was saved is positional:
``write_dataset`` stores corpus iteration order, first-wins deduplicated
revocations and (first_day, apex)-ordered DNS runs on the store's scan
calendar, so every reconstructed object —
synthetic CRLs included — comes back in a fixed order with the same
values, and detection over it finds exactly what the in-memory run does.
A DNS ``records`` cell that is not a JSON object of string lists raises
:class:`~repro.data.segment.SegmentFormatError` naming its row when it is
first read.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.data.segment import SegmentFormatError
from repro.dns.records import RecordType
from repro.dns.snapshots import cloudflare_targets
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.util.dates import Day


def synthetic_crls(revocations) -> List[CertificateRevocationList]:
    """Per-(issuer, akid) CRLs over a revocations table: groups sorted by
    key, entries in stored (first-wins deduplicated) order, series stamped
    with the last revocation day seen."""
    by_issuer: Dict[Tuple[str, str], List[CrlEntry]] = {}
    last_day: Day = 0
    for issuer_name, akid, entry in revocations.entries():
        by_issuer.setdefault((issuer_name, akid), []).append(entry)
        last_day = max(last_day, entry.revocation_day)
    crls: List[CertificateRevocationList] = []
    for (issuer_name, akid), entries in sorted(by_issuer.items()):
        crl = CertificateRevocationList(
            issuer_name=issuer_name,
            authority_key_id=akid,
            this_update=last_day,
            next_update=last_day + 7,
            crl_number=1,
        )
        crl.entries.extend(entries)
        crls.append(crl)
    return crls


#: Runs per range read while :class:`DnsColumns` sweeps the dns table.
_SWEEP_CHUNK = 1024


class DnsColumns:
    """The §4.3 DNS input (:class:`~repro.dns.snapshots.CloudflareScans`)
    over the dns table's runs, swept forward along the scan *calendar*.

    Serving a scan day drops the runs that ended on the scan before it and
    adds the runs that start on it; each run's records cell is decoded and
    validated once. The state is the current day's apexes (their
    Cloudflare targets, and the apexes grouped by the day their run ends).
    A request for an earlier day restarts the sweep from row 0. A run that
    ends before it starts, a day off the calendar, rows out of (first_day,
    apex) order and two overlapping runs of one apex each raise
    :class:`~repro.data.segment.SegmentFormatError` naming the row.
    """

    def __init__(self, dns, calendar: List[Day]) -> None:
        self._dns = dns
        self._calendar = list(calendar)
        self._positions = {scan_day: p for p, scan_day in enumerate(self._calendar)}
        self._rows: Optional[Iterator[Tuple]] = None  # no segment read yet
        self._position = -1

    def __reduce__(self):
        # Pickles as its table: a shard worker maps the segments itself.
        return (type(self), (self._dns, self._calendar))

    def _restart(self) -> None:
        self._rows = self._sweep()
        self._pending: Optional[Tuple] = next(self._rows, None)
        self._last_key: Optional[Tuple[Day, str]] = None
        self._position = -1
        self._targets: Dict[str, FrozenSet[str]] = {}
        self._ending: Dict[Day, List[str]] = {}

    def _sweep(self) -> Iterator[Tuple]:
        """(row, first_day, apex, last_day, records cell), in row order."""
        dns = self._dns
        for lo in range(0, dns.rows, _SWEEP_CHUNK):
            hi = min(lo + _SWEEP_CHUNK, dns.rows)
            yield from zip(
                range(lo, hi),
                dns.column("first_day").read(lo, hi),
                dns.column("apex").read(lo, hi),
                dns.column("last_day").read(lo, hi),
                dns.column("records").read_bytes(lo, hi),
            )

    def days(self) -> List[Day]:
        return list(self._calendar)

    def cloudflare(self, scan_day: Day) -> Dict[str, FrozenSet[str]]:
        position = self._positions[scan_day]
        if self._rows is None or position < self._position:
            self._restart()
        while self._position < position:
            self._position += 1
            self._advance(self._calendar[self._position])
        return dict(self._targets)

    def _advance(self, scan_day: Day) -> None:
        """Move the sweep onto *scan_day*, the next calendar day."""
        if self._position > 0:
            ended = self._ending.pop(self._calendar[self._position - 1], ())
            for apex in ended:
                del self._targets[apex]
        while self._pending is not None and self._pending[1] <= scan_day:
            row, first_day, apex, last_day, cell = self._pending
            self._check_run(row, first_day, apex, last_day, scan_day)
            self._targets[apex] = _cloudflare_cell(cell, row)
            self._ending.setdefault(last_day, []).append(apex)
            self._last_key = (first_day, apex)
            self._pending = next(self._rows, None)
        if self._pending is not None and self._position == len(self._calendar) - 1:
            # A run left after the last scan day starts off the calendar.
            self._check_run(*self._pending[:4], scan_day)

    def _check_run(
        self, row: int, first_day: Day, apex: str, last_day: Day, scan_day: Day
    ) -> None:
        problem = None
        if first_day not in self._positions:
            problem = f"first_day {first_day} is not a scan day"
        elif last_day not in self._positions:
            problem = f"last_day {last_day} is not a scan day"
        elif last_day < first_day:
            problem = "run ends before it starts"
        elif first_day < scan_day or (
            self._last_key is not None and (first_day, apex) <= self._last_key
        ):
            problem = "runs are not in (first_day, apex) order"
        elif apex in self._targets:
            problem = f"run overlaps an earlier run of {apex!r}"
        if problem is not None:
            raise SegmentFormatError(f"dns table row {row}: {problem}")


def _cloudflare_cell(cell: bytes, row: int) -> FrozenSet[str]:
    """The Cloudflare NS/CNAME targets of one ``records`` cell, which must
    be a JSON object mapping record types to lists of strings."""
    try:
        records = json.loads(cell)
        valid = all(
            isinstance(values, list) and all(isinstance(value, str) for value in values)
            for values in records.values()
        )
    except (ValueError, AttributeError):  # not JSON, or not an object
        valid = False
    if not valid:
        raise SegmentFormatError(
            f"dns table row {row}: records cell is not an object of string lists"
        )
    ns, cname = RecordType.NS.value, RecordType.CNAME.value
    return cloudflare_targets(frozenset(records.get(ns, []) + records.get(cname, [])))
