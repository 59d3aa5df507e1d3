"""Shared fixtures.

The session-scoped ``small_world`` runs the full 2013–2023 simulation at a
small scale once; every integration-level test reuses it. Unit tests build
their own tiny objects via the helpers below.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import MeasurementPipeline, WorldConfig, simulate_world
from repro.data import schema
from repro.ecosystem.streamgen import save_streamed
from repro.pki.certificate import Certificate
from repro.pki.keys import KeyAlgorithm, KeyPair, KeyStore
from repro.util.dates import day


@pytest.fixture(scope="session")
def small_world():
    """A deterministic, small-scale full-decade world."""
    return simulate_world(WorldConfig(seed=4242).scaled(0.08))


@pytest.fixture(scope="session")
def streamgen_dir(tmp_path_factory):
    """A saved seed-20231024 streamgen world at scale 0.05; open it with
    ``open_bundle`` for a fresh bundle (nothing built yet)."""
    directory = str(tmp_path_factory.mktemp("streamgen") / "bundle")
    save_streamed(WorldConfig(seed=20231024).scaled(0.05), directory, shards=1,
                  use_processes=False)
    return directory


@pytest.fixture(scope="session")
def pipeline_result(small_world):
    pipeline = MeasurementPipeline(
        small_world.to_bundle(),
        revocation_cutoff_day=small_world.config.timeline.revocation_cutoff,
    )
    return pipeline.run()


@pytest.fixture()
def key_store():
    return KeyStore()


_SERIAL = iter(range(10_000, 10_000_000))


class Scans(dict):
    """The §4.3 DNS input from literals: ``{day: {apex: Cloudflare
    NS/CNAME targets}}`` with ``days()`` and ``cloudflare(day)``."""

    def days(self):
        return sorted(self)

    def cloudflare(self, scan_day):
        return self[scan_day]


def find_departures(scans):
    """Every departure over *scans*, in detection order."""
    from repro.core.detectors.managed_tls import DepartureTracker

    tracker = DepartureTracker()
    departures = []
    for scan_day in scans.days():
        departures.extend(tracker.observe(scan_day, scans.cloudflare(scan_day)))
    return departures + tracker.flush()


def scan_managed_join(corpus, departures):
    """The §4.3 join by a full scan: every indexed customer name of the
    corpus's managed certificates is tested against each departure's apex.
    Returns ``(day, domain, fingerprint)`` per finding, in emission order;
    the reference for ``ManagedTlsDetector``'s suffix index."""
    from repro.core.detectors.managed_tls import is_cloudflare_managed_certificate

    managed = sorted(
        (c for c in corpus.certificates() if is_cloudflare_managed_certificate(c)),
        key=lambda certificate: certificate.not_before,
    )
    by_name = {}
    for certificate in managed:
        for name in sorted(certificate.fqdns()):
            if not name.endswith(".cloudflaressl.com"):
                by_name.setdefault(name, []).append(certificate)
    emitted = []
    for departure in departures:
        for name, certificates in by_name.items():
            if name != departure.apex and not name.endswith("." + departure.apex):
                continue
            for certificate in certificates:
                key = (departure.departure_day, name, certificate.dedup_fingerprint())
                if certificate.is_valid_on(departure.departure_day) and key not in emitted:
                    emitted.append(key)
    return emitted


def read_jsonl(path: str):
    """The records of a (``.gz``-aware) JSONL file, in file order."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def make_key(owner: str = "tester", on_day: int = day(2020, 1, 1)) -> KeyPair:
    return KeyStore().generate(owner, on_day)


def make_cert(
    sans=("example.com", "www.example.com"),
    not_before=day(2021, 1, 1),
    not_after=None,
    lifetime=365,
    issuer="Test CA",
    authority_key_id="akid-test",
    serial=None,
    key=None,
    **kwargs,
) -> Certificate:
    """Terse certificate factory for unit tests."""
    if not_after is None:
        not_after = not_before + lifetime
    return Certificate(
        subject_cn=sans[0] if sans else "",
        san_dns_names=tuple(sans),
        subject_key=key or make_key(),
        issuer_name=issuer,
        authority_key_id=authority_key_id,
        serial=serial if serial is not None else next(_SERIAL),
        not_before=not_before,
        not_after=not_after,
        **kwargs,
    )


@pytest.fixture()
def cert_factory():
    return make_cert


def assert_maximal_runs(calendar, rows):
    """DNS run *rows* on *calendar* are in (first_day, apex) order, and no
    run continues its apex's run before it."""
    position = {scan_day: i for i, scan_day in enumerate(calendar)}
    assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)
    last = {}
    for first_day, apex, last_day, records in rows:
        assert position[first_day] <= position[last_day]
        before = last.get(apex)
        if before is not None:
            assert position[before[0]] < position[first_day]
            assert not (
                position[before[0]] + 1 == position[first_day] and before[1] == records
            ), f"{apex} run at {first_day} continues its previous run"
        last[apex] = (last_day, records)


@contextmanager
def recording_builds():
    """The dedup fingerprints of the certificates the columnar certs table
    builds inside the block (it builds each one through
    ``schema.certificate_at``); one fingerprint per corpus row."""
    built = set()
    build = schema.certificate_at

    def recorded(columns, row):
        certificate = build(columns, row)
        built.add(certificate.dedup_fingerprint())
        return certificate

    with mock.patch.object(schema, "certificate_at", recorded):
        yield built
