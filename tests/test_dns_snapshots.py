"""Tests for daily snapshots and the per-day snapshot store."""

import pytest

from repro.dns.records import RecordType
from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
from repro.util.dates import day


def snap(d, observations):
    snapshot = DailySnapshot(d)
    for apex, records in observations.items():
        for rtype, values in records.items():
            snapshot.observe(apex, rtype, values)
    return snapshot


D1, D2 = day(2022, 8, 1), day(2022, 8, 2)


class TestDailySnapshot:
    def test_observe_and_get(self):
        snapshot = snap(D1, {"a.com": {RecordType.NS: ["ns1.x.net"]}})
        obs = snapshot.get("a.com")
        assert obs.get(RecordType.NS) == frozenset({"ns1.x.net"})
        assert obs.get(RecordType.A) == frozenset()

    def test_delegation_targets_union_ns_cname(self):
        obs = DomainObservation("a.com")
        obs.set(RecordType.NS, ["ns1.x.net"])
        obs.set(RecordType.CNAME, ["edge.cdn.net"])
        assert obs.delegation_targets() == frozenset({"ns1.x.net", "edge.cdn.net"})

    def test_record_count(self):
        snapshot = snap(
            D1, {"a.com": {RecordType.NS: ["n1", "n2"], RecordType.A: ["192.0.2.1"]}}
        )
        assert snapshot.record_count() == 3

    def test_from_observations_shares_objects(self):
        obs = DomainObservation("a.com")
        obs.set(RecordType.NS, ["ns1.x.net"])
        mapping = {"a.com": obs}
        s1 = DailySnapshot.from_observations(D1, mapping)
        s2 = DailySnapshot.from_observations(D2, mapping)
        assert s1.get("a.com") is s2.get("a.com")

    def test_observations_maps_apex_to_shared_object(self):
        obs = DomainObservation("a.com")
        snapshot = DailySnapshot.from_observations(D1, {"a.com": obs})
        assert dict(snapshot.observations()) == {"a.com": obs}
        assert snapshot.observations()["a.com"] is obs


class TestSnapshotStore:
    def test_days_sorted(self):
        store = SnapshotStore()
        store.put(DailySnapshot(D2))
        store.put(DailySnapshot(D1))
        assert store.days() == [D1, D2]

    def test_get_missing_day(self):
        assert SnapshotStore().get(D1) is None

    def test_cloudflare_maps_every_observed_apex_to_its_cloudflare_targets(self):
        store = SnapshotStore()
        store.put(
            snap(
                D1,
                {
                    "a.com": {
                        RecordType.NS: ["ada.ns.cloudflare.com", "ns1.x.net"],
                        RecordType.CNAME: ["e.cdn.cloudflare.com."],
                        RecordType.A: ["192.0.2.1"],
                    },
                    "b.com": {RecordType.NS: ["ns1.x.net"]},
                },
            )
        )
        assert store.cloudflare(D1) == {
            "a.com": frozenset({"ada.ns.cloudflare.com", "e.cdn.cloudflare.com."}),
            "b.com": frozenset(),
        }
