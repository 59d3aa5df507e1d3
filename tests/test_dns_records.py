"""Tests for DNS record types and record sets."""

import pytest

from repro.dns.records import RecordType, ResourceRecord, RRSet


class TestResourceRecord:
    def test_normalizes_name(self):
        record = ResourceRecord("WWW.Example.COM", RecordType.A, "192.0.2.1")
        assert record.name == "www.example.com"

    def test_normalizes_ns_target(self):
        record = ResourceRecord("example.com", RecordType.NS, "NS1.Host.NET.")
        assert record.rdata == "ns1.host.net"

    def test_rejects_bad_ipv4(self):
        for bad in ("256.1.1.1", "1.2.3", "a.b.c.d", "1.2.3.4.5"):
            with pytest.raises(ValueError):
                ResourceRecord("example.com", RecordType.A, bad)

    def test_accepts_valid_ipv6(self):
        ResourceRecord("example.com", RecordType.AAAA, "2001:db8::1")
        ResourceRecord("example.com", RecordType.AAAA, "::1")

    def test_rejects_bad_ipv6(self):
        for bad in ("2001:db8", "nocolons", "1:2:3:4:5:6:7:8:9", "xyzg::1"):
            with pytest.raises(ValueError):
                ResourceRecord("example.com", RecordType.AAAA, bad)

    def test_rejects_negative_ttl(self):
        with pytest.raises(ValueError):
            ResourceRecord("example.com", RecordType.A, "192.0.2.1", ttl=-1)

    def test_key_identity(self):
        a = ResourceRecord("example.com", RecordType.A, "192.0.2.1")
        b = ResourceRecord("example.com", RecordType.A, "192.0.2.1", ttl=60)
        assert a.key() == b.key()  # TTL not part of identity


class TestRRSet:
    def test_dedup_on_add(self):
        rrset = RRSet("example.com", RecordType.A)
        rrset.add("192.0.2.1")
        rrset.add("192.0.2.1")
        rrset.add("192.0.2.2")
        assert len(rrset) == 2
        assert rrset.rdatas() == {"192.0.2.1", "192.0.2.2"}
