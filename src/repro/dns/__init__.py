"""DNS substrate: records, zones, and daily snapshots.

The managed-TLS departure detector (paper Section 4.3) consumes *daily DNS
snapshots* of A/AAAA/NS/CNAME records for every effective second-level
domain, mirroring the paper's active-DNS dataset built from CZDS zone files.
This package provides the record model (:mod:`repro.dns.records`), the
zone store the simulated world edits (:mod:`repro.dns.zone`), and the
per-day snapshot store (:mod:`repro.dns.snapshots`).
"""
