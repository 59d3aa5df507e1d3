"""Certificate revocation substrate.

Covers the machinery from paper Section 4.1: RFC 5280 CRLs with reason codes
and Mozilla's permitted subset (:mod:`repro.revocation.reasons`,
:mod:`repro.revocation.crl`), per-CA CRL publication with CCADB-style
mandatory disclosure (:mod:`repro.revocation.publisher`), a daily fetcher
that experiences anti-scraping failures (Appendix B / Table 7,
:mod:`repro.revocation.fetcher`), and the CRLite filter cascade the
ablation study compares against (:mod:`repro.revocation.crlite`).
"""
