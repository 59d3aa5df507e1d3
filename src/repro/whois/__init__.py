"""WHOIS substrate: thin records, registry database, domain lifecycle.

The registrant-change detector (paper Section 4.2) relies on one signal: the
registry-controlled *Creation Date* in thin WHOIS records, which only changes
when a domain is deleted and subsequently re-registered. This package models
the thin record (:mod:`repro.whois.record`), the post-expiration lifecycle
(auto-renew grace, redemption, pending delete, release, drop-catch;
:mod:`repro.whois.lifecycle`), and the registry database that emits
creation-date observations (:mod:`repro.whois.registry`).
"""
