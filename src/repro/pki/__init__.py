"""Web PKI substrate: keys, certificates, and issuing CAs.

Certificates here carry exactly the fields the paper's taxonomy (Table 1)
groups into subscriber authentication, key authorization, issuer
information, and certificate metadata. Cryptographic operations are
simulated — keys are opaque identities with deterministic fingerprints —
because nothing in the paper's pipelines depends on real cryptography, only
on the *bookkeeping* of which party holds which key for which name.
Modules: :mod:`repro.pki.keys`, :mod:`repro.pki.certificate` and
:mod:`repro.pki.ca`.
"""
