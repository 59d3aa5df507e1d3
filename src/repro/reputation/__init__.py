"""Domain-reputation substrate (the paper's VirusTotal analysis, Table 5).

Simulates the external threat-intelligence stack the paper queried:

* :mod:`repro.reputation.virustotal` — a VT-like store of per-domain
  malicious URL verdicts and associated file submissions, with vendor
  counts and ``first_submission`` dates;
* :mod:`repro.reputation.avclass` — AVClass2-style malware-family tag
  extraction from vendor labels;
* :mod:`repro.reputation.malpedia` — family alias resolution.
"""

from repro.reputation.virustotal import (
    FileReport,
    UrlVerdict,
    VirusTotalStore,
    build_store_from_ownership,
)
from repro.reputation.avclass import extract_family
from repro.reputation.malpedia import resolve_alias

__all__ = [
    "FileReport",
    "UrlVerdict",
    "VirusTotalStore",
    "build_store_from_ownership",
    "extract_family",
    "resolve_alias",
]
