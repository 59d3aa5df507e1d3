"""The three third-party stale-certificate rules, each written once.

Each module mirrors one methodology subsection of the paper:

* :class:`KeyCompromiseDetector` — Section 4.1: cross-reference daily CRL
  collections with the CT corpus, filter outliers, split out the
  key-compromise reason.
* :class:`RegistrantChangeDetector` — Section 4.2: intersect registry
  creation dates with certificate validity windows.
* :class:`ManagedTlsDetector` — Section 4.3: day-over-day disappearance of
  Cloudflare NS/CNAME delegation (:class:`DepartureTracker`) for domains
  holding Cloudflare-managed certificates.

Each rule is a function or small state machine in its module
(``revocation_outcome``/``revocation_findings``, ``re_registration_findings``,
``DepartureTracker``/``ManagedCertificateJoin``). The batch detectors above
drive it over index lookups and satisfy the batch-only :class:`Detector`
protocol the pipeline registry iterates; the incremental wrappers in
:mod:`repro.stream.detectors` drive the same code over events.
"""

from repro.core.detectors.base import Detector
from repro.core.detectors.key_compromise import KeyCompromiseDetector, RevocationJoinStats
from repro.core.detectors.registrant_change import (
    RegistrantChangeDetector,
    RegistrantJoinStats,
)
from repro.core.detectors.managed_tls import (
    CLOUDFLARE_MANAGED_SAN_SUFFIX,
    DepartureJoinStats,
    DepartureTracker,
    ManagedTlsDetector,
    is_cloudflare_managed_certificate,
)
from repro.core.detectors.first_party import KeyRotationDetector, Rotation

__all__ = [
    "Detector",
    "KeyCompromiseDetector",
    "RevocationJoinStats",
    "RegistrantChangeDetector",
    "RegistrantJoinStats",
    "ManagedTlsDetector",
    "DepartureJoinStats",
    "DepartureTracker",
    "CLOUDFLARE_MANAGED_SAN_SUFFIX",
    "is_cloudflare_managed_certificate",
    "KeyRotationDetector",
    "Rotation",
]
