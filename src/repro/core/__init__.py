"""The paper's primary contribution: stale-certificate detection and
certificate-lifetime policy analysis.

* :mod:`repro.core.taxonomy` — the certificate-information and invalidation-
  event taxonomies (paper Tables 1 and 2).
* :mod:`repro.core.stale` — the :class:`StaleCertificate` finding record and
  staleness accounting.
* :mod:`repro.core.detectors` — the three third-party staleness pipelines
  (Sections 4.1–4.3).
* :mod:`repro.core.lifetime` — survival analysis and maximum-lifetime capping
  simulation (Section 6).
* :mod:`repro.core.pipeline` — end-to-end orchestration over the datasets.
"""

from repro.core.stale import StalenessClass, StaleCertificate, StaleFindings
from repro.core.taxonomy import (
    CERTIFICATE_INFORMATION_TAXONOMY,
    INVALIDATION_EVENTS,
    CertificateInfoCategory,
    ControlledBy,
    InvalidationEvent,
    SecurityImplication,
)
from repro.core.detectors import (
    KeyCompromiseDetector,
    KeyRotationDetector,
    ManagedTlsDetector,
    RegistrantChangeDetector,
)
from repro.core.advisory import AdvisoryReport, StaleCertificateAdvisor
from repro.core.lifetime import (
    CapResult,
    LifetimePolicySimulator,
)
from repro.core.pipeline import MeasurementPipeline, PipelineResult

__all__ = [
    "StalenessClass",
    "StaleCertificate",
    "StaleFindings",
    "CERTIFICATE_INFORMATION_TAXONOMY",
    "INVALIDATION_EVENTS",
    "CertificateInfoCategory",
    "ControlledBy",
    "InvalidationEvent",
    "SecurityImplication",
    "KeyCompromiseDetector",
    "KeyRotationDetector",
    "AdvisoryReport",
    "StaleCertificateAdvisor",
    "ManagedTlsDetector",
    "RegistrantChangeDetector",
    "CapResult",
    "LifetimePolicySimulator",
    "MeasurementPipeline",
    "PipelineResult",
]
