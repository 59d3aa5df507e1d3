"""The detector protocol.

The three pipelines of Sections 4.1–4.3 share one shape: construct one
from the data it joins against, feed it the dataset it consumes via
``detect(inputs, findings)``, and read join accounting from ``stats``.
The batch pipeline iterates a registry of detectors with this shape
instead of hard-coding each class, the parallel engine
(:mod:`repro.parallel`) relies on detectors being uniformly constructible
inside worker processes, and the stream engine builds the
same registry entries and feeds them per event through the incremental
calls ``detect`` loops over.
"""

from __future__ import annotations

from typing import Any, List, Optional, Protocol, runtime_checkable

from repro.core.stale import StaleCertificate, StaleFindings


@runtime_checkable
class Detector(Protocol):
    """The shape shared by all staleness detectors.

    ``inputs`` is whatever dataset the detector joins: a CRL series for
    key compromise, (domain, creation day) pairs for registrant change, or
    a :class:`~repro.dns.snapshots.CloudflareScans` for managed TLS. ``detect``
    appends to (and returns) *findings*; ``stats`` exposes the detector's
    join accounting. ``finalize`` returns what the detector held back until
    its input ended, and ``findings`` is the converged view so far.
    """

    def detect(
        self, inputs: Any, findings: Optional[StaleFindings] = None
    ) -> StaleFindings:
        ...

    def finalize(self) -> List[StaleCertificate]:
        ...

    def findings(self) -> List[StaleCertificate]:
        ...

    @property
    def stats(self) -> Any:
        ...
