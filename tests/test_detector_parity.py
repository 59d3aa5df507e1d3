"""Batch, sharded and stream runs agree beyond the findings set.

* Join statistics: each batch detector and its stream wrapper report the
  same ``RevocationJoinStats`` / ``RegistrantJoinStats`` /
  ``DepartureJoinStats`` on a completed world.
* Order: every engine hands findings out in ``canonical_order_key`` order,
  so batch, ``workers=2`` and stream lists are equal element by element.
  Byte-identical artifacts under any ``PYTHONHASHSEED``, shard count and
  directory order are checked end to end in ``test_determinism.py``.
"""

from __future__ import annotations

import pytest

from repro import MeasurementPipeline
from repro.core.pipeline import DETECTOR_REGISTRY, PipelineConfig
from repro.data import open_bundle
from repro.ecosystem.timeline import DEFAULT_TIMELINE
from repro.stream import (
    IncrementalKeyCompromiseDetector,
    IncrementalManagedTlsDetector,
    IncrementalRegistrantChangeDetector,
    StreamEngine,
    build_event_stream,
)
from repro.stream.events import EventType


@pytest.fixture(scope="module")
def streamgen_world(streamgen_dir):
    return open_bundle(streamgen_dir), DEFAULT_TIMELINE.revocation_cutoff


@pytest.fixture(scope="module")
def simulated_world(small_world):
    return small_world.to_bundle(), small_world.config.timeline.revocation_cutoff


@pytest.fixture(params=["simulated_world", "streamgen_world"])
def world(request):
    return request.getfixturevalue(request.param)


def batch_stats(bundle, cutoff):
    config = PipelineConfig(revocation_cutoff_day=cutoff)
    stats = {}
    for spec in DETECTOR_REGISTRY:
        detector = spec.build(bundle, config)
        detector.detect(spec.inputs(bundle))
        stats[spec.key] = detector.stats
    return stats


def stream_stats(bundle, cutoff):
    wrappers = (
        IncrementalKeyCompromiseDetector(bundle.corpus, cutoff),
        IncrementalRegistrantChangeDetector(bundle.corpus),
        IncrementalManagedTlsDetector(bundle.corpus),
    )
    by_type = {wrapper.event_type: wrapper for wrapper in wrappers}
    for event in build_event_stream(bundle):
        if event.event_type is EventType.CT_ENTRY_LOGGED:
            for wrapper in wrappers:
                wrapper.register(event.row)
        else:
            by_type[event.event_type].consume(event)
    for wrapper in wrappers:
        wrapper.finalize()
    return {wrapper.name: wrapper.stats for wrapper in wrappers}


class TestJoinStatsParity:
    def test_every_detector_reports_the_same_join_stats(self, world):
        bundle, cutoff = world
        batch = batch_stats(bundle, cutoff)
        assert batch["managed_tls"].departures_detected > 0
        assert batch["registrant_change"].findings > 0
        assert stream_stats(bundle, cutoff) == batch


class TestFindingsOrder:
    def test_batch_sharded_and_stream_lists_equal(self, simulated_world):
        bundle, cutoff = simulated_world
        batch = MeasurementPipeline.run_bundle(bundle, revocation_cutoff_day=cutoff)
        sharded = MeasurementPipeline.run_bundle(
            bundle, revocation_cutoff_day=cutoff, workers=2
        )
        stream = StreamEngine(bundle, revocation_cutoff_day=cutoff).replay()
        expected = list(batch.findings.all_findings())
        assert list(sharded.findings.all_findings()) == expected
        assert list(stream.findings.all_findings()) == expected
