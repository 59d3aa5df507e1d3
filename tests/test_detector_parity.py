"""Batch, sharded and stream runs agree beyond the findings set.

* Join statistics: each detector reports the same ``RevocationJoinStats``
  / ``RegistrantJoinStats`` / ``DepartureJoinStats`` on a completed world
  whether ``detect`` ran it or the stream engine fed it event by event.
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
from repro.stream import StreamEngine


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
    engine = StreamEngine(bundle, revocation_cutoff_day=cutoff)
    assert engine.replay().complete
    return {key: detector.stats for key, detector in engine._detectors.items()}


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
