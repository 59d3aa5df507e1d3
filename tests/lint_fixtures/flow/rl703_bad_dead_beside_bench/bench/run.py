"""Fixture bench harness: the only reader of ``bench_only_widget``."""

from repro.core.widgets import bench_only_widget


def run():
    return bench_only_widget()
