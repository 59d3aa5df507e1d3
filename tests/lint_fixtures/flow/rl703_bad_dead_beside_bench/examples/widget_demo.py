"""Fixture example: reads ``test_only_widget``, which keeps nothing alive."""

from repro.core.widgets import test_only_widget

print(test_only_widget())
