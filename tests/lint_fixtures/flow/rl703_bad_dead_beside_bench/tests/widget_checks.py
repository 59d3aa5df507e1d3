"""Fixture test file (not named ``test_*`` so pytest leaves it alone):
reads ``test_only_widget``, which keeps nothing alive."""

from repro.core.widgets import test_only_widget


def check_widget():
    assert test_only_widget() == "test"
