"""Fixture CLI anchor: references the live widget only."""

from repro.core.widgets import used_widget


def main():
    return used_widget()
