"""A dead export whose only caller of ``planted_helper`` is itself, and a
suppressed export whose callee ``kept_helper`` stays live through it."""


def used_widget():
    return "used"


def planted_helper():
    return "helper"


def planted_dead():
    return planted_helper()


def kept_helper():
    return "kept"


def kept_widget():  # repro-lint: disable=RL703  # kept: exercised by downstream notebooks
    return kept_helper()
