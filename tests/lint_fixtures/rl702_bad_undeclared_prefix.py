"""RL702 bad: a fork prefix whose label tuple (plus the label each draw
appends) is not declared in RNG_LABELS."""

from repro.util.rng import ForkPrefix, label_suffix


def draw(seed, apex, day):
    return ForkPrefix(seed, "fixture-prefix", apex).draw(label_suffix(str(day)))
