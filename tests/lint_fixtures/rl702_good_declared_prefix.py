"""RL702 good: a fork prefix declared with the label each draw appends."""

from repro.util.rng import ForkPrefix, label_suffix


def draw(seed, apex, day):
    prefix = ForkPrefix(seed, "streamgen", "dns-loss", apex)
    return prefix.draw(label_suffix(str(day)))
