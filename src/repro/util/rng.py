"""Deterministic random-number streams.

Every stochastic component of the reproduction draws from an :class:`RngStream`
derived from a master seed plus a label path (for example
``("ecosystem", "registrations")``). Labelled derivation means adding a new
subsystem or reordering draws in one subsystem never perturbs another, so
benchmark series stay stable across code changes.

:func:`split_seed` is the definition of a labelled seed. A hot loop that
draws many seeds under one fixed label path (one per scan day, say) holds
a :class:`ForkPrefix` instead: the hash state after the fixed labels,
copied per draw, so each draw hashes only its final label and equals
``split_seed`` on the full path by construction. A loop that tests each
draw against one probability compares :meth:`ForkPrefix.draw_bytes` with
that probability's :func:`draw_bound`, computed once; one that needs a
stream per label reseeds a single ``random.Random`` with each draw and
samples it through module functions such as :func:`poisson`.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def split_seed(master_seed: int, *labels: str) -> int:
    """Derive a child seed from a master seed and a label path.

    Uses SHA-256 over the seed and labels so that derivation is stable across
    Python versions and platforms (``hash()`` is salted and unsuitable).
    """
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x00")
        digest.update(label.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class ForkPrefix:
    """The ``split_seed`` hash state after ``(master_seed, *labels)``.

    ``ForkPrefix(seed, *labels).draw(label_suffix(last))`` equals
    ``split_seed(seed, *labels, last)``: the state is copied, so draws are
    independent of each other and of their order. The caller encodes a
    final label once with :func:`label_suffix` and reuses the bytes.
    """

    __slots__ = ("_state",)

    def __init__(self, master_seed: int, *labels: str) -> None:
        state = hashlib.sha256(str(master_seed).encode("utf-8"))
        for label in labels:
            state.update(label_suffix(label))
        self._state = state

    def draw(self, suffix: bytes) -> int:
        """The child seed for the final label encoded as *suffix*."""
        return int.from_bytes(self.draw_bytes(suffix), "big")

    def draw_bytes(self, suffix: bytes) -> bytes:
        """The 8 big-endian bytes :meth:`draw` reads as its integer."""
        state = self._state.copy()
        state.update(suffix)
        return state.digest()[:8]


_TWO_POW_64 = float(1 << 64)


def draw_bound(probability: float) -> bytes:
    """The bytes *B* with ``draw_bytes(s) < B`` exactly when
    ``draw(s) / 2**64 < probability``.

    For a probability in (0, 1], *B* is the smallest integer ``D`` with
    ``float(D) >= probability * 2**64``, in 8 big-endian bytes. ``float``
    is monotone on integers, so ``float(draw) < probability * 2**64``
    holds exactly for the draws below ``D``, and 8-byte big-endian
    strings compare as their integers do. The bound of a probability of
    0 or less is 0, which no draw is below; every draw is below one above
    1, and that bound, nine 0xff bytes, sorts above every 8-byte string.
    """
    if probability > 1:
        return b"\xff" * 9
    target = probability * _TWO_POW_64
    lo, hi = 0, math.ceil(target)
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo.to_bytes(8, "big")


def label_suffix(label: str) -> bytes:
    """The bytes one label adds to a ``split_seed`` path."""
    return b"\x00" + label.encode("utf-8")


class RngStream:
    """A labelled, independently-seeded random stream.

    Thin wrapper over ``random.Random`` adding stream splitting and the
    handful of distributions the simulator needs (Zipf-like ranks, bounded
    Pareto day gaps).
    """

    def __init__(self, master_seed: int, *labels: str) -> None:
        self._master_seed = master_seed
        self._labels = labels
        self._rng = random.Random(split_seed(master_seed, *labels))

    def split(self, *labels: str) -> "RngStream":
        """Derive a child stream; draws on the child never affect the parent."""
        return RngStream(self._master_seed, *self._labels, *labels)

    # -- direct delegation -------------------------------------------------

    def random(self) -> float:
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(population, k)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        return self._rng.choices(items, weights=weights, k=1)[0]

    def cumulative_choice(
        self, items: Sequence[T], cum_weights: Sequence[float]
    ) -> T:
        """:meth:`weighted_choice` on ``accumulate(weights)``, built once
        by the caller: ``choices`` accumulates *weights* the same way, so
        the pick is the same."""
        return self._rng.choices(items, cum_weights=cum_weights, k=1)[0]

    # -- domain-specific draws ---------------------------------------------

    def bernoulli(self, p: float) -> bool:
        """True with probability *p*."""
        return self._rng.random() < p

    def poisson(self, lam: float) -> int:
        """Poisson draw via inversion (see :func:`poisson`)."""
        return poisson(self._rng, lam)

    def zipf_rank(self, n: int, exponent: float = 1.0) -> int:
        """Draw a 1-based rank from a truncated Zipf distribution over ``1..n``.

        Used to assign popularity ranks to simulated domains so that top-list
        membership (Table 6) has a realistic long tail.
        """
        if n <= 0:
            raise ValueError("population must be positive")
        # Inverse-CDF on the harmonic weights; cached per (n, exponent).
        cdf = _zipf_cdf(n, exponent)
        target = self._rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1

    def bounded_pareto_days(self, minimum: int, maximum: int, alpha: float = 1.2) -> int:
        """Heavy-tailed day gap in ``[minimum, maximum]``.

        Models inter-event times like domain holding periods, where most
        domains turn over quickly but a long tail is held for years.
        """
        if minimum >= maximum:
            return minimum
        u = self._rng.random()
        lo = float(minimum) or 0.5
        hi = float(maximum)
        value = (lo ** -alpha - u * (lo ** -alpha - hi ** -alpha)) ** (-1.0 / alpha)
        return max(minimum, min(maximum, int(round(value))))


def poisson(rng: random.Random, lam: float) -> int:
    """Poisson draw from *rng* via inversion (lam expected to be modest,
    < ~700). A loop that draws one count per label reseeds one
    ``random.Random`` per label and calls this, where an
    :class:`RngStream` per label would hash the whole label path anew."""
    if lam <= 0:
        return 0
    # Knuth's algorithm in log space to stay stable for larger lambda.
    if lam < 30:
        limit = 2.718281828459045 ** (-lam)
        k = 0
        product = rng.random()
        while product > limit:
            k += 1
            product *= rng.random()
        return k
    # Normal approximation with continuity correction for large lambda.
    draw = rng.gauss(lam, lam ** 0.5)
    return max(0, int(round(draw)))


# Deterministic memo (same key -> identical recomputed value), so
# per-process divergence after fork is harmless.
_ZIPF_CACHE: dict = {}


def _zipf_cdf(n: int, exponent: float) -> List[float]:
    key = (n, exponent)
    cached = _ZIPF_CACHE.get(key)
    if cached is not None:
        return cached
    weights = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    if len(_ZIPF_CACHE) > 32:  # keep the cache tiny; configs are few
        _ZIPF_CACHE.clear()
    _ZIPF_CACHE[key] = cdf
    return cdf
