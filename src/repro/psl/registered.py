"""Domain-name helpers built on the Public Suffix List.

These are the primitives the measurement pipelines use to group findings:
the paper reports counts of stale certificates, stale FQDNs, and stale e2LDs
(Table 4), where the e2LD grouping is done exactly as here — the registrable
label plus the effective TLD.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.psl.data import default_psl
from repro.psl.rules import PublicSuffixList

_LABEL_RE = re.compile(r"^(?!-)[a-z0-9_-]{1,63}(?<!-)$")


@dataclass(frozen=True)
class DomainName:
    """A normalized, validated DNS name (no trailing dot, lowercase).

    Wildcard leftmost labels (``*.example.com``) are allowed because they
    appear in certificate SAN entries.
    """

    name: str

    def __post_init__(self) -> None:
        normalized = self.name.strip().strip(".").lower()
        if normalized != self.name:
            object.__setattr__(self, "name", normalized)
        if not self.name:
            raise ValueError("empty domain name")
        if len(self.name) > 253:
            raise ValueError(f"domain name too long: {self.name[:64]}...")
        labels = self.name.split(".")
        for index, label in enumerate(labels):
            if label == "*" and index == 0:
                continue
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label {label!r} in {self.name!r}")

    def __str__(self) -> str:
        return self.name

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.name.split("."))

    @property
    def is_wildcard(self) -> bool:
        return self.name.startswith("*.")

    def without_wildcard(self) -> "DomainName":
        """The base name covered by a wildcard SAN (``*.a.com`` -> ``a.com``)."""
        if self.is_wildcard:
            return DomainName(self.name[2:])
        return self

    def parent(self) -> Optional["DomainName"]:
        labels = self.name.split(".")
        if len(labels) <= 1:
            return None
        return DomainName(".".join(labels[1:]))

    def e2ld(self, psl: Optional[PublicSuffixList] = None) -> Optional[str]:
        """The effective second-level domain, or None for bare suffixes."""
        return (psl or default_psl()).registrable_domain(self.without_wildcard().name)


def e2ld(domain: str, psl: Optional[PublicSuffixList] = None) -> Optional[str]:
    """Effective 2LD of a raw domain string (``foo.bar.co.uk`` -> ``bar.co.uk``)."""
    return DomainName(domain).e2ld(psl)


def is_subdomain_of(candidate: str, ancestor: str) -> bool:
    """Whether *candidate* equals or is beneath *ancestor* (label-aligned)."""
    c = DomainName(candidate).name
    a = DomainName(ancestor).name
    return c == a or c.endswith("." + a)


def matches_wildcard(pattern: str, hostname: str) -> bool:
    """RFC 6125-style wildcard match: ``*`` covers exactly one leftmost label."""
    p = DomainName(pattern)
    h = DomainName(hostname)
    if not p.is_wildcard:
        return p.name == h.name
    host_labels = h.labels
    pattern_labels = p.labels
    if len(host_labels) != len(pattern_labels):
        return False
    return host_labels[1:] == pattern_labels[1:]
