"""Public Suffix List (PSL) implementation.

The paper reports results in terms of *effective second-level domains*
(e2LDs): the registerable label directly beneath the effective TLD
(Section 2.1, e.g. ``foo.co.uk``). This package implements the PSL matching
algorithm — normal rules, ``*.`` wildcard rules, and ``!`` exception rules —
over an embedded suffix dataset, and exposes the domain-name helpers used by
every detector.
"""

from repro.psl.rules import PslRule, PublicSuffixList, parse_rules
from repro.psl.data import DEFAULT_SUFFIXES, default_psl
from repro.psl.registered import (
    DomainName,
    e2ld,
    is_subdomain_of,
)

__all__ = [
    "PslRule",
    "PublicSuffixList",
    "parse_rules",
    "DEFAULT_SUFFIXES",
    "default_psl",
    "DomainName",
    "e2ld",
    "is_subdomain_of",
]
