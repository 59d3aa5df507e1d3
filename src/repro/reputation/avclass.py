"""AVClass2-style malware family extraction (paper [66]).

Given the raw vendor labels of a file report, extract the most plausible
family tag by tokenizing each label, discarding generic tokens, normalizing
aliases via the Malpedia-style table, and majority-voting across vendors —
the same coarse procedure AVClass2 applies at scale.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, List, Optional

from repro.reputation.malpedia import resolve_alias

#: Tokens that carry no family information.
_GENERIC_TOKENS = frozenset(
    {
        "trojan", "mal", "malware", "w32", "w64", "win32", "win64", "gen",
        "generic", "variant", "heur", "agent", "application", "riskware",
        "suspicious", "behaveslike", "a", "b", "c", "grayware", "backdoor",
        "downloader", "virus", "spyware", "ransomware", "other", "unknown",
    }
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize_label(label: str) -> List[str]:
    """Lower-case alphanumeric tokens of one AV label."""
    return _TOKEN_RE.findall(label.lower())


def extract_family(vendor_labels: Iterable[str]) -> Optional[str]:
    """Majority-vote family across vendor labels; None if nothing survives
    generic-token filtering."""
    votes: Counter = Counter()
    for label in vendor_labels:
        seen_in_label = set()
        for token in tokenize_label(label):
            if token in _GENERIC_TOKENS or token.isdigit() or len(token) < 3:
                continue
            family = resolve_alias(token)
            if family not in seen_in_label:
                votes[family] += 1
                seen_in_label.add(family)
    if not votes:
        return None
    family, _count = votes.most_common(1)[0]
    return family
